import numpy as np
import pytest

from repro.accel import GOLDEN_FILTERS, checkerboard_image, scene_image
from repro.errors import ControllerError


class TestProvisioning:
    def test_sdcard_holds_all_pbits(self, shared_manager):
        soc, manager = shared_manager
        from repro.fat32 import Fat32FileSystem, SdBackdoorBlockDevice
        fs = Fat32FileSystem.mount(SdBackdoorBlockDevice(soc.sdcard))
        names = {e.name for e in fs.list_dir()}
        assert names == {"GAUSSIAN.PBI", "MEDIAN.PBI", "SOBEL.PBI"}
        assert fs.file_size("SOBEL.PBI") == 650_892

    def test_card_equals_the_per_block_backdoor_copy(self, soc):
        """``provision_sdcard`` hands the image over in one call; the card
        ends up exactly as a block-by-block backdoor copy leaves it."""
        from repro.drivers.manager import ReconfigurationManager
        from repro.fat32 import SdBackdoorBlockDevice, make_disk_image
        from repro.soc.sdcard import SdCard
        ReconfigurationManager(soc).provision_sdcard()
        files = {f"{name.upper()}.PBI":
                 soc.bitgen.generate(soc.rp, soc.module(name)).to_bytes()
                 for name in soc.registered_modules}
        image = make_disk_image(files)
        reference = SdCard(soc.sdcard.blocks)
        backdoor = SdBackdoorBlockDevice(reference)
        for lba in sorted(image.populated_blocks()):
            backdoor.write_block(lba, image.read_block(lba))
        assert soc.sdcard.storage.keys() == reference.storage.keys()
        assert soc.sdcard.storage == reference.storage

    def test_descriptors_populated(self, shared_manager):
        _soc, manager = shared_manager
        d = manager.descriptor("gaussian")
        assert d.pbit_size == 650_892
        assert d.file_name == "GAUSSIAN.PBI"

    def test_descriptor_before_init_raises(self, soc):
        from repro.drivers.manager import ReconfigurationManager
        manager = ReconfigurationManager(soc)
        with pytest.raises(ControllerError):
            manager.descriptor("sobel")


class TestModuleLoading:
    def test_load_module_activates_rm(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        result = manager.load_module("median")
        assert result is not None
        assert soc.active_module_name == "median"
        assert soc.rp.loaded_module.name == "median"

    def test_reload_skipped_when_cached(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        assert manager.load_module("sobel") is not None
        assert manager.load_module("sobel") is None  # cached
        assert manager.load_module("sobel", force=True) is not None

    def test_swap_between_modules(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("sobel")
        manager.load_module("gaussian")
        assert soc.active_module_name == "gaussian"
        manager.load_module("sobel")
        assert soc.active_module_name == "sobel"


class TestImagePipeline:
    def test_all_filters_bit_exact(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        image = checkerboard_image(512)
        for name in soc.registered_modules:  # the provisioned set
            output, _times = manager.process_image(name, image)
            assert np.array_equal(output, GOLDEN_FILTERS[name](image)), name

    def test_times_structure(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        image = scene_image(512)
        _out, times = manager.process_image("sobel", image)
        assert times.tex_us == pytest.approx(
            times.td_us + times.tr_us + times.tc_us)

    def test_cached_module_skips_reconfig_time(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        image = scene_image(512)
        _o, first = manager.process_image("sobel", image)
        _o, second = manager.process_image("sobel", image)
        assert first.tr_us > 0
        assert second.tr_us == 0 and second.td_us == 0

    def test_rejects_bad_image(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        with pytest.raises(ControllerError):
            manager.process_image("sobel", np.zeros((4, 4), dtype=np.float32))

    def test_rejects_frame_size_mismatch(self, provisioned_manager_factory):
        # a 64x64 image on the 512x512 RM would leave S2MM short of its
        # bytes: a completion timeout, then a channel still busy for
        # the next, correct call
        soc, manager = provisioned_manager_factory()
        dma = soc.rvcap.dma

        def traffic():
            return (soc.icap.reconfigurations_completed,
                    dma.mm2s.transfers_completed,
                    dma.s2mm.transfers_completed)

        before = traffic()
        with pytest.raises(ControllerError, match=r"64x64.*512x512"):
            manager.process_image("sobel", scene_image(64))
        assert traffic() == before  # no reconfiguration, no DMA
        image = scene_image(512)
        out, _times = manager.process_image("sobel", image)
        assert np.array_equal(out, GOLDEN_FILTERS["sobel"](image))

    def test_hwicap_controller_variant(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory(controller="hwicap")
        # reduce runtime: small image still exercises the full path
        image = scene_image(512)
        out, times = manager.process_image("median", image)
        assert np.array_equal(out, GOLDEN_FILTERS["median"](image))
        assert times.tr_us > 10_000  # CPU-copy reconfig is slow


class TestExplicitAddressRegression:
    """process_image must honour explicit-but-falsy DMA addresses.

    The old ``src_address or default`` idiom silently replaced address 0
    — a perfectly valid target on a platform whose DDR window starts at
    0 — with the scratch default, streaming the wrong memory.
    """

    @staticmethod
    def _zero_base_manager():
        from repro.drivers.manager import ReconfigurationManager
        from repro.soc.builder import build_soc
        from repro.soc.config import MemoryLayout, SocConfig
        # DDR window starting at address 0; boot ROM moved clear of it,
        # every other peripheral already sits above 16 MB
        layout = MemoryLayout(ddr_base=0x0000_0000,
                              ddr_size=16 * 1024 * 1024,
                              bootrom_base=0x4000_0000)
        soc = build_soc(SocConfig(layout=layout))
        manager = ReconfigurationManager(soc)
        manager.provision_sdcard()
        # the default pbit placement (ddr_base + 16 MB) is outside this
        # small window; pack the store at +1 MB instead
        from repro.fat32 import Fat32FileSystem, SdBackdoorBlockDevice
        from repro.drivers.fileio import PbitStore
        fs = Fat32FileSystem.mount(SdBackdoorBlockDevice(soc.sdcard))
        manager.store = PbitStore(manager.port, fs)
        manager.store.init_rmodules(soc.registered_modules,
                                    base_address=1 << 20)
        return soc, manager

    def test_source_address_zero_is_respected(self):
        soc, manager = self._zero_base_manager()
        image = checkerboard_image(512)
        soc.ddr_write(0, image.tobytes())  # plant the frame at address 0
        out, _times = manager.process_image(
            "sobel", image, src_address=0, dst_address=8 << 20)
        assert np.array_equal(out, GOLDEN_FILTERS["sobel"](image))

    def test_destination_address_zero_is_respected(self):
        soc, manager = self._zero_base_manager()
        image = checkerboard_image(512)
        out, _times = manager.process_image(
            "median", image, src_address=8 << 20, dst_address=0)
        golden = GOLDEN_FILTERS["median"](image)
        assert np.array_equal(out, golden)
        # the result really landed at address 0
        written = np.frombuffer(soc.ddr_read(0, image.size),
                                dtype=np.uint8).reshape(image.shape)
        assert np.array_equal(written, golden)


class TestFailedReconfigInvalidatesState:
    """A failed DPR must clear ``loaded_module``/``last_reconfig``.

    The partition may be partially scrubbed when ``init_reconfig_process``
    raises; leaving the previous module name cached makes a later load
    of that module skip the DPR against stale state.
    """

    def test_reload_of_previous_module_reprograms(
            self, provisioned_manager_factory):
        from repro.faults import install_mem_fault, remove_mem_fault

        soc, manager = provisioned_manager_factory()
        assert manager.load_module("sobel") is not None
        channel = soc.rvcap.dma.mm2s
        d = manager.descriptor("median")
        proxy = install_mem_fault(channel, fail_read_at=d.pbit_size // 2)
        try:
            with pytest.raises(ControllerError):
                manager.load_module("median")
        finally:
            remove_mem_fault(channel, proxy)
        # the failure invalidated the cached driver state...
        assert manager.loaded_module is None
        assert manager.last_reconfig is None
        # ...so after the driver-level abort (ICAP parser reset), a load
        # of the pre-failure module really reprograms instead of
        # skipping against the scrubbed partition
        manager.rvcap.abort_reconfig()
        result = manager.load_module("sobel")
        assert result is not None
        assert soc.active_module_name == "sobel"
