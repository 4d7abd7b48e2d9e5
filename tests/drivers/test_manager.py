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

    def test_each_frame_payload_is_synthesized_once(self):
        """Registration synthesizes each module's frame payload, and
        provisioning assembles the module's bitstream around it."""
        from unittest import mock

        from repro.eval.scenarios import reference_setup
        from repro.fpga.bitgen import Bitgen
        with mock.patch.object(Bitgen, "frame_payload", autospec=True,
                               side_effect=Bitgen.frame_payload) as spy:
            soc, _manager = reference_setup()
        assert spy.call_count == len(soc.registered_modules) == 3

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
        assert soc.active_module(0) == "median"

    def test_reload_skipped_when_cached(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        assert manager.load_module("sobel") is not None
        assert manager.load_module("sobel") is None  # cached
        assert manager.load_module("sobel", force=True) is not None

    def test_swap_between_modules(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("sobel")
        manager.load_module("gaussian")
        assert soc.active_module(0) == "gaussian"
        manager.load_module("sobel")
        assert soc.active_module(0) == "sobel"


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


class TestConfigurationMemoryOwnsTheLoadedModule:
    """The SoC's view, derived from configuration memory, is the only
    record of what the RP holds: a failed load leaves the previous
    module loaded, and a mislabelled load cannot make the next request
    skip its DPR."""

    @pytest.mark.parametrize("controller,fault", [
        ("rvcap", "crc"), ("rvcap", "truncate"), ("rvcap", "dma"),
        ("hwicap", "crc"), ("hwicap", "truncate"),
    ])
    def test_failed_load_keeps_the_previous_module(self, controller, fault):
        from dataclasses import replace

        from repro.faults import install_mem_fault, remove_mem_fault
        from repro.faults.injectors import flip_word_bit
        from repro.sched import build_sched_soc

        manager = build_sched_soc(2, frame=16, controller=controller)
        manager.init_rmodules()
        soc, rp = manager.soc, manager.soc.rp
        assert manager.load_module("rm0") is not None
        held = soc.config_memory.read_frames(rp.base_far, rp.frames).copy()
        d = manager.descriptor("rm1")
        pristine = soc.ddr_read(d.start_address, d.pbit_size)
        descriptor, proxy = d, None
        if fault == "crc":
            soc.ddr_write(d.start_address,
                          flip_word_bit(pristine, d.pbit_size // 8, 3))
        elif fault == "truncate":
            descriptor = replace(d, pbit_size=d.pbit_size // 8 * 4)
        else:
            proxy = install_mem_fault(soc.rvcap.dma.mm2s,
                                      fail_read_at=d.pbit_size // 2)
        with pytest.raises(ControllerError):
            manager.load_module("rm1", descriptor=descriptor)
        if proxy is not None:
            remove_mem_fault(soc.rvcap.dma.mm2s, proxy)
        soc.ddr_write(d.start_address, pristine)
        after = soc.config_memory.read_frames(rp.base_far, rp.frames)
        assert np.array_equal(after, held)
        assert soc.active_module(0) == "rm0"
        assert not soc.rvcap.rp_control.decoupled
        assert manager.load_module("rm0") is None
        # the failure path reset the ICAP: no manual cleanup needed
        assert manager.load_module("rm1") is not None
        assert soc.active_module(0) == "rm1"

    def test_mislabelled_load_cannot_skip_the_next_dpr(
            self, provisioned_manager_factory):
        from dataclasses import replace

        soc, manager = provisioned_manager_factory()
        assert manager.load_module("median") is not None
        mislabelled = replace(manager.descriptor("gaussian"), name="sobel")
        with pytest.raises(ControllerError, match="holds 'gaussian'"):
            manager.load_module("sobel", descriptor=mislabelled)
        assert soc.active_module(0) == "gaussian"
        image = scene_image(512)
        out, times = manager.process_image("median", image)
        assert times.tr_us > 0
        assert np.array_equal(out, GOLDEN_FILTERS["median"](image))
