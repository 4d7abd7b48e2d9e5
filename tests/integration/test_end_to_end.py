"""Cross-subsystem integration flows."""

import numpy as np

from repro.accel import scene_image, sobel3x3
from repro.drivers.fileio import PbitStore, SpiSdBlockDevice
from repro.drivers.mmio import HostPort
from repro.fat32 import Fat32FileSystem


class TestSdToFabricFlow:
    def test_pbit_travels_sd_fat32_ddr_dma_icap(self, provisioned_manager_factory):
        """The complete Listing-1 pipeline, every hop real."""
        soc, manager = provisioned_manager_factory()
        # 1. the bitstream bytes on the SD card...
        from repro.fat32 import SdBackdoorBlockDevice
        fs = Fat32FileSystem.mount(SdBackdoorBlockDevice(soc.sdcard))
        card_bytes = fs.read_file("SOBEL.PBI")
        # 2. ...equal the DDR copy init_RModules made...
        d = manager.descriptor("sobel")
        assert soc.ddr_read(d.start_address, d.pbit_size) == card_bytes
        # 3. ...and after reconfiguration the configuration memory holds
        # exactly the module's frame payload.
        manager.load_module("sobel")
        payload = soc.bitgen.frame_payload(soc.rp, soc.module("sobel"))
        stored = soc.config_memory.read_frames(soc.rp.base_far, soc.rp.frames)
        assert np.array_equal(stored, payload)

    def test_spi_timed_load_path(self, provisioned_manager_factory):
        """Loading a pbit over the timed SPI path costs real seconds of
        simulated time, unlike the backdoor mount."""
        soc, _manager = provisioned_manager_factory()
        port = HostPort(soc)
        spi_fs = Fat32FileSystem.mount(SpiSdBlockDevice(port))
        t0 = soc.sim.now
        store = PbitStore(port, spi_fs)
        # use a tiny file to keep the test quick: write one via backdoor
        from repro.fat32 import SdBackdoorBlockDevice
        bd_fs = Fat32FileSystem.mount(SdBackdoorBlockDevice(soc.sdcard))
        bd_fs.write_file("TINY.PBI", b"\x00" * 2048)
        store.init_rmodules(["tiny"])
        elapsed_ms = (soc.sim.now - t0) / 100e3
        assert store.descriptor("tiny").pbit_size == 2048
        assert elapsed_ms > 1.0  # SPI at ~2 MB/s: >1 ms for 2 KB + dirs
        # the directory cluster and the file cluster, block by block
        assert (t0, soc.sim.now) == (104_044, 875_372)


class TestModuleIdentityTracking:
    def test_soc_recognizes_loaded_module_from_frames(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("gaussian")
        assert soc.active_module(0) == "gaussian"
        manager.load_module("median")
        assert soc.active_module(0) == "median"

    def test_unknown_bitstream_deactivates_rm(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("sobel")
        # hand-roll a bitstream for an unregistered module
        from repro.fpga.partition import ReconfigurableModule, ResourceBudget
        stranger = ReconfigurableModule("stranger", ResourceBudget(1, 1, 0, 0))
        bs = soc.bitgen.generate(soc.rp, stranger)
        src = soc.config.layout.ddr_base + (100 << 20)
        soc.ddr_write(src, bs.to_bytes())
        from repro.drivers.fileio import RmDescriptor
        descriptor = RmDescriptor("stranger", "S.PBI", src, bs.nbytes)
        manager.rvcap.init_reconfig_process(descriptor)
        assert soc.active_module(0) is None
        assert soc.rvcap.rm_stream_isolators[0].sink is None


class TestRepeatedOperation:
    def test_many_swaps_remain_stable(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        sequence = ["sobel", "median", "gaussian"] * 3
        for name in sequence:
            manager.load_module(name)
            assert soc.active_module(0) == name
        assert soc.icap.reconfigurations_completed == len(sequence)
        assert not soc.icap.error

    def test_image_pipeline_after_many_swaps(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        image = scene_image(512)
        for _ in range(2):
            manager.load_module("median")
            manager.load_module("sobel")
        out, _times = manager.process_image("sobel", image)
        assert np.array_equal(out, sobel3x3(image))
