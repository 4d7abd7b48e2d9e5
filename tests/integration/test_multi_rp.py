"""Multi-partition operation ("one or more RPs", Sec. III-A)."""

import numpy as np
import pytest

from repro.accel import make_filter_module, scene_image, sobel3x3, median3x3
from repro.drivers.fileio import RmDescriptor
from repro.drivers.mmio import HostPort
from repro.drivers.rvcap_driver import RvCapDriver
from repro.soc.builder import build_soc
from repro.soc.config import SocConfig


@pytest.fixture()
def dual_soc():
    soc = build_soc(SocConfig(num_rps=2), with_case_study_modules=False)
    soc.register_module(make_filter_module("sobel"), rp_index=0)
    soc.register_module(make_filter_module("median"), rp_index=1)
    return soc


def _load(soc, driver, name, rp_index, address):
    rp = soc.partitions[rp_index]
    bs = soc.bitgen.generate(rp, soc.module(name))
    soc.ddr_write(address, bs.to_bytes())
    descriptor = RmDescriptor(name, f"{name.upper()}.PBI", address, bs.nbytes)
    return driver.init_reconfig_process(descriptor)


class TestTopology:
    def test_partitions_do_not_overlap(self, dual_soc):
        a, b = dual_soc.partitions
        a_end = a.base_far.linear_index() + a.frames
        assert b.base_far.linear_index() >= a_end

    def test_switch_has_port_per_rp(self, dual_soc):
        assert set(dual_soc.rvcap.switch.ports) == {"icap", "rm", "rm1"}


class TestIndependentReconfiguration:
    def test_both_partitions_loadable(self, dual_soc):
        soc = dual_soc
        driver = RvCapDriver(HostPort(soc))
        base = soc.config.layout.ddr_base
        _load(soc, driver, "sobel", 0, base + (16 << 20))
        assert soc.active_module(0) == "sobel"
        assert soc.active_module(1) is None
        _load(soc, driver, "median", 1, base + (32 << 20))
        assert soc.active_module(0) == "sobel"   # RP0 untouched
        assert soc.active_module(1) == "median"

    def test_reloading_one_rp_preserves_the_other(self, dual_soc):
        soc = dual_soc
        driver = RvCapDriver(HostPort(soc))
        base = soc.config.layout.ddr_base
        _load(soc, driver, "sobel", 0, base + (16 << 20))
        _load(soc, driver, "median", 1, base + (32 << 20))
        before = soc.config_memory.read_frames(
            soc.partitions[1].base_far, soc.partitions[1].frames).copy()
        _load(soc, driver, "sobel", 0, base + (16 << 20))
        after = soc.config_memory.read_frames(
            soc.partitions[1].base_far, soc.partitions[1].frames)
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
    def test_load_decouples_only_its_own_rp(self, dual_soc, controller):
        from repro.drivers.hwicap_driver import HwIcapDriver

        soc = dual_soc
        obs = soc.attach_observability()
        driver = (RvCapDriver if controller == "rvcap"
                  else HwIcapDriver)(HostPort(soc))
        rp0 = soc.partitions[0]
        before = soc.config_memory.read_frames(rp0.base_far,
                                               rp0.frames).copy()
        _load(soc, driver, "median", 1, soc.config.layout.ddr_base
              + (32 << 20))
        assert soc.active_module(1) == "median"
        assert [s.name for s in obs.tracer.spans if s.track == "rp"] == [
            "rp1_decoupled"]
        # RP 0's isolators follow DECOUPLE bit 0, which no write set
        assert all(not value & 1
                   for _cycle, value in obs.tracer.signals["rp_decouple"])
        after = soc.config_memory.read_frames(rp0.base_far, rp0.frames)
        assert np.array_equal(before, after)

    def test_selective_decoupling(self, dual_soc):
        soc = dual_soc
        driver = RvCapDriver(HostPort(soc))
        driver.decouple_accel(0b10)  # decouple RP1 only
        assert soc.rvcap.rm_stream_isolators[1].decoupled
        assert not soc.rvcap.rm_stream_isolators[0].decoupled
        driver.decouple_accel(0)


class TestAccelerationAcrossPartitions:
    def test_run_filters_from_both_partitions(self, dual_soc):
        soc = dual_soc
        driver = RvCapDriver(HostPort(soc))
        base = soc.config.layout.ddr_base
        _load(soc, driver, "sobel", 0, base + (16 << 20))
        _load(soc, driver, "median", 1, base + (32 << 20))
        image = scene_image(512)
        src, dst = base + (64 << 20), base + (80 << 20)
        soc.ddr_write(src, image.tobytes())

        driver.run_accelerator(src, dst, image.size, image.size, rp_index=0)
        out0 = np.frombuffer(soc.ddr_read(dst, image.size),
                             dtype=np.uint8).reshape(image.shape)
        assert np.array_equal(out0, sobel3x3(image))

        driver.run_accelerator(src, dst, image.size, image.size, rp_index=1)
        out1 = np.frombuffer(soc.ddr_read(dst, image.size),
                             dtype=np.uint8).reshape(image.shape)
        assert np.array_equal(out1, median3x3(image))

    def test_manager_serves_each_module_on_its_rp(self, dual_soc):
        from repro.drivers.manager import ReconfigurationManager

        soc = dual_soc
        manager = ReconfigurationManager(soc)
        manager.provision_sdcard()
        manager.init_rmodules()
        image = scene_image(512)
        out0, _times = manager.process_image("sobel", image)
        rp0 = soc.partitions[0]
        held = soc.config_memory.read_frames(rp0.base_far, rp0.frames).copy()
        out1, times = manager.process_image("median", image)
        assert times.tr_us > 0
        after = soc.config_memory.read_frames(rp0.base_far, rp0.frames)
        assert np.array_equal(after, held)  # median's load spared RP 0
        assert (soc.active_module(0), soc.active_module(1)) == (
            "sobel", "median")
        assert np.array_equal(out0, sobel3x3(image))
        assert np.array_equal(out1, median3x3(image))
        assert manager.load_module("sobel") is None
        again, times = manager.process_image("sobel", image)
        assert times.tr_us == 0.0
        assert np.array_equal(again, out0)

    def test_single_rp_default_unchanged(self):
        """The reference configuration still behaves identically."""
        soc = build_soc()
        assert len(soc.partitions) == 1
        assert soc.rvcap.switch.ports == ["icap", "rm"]
