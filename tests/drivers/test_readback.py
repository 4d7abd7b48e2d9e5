"""Configuration readback through the HWICAP (Sec. III-C's R/W claim)."""

import numpy as np
import pytest

from repro.drivers.hwicap_driver import HwIcapDriver
from repro.drivers.mmio import HostPort


@pytest.fixture()
def loaded(provisioned_manager_factory):
    soc, manager = provisioned_manager_factory()
    manager.load_module("sobel")
    return soc, manager


class TestReadback:
    def test_readback_matches_written_frames(self, loaded):
        soc, manager = loaded
        driver = HwIcapDriver(HostPort(soc))
        frames = 4  # keep the register-level loop quick
        data = driver.read_frames(soc.rp.base_far, frames)
        expected = soc.bitgen.frame_payload(soc.rp, soc.module("sobel"))
        wpf = soc.config_memory.device.words_per_frame
        assert np.array_equal(data, expected[: frames * wpf])

    def test_readback_of_unconfigured_region_is_zero(self, bare_soc):
        from repro.fpga.frames import FrameAddress
        driver = HwIcapDriver(HostPort(bare_soc))
        data = driver.read_frames(FrameAddress(row=5, column=77), 2)
        assert not data.any()

    def test_reconfiguration_still_works_after_readback(self, loaded):
        soc, manager = loaded
        driver = HwIcapDriver(HostPort(soc))
        driver.read_frames(soc.rp.base_far, 2)
        result = manager.load_module("median")
        assert result is not None
        assert soc.active_module(0) == "median"
        assert not soc.icap.error

    def test_verify_after_write_workflow(self, loaded):
        """The safe-DPR verification loop: write, read back, compare."""
        soc, manager = loaded
        driver = HwIcapDriver(HostPort(soc))
        wpf = soc.config_memory.device.words_per_frame
        expected = soc.bitgen.frame_payload(soc.rp, soc.module("sobel"))
        # sample three disjoint windows across the partition
        for start_frame in (0, soc.rp.frames // 2, soc.rp.frames - 3):
            far = soc.rp.base_far.advance(start_frame)
            data = driver.read_frames(far, 3)
            window = expected[start_frame * wpf:(start_frame + 3) * wpf]
            assert np.array_equal(data, window)

    def test_readback_consumes_time(self, loaded):
        soc, _manager = loaded
        driver = HwIcapDriver(HostPort(soc))
        t0 = soc.sim.now
        driver.read_frames(soc.rp.base_far, 4)
        # hundreds of register-level accesses: thousands of cycles
        assert soc.sim.now - t0 > 2000
