"""Failure-path integration: the system must fail loudly, never half-apply."""

import numpy as np
import pytest

from repro.drivers.fileio import RmDescriptor
from repro.errors import ControllerError
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.partition import ReconfigurableModule, ResourceBudget


class TestCorruptBitstreams:
    def test_crc_corruption_blocks_activation(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("evil", ResourceBudget(1, 1, 0, 0))
        bs = gen.generate(soc.rp, module)
        src = soc.config.layout.ddr_base + (100 << 20)
        soc.ddr_write(src, bs.to_bytes())
        descriptor = RmDescriptor("evil", "E.PBI", src, bs.nbytes)
        before = soc.config_memory.read_frames(soc.rp.base_far,
                                               soc.rp.frames).copy()
        with pytest.raises(ControllerError, match="CRC check failed"):
            manager.rvcap.init_reconfig_process(descriptor)
        assert soc.icap.outcome == "error"
        assert soc.icap.reconfigurations_completed == 0
        assert soc.active_module(0) is None
        assert soc.rvcap.rm_stream_isolators[0].sink is None
        # safe-DPR: frame writes are staged until the CRC proves the
        # bitstream, so a corrupted stream leaves the fabric untouched
        after = soc.config_memory.read_frames(soc.rp.base_far, soc.rp.frames)
        assert np.array_equal(before, after)
        assert soc.config_memory.frames_written == 0

    def test_recovery_after_crc_error(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("evil", ResourceBudget(1, 1, 0, 0))
        bs = gen.generate(soc.rp, module)
        src = soc.config.layout.ddr_base + (100 << 20)
        soc.ddr_write(src, bs.to_bytes())
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(
                RmDescriptor("evil", "E.PBI", src, bs.nbytes))
        # port-level reset clears the error; a good bitstream then loads
        soc.icap.reset()
        result = manager.load_module("sobel")
        assert result is not None
        assert soc.active_module(0) == "sobel"

    def test_truncated_bitstream_never_completes(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        truncated = RmDescriptor("trunc", d.file_name, d.start_address,
                                 d.pbit_size // 2)
        with pytest.raises(ControllerError):
            # transfer finishes but the ICAP never saw DESYNC: the SoC
            # cannot recognize a module, and the manager flags it
            manager.rvcap.init_reconfig_process(truncated)


class TestDdrFaultAcceptance:
    """The issue's acceptance scenario: a DDR read fault mid-bitstream
    yields Err_Irq (not IOC), leaves configuration memory unmodified,
    and recover-and-retry then completes cleanly."""

    @pytest.mark.parametrize("mode", ["interrupt", "polling"])
    def test_ddr_fault_then_recovery(self, provisioned_manager_factory, mode):
        from repro.core import dma as dma_regs
        from repro.faults.injectors import install_mem_fault, remove_mem_fault

        soc, manager = provisioned_manager_factory()
        d = manager.descriptor("sobel")
        channel = soc.rvcap.dma.mm2s
        before = soc.config_memory.read_frames(soc.rp.base_far,
                                               soc.rp.frames).copy()
        proxy = install_mem_fault(channel, fail_read_at=d.pbit_size // 2)
        with pytest.raises(ControllerError):
            manager.rvcap.init_reconfig_process(d, mode=mode)
        remove_mem_fault(channel, proxy)
        # the error latched as Err_Irq, never as a completion
        assert channel.transfers_errored == 1
        assert channel.transfers_completed == 0
        assert not channel.status & dma_regs.SR_IOC_IRQ
        # configuration memory untouched by the half-delivered stream
        after = soc.config_memory.read_frames(soc.rp.base_far, soc.rp.frames)
        assert np.array_equal(before, after)
        # recovery brings the module up with the reference timing
        result = manager.rvcap.recover_and_retry(d, mode=mode)
        assert soc.active_module(0) == "sobel"
        assert result.tr_us == pytest.approx(1651.0, rel=0.02)


class TestDecouplingSafety:
    def test_rm_traffic_during_reconfig_is_isolated(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("sobel")
        rm = soc.rvcap.rm_stream_isolators[0].sink
        # decouple (as the driver does during DPR) and push data at the RM
        soc.rvcap.rp_control._write_decouple(1)
        soc.rvcap.switch.select("rm")
        soc.rvcap.switch.accept(b"\x00" * 512, now=soc.sim.now)
        assert len(rm._in_bytes) == 0  # nothing leaked into the RP
        soc.rvcap.rp_control._write_decouple(0)


class TestIcapErrorLatching:
    def test_wrong_device_bitstream_rejected(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        from repro.fpga.device import FpgaDevice
        alien = Bitgen(FpgaDevice(name="alien", idcode=0x1234567))
        module = ReconfigurableModule("alien_mod", ResourceBudget(1, 1, 0, 0))
        bs = alien.generate(soc.rp, module)
        src = soc.config.layout.ddr_base + (100 << 20)
        soc.ddr_write(src, bs.to_bytes())
        before = soc.config_memory.read_frames(soc.rp.base_far,
                                               soc.rp.frames).copy()
        with pytest.raises(ControllerError, match="IDCODE check failed"):
            manager.rvcap.init_reconfig_process(
                RmDescriptor("alien_mod", "A.PBI", src, bs.nbytes))
        assert soc.icap.outcome == "error"
        after = soc.config_memory.read_frames(soc.rp.base_far, soc.rp.frames)
        assert np.array_equal(before, after)
        assert soc.config_memory.frames_written == 0
