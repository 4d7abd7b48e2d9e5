"""RV-CAP controller composition tests (register-level, no drivers)."""

import pytest

from repro.core import dma as dr
from repro.core import rp_control as rc
from repro.drivers.mmio import HostPort
from repro.errors import BusError
from repro.eval.scenarios import make_test_bitstream, small_rp


class TestReconfigurationMode:
    def test_register_level_reconfiguration(self, bare_soc):
        """Drive the whole Fig. 2 flow with raw register writes."""
        soc = bare_soc
        layout = soc.config.layout
        pbit = make_test_bitstream().to_bytes()
        src = layout.ddr_base + 0x10_0000
        soc.ddr_write(src, pbit)

        def w32(addr, value):
            result = soc.xbar.write(addr, value.to_bytes(4, "little"), soc.sim.now)
            soc.sim.advance_to(result.complete_at)

        w32(layout.rp_ctrl_base + rc.DECOUPLE_OFFSET, 1)
        w32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 1)
        assert soc.rvcap.in_reconfiguration_mode
        w32(layout.dma_base + dr.MM2S_DMACR, dr.CR_RS)
        w32(layout.dma_base + dr.MM2S_SA, src & 0xFFFF_FFFF)
        w32(layout.dma_base + dr.MM2S_SA_MSB, src >> 32)
        w32(layout.dma_base + dr.MM2S_LENGTH, len(pbit))
        soc.sim.run()
        assert soc.icap.reconfigurations_completed == 1
        assert not soc.icap.error
        assert soc.config_memory.frames_written == small_rp().frames

    def test_throughput_near_icap_ceiling(self, bare_soc):
        soc = bare_soc
        layout = soc.config.layout
        pbit = make_test_bitstream().to_bytes()
        src = layout.ddr_base + 0x10_0000
        soc.ddr_write(src, pbit)

        def w32(addr, value):
            result = soc.xbar.write(addr, value.to_bytes(4, "little"), soc.sim.now)
            soc.sim.advance_to(result.complete_at)

        w32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 1)
        w32(layout.dma_base + dr.MM2S_DMACR, dr.CR_RS)
        w32(layout.dma_base + dr.MM2S_SA, src & 0xFFFF_FFFF)
        start = soc.sim.now
        w32(layout.dma_base + dr.MM2S_LENGTH, len(pbit))
        soc.sim.run()
        cycles = soc.rvcap.dma.mm2s.last_complete_cycle - start
        mb_s = len(pbit) / (cycles / 100e6) / 1e6
        # small bitstream: overhead visible, but well above 350 MB/s
        assert mb_s > 350

    def test_switch_cannot_change_midstream(self, soc):
        """SELECT_ICAP=0 while the sobel bitstream streams into the ICAP
        is refused; the transfer finishes on the ICAP route."""
        layout = soc.config.layout
        pbit = soc.bitgen.generate(soc.rp, soc.module("sobel")).to_bytes()
        src = layout.ddr_base + 0x10_0000
        soc.ddr_write(src, pbit)
        obs = soc.attach_observability()
        port = HostPort(soc)
        port.write32(layout.rp_ctrl_base + rc.DECOUPLE_OFFSET, 1)
        port.write32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 1)
        port.write32(layout.dma_base + dr.MM2S_DMACR, dr.CR_RS)
        port.write32(layout.dma_base + dr.MM2S_SA, src & 0xFFFF_FFFF)
        port.write32(layout.dma_base + dr.MM2S_SA_MSB, src >> 32)
        port.write32(layout.dma_base + dr.MM2S_LENGTH, len(pbit))
        port.elapse(5_000)
        assert 0 < soc.rvcap.dma.mm2s.bytes_done < len(pbit)
        edges = list(obs.tracer.signals["axis_icap_sel"])
        assert edges[-1][1] == 1
        with pytest.raises(BusError, match="mid-transfer"):
            port.write32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 0)
        assert soc.rvcap.switch.selected == "icap"
        assert port.read32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET) == 1
        # the refused write leaves no edge on the select signal
        assert obs.tracer.signals["axis_icap_sel"] == edges
        # rewriting the current selection switches nothing
        port.write32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 1)
        assert soc.rvcap.switch.selected == "icap"
        soc.sim.run()
        assert soc.rvcap.dma.mm2s.bytes_done == len(pbit)
        assert soc.icap.reconfigurations_completed == 1
        assert not soc.icap.error
        assert soc.active_module(0) == "sobel"
        # once the channel is idle the switch may change again
        port.write32(layout.rp_ctrl_base + rc.SELECT_ICAP_OFFSET, 0)
        assert soc.rvcap.switch.selected == "rm"


class TestAccelerationMode:
    def test_rm_stream_attachment(self, soc):
        from repro.accel import make_accelerator
        rm = make_accelerator("sobel")
        soc.rvcap.attach_rm_streams(rm, rm)
        assert soc.rvcap.rm_stream_isolators[0].sink is rm
        assert soc.rvcap.rm_stream_isolators[0].source is rm

    def test_decoupled_rm_receives_nothing(self, soc):
        from repro.accel import make_accelerator
        rm = make_accelerator("sobel")
        soc.rvcap.attach_rm_streams(rm, rm)
        soc.rvcap.rp_control._write_decouple(1)
        soc.rvcap.switch.select("rm")
        soc.rvcap.switch.accept(b"\x00" * 64, now=0)
        assert len(rm._in_bytes) == 0
        assert soc.rvcap.rm_stream_isolators[0].dropped_bytes == 64
