from unittest import mock

import numpy as np
import pytest

from repro.axi.crossbar import AxiCrossbar
from repro.axi.stream import BufferSource, CaptureSink
from repro.core import dma as dr
from repro.core.dma import AxiDma, DmaChannel
from repro.core.rp_control import PORT_ICAP
from repro.core.rvcap import RvCapController
from repro.errors import ControllerError
from repro.faults.injectors import install_mem_fault
from repro.fpga.bitgen import Bitgen
from repro.fpga.compression import rle_compress
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.mem.ddr import DdrController, DdrTiming
from repro.sim import Simulator

DDR_SIZE = 1 << 20


@pytest.fixture()
def system():
    sim = Simulator()
    ddr = DdrController(DDR_SIZE)
    dma = AxiDma(sim, ddr)
    return sim, ddr, dma


def _w(dma, offset, value, now=0):
    dma.write(offset, value.to_bytes(4, "little"), now)


def _r(dma, offset, now=0):
    return dma.read(offset, 4, now).value()


class TestMm2s:
    def test_transfer_reaches_sink(self, system):
        sim, ddr, dma = system
        payload = bytes(range(256)) * 4
        ddr.load_image(0x1000, payload)
        sink = CaptureSink()
        dma.mm2s.sink = sink
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_SA, 0x1000)
        _w(dma, dr.MM2S_LENGTH, len(payload))
        sim.run()
        assert bytes(sink.data) == payload

    def test_status_progression(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        assert _r(dma, dr.MM2S_DMASR) & dr.SR_HALTED
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        assert not _r(dma, dr.MM2S_DMASR) & dr.SR_HALTED
        _w(dma, dr.MM2S_LENGTH, 64)
        assert dma.mm2s.busy
        sim.run()
        sr = _r(dma, dr.MM2S_DMASR, now=sim.now)
        assert sr & dr.SR_IDLE and sr & dr.SR_IOC_IRQ

    def test_irq_callback_on_completion(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        fired = []
        dma.mm2s.irq_callback = lambda: fired.append(sim.now)
        _w(dma, dr.MM2S_DMACR, dr.CR_RS | dr.CR_IOC_IRQ_EN)
        _w(dma, dr.MM2S_LENGTH, 128)
        sim.run()
        assert len(fired) == 1

    def test_no_irq_when_disabled(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        fired = []
        dma.mm2s.irq_callback = lambda: fired.append(1)
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, 128)
        sim.run()
        assert fired == []

    def test_ioc_write_one_clear(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, 64)
        sim.run()
        _w(dma, dr.MM2S_DMASR, dr.SR_IOC_IRQ, now=sim.now)
        assert not _r(dma, dr.MM2S_DMASR, now=sim.now) & dr.SR_IOC_IRQ

    def test_length_without_rs_rejected(self, system):
        _sim, _ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        with pytest.raises(ControllerError):
            _w(dma, dr.MM2S_LENGTH, 64)

    def test_length_while_busy_rejected(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, 4096)
        with pytest.raises(ControllerError):
            _w(dma, dr.MM2S_LENGTH, 64)

    def test_64bit_address(self, system):
        sim, ddr, dma = system
        dma.mm2s.sink = CaptureSink()
        _w(dma, dr.MM2S_SA, 0x8000_0000)
        _w(dma, dr.MM2S_SA_MSB, 0x1)
        assert dma.mm2s.address == 0x1_8000_0000

    def test_reset_halts(self, system):
        _sim, _ddr, dma = system
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_DMACR, dr.CR_RESET)
        assert _r(dma, dr.MM2S_DMASR) & dr.SR_HALTED


class TestS2mm:
    def test_stream_to_memory(self, system):
        sim, ddr, dma = system
        payload = b"stream-to-memory" * 16
        dma.s2mm.source = BufferSource(payload)
        _w(dma, dr.S2MM_DMACR, dr.CR_RS)
        _w(dma, dr.S2MM_DA, 0x2000)
        _w(dma, dr.S2MM_LENGTH, len(payload))
        sim.run()
        assert ddr.dump(0x2000, len(payload)) == payload

    def test_short_packet_ends_transfer(self, system):
        sim, ddr, dma = system
        dma.s2mm.source = BufferSource(b"only20bytes_of_data!")
        _w(dma, dr.S2MM_DMACR, dr.CR_RS)
        _w(dma, dr.S2MM_DA, 0x0)
        _w(dma, dr.S2MM_LENGTH, 4096)  # more than the source produces
        sim.run()
        assert dma.s2mm.bytes_done == 20
        assert _r(dma, dr.S2MM_DMASR, now=sim.now) & dr.SR_IDLE


class TestErrorPaths:
    """PG021 error semantics: an errored burst is never a completion."""

    def _faulted_mm2s(self, system, *, control, fail_at=256, length=4096):
        sim, ddr, dma = system
        from repro.faults.injectors import install_mem_fault
        dma.mm2s.sink = CaptureSink()
        install_mem_fault(dma.mm2s, fail_read_at=fail_at)
        _w(dma, dr.MM2S_DMACR, control)
        _w(dma, dr.MM2S_LENGTH, length)
        sim.run()
        return dma

    def test_errored_burst_sets_err_not_ioc(self, system):
        dma = self._faulted_mm2s(system, control=dr.CR_RS)
        sr = dma.mm2s.read_sr()
        assert sr & dr.SR_ERR_IRQ
        assert not sr & dr.SR_IOC_IRQ
        assert not sr & dr.SR_IDLE
        assert sr & dr.SR_HALTED  # the channel halts and RS drops
        assert not dma.mm2s.control & dr.CR_RS

    def test_errored_burst_not_counted_complete(self, system):
        dma = self._faulted_mm2s(system, control=dr.CR_RS)
        assert dma.mm2s.transfers_completed == 0
        assert dma.mm2s.transfers_errored == 1

    def test_err_irq_callback_gated_on_enable(self, system):
        sim, ddr, dma = system
        fired = []
        dma.mm2s.irq_callback = lambda: fired.append(sim.now)
        self._faulted_mm2s(system, control=dr.CR_RS | dr.CR_ERR_IRQ_EN)
        assert len(fired) == 1

    def test_no_ioc_callback_on_error(self, system):
        sim, ddr, dma = system
        fired = []
        dma.mm2s.irq_callback = lambda: fired.append(sim.now)
        # IOC enabled but ERR not: an errored transfer stays silent
        self._faulted_mm2s(system, control=dr.CR_RS | dr.CR_IOC_IRQ_EN)
        assert fired == []

    def test_err_bit_write_one_clear(self, system):
        sim, _ddr, dma = system
        self._faulted_mm2s(system, control=dr.CR_RS)
        _w(dma, dr.MM2S_DMASR, dr.SR_ERR_IRQ, now=sim.now)
        assert not _r(dma, dr.MM2S_DMASR, now=sim.now) & dr.SR_ERR_IRQ

    def test_s2mm_write_fault(self, system):
        sim, ddr, dma = system
        from repro.faults.injectors import install_mem_fault
        dma.s2mm.source = BufferSource(b"x" * 4096)
        install_mem_fault(dma.s2mm, fail_write_at=512)
        _w(dma, dr.S2MM_DMACR, dr.CR_RS)
        _w(dma, dr.S2MM_LENGTH, 4096)
        sim.run()
        sr = dma.s2mm.read_sr()
        assert sr & dr.SR_ERR_IRQ and not sr & dr.SR_IDLE
        assert dma.s2mm.transfers_completed == 0


def _transfer(sim, dma, mm2s, address, length=4096):
    """Run one ``length``-byte transfer from (MM2S) or to (S2MM)
    ``address`` and return its channel."""
    if mm2s:
        channel = dma.mm2s
        channel.sink = CaptureSink()
        registers = (dr.MM2S_DMACR, dr.MM2S_SA, dr.MM2S_LENGTH)
    else:
        channel = dma.s2mm
        channel.source = BufferSource(b"\xa5" * length)
        registers = (dr.S2MM_DMACR, dr.S2MM_DA, dr.S2MM_LENGTH)
    for offset, value in zip(registers, (dr.CR_RS, address, length), strict=True):
        _w(dma, offset, value)
    sim.run()
    return channel


class TestFailedBursts:
    """A transfer that leaves mapped memory fails on the burst that
    leaves it: DECERR past a crossbar region, SLVERR past the DDR.  The
    failed burst moves no data, and the channel halts with Err_Irq."""

    HALTED_ERR = dr.SR_ERR_IRQ | dr.SR_HALTED

    @staticmethod
    def _crossbar_system():
        sim = Simulator()
        ddr = DdrController(DDR_SIZE)
        xbar = AxiCrossbar("dma_xbar")
        xbar.attach("ddr", 0, DDR_SIZE, ddr.port("dma"))
        return sim, xbar, AxiDma(sim, xbar)

    @pytest.mark.parametrize("mm2s, cycle", [(True, 192), (False, 152)])
    def test_leaving_the_crossbar_region_decodes_an_error(self, mm2s, cycle):
        sim, xbar, dma = self._crossbar_system()
        channel = _transfer(sim, dma, mm2s, DDR_SIZE - 1024)
        assert channel.status == self.HALTED_ERR == 0x4001
        assert channel.bytes_done == 1024  # eight bursts, then DECERR
        assert channel.last_complete_cycle == cycle
        assert (channel.transfers_errored, channel.transfers_completed) == (1, 0)
        assert (xbar.transactions, xbar.decode_errors) == (8, 1)

    @pytest.mark.parametrize("mm2s", [True, False])
    def test_unmapped_address_fails_the_first_burst(self, mm2s):
        sim, xbar, dma = self._crossbar_system()
        channel = _transfer(sim, dma, mm2s, DDR_SIZE + 0x1000)
        assert channel.status == self.HALTED_ERR
        assert channel.bytes_done == 0
        assert channel.last_complete_cycle == 24  # the start latency
        assert (xbar.transactions, xbar.decode_errors) == (0, 1)

    @pytest.mark.parametrize("mm2s, cycle", [(True, 160), (False, 136)])
    def test_off_the_end_of_a_bare_ddr_is_a_slave_error(self, system, mm2s,
                                                        cycle):
        sim, ddr, dma = system
        channel = _transfer(sim, dma, mm2s, DDR_SIZE - 1000)
        assert channel.status == self.HALTED_ERR
        assert channel.bytes_done == 896  # seven bursts, then SLVERR
        assert channel.last_complete_cycle == cycle
        assert (channel.transfers_errored, channel.transfers_completed) == (1, 0)


class TestResetAbort:
    """DMACR.Reset must kill the in-flight transfer engine."""

    def test_reset_mid_transfer_aborts(self, system):
        sim, ddr, dma = system
        sink = CaptureSink(bytes_per_cycle=4)
        dma.mm2s.sink = sink
        nbytes = 64 * 1024
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, nbytes)
        sim.advance_to(sim.now + 1000)  # partway into a ~16k-cycle move
        assert dma.mm2s.busy
        _w(dma, dr.MM2S_DMACR, dr.CR_RESET, now=sim.now)
        assert not dma.mm2s.busy
        assert dma.mm2s.transfers_aborted == 1
        sim.run()  # the closed generator must never resume
        assert dma.mm2s.transfers_completed == 0
        assert len(sink.data) < nbytes
        sr = dma.mm2s.read_sr()
        assert sr & dr.SR_HALTED and not sr & (dr.SR_IDLE | dr.SR_IOC_IRQ)

    def test_channel_restartable_after_reset(self, system):
        sim, ddr, dma = system
        payload = bytes(range(256))
        ddr.load_image(0x3000, payload)
        sink = CaptureSink(bytes_per_cycle=4)
        dma.mm2s.sink = sink
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, 32 * 1024)
        sim.advance_to(sim.now + 500)
        _w(dma, dr.MM2S_DMACR, dr.CR_RESET, now=sim.now)
        # second, clean run after the abort
        aborted = len(sink.data)
        _w(dma, dr.MM2S_DMACR, dr.CR_RS, now=sim.now)
        _w(dma, dr.MM2S_SA, 0x3000, now=sim.now)
        _w(dma, dr.MM2S_LENGTH, len(payload), now=sim.now)
        sim.run()
        assert dma.mm2s.transfers_completed == 1
        assert bytes(sink.data[aborted:]) == payload

    def test_reset_when_idle_is_harmless(self, system):
        _sim, _ddr, dma = system
        _w(dma, dr.MM2S_DMACR, dr.CR_RESET)
        assert dma.mm2s.transfers_aborted == 0
        assert dma.mm2s.read_sr() & dr.SR_HALTED


class TestThroughput:
    def test_mm2s_saturates_fast_sink(self, system):
        """With an 8 B/cycle sink the DMA sustains ~1 beat/cycle."""
        sim, ddr, dma = system
        nbytes = 64 * 1024
        sink = CaptureSink(bytes_per_cycle=8)
        dma.mm2s.sink = sink
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, nbytes)
        sim.run()
        cycles = dma.mm2s.last_complete_cycle - dma.mm2s.last_start_cycle
        assert nbytes / cycles > 7.0  # > 7 B/cycle of 8 theoretical

    def test_mm2s_paced_by_slow_sink(self, system):
        """A 4 B/cycle sink (the ICAP) halves the rate: the bottleneck."""
        sim, ddr, dma = system
        nbytes = 64 * 1024
        sink = CaptureSink(bytes_per_cycle=4)
        dma.mm2s.sink = sink
        _w(dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(dma, dr.MM2S_LENGTH, nbytes)
        sim.run()
        cycles = dma.mm2s.last_complete_cycle - dma.mm2s.last_start_cycle
        assert 3.9 < nbytes / cycles <= 4.0


def _partial_bitstream():
    rp = ReconfigurablePartition(
        "dma_rp", RpGeometry(clb_cols=2, bram_cols=0, dsp_cols=0, rows=1),
        ResourceBudget(10**6, 10**6, 10**3, 10**3))
    module = ReconfigurableModule("dma_rm", ResourceBudget(1, 1, 0, 0))
    return Bitgen(rp.device).generate(rp, module).to_bytes()


def _stream_into_icap(image, *, timing=None, decompress=False,
                      fault_proxy=False):
    """Stream ``image`` over crossbar -> DdrPort -> switch -> AXIS2ICAP
    -> ICAP.  Returns the bytes each bulk step committed, the number of
    per-burst ICAP accepts, and the ICAP."""
    sim = Simulator()
    ddr = DdrController(DDR_SIZE, timing)
    xbar = AxiCrossbar("rvcap_xbar")
    xbar.attach("ddr", 0, ddr.size, ddr.port("dma_mm2s"))
    icap = Icap(ConfigMemory(KINTEX7_325T))
    rvcap = RvCapController(sim, xbar, icap, decompress=decompress)
    rvcap.switch.select(PORT_ICAP)
    if fault_proxy:
        install_mem_fault(rvcap.dma.mm2s)  # armed at no offset
    accepts = []
    accept = icap.accept

    def counted_accept(data, now):
        accepts.append(len(data))
        return accept(data, now)

    icap.accept = counted_accept
    steps = []
    bulk_step = DmaChannel._bulk_step

    def spy(channel, *args):
        step = bulk_step(channel, *args)
        if step is not None:
            steps.append(step[0])
        return step

    ddr.load_image(0, image)
    with mock.patch.object(DmaChannel, "_bulk_step", spy):
        _w(rvcap.dma, dr.MM2S_DMACR, dr.CR_RS)
        _w(rvcap.dma, dr.MM2S_LENGTH, len(image))
        sim.run()
    return steps, len(accepts), icap


class TestBulkStep:
    """Which routes stream a bitstream as bulk steps."""

    def test_fdri_payload_streams_as_bulk_steps(self):
        pbit = _partial_bitstream()
        steps, accepts, icap = _stream_into_icap(pbit)
        assert icap.reconfigurations_completed == 1 and not icap.error
        # one step carries the session header, the FDRI payload and the
        # CRC/DESYNC/NOOP trailer alike.  Only the descriptor's first
        # burst (the DDR refuses a run that does not continue its
        # sequential stream) and its partial tail go one by one.
        assert len(steps) == 1
        assert accepts <= 2
        assert accepts == -(-len(pbit) // 128) - sum(steps) // 128

    @pytest.mark.parametrize("route", [
        "fault_proxy", "rle", "device_bandwidth", "burst_longer_than_row"])
    def test_fallback_routes_stream_burst_by_burst(self, route):
        pbit = _partial_bitstream()
        image = pbit
        kwargs = {}
        if route == "fault_proxy":
            kwargs["fault_proxy"] = True
        elif route == "rle":
            words = np.frombuffer(pbit, dtype=">u4").astype(np.uint32)
            image = rle_compress(words).astype(">u4").tobytes()
            kwargs["decompress"] = True
        elif route == "device_bandwidth":
            kwargs["timing"] = DdrTiming(device_beats_per_cycle=2)
        else:
            kwargs["timing"] = DdrTiming(row_bytes=64)
        steps, _accepts, icap = _stream_into_icap(image, **kwargs)
        assert steps == []
        assert icap.reconfigurations_completed == 1 and not icap.error


class TestClosedFormPolls:
    """The S2MM spin's poll count against the loop it stands for."""

    @staticmethod
    def _loop_polls(k, ready, window, spins):
        # after an empty poll returned ``ready`` as the ``spins``-th in a
        # row, the loop advances and polls again while the spin bound
        # and the window allow; count the polls up to the one it yields at
        polls = 0
        while True:
            polls += 1
            if (spins + polls >= dr._MAX_SPINS
                    or ready + polls * k >= window):
                return polls

    @pytest.mark.parametrize("k, ready, window, spins", [
        (2, 100, 140, 1),        # the window cuts the spin
        (2, 100, 141, 1),
        (1, 0, 1, 4095),         # the bound is one poll away
        (2, 100, float("inf"), 1),
        (2, 100, 100 + 2 * 4096, 1),
        (3, 7, 10**6, 3000),     # the bound cuts before the window
    ])
    def test_polls_to_yield_match_the_loop(self, k, ready, window, spins):
        assert (dr._polls_to_yield(k, ready, window, spins)
                == self._loop_polls(k, ready, window, spins))
