"""The DMA engine against its per-burst oracle, over randomized scenarios.

The engine collapses a transfer's per-burst simulation events into one
computed timeline, schedules runs of bursts into the ICAP as single bulk
steps, and skips S2MM's empty polls of a source that declares its
empty-poll law.  The oracle is the generator pair the model started
with, one simulation event per pacing step or poll; it lives here and
is patched over ``DmaChannel._run_mm2s``/``_run_s2mm`` for the
``burst`` runs.  These properties pin the engine to it under
everything that can interrupt a transfer mid-flight: random lengths and
burst geometries, injected bus faults, soft resets (one exactly at a
burst's pacing target, where a bulk step must cut its run), real partial
bitstreams (pristine, corrupted, back to back, followed by a readback
request, behind junk words) with foreign events cutting the batch
window, accelerator round trips whose S2MM spins before MM2S starts,
and the full multi-tenant serving path (where the whole ReplayReport —
statuses, latencies, Tr breakdowns, ICAP busy cycles — and every
metric must come out bit-identical).

The oracle yields one event per pacing step, so it cannot match the
engine's event count.  ``events_processed`` is pinned instead against
the engine with its bulk steps and closed-form polls refused
(``descriptor-per-burst``), whose per-burst loop yields at exactly the
points the closed forms must reproduce.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import GOLDEN_FILTERS, StreamAccelerator, make_accelerator
from repro.axi.crossbar import AxiCrossbar
from repro.axi.stream import BufferSource, CaptureSink
from repro.axi.stream_switch import AxiStreamSwitch
from repro.core import dma as dr
from repro.core.dma import AxiDma, DmaChannel
from repro.core.rp_control import PORT_ICAP
from repro.core.rvcap import RvCapController
from repro.drivers.hwicap_driver import readback_request
from repro.errors import ControllerError
from repro.faults.injectors import (
    DmaResetInjector,
    flip_word_bit,
    install_mem_fault,
    truncate_at_word,
)
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga import packets as pk
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import Command, ConfigRegister
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.mem.ddr import DdrController
from repro.obs import Observability
from repro.sim import Simulator
from repro.sim.kernel import Delay

ENGINES = ("burst", "descriptor")


def _burst_mm2s(self):
    """Oracle MM2S generator: one event per pacing step."""
    if self.sink is None:
        raise ControllerError(f"DMA {self.name}: no stream sink attached")
    addr = self.address
    remaining = self.length
    read_time = self.sim.now
    while remaining:
        nbytes = min(self.burst_bytes, remaining)
        issue_time = read_time
        result = self.mem_port.read(addr, nbytes, read_time)
        if not result.ok:
            return False
        read_time = result.complete_at
        accept_done = self.sink.accept(result.data, result.complete_at)
        addr += nbytes
        remaining -= nbytes
        self.bytes_done += nbytes
        self.bursts_completed += 1
        if self.obs is not None:
            self._h_burst.record(read_time - issue_time)
        # pace the engine: at most one burst ahead of the consumer
        # (models the IP's small store-and-forward FIFO)
        wait = max(read_time, accept_done - self.burst_bytes) - self.sim.now
        if wait > 0:
            if self.obs is not None:
                self._c_stall.inc(wait)
            yield Delay(wait)
    final = max(read_time, accept_done)
    if final > self.sim.now:
        yield Delay(final - self.sim.now)
    return True


def _burst_s2mm(self):
    """Oracle S2MM generator: one event per pacing step or retry."""
    if self.source is None:
        raise ControllerError(f"DMA {self.name}: no stream source attached")
    addr = self.address
    remaining = self.length
    pull_time = self.sim.now
    write_time = self.sim.now
    while remaining:
        nbytes = min(self.burst_bytes, remaining)
        data, ready = self.source.produce(nbytes, max(pull_time, self.sim.now))
        if not data:
            if ready > self.sim.now:
                # source not ready yet (e.g. the filter pipeline is
                # still filling): retry when it says data will exist
                yield Delay(ready - self.sim.now)
                continue
            # TLAST before LENGTH bytes: a short packet ends the
            # transfer (the real IP latches the received length)
            break
        pull_time = ready
        issue_time = max(pull_time, write_time)
        result = self.mem_port.write(addr, data, issue_time)
        if not result.ok:
            return False
        write_time = result.complete_at
        addr += len(data)
        remaining -= len(data)
        self.bytes_done += len(data)
        self.bursts_completed += 1
        if self.obs is not None:
            self._h_burst.record(write_time - issue_time)
        wait = max(pull_time, write_time - self.burst_bytes) - self.sim.now
        if wait > 0:
            if self.obs is not None:
                self._c_stall.inc(wait)
            yield Delay(wait)
    final = max(pull_time, write_time)
    if final > self.sim.now:
        yield Delay(final - self.sim.now)
    return True


def _with_engine(engine, fn):
    """Run ``fn`` under ``engine``: ``descriptor`` (the production
    engine), ``descriptor-per-burst`` (it with every bulk step and the
    switch's empty-poll law refused) or ``burst`` (the oracle
    generators patched in)."""
    if engine == "burst":
        with mock.patch.object(DmaChannel, "_run_mm2s", _burst_mm2s), \
                mock.patch.object(DmaChannel, "_run_s2mm", _burst_s2mm):
            return fn()
    if engine == "descriptor-per-burst":
        with mock.patch.object(DmaChannel, "_bulk_step", return_value=None), \
                mock.patch.object(AxiStreamSwitch, "poll_law",
                                  return_value=None):
            return fn()
    return fn()


def _metrics(registry):
    """Every instrument's full state (snapshot() keeps only summaries)."""
    out = {}
    for instrument in registry.instruments():
        key = instrument.name + instrument.label_suffix
        if hasattr(instrument, "buckets"):
            out[key] = (instrument.count, instrument.total, instrument.min,
                        instrument.max, instrument.cumulative_buckets())
        else:
            out[key] = instrument.value
    return out


def _mm2s_observe(engine, length, burst_beats, seed, *,
                  fault_at=None, reset_delay=None):
    """Every externally visible observable of one MM2S transfer."""
    def run():
        sim = Simulator()
        ddr = DdrController(1 << 20)
        dma = AxiDma(sim, ddr, burst_beats=burst_beats)
        rng = np.random.default_rng(seed)
        payload = rng.integers(0, 256, size=length, dtype=np.uint16).astype(
            np.uint8).tobytes()
        ddr.load_image(0x400, payload)
        sink = CaptureSink(bytes_per_cycle=4)
        channel = dma.mm2s
        channel.sink = sink
        proxy = None
        if fault_at is not None:
            proxy = install_mem_fault(channel, fail_read_at=fault_at)
        if reset_delay is not None:
            DmaResetInjector(sim, channel, reset_delay)
        dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_SA, (0x400).to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_LENGTH, length.to_bytes(4, "little"), 0)
        sim.run()
        return {
            "data": bytes(sink.data),
            "bytes_done": channel.bytes_done,
            "status": channel.status,
            "completed": channel.transfers_completed,
            "errored": channel.transfers_errored,
            "aborted": channel.transfers_aborted,
            "start_cycle": channel.last_start_cycle,
            "complete_cycle": channel.last_complete_cycle,
            "final_now": sim.now,
            "faults_injected": proxy.faults_injected if proxy else 0,
        }
    return _with_engine(engine, run)


class TestTransferEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5000),
        st.sampled_from([1, 2, 4, 8, 16, 32]),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_clean_transfer_is_cycle_identical(self, length, burst_beats,
                                               seed):
        burst, desc = (
            _mm2s_observe(engine, length, burst_beats, seed)
            for engine in ENGINES
        )
        assert burst == desc

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=64, max_value=4000),
        st.sampled_from([2, 8, 16]),
        st.integers(min_value=0, max_value=2**16),
        st.floats(min_value=0.0, max_value=0.99),
    )
    def test_mid_transfer_bus_fault_is_cycle_identical(
            self, length, burst_beats, seed, fault_frac):
        # the faulting burst must split out of the descriptor's fused
        # timeline at exactly the oracle's cycle
        fault_at = int(fault_frac * length)
        burst, desc = (
            _mm2s_observe(engine, length, burst_beats, seed,
                          fault_at=fault_at)
            for engine in ENGINES
        )
        assert burst == desc
        assert burst["faults_injected"] == 1

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=64, max_value=4000),
        st.sampled_from([2, 8, 16]),
        st.integers(min_value=1, max_value=400),
    )
    def test_mid_transfer_soft_reset_is_cycle_identical(
            self, length, burst_beats, reset_delay):
        burst, desc = (
            _mm2s_observe(engine, length, burst_beats, seed=7,
                          reset_delay=reset_delay)
            for engine in ENGINES
        )
        assert burst == desc

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=4000))
    def test_s2mm_roundtrip_is_cycle_identical(self, payload):
        def run():
            sim = Simulator()
            ddr = DdrController(1 << 20)
            dma = AxiDma(sim, ddr)
            dma.s2mm.source = BufferSource(payload)
            dma.write(dr.S2MM_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
            dma.write(dr.S2MM_DA, (0x800).to_bytes(4, "little"), 0)
            dma.write(dr.S2MM_LENGTH, len(payload).to_bytes(4, "little"), 0)
            sim.run()
            return (ddr.dump(0x800, len(payload)), dma.s2mm.bytes_done,
                    dma.s2mm.status, dma.s2mm.last_complete_cycle, sim.now)

        burst, desc = (_with_engine(engine, run) for engine in ENGINES)
        assert burst == desc


_MODULE = ReconfigurableModule("prop_rm", ResourceBudget(1, 1, 0, 0))

geometries = st.builds(
    RpGeometry,
    clb_cols=st.integers(min_value=1, max_value=3),
    bram_cols=st.integers(min_value=0, max_value=1),
    dsp_cols=st.integers(min_value=0, max_value=1),
    rows=st.just(1),
)


def _partial_bitstream(geometry, form, where, bit):
    """A Bitgen partial bitstream, pristine or corrupted at ``where``,
    or in one of three longer forms: twice back to back, followed by a
    readback request of up to two of its frames (then a DESYNC and a
    NOOP pad), or behind up to 200 junk words."""
    rp = ReconfigurablePartition(
        "prop_rp", geometry, ResourceBudget(10**6, 10**6, 10**3, 10**3))
    data = Bitgen(rp.device).generate(rp, _MODULE).to_bytes()
    index = int(where * (len(data) // 4 - 1))
    if form == "flip":
        return flip_word_bit(data, index, bit)
    if form == "truncate":
        return truncate_at_word(data, index + 1)
    if form == "twice":
        return data + data
    if form == "readback":
        frames = 1 + bit % 2
        wpf = rp.device.words_per_frame
        words = [*readback_request(rp.base_far, (frames + 1) * wpf),
                 pk.type1_write(ConfigRegister.CMD, 1), int(Command.DESYNC),
                 *[pk.NOOP_WORD] * 64]
        return data + np.array(words, dtype=">u4").tobytes()
    if form == "junk":
        junk = np.random.default_rng(bit).integers(
            0, 2**32, size=1 + int(where * 199), dtype=np.uint64)
        junk = junk[junk != pk.SYNC_WORD].astype(">u4")
        return junk.tobytes() + data
    return data


def _icap_route_observe(engine, pbit, burst_beats, offset, period, phase,
                        reset_at=None):
    """Every observable of one MM2S transfer of ``pbit`` into the ICAP.

    The route is the reconfiguration path: crossbar -> DdrPort -> AXIS
    switch -> AXIS2ICAP -> ICAP, fully instrumented.  A competing
    process wakes every ``period`` cycles, so its events cut the DMA's
    batch window (and any bulk run) at varying bursts.  With
    ``reset_at``, a process writes ``CR_RESET`` at that cycle.
    """
    def run():
        sim = Simulator()
        ddr = DdrController(1 << 20)
        xbar = AxiCrossbar("rvcap_xbar")
        xbar.attach("ddr", 0, ddr.size, ddr.port("dma_mm2s"))
        icap = Icap(ConfigMemory(KINTEX7_325T))
        rvcap = RvCapController(sim, xbar, icap, burst_beats=burst_beats)
        rvcap.switch.select(PORT_ICAP)
        obs = Observability()
        for part in (rvcap.dma, icap, rvcap.axis2icap, xbar):
            part.attach_obs(obs)
        rvcap.switch.attach_obs(obs, sim)
        ddr.load_image(offset, pbit)

        def competitor():
            yield Delay(phase)
            for _ in range(len(pbit) // 4 // period + 2):
                yield Delay(period)

        sim.add_process(competitor(), name="competitor")
        dma = rvcap.dma
        if reset_at is not None:
            def resetter():
                yield Delay(reset_at)
                dma.write(dr.MM2S_DMACR, dr.CR_RESET.to_bytes(4, "little"),
                          sim.now)

            sim.add_process(resetter(), name="resetter")
        dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_SA, offset.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_LENGTH, len(pbit).to_bytes(4, "little"), 0)
        sim.run()
        channel = dma.mm2s
        port = ddr._ports["dma_mm2s"]
        return {
            "frames": {index: frame.tobytes() for index, frame
                       in icap.config_memory.frames()},
            "icap": (icap._state, icap._payload_reg,
                     icap._payload_remaining, icap.words_consumed,
                     icap.far, icap.error, icap.crc_error,
                     icap.protocol_error, icap.desynced_count,
                     icap.reconfigurations_completed, icap.pending_frames,
                     icap.sessions_opened, icap.outcome,
                     icap._running_crc(), icap.busy_until,
                     icap.stall_cycles, list(icap.readback_queue)),
            "ddr": (port.busy_until, port.next_seq_addr, port.open_row,
                    ddr.row_activates, ddr.bytes_read),
            "xbar": (xbar.transactions, sorted(xbar._busy_until.values())),
            "channel": (channel.status, channel.bytes_done,
                        channel.bursts_completed,
                        channel.transfers_completed,
                        channel.last_start_cycle,
                        channel.last_complete_cycle),
            "now": sim.now,
            "events": sim.events_processed,
            "metrics": _metrics(obs.metrics),
            "trace": obs.chrome_trace(),
        }
    return _with_engine(engine, run)


class TestIcapRouteEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        geometries,
        st.sampled_from([2, 8, 16, 32]),
        st.sampled_from(["pristine", "flip", "truncate"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=3 * 1024),
        st.integers(min_value=40, max_value=4000),
        st.integers(min_value=0, max_value=2000),
    )
    def test_bitstream_into_icap_is_cycle_identical(
            self, geometry, burst_beats, form, where, bit, offset_words,
            period, phase):
        pbit = _partial_bitstream(geometry, form, where, bit)
        burst, per_burst, desc = (
            _icap_route_observe(engine, pbit, burst_beats, 8 * offset_words,
                                period, phase)
            for engine in ("burst", "descriptor-per-burst", "descriptor"))
        assert per_burst == desc
        burst.pop("events")
        desc.pop("events")
        assert burst == desc

    @settings(max_examples=12, deadline=None)
    @given(
        geometries,
        st.sampled_from([2, 8, 16, 32]),
        st.sampled_from(["twice", "readback", "junk"]),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=0, max_value=3 * 1024),
        st.integers(min_value=40, max_value=4000),
        st.integers(min_value=0, max_value=2000),
    )
    def test_longer_streams_into_icap_are_cycle_identical(
            self, geometry, burst_beats, form, where, bit, offset_words,
            period, phase):
        # a whole-run step parses session boundaries, a second sync and
        # the readback request's _serve_read in one pass
        pbit = _partial_bitstream(geometry, form, where, bit)
        burst, per_burst, desc = (
            _icap_route_observe(engine, pbit, burst_beats, 8 * offset_words,
                                period, phase)
            for engine in ("burst", "descriptor-per-burst", "descriptor"))
        assert per_burst == desc
        burst.pop("events")
        desc.pop("events")
        assert burst == desc

    @pytest.mark.parametrize("k", [12, 40, 100, 200])
    @pytest.mark.parametrize("burst_beats", [8, 16])
    def test_reset_at_a_pacing_target_is_cycle_identical(self, burst_beats,
                                                          k):
        # a foreign event exactly at burst k's pacing target is the
        # window a bulk step must stop short of: the per-burst loop
        # yields there, so the reset lands before burst k + 1
        geometry = RpGeometry(clb_cols=2, bram_cols=0, dsp_cols=0)
        pbit = _partial_bitstream(geometry, "pristine", 0.0, 0)
        burst_bytes = 8 * burst_beats
        targets = []
        accept = AxiStreamSwitch.accept

        def spy(switch, data, now):
            done = accept(switch, data, now)
            targets.append(done - burst_bytes)
            return done

        with mock.patch.object(AxiStreamSwitch, "accept", spy):
            _icap_route_observe("burst", pbit, burst_beats, 0,
                                period=10**6, phase=0)
        assert len(targets) == -(-len(pbit) // burst_bytes)
        burst, desc = (
            _icap_route_observe(engine, pbit, burst_beats, 0, period=10**6,
                                phase=0, reset_at=targets[k])
            for engine in ENGINES)
        assert burst["channel"][1] < len(pbit)  # the reset aborted it
        burst.pop("events")
        desc.pop("events")
        assert burst == desc

    def test_session_boundaries_fall_inside_steps(self):
        # liveness: with no competitor, one step carries everything
        # after the first burst, so the properties above exercise the
        # parse of both DESYNCs, the second sync and the readback
        geometry = RpGeometry(clb_cols=2, bram_cols=0, dsp_cols=0)
        pbit = _partial_bitstream(geometry, "readback", 0.0, 1)
        inside = []

        def spy(name):
            method = getattr(Icap, name)

            def wrapper(icap, *args):
                inside.append((name, icap._bulk_run is not None))
                return method(icap, *args)
            return wrapper

        with mock.patch.multiple(Icap, **{name: spy(name) for name in (
                "_begin_session", "_finish_desync", "_serve_read")}):
            observed = _icap_route_observe("descriptor", pbit, 16, 0,
                                           period=10**6, phase=0)
        assert observed["icap"][-1], "readback queue left empty"
        assert inside == [("_begin_session", False),
                          ("_finish_desync", True),
                          ("_begin_session", True),
                          ("_serve_read", True),
                          ("_finish_desync", True)]

    def test_burst_oracle_takes_its_own_path(self):
        # liveness: were the patch to miss, the properties would compare
        # the engine with itself.  The oracle yields once per pacing
        # step where the engine batches the whole transfer.
        geometry = RpGeometry(clb_cols=2, bram_cols=0, dsp_cols=0)
        pbit = _partial_bitstream(geometry, "pristine", 0.0, 0)
        burst, desc = (
            _icap_route_observe(engine, pbit, 16, 0, period=10**6, phase=0)
            for engine in ENGINES)
        assert burst["events"] > desc["events"]


def _accel_round_trip_observe(engine, width, height, behavior, launch,
                              decoupled_until, period, phase, seed):
    """Every observable of one image through the loaded accelerator.

    MM2S -> switch -> ``StreamIsolator`` -> ``StreamAccelerator`` ->
    S2MM, each channel on its own DDR port.  S2MM starts first and
    polls the filter until MM2S, launched ``launch`` cycles later,
    feeds it.  The RP stays decoupled until ``decoupled_until`` (if
    given, no later than ``launch``), and a competing process wakes
    every ``period`` cycles to cut the batch windows.
    """
    def run():
        sim = Simulator()
        ddr = DdrController(1 << 20)
        mm2s_xbar = AxiCrossbar("xbar_mm2s")
        mm2s_xbar.attach("ddr", 0, ddr.size, ddr.port("dma_mm2s"))
        s2mm_xbar = AxiCrossbar("xbar_s2mm")
        s2mm_xbar.attach("ddr", 0, ddr.size, ddr.port("dma_s2mm"))
        rvcap = RvCapController(sim, mm2s_xbar, Icap(ConfigMemory(KINTEX7_325T)),
                                ddr_port_s2mm=s2mm_xbar)
        rm = make_accelerator(behavior, width=width, height=height)
        rvcap.attach_rm_streams(rm, rm)
        obs = Observability()
        for part in (rvcap.dma, mm2s_xbar, s2mm_xbar):
            part.attach_obs(obs)
        rvcap.switch.attach_obs(obs, sim)
        nbytes = width * height
        image = np.random.default_rng(seed).integers(
            0, 256, size=nbytes, dtype=np.uint8).tobytes()
        ddr.load_image(0, image)
        dst = 0x8_0000
        dma = rvcap.dma

        def write(offset, value):
            dma.write(offset, value.to_bytes(4, "little"), sim.now)

        def launch_mm2s():
            write(dr.MM2S_DMACR, dr.CR_RS)
            write(dr.MM2S_LENGTH, nbytes)

        def competitor():
            yield Delay(phase)
            for _ in range((launch + 40 * nbytes) // period + 2):
                yield Delay(period)

        isolator = rvcap.rm_stream_isolators[0]
        if decoupled_until is not None:
            isolator.set_decouple(True)
            sim.schedule(decoupled_until,
                         lambda: isolator.set_decouple(False))
        sim.add_process(competitor(), name="competitor")
        write(dr.S2MM_DMACR, dr.CR_RS)
        write(dr.S2MM_DA, dst)
        write(dr.S2MM_LENGTH, nbytes)
        sim.schedule(launch, launch_mm2s)
        sim.run()
        return {
            "input": image,
            "output": ddr.dump(dst, nbytes),
            "channels": [(channel.status, channel.bytes_done,
                          channel.bursts_completed,
                          channel.transfers_completed,
                          channel.last_start_cycle,
                          channel.last_complete_cycle)
                         for channel in (dma.mm2s, dma.s2mm)],
            "rm": (rm._out_pos, rm._rows_ready, rm.images_processed,
                   rm.busy_cycles),
            "now": sim.now,
            "events": sim.events_processed,
            "metrics": _metrics(obs.metrics),
            "trace": obs.chrome_trace(),
        }
    return _with_engine(engine, run)


class TestAcceleratorRoundTrip:
    @settings(max_examples=12, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=3, max_value=40),
        st.sampled_from(["sobel", "median", "gaussian"]),
        st.integers(min_value=0, max_value=30_000),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        st.integers(min_value=40, max_value=20_000),
        st.integers(min_value=0, max_value=2000),
        st.integers(min_value=0, max_value=2**16),
    )
    def test_round_trip_is_cycle_identical(self, beats, height, behavior,
                                           launch, decoupled, period, phase,
                                           seed):
        # launches up to 30,000 cycles after S2MM, with windows of up
        # to 20,000 cycles, run S2MM into the 4,096-poll bound; a
        # decoupled spell changes the law mid-spin
        width = 8 * beats
        decoupled_until = (None if decoupled is None
                           else int(decoupled * launch))
        burst, per_burst, desc = (
            _accel_round_trip_observe(engine, width, height, behavior,
                                      launch, decoupled_until, period,
                                      phase, seed)
            for engine in ("burst", "descriptor-per-burst", "descriptor"))
        golden = GOLDEN_FILTERS[behavior](np.frombuffer(
            burst["input"], dtype=np.uint8).reshape(height, width))
        assert burst["output"] == golden.tobytes()
        assert per_burst == desc
        burst.pop("events")
        desc.pop("events")
        assert burst == desc

    def test_closed_form_polls_are_live(self):
        # liveness: a 32x32 request polls the filter at most 20 times
        # (93 with every poll made), with the same T_c and output
        from repro.sched import build_sched_soc, module_names

        def run():
            manager = build_sched_soc(1, frame=32)
            manager.init_rmodules()
            [name] = module_names(1)
            image = (np.arange(32 * 32) % 251).astype(np.uint8).reshape(32, 32)
            manager.process_image(name, image)  # loads the module
            polls = []
            produce = StreamAccelerator.produce

            def spy(rm, nbytes, now):
                polls.append(now)
                return produce(rm, nbytes, now)

            with mock.patch.object(StreamAccelerator, "produce", spy):
                out, times = manager.process_image(name, image)
            return len(polls), times.tc_us, out.tobytes()

        polls, tc_us, out = run()
        every_poll, tc_ref, out_ref = _with_engine("descriptor-per-burst", run)
        assert polls <= 20 < every_poll
        assert (tc_us, out) == (tc_ref, out_ref)


def _replay_observe(engine, seed, rate):
    """Full serving-path replay: report dict, raw ICAP busy cycles, every
    metric of the SoC and the kernel's event count."""
    def run():
        from repro.sched import (
            DprScheduler, WorkloadSpec, build_sched_soc, make_cache,
            synthesize,
        )
        from repro.sched.replay import summarize

        spec = WorkloadSpec(requests=40, arrival_rate_rps=rate, modules=4,
                            frame=16, deadline_slack_us=20_000.0, seed=seed)
        manager = build_sched_soc(spec.modules, frame=spec.frame)
        obs = manager.soc.attach_observability()
        cache = make_cache(manager, arena_bytes=1 << 18)
        scheduler = DprScheduler(manager, cache=cache)
        outcomes = scheduler.run(synthesize(spec))
        report = summarize(outcomes, scheduler=scheduler, wall_seconds=0.0)
        document = report.to_dict(include_outcomes=True)
        document.pop("wall_seconds")
        return {
            "report": document,
            "icap_busy": scheduler.icap_busy_cycles,
            "metrics": _metrics(obs.metrics),
            "events": manager.soc.sim.events_processed,
        }
    return _with_engine(engine, run)


class TestServingPathEquivalence:
    @settings(max_examples=4, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.sampled_from([500.0, 2000.0, 8000.0]),
    )
    def test_replay_reports_are_identical(self, seed, rate):
        burst, per_burst, desc = (
            _replay_observe(engine, seed, rate)
            for engine in ("burst", "descriptor-per-burst", "descriptor"))
        # per-request outcomes carry the Td/Tr/Tc breakdown, so dict
        # equality pins every latency the report can surface; the
        # metrics pin every counter and histogram bucket besides
        assert per_burst == desc
        # the oracle takes one event per pacing step: only the event
        # count, also exported as the soc_sim_events gauge, may differ
        for observed in (burst, desc):
            observed.pop("events")
            observed["metrics"].pop("soc_sim_events")
        assert burst == desc
