"""The DMA engine against its per-burst oracle, over randomized scenarios.

The engine collapses a transfer's per-burst simulation events into one
computed timeline, and schedules runs of FDRI payload bursts into the
ICAP as single bulk steps.  The oracle is the generator pair the model
started with, one simulation event per pacing step; it lives here and
is patched over ``DmaChannel._run_mm2s``/``_run_s2mm`` for the
``burst`` runs.  These properties pin the engine to it under
everything that can interrupt a transfer mid-flight: random lengths and
burst geometries, injected bus faults, soft resets, real partial
bitstreams (pristine and corrupted) with foreign events cutting the
batch window, and the full multi-tenant serving path (where the whole
ReplayReport — statuses, latencies, Tr breakdowns, ICAP busy cycles —
and every metric must come out bit-identical).

The oracle yields one event per pacing step, so it cannot match the
engine's event count.  ``events_processed`` is pinned instead against
the engine with its bulk step refused (``descriptor-per-burst``), whose
per-burst loop yields at exactly the points the bulk step must
reproduce.
"""

import asyncio
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.crossbar import AxiCrossbar
from repro.axi.stream import BufferSource, CaptureSink
from repro.core import dma as dr
from repro.core.dma import AxiDma, DmaChannel
from repro.core.rp_control import PORT_ICAP
from repro.core.rvcap import RvCapController
from repro.errors import ControllerError
from repro.faults.injectors import (
    DmaResetInjector,
    flip_word_bit,
    install_mem_fault,
    truncate_at_word,
)
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
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
        result = self.mem_port.read_burst(addr, nbytes, read_time)
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
        result = self.mem_port.write_burst(addr, data, issue_time)
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
    engine), ``descriptor-per-burst`` (it with every bulk step refused)
    or ``burst`` (the oracle generators patched in)."""
    if engine == "burst":
        with mock.patch.object(DmaChannel, "_run_mm2s", _burst_mm2s), \
                mock.patch.object(DmaChannel, "_run_s2mm", _burst_s2mm):
            return fn()
    if engine == "descriptor-per-burst":
        with mock.patch.object(DmaChannel, "_bulk_step", return_value=None):
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
    """A Bitgen partial bitstream, pristine or corrupted at ``where``."""
    rp = ReconfigurablePartition(
        "prop_rp", geometry, ResourceBudget(10**6, 10**6, 10**3, 10**3))
    data = Bitgen(rp.device).generate(rp, _MODULE).to_bytes()
    index = int(where * (len(data) // 4 - 1))
    if form == "flip":
        return flip_word_bit(data, index, bit)
    if form == "truncate":
        return truncate_at_word(data, index + 1)
    return data


def _icap_route_observe(engine, pbit, burst_beats, offset, period, phase):
    """Every observable of one MM2S transfer of ``pbit`` into the ICAP.

    The route is the reconfiguration path: crossbar -> DdrPort -> AXIS
    switch -> AXIS2ICAP -> ICAP, fully instrumented.  A competing
    process wakes every ``period`` cycles, so its events cut the DMA's
    batch window (and any bulk run) at varying bursts.
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
        rvcap.switch.attach_obs(obs, lambda: sim.now)
        ddr.load_image(offset, pbit)

        def competitor():
            yield Delay(phase)
            for _ in range(len(pbit) // 4 // period + 2):
                yield Delay(period)

        sim.add_process(competitor(), name="competitor")
        dma = rvcap.dma
        dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_SA, offset.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_LENGTH, len(pbit).to_bytes(4, "little"), 0)
        sim.run()
        channel = dma.mm2s
        port = ddr._ports["dma_mm2s"]
        return {
            "frames": {index: frame.tobytes() for index, frame
                       in icap.config_memory._frames.items()},
            "icap": (icap._state, icap._payload_reg,
                     icap._payload_remaining, icap.words_consumed,
                     icap.far, icap.error, icap.crc_error,
                     icap.protocol_error, icap.desynced_count,
                     icap.reconfigurations_completed, icap.pending_frames,
                     icap._running_crc(), icap.busy_until,
                     icap.stall_cycles),
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


def _replay_observe(engine, seed, rate):
    """Full serving-path replay: report dict, raw ICAP busy cycles, every
    metric of the SoC and the kernel's event count."""
    def run():
        from repro.sched import (
            DprScheduler, WorkloadSpec, build_sched_soc, make_cache,
            synthesize,
        )
        from repro.sched.replay import _serve, summarize

        spec = WorkloadSpec(requests=40, arrival_rate_rps=rate, modules=4,
                            frame=16, deadline_slack_us=20_000.0, seed=seed)
        manager = build_sched_soc(spec.modules, frame=spec.frame)
        obs = manager.soc.attach_observability()
        cache = make_cache(manager, arena_bytes=1 << 18)
        scheduler = DprScheduler(manager, cache=cache)
        outcomes = asyncio.run(_serve(scheduler, synthesize(spec)))
        report = summarize(outcomes, scheduler=scheduler, cache=cache,
                           wall_seconds=0.0)
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
        burst.pop("events")
        desc.pop("events")
        assert burst == desc
