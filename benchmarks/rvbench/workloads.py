"""rvbench workloads: one fresh process runs one workload.

``run.py`` starts this file once per workload (and a few more times with
``--setup-only`` to sample set-up time)::

    python benchmarks/rvbench/workloads.py --workload serve_hot --seed 2026 \
        --reps 7 --trace 0 --t0-ns <monotonic ns at spawn>

and reads the one JSON object it prints on stdout.  The process sets up
(imports ``repro``, builds the first platform, generates the inputs),
runs one untimed warm-up rep and ``--reps`` timed reps with tracing off
(each sampled by a :class:`SpeedProbe`) and, with ``--trace 1``, one
more rep under cProfile for the per-layer ledger.

Every rep drives only public entry points and rebuilds its platform, so
reps are independent and each one's simulated output must hash to the
same digest.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import layers

#: the paper's anchors (Table IV rows as Td/Tr/Tc/Tex in us, Sec. IV-A
#: RV-CAP throughput, Sec. IV-B HWICAP throughput at 16x unroll)
PAPER_TABLE4 = {
    "gaussian": (18.0, 1651.0, 606.0, 2275.0),
    "median": (18.0, 1651.0, 598.0, 2267.0),
    "sobel": (18.0, 1651.0, 588.0, 2257.0),
}
PAPER_RVCAP_MB_S = 394.2
PAPER_HWICAP_16X_MB_S = 8.23

#: the Sec. IV-B unroll factors and the DDR offset the firmware reads from
UNROLLS = (1, 2, 4, 8, 16, 32)
FIRMWARE_SRC_OFFSET = 16 << 20

#: per-rep simulated end-to-end metrics (None where a workload has none)
SIM_METRICS = ("sim_latency_p50_us", "sim_latency_p99_us", "sim_miss_rate",
               "sim_reconfig_mb_s", "paper_err_pct")

#: simulated work per layer, read after the traced rep (units and
#: directions of every per-layer metric are in BENCHMARK.json)
WORK_METRICS = (
    "sim.events", "core.dma.bytes", "core.stream.bytes", "core.hwicap.words",
    "fpga.icap.words", "fpga.icap.sessions", "axi.transactions",
    "riscv.instret", "drivers.reconfigs", "accel.bytes", "sched.requests",
    "sched.batches", "sched.mean_batch", "sched.reconfig_skips",
    "sched.queue_wait_p99_us", "sched.icap_util", "sched.cache_hit_rate",
    "sched.cache_evictions", "fat32.sd_bytes", "power.deferrals",
    "verify.runs",
)

#: host cost per unit of work, in ns: (metric, layer, work metric)
COST_METRICS = (
    ("sim.ns_per_event", "sim", "sim.events"),
    ("core.dma.ns_per_byte", "core.dma", "core.dma.bytes"),
    ("core.stream.ns_per_byte", "core.stream", "core.stream.bytes"),
    ("fpga.icap.ns_per_word", "fpga.icap", "fpga.icap.words"),
    ("axi.ns_per_txn", "axi", "axi.transactions"),
    ("riscv.ns_per_instr", "riscv", "riscv.instret"),
    ("sched.ns_per_request", "sched", "sched.requests"),
    ("drivers.ns_per_reconfig", "drivers", "drivers.reconfigs"),
)


# ----------------------------------------------------------------------
# benchmark-owned spans: workload -> setup / rep -> each public call
# ----------------------------------------------------------------------
class Spans:
    """In-memory span log, written out with the trace."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append({"id": index, "name": name, "parent": parent,
                             "start_s": time.perf_counter() - self._origin,
                             "end_s": None})
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.records[index]["end_s"] = time.perf_counter() - self._origin


# ----------------------------------------------------------------------
# per-rep evaluation
# ----------------------------------------------------------------------
@dataclass
class RepResult:
    """What one rep produced, evaluated outside the timed region."""

    digest: str
    #: operations attempted, and those that count against fail_rate (a
    #: non-COMPLETED request; a golden-mismatching or ICAP-erroring
    #: process_image/run_firmware call; every op of a rep that raised)
    ops: int
    failed: int
    #: operations whose output is wrong: an exception, a golden
    #: mismatch, an ICAP error or a request status the workload does
    #: not expect.  Policy outcomes (a request dropped late under
    #: ``drop_late``) are failed ops but not errors.
    errors: int
    sim: Dict[str, Optional[float]]
    work: Dict[str, float] = field(default_factory=dict)


def _sha256_json(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _nearest_rank(values: List[float], q: float) -> float:
    """Nearest-rank percentile, as repro.sched.replay computes it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]


def _counter_sum(snapshot: Dict[str, Any], name: str, label: str = "") -> float:
    """Sum a counter over its label sets (only those containing ``label``)."""
    return sum(value for key, value in snapshot.items()
               if (key == name or key.startswith(name + "{"))
               and label in key)


def _obs_work(snapshot: Dict[str, Any]) -> Dict[str, float]:
    return {
        "core.dma.bytes": (_counter_sum(snapshot, "dma_mm2s_bytes_total")
                           + _counter_sum(snapshot, "dma_s2mm_bytes_total")),
        "core.stream.bytes": _counter_sum(snapshot, "axis_switch_bytes_total"),
        "core.hwicap.words": _counter_sum(snapshot, "hwicap_words_total"),
        "fpga.icap.words": _counter_sum(snapshot, "icap_words_total"),
        "fpga.icap.sessions": _counter_sum(snapshot, "icap_sessions_total"),
        "axi.transactions": _counter_sum(snapshot, "axi_transactions_total"),
        "drivers.reconfigs": _counter_sum(snapshot,
                                          "driver_reconfigurations_total"),
        "accel.bytes": _counter_sum(snapshot, "axis_switch_bytes_total",
                                    'port="rm"'),
    }


# ----------------------------------------------------------------------
# serving workloads (repro.sched)
# ----------------------------------------------------------------------
def _serve_params(name: str) -> Dict[str, Any]:
    from repro.power import DEFAULT_PROFILE

    if name == "serve_hot":
        return {"spec": {"requests": 2000, "arrival_rate_rps": 2000.0,
                         "modules": 8, "zipf_s": 1.1},
                "arena_bytes": 1 << 20, "replay": {},
                "expected_statuses": {"completed"}}
    return {"spec": {"requests": 1600, "arrival_rate_rps": 300.0,
                     "modules": 32, "zipf_s": 0.8},
            "arena_bytes": 128 << 10,
            "replay": {"verify": True, "drop_late": True,
                       "power_profile": DEFAULT_PROFILE,
                       "peak_power_mw": 178.0, "power_window_us": 2000.0},
            "expected_statuses": {"completed", "dropped"}}


@dataclass
class ServeInputs:
    params: Dict[str, Any]
    requests: List[Any]


def _serve_setup(name: str, seed: int, spans: Spans) -> ServeInputs:
    from repro.sched import WorkloadSpec, synthesize

    params = _serve_params(name)
    with spans.span("synthesize"):
        spec = WorkloadSpec(**params["spec"], frame=32,
                            deadline_slack_us=20_000.0, seed=seed)
        requests = synthesize(spec)
    inputs = ServeInputs(params, requests)
    _serve_platform(inputs, spans)
    return inputs


def _serve_platform(inputs: ServeInputs, spans: Spans) -> Tuple[Any, Any]:
    from repro.sched import build_sched_soc, make_cache

    with spans.span("build_sched_soc"):
        manager = build_sched_soc(inputs.params["spec"]["modules"], frame=32)
    with spans.span("make_cache"):
        cache = make_cache(manager, arena_bytes=inputs.params["arena_bytes"])
    return manager, cache


def _serve_rep(inputs: ServeInputs, spans: Spans, observe: bool) -> Any:
    # replay() always attaches observability, so ``observe`` changes nothing
    from repro.sched import replay

    manager, cache = _serve_platform(inputs, spans)
    with spans.span("replay"):
        report = replay(manager, inputs.requests, cache=cache,
                        **inputs.params["replay"])
    return manager, report


def _serve_evaluate(inputs: ServeInputs, raw: Any) -> RepResult:
    manager, report = raw
    payload = report.to_dict(include_outcomes=True)
    del payload["wall_seconds"]
    unexpected = sum(count for status, count in report.statuses.items()
                     if status not in inputs.params["expected_statuses"])
    if report.requests != len(inputs.requests):
        unexpected = len(inputs.requests)
    snapshot = manager.soc.obs.metrics.snapshot()
    reconfig_us = sum(o.tr_us for o in report.outcomes if o.reconfigured)
    icap_bytes = 4 * _counter_sum(snapshot, "icap_words_total")
    cache = report.cache or {}
    work = _obs_work(snapshot)
    work.update({
        "sim.events": manager.soc.sim.events_processed,
        "sched.requests": report.requests,
        "sched.batches": report.batches,
        "sched.mean_batch": report.mean_batch_size,
        "sched.reconfig_skips": report.reconfig_skips,
        "sched.queue_wait_p99_us": report.queue_wait_p99_us,
        "sched.icap_util": report.icap_utilization,
        "sched.cache_hit_rate": cache.get("hit_rate", 0.0),
        "sched.cache_evictions": cache.get("evictions", 0),
        "fat32.sd_bytes": cache.get("sd_bytes_loaded", 0),
        "power.deferrals": (report.power or {}).get("power_deferrals", 0),
    })
    return RepResult(
        digest=_sha256_json(payload),
        ops=report.requests,
        failed=report.requests - report.completed,
        errors=unexpected,
        sim={"sim_latency_p50_us": report.latency_p50_us,
             "sim_latency_p99_us": report.latency_p99_us,
             "sim_miss_rate": report.deadline_miss_rate,
             "sim_reconfig_mb_s": icap_bytes / reconfig_us,
             "paper_err_pct": None},
        work=work,
    )


# ----------------------------------------------------------------------
# paper_case_study: the Table IV flow
# ----------------------------------------------------------------------
@dataclass
class CaseStudyInputs:
    image: Any
    golden: Dict[str, Any]


def _case_study_setup(_name: str, _seed: int, spans: Spans) -> CaseStudyInputs:
    from repro.accel import GOLDEN_FILTERS, scene_image
    from repro.eval.scenarios import reference_setup

    with spans.span("scene_image"):
        image = scene_image(512)
        golden = {name: GOLDEN_FILTERS[name](image) for name in PAPER_TABLE4}
    with spans.span("reference_setup"):
        reference_setup()
    return CaseStudyInputs(image, golden)


def _case_study_rep(inputs: CaseStudyInputs, spans: Spans,
                    observe: bool) -> Any:
    from repro.eval.scenarios import reference_setup
    from repro.obs import Observability

    with spans.span("reference_setup"):
        soc, manager = reference_setup()
    if observe:
        soc.attach_observability(Observability())
    rows = []
    for name in PAPER_TABLE4:
        # a fresh manager has nothing loaded and the three filters
        # differ, so every call reconfigures (the Table IV flow)
        with spans.span("process_image"):
            output, times = manager.process_image(name, inputs.image)
        rows.append((name, output, times, bool(soc.icap.error)))
    return soc, manager, rows


def _case_study_evaluate(inputs: CaseStudyInputs, raw: Any) -> RepResult:
    import numpy as np

    soc, manager, rows = raw
    failed = 0
    digest_rows = []
    tex: List[float] = []
    errors_pct: List[float] = []
    reconfig_bytes = 0
    reconfig_us = 0.0
    for name, output, times, icap_error in rows:
        if icap_error or not np.array_equal(output, inputs.golden[name]):
            failed += 1
        digest_rows.append([name, times.td_us, times.tr_us, times.tc_us,
                            hashlib.sha256(output.tobytes()).hexdigest()])
        tex.append(times.tex_us)
        reconfig_bytes += manager.descriptor(name).pbit_size
        reconfig_us += times.tr_us
        measured = (times.td_us, times.tr_us, times.tc_us, times.tex_us,
                    manager.descriptor(name).pbit_size / times.tr_us)
        anchors = (*PAPER_TABLE4[name], PAPER_RVCAP_MB_S)
        errors_pct += [abs(m - a) / a * 100
                       for m, a in zip(measured, anchors, strict=True)]
    snapshot = soc.obs.metrics.snapshot() if soc.obs is not None else {}
    work = _obs_work(snapshot)
    work.update({
        "sim.events": soc.sim.events_processed,
        "fat32.sd_bytes": sum(manager.descriptor(name).pbit_size
                              for name in PAPER_TABLE4),
    })
    return RepResult(
        digest=_sha256_json(digest_rows),
        ops=len(rows), failed=failed, errors=failed,
        sim={"sim_latency_p50_us": _nearest_rank(tex, 0.5),
             "sim_latency_p99_us": _nearest_rank(tex, 0.99),
             "sim_miss_rate": None,
             "sim_reconfig_mb_s": reconfig_bytes / reconfig_us,
             "paper_err_pct": max(errors_pct)},
        work=work,
    )


# ----------------------------------------------------------------------
# firmware_unroll: the Sec. IV-B HWICAP unroll study on the ISS
# ----------------------------------------------------------------------
def _firmware_setup(_name: str, _seed: int, spans: Spans) -> bytes:
    from repro.eval.scenarios import rp_for_geometry
    from repro.fpga.bitgen import Bitgen
    from repro.fpga.partition import (
        ReconfigurableModule,
        ResourceBudget,
        RpGeometry,
    )
    from repro.soc.builder import build_soc

    # the reduced bitstream repro.eval.figures.unroll_sweep streams
    with spans.span("bitgen"):
        rp = rp_for_geometry("unroll_rp", RpGeometry(4, 1, 1, 1))
        module = ReconfigurableModule("unroll_mod", ResourceBudget(1, 1, 0, 0))
        pbit = Bitgen().generate(rp, module).to_bytes()
    with spans.span("build_soc"):
        build_soc(with_case_study_modules=False)
    return pbit


def _firmware_rep(pbit: bytes, spans: Spans, observe: bool) -> Any:
    from repro.firmware import build_hwicap_firmware, run_firmware
    from repro.obs import Observability
    from repro.soc.builder import build_soc

    runs = []
    for unroll in UNROLLS:
        with spans.span("build_soc"):
            soc = build_soc(with_case_study_modules=False)
        if observe:
            soc.attach_observability(Observability())
        src = soc.config.layout.ddr_base + FIRMWARE_SRC_OFFSET
        soc.ddr_write(src, pbit)
        with spans.span("build_hwicap_firmware"):
            program = build_hwicap_firmware(src, len(pbit), unroll=unroll)
        with spans.span("run_firmware"):
            result = run_firmware(soc, program)
        runs.append((unroll, soc, result))
    return runs


def _firmware_evaluate(pbit: bytes, runs: Any) -> RepResult:
    from repro.obs import MetricsRegistry

    failed = 0
    digest_rows = []
    tr_us: List[float] = []
    mb_s_16x = 0.0
    metrics = MetricsRegistry()
    events = instret = 0
    for unroll, soc, result in runs:
        events += soc.sim.events_processed
        if soc.obs is not None:
            metrics.merge(soc.obs.metrics)
        if not result.done or soc.icap.error:
            failed += 1
        digest_rows.append([unroll, result.instructions, result.cycles,
                            result.t0_ticks, result.t1_ticks])
        us = result.elapsed_us()
        tr_us.append(us)
        instret += result.instructions
        if unroll == 16:
            mb_s_16x = len(pbit) / us
    work = _obs_work(metrics.snapshot())
    work.update({"sim.events": events, "riscv.instret": instret})
    return RepResult(
        digest=_sha256_json(digest_rows),
        ops=len(runs), failed=failed, errors=failed,
        sim={"sim_latency_p50_us": _nearest_rank(tr_us, 0.5),
             "sim_latency_p99_us": _nearest_rank(tr_us, 0.99),
             "sim_miss_rate": None,
             "sim_reconfig_mb_s": len(pbit) * len(tr_us) / sum(tr_us),
             "paper_err_pct": (abs(mb_s_16x - PAPER_HWICAP_16X_MB_S)
                               / PAPER_HWICAP_16X_MB_S * 100)},
        work=work,
    )


# ----------------------------------------------------------------------
# the workload table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    name: str
    #: timed reps in a run, fixed (about 12 s on an idle 2-vCPU x86
    #: host)
    reps: int
    #: whether --seed changes the inputs (the paper flows use fixed ones)
    seeded: bool
    #: ops one rep attempts, for charging a rep that raised
    ops: Callable[[Any], int]
    setup: Callable[[str, int, Spans], Any]
    rep: Callable[[Any, Spans, bool], Any]
    evaluate: Callable[[Any, Any], RepResult]


WORKLOADS: Dict[str, Workload] = {
    "serve_hot": Workload("serve_hot", 7, True,
                          lambda inputs: len(inputs.requests),
                          _serve_setup, _serve_rep, _serve_evaluate),
    "serve_churn": Workload("serve_churn", 7, True,
                            lambda inputs: len(inputs.requests),
                            _serve_setup, _serve_rep, _serve_evaluate),
    "paper_case_study": Workload("paper_case_study", 32, False,
                                 lambda _inputs: len(PAPER_TABLE4),
                                 _case_study_setup, _case_study_rep,
                                 _case_study_evaluate),
    "firmware_unroll": Workload("firmware_unroll", 26, False,
                                lambda _inputs: len(UNROLLS),
                                _firmware_setup, _firmware_rep,
                                _firmware_evaluate),
}


# ----------------------------------------------------------------------
# running one workload
# ----------------------------------------------------------------------
class _ProbeState:
    __slots__ = ("scale", "offset")

    def __init__(self, scale: int, offset: int) -> None:
        self.scale = scale
        self.offset = offset

    def step(self, value: int) -> int:
        return (self.scale * value + self.offset) & 0xFFFF_FFFF


class SpeedProbe:
    """Samples the host's speed all through a timed stretch of work.

    A shared host's speed swings by 2x within seconds as other tenants
    come and go, and wall times swing with it.  While sampling, SIGALRM
    fires every ``INTERVAL_S`` of wall time and its handler times one
    fixed pure-Python chunk.  The chunks use no repro code, so no change
    to the simulator can move them.  They mix what the simulator spends
    its time on -- method calls, attribute and dict access, integer
    masking, bytes slicing, small numpy calls -- in two kinds, run in
    turn: a *tight* chunk whose data fits in L1, and a *wide* one that
    walks 4 MiB and 16384 objects, past a core's L2.  Contention slows
    the tight chunk more than the simulator and the wide one less, so
    :meth:`chunk_s` takes a weighted geometric mean of the two.
    ``TIGHT_WEIGHT`` is the weight that kept every workload's
    normalized rep time within 3 % between quiet and contended reps.

    Net time (wall time less the chunks') divided by :meth:`chunk_s` is
    the work's length in chunks, which does not move with the host's
    speed.  Each kind's time is its harmonic mean, the inverse of the
    host's mean speed over the stretch; the arithmetic mean would
    overweight the slow moments and read low whenever the speed varies.
    """

    INTERVAL_S = 0.025
    TIGHT_STEPS = 2000
    WIDE_STEPS = 400
    WIDE_OBJECTS = 1 << 14
    WIDE_BYTES = 4 << 20
    TIGHT_WEIGHT = 0.6
    #: chunk_s on an idle 2-vCPU x86 host; set-up time is reported in
    #: seconds at this speed
    REFERENCE_CHUNK_S = 0.00066

    def __init__(self) -> None:
        import numpy as np

        self._tight_states = [_ProbeState(i | 1, i * 7) for i in range(64)]
        self._tight_counts = dict.fromkeys(range(4096), 0)
        self._tight_blob = bytes(range(256)) * 8
        self._wide_states = [_ProbeState(i | 1, i * 7)
                             for i in range(self.WIDE_OBJECTS)]
        self._wide_counts = dict.fromkeys(range(self.WIDE_OBJECTS), 0)
        self._wide_blob = memoryview(
            bytes(range(256)) * (self.WIDE_BYTES // 256))
        self._wide_array = np.arange(64, dtype=np.int64)
        self.tight: List[float] = []
        self.wide: List[float] = []

    def _tight_chunk(self) -> None:
        states, counts = self._tight_states, self._tight_counts
        blob = self._tight_blob
        acc = 1
        for i in range(self.TIGHT_STEPS):
            acc = states[i & 63].step(acc ^ i)
            counts[acc & 4095] += 1
            if not i & 15:
                acc ^= int.from_bytes(blob[i & 1023:(i & 1023) + 8], "little")

    def _wide_chunk(self) -> None:
        states, counts = self._wide_states, self._wide_counts
        blob, array = self._wide_blob, self._wide_array
        objects = self.WIDE_OBJECTS - 1
        offsets = (self.WIDE_BYTES - 1) & ~63
        acc = 1
        for i in range(self.WIDE_STEPS):
            acc = states[(acc ^ i) & objects].step(acc ^ i)
            counts[acc & objects] += 1
            if not i & 7:
                start = (acc * 64) & offsets
                acc ^= bytes(blob[start:start + 256])[acc & 255]
                acc ^= int((array + (acc & 0xFF)).sum())

    def _tick(self, _signum: int, _frame: Any) -> None:
        tight = len(self.tight) <= len(self.wide)
        started = time.perf_counter()
        if tight:
            self._tight_chunk()
        else:
            self._wide_chunk()
        (self.tight if tight else self.wide).append(
            time.perf_counter() - started)

    @contextmanager
    def sampling(self) -> Iterator[None]:
        self.tight, self.wide = [], []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy_s(self) -> float:
        """Wall time the chunks took during the last sampling."""
        return sum(self.tight) + sum(self.wide)

    def chunk_s(self) -> Optional[float]:
        """Chunk time of the last sampling; None without both kinds."""
        if not (self.tight and self.wide):
            return None
        return (statistics.harmonic_mean(self.tight) ** self.TIGHT_WEIGHT
                * statistics.harmonic_mean(self.wide)
                ** (1 - self.TIGHT_WEIGHT))


def _timed_rep(workload: Workload, inputs: Any, spans: Spans, label: str,
               profiler: Optional[cProfile.Profile] = None,
               probe: Optional[SpeedProbe] = None
               ) -> Tuple[float, RepResult]:
    gc.collect()
    started = time.perf_counter()
    try:
        with spans.span(label):
            if profiler is not None:
                profiler.enable()
            try:
                with probe.sampling() if probe is not None else nullcontext():
                    raw = workload.rep(inputs, spans, profiler is not None)
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - started
        return wall, workload.evaluate(inputs, raw)
    except Exception:
        # a rep that raises is charged as failed ops; the run goes on
        traceback.print_exc()
        ops = workload.ops(inputs)
        return (time.perf_counter() - started,
                RepResult(digest="error", ops=ops, failed=ops, errors=ops,
                          sim={}))


def _layer_metrics(profiler: cProfile.Profile, result: RepResult,
                   package_dir: str) -> Tuple[Dict[str, Any], float]:
    table, total = layers.ledger(profiler, layers.LayerMap(package_dir))
    work = dict.fromkeys(WORK_METRICS, 0)
    work.update(result.work)
    work["verify.runs"] = layers.call_count(
        profiler, "repro/verify/bitstream.py", "verify_bitstream")
    metrics: Dict[str, Any] = {}
    for layer, row in table.items():
        for key, value in row.items():
            metrics[f"{layer}.{key}"] = value
    metrics.update(work)
    for name, layer, work_name in COST_METRICS:
        units = work[work_name]
        metrics[name] = table[layer]["self_s"] / units * 1e9 if units else 0.0
    return {"layers": table, "metrics": metrics}, total


def run_workload(name: str, seed: int, reps: int, trace: bool,
                 t0_ns: Optional[int] = None,
                 setup_only: bool = False) -> Dict[str, Any]:
    """Set up, warm up, time ``reps`` reps and optionally trace one.

    ``t0_ns`` is ``time.monotonic_ns()`` when the parent spawned this
    process, so set-up time covers interpreter start; without it, set-up
    is timed from this call.  ``setup_wall_s`` is that wall time;
    ``setup_s`` is the same set-up at the probe's reference host speed.
    """
    workload = WORKLOADS[name]
    spans = Spans()
    probe = SpeedProbe()
    with spans.span(f"workload:{name}"):
        setup_started = time.perf_counter()
        with spans.span("setup"), probe.sampling():
            with spans.span("import repro"):
                import repro
            inputs = workload.setup(name, seed, spans)
        setup_wall_s = (time.monotonic_ns() - t0_ns) / 1e9 \
            if t0_ns is not None else time.perf_counter() - setup_started
        chunk_s = probe.chunk_s()
        setup_s = None if chunk_s is None else (
            (setup_wall_s - probe.busy_s()) / chunk_s
            * SpeedProbe.REFERENCE_CHUNK_S)
        setup = {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        if setup_only:
            return {"workload": name, **setup}

        # the warm-up runs under the probe too, so the first timed rep
        # does not pay for warming the probe's own code and data
        warmup_s, warmup = _timed_rep(workload, inputs, spans, "warmup",
                                      probe=probe)
        warmup_s -= probe.busy_s()
        samples: Dict[str, List[Any]] = {
            key: [] for key in ("run_s", "chunk_s", "digest", "ops",
                                "failed", "errors", *SIM_METRICS)}
        for _ in range(reps):
            wall, result = _timed_rep(workload, inputs, spans, "rep",
                                      probe=probe)
            samples["run_s"].append(wall - probe.busy_s())
            samples["chunk_s"].append(probe.chunk_s())
            samples["digest"].append(result.digest)
            samples["ops"].append(result.ops)
            samples["failed"].append(result.failed)
            samples["errors"].append(result.errors)
            for key in SIM_METRICS:
                samples[key].append(result.sim.get(key))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        traced: Optional[Dict[str, Any]] = None
        if trace:
            profiler = cProfile.Profile()
            traced_s, result = _timed_rep(workload, inputs, spans,
                                          "traced_rep", profiler)
            ledger, total = _layer_metrics(
                profiler, result,
                os.path.dirname(os.path.abspath(repro.__file__)))
            traced = {
                **ledger,
                "profile_total_s": total,
                "traced_rep_s": traced_s,
                "trace_overhead": traced_s / statistics.median(
                    samples["run_s"]),
                "digest": result.digest,
                "errors": result.errors,
            }
    out: Dict[str, Any] = {
        "workload": name, "seed": seed, "reps": reps,
        **setup, "peak_rss_mb": peak_rss_mb,
        "warmup": {"run_s": warmup_s, "digest": warmup.digest,
                   "errors": warmup.errors},
        "samples": samples,
        "trace": traced,
    }
    if traced is not None:
        traced["spans"] = spans.records
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0-ns", type=int, default=None,
                        help="time.monotonic_ns() when the parent spawned us")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.reps,
                          bool(args.trace), t0_ns=args.t0_ns,
                          setup_only=args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
