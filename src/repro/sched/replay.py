"""Trace replay: drive thousands of requests through the scheduler.

:func:`replay` is the measurement harness behind ``repro sched-bench``
and ``repro serve``: it submits an entire trace up front (open loop —
arrival *eligibility* is enforced by the scheduler against simulated
time, so submission order only breaks deadline ties), steps the
scheduler until it drains, and distils the outcomes plus the
scheduler's and the cache's own counts into a :class:`ReplayReport`.

All latencies are simulated microseconds; ``wall_seconds`` is the only
wall-clock number and exists purely to size benchmark runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.drivers.manager import ReconfigurationManager
from repro.obs import Observability
from repro.power.profile import DEFAULT_PROFILE
from repro.sched.cache import BitstreamCache
from repro.sched.request import COMPLETED, RequestOutcome, SwapRequest
from repro.sched.scheduler import DprScheduler
from repro.sched.workload import (
    WorkloadSpec,
    build_sched_soc,
    make_cache,
    module_names,
    synthesize,
)


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of raw (unbucketed) samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class ReplayReport:
    """Aggregate view of one replay, JSON-exportable."""

    requests: int
    completed: int
    deadline_misses: int
    statuses: Dict[str, int]
    #: simulated time the replay spanned (us)
    span_us: float
    #: completed requests per simulated second
    throughput_rps: float
    latency_p50_us: float
    latency_p99_us: float
    latency_mean_us: float
    queue_wait_p99_us: float
    deadline_miss_rate: float
    icap_utilization: float
    reconfigurations: int
    reconfig_skips: int
    batches: int
    mean_batch_size: float
    #: BitstreamCache.snapshot() at the end of the replay
    cache: Dict[str, Any]
    wall_seconds: float = 0.0
    #: power accounting block from DprScheduler.power_summary();
    #: None when the replay ran without a power profile
    power: Optional[Dict[str, Any]] = None
    outcomes: List[RequestOutcome] = field(default_factory=list, repr=False)

    def to_dict(self, *, include_outcomes: bool = False) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "requests": self.requests,
            "completed": self.completed,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": round(self.deadline_miss_rate, 6),
            "statuses": dict(self.statuses),
            "span_us": round(self.span_us, 3),
            "throughput_rps": round(self.throughput_rps, 3),
            "latency_p50_us": round(self.latency_p50_us, 3),
            "latency_p99_us": round(self.latency_p99_us, 3),
            "latency_mean_us": round(self.latency_mean_us, 3),
            "queue_wait_p99_us": round(self.queue_wait_p99_us, 3),
            "icap_utilization": round(self.icap_utilization, 6),
            "reconfigurations": self.reconfigurations,
            "reconfig_skips": self.reconfig_skips,
            "batches": self.batches,
            "mean_batch_size": round(self.mean_batch_size, 3),
            "cache": self.cache,
            "wall_seconds": round(self.wall_seconds, 3),
            "power": self.power,
        }
        if include_outcomes:
            out["outcomes"] = [o.to_dict() for o in self.outcomes]
        return out


def summarize(outcomes: List[RequestOutcome], *,
              scheduler: DprScheduler,
              wall_seconds: float) -> ReplayReport:
    """Distil raw outcomes + scheduler state into a report."""
    statuses: Dict[str, int] = {}
    latencies: List[float] = []
    waits: List[float] = []
    first_arrival = min((o.arrival_us for o in outcomes), default=0.0)
    last_finish = first_arrival
    misses = 0
    for outcome in outcomes:
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        if outcome.deadline_missed:
            misses += 1
        if outcome.latency_us is not None:
            latencies.append(outcome.latency_us)
        if outcome.start_us is not None:
            waits.append(max(0.0, outcome.start_us - outcome.arrival_us))
        if outcome.finish_us is not None:
            last_finish = max(last_finish, outcome.finish_us)
    completed = statuses.get(COMPLETED, 0)
    span_us = max(last_finish - first_arrival, 1e-9)
    batches = scheduler.batches
    return ReplayReport(
        requests=len(outcomes),
        completed=completed,
        deadline_misses=misses,
        statuses=statuses,
        span_us=span_us,
        throughput_rps=completed / (span_us / 1e6),
        latency_p50_us=_percentile(latencies, 0.50),
        latency_p99_us=_percentile(latencies, 0.99),
        latency_mean_us=(sum(latencies) / len(latencies)) if latencies else 0.0,
        queue_wait_p99_us=_percentile(waits, 0.99),
        deadline_miss_rate=misses / len(outcomes) if outcomes else 0.0,
        icap_utilization=scheduler.icap_utilization(),
        reconfigurations=scheduler.reconfigurations,
        reconfig_skips=scheduler.reconfig_skips,
        batches=batches,
        mean_batch_size=(scheduler.batched_requests / batches
                         if batches else 0.0),
        cache=scheduler.cache.snapshot(),
        wall_seconds=wall_seconds,
        power=scheduler.power_summary(),
        outcomes=outcomes,
    )


def replay(manager: ReconfigurationManager,
           requests: List[SwapRequest], *,
           cache: BitstreamCache,
           prefetch: Optional[List[str]] = None,
           **options: Any) -> ReplayReport:
    """Replay ``requests`` through a fresh scheduler; returns the report.

    ``prefetch`` warms the cache first; ``options`` are
    :class:`DprScheduler`'s keywords.  Observability is always attached
    (the exports need it); reuse the SoC's existing instance when
    present.
    """
    soc = manager.soc
    if soc.obs is None:
        soc.attach_observability(Observability())
    scheduler = DprScheduler(manager, cache=cache, **options)
    if prefetch:
        cache.prefetch(prefetch)
    started = time.perf_counter()
    outcomes = scheduler.run(requests)
    wall = time.perf_counter() - started
    return summarize(outcomes, scheduler=scheduler, wall_seconds=wall)


def bench(spec: WorkloadSpec, *,
          cache_bytes: int = 1 << 20,
          charge_sd_time: bool = True,
          controller: str = "rvcap",
          prefetch_hot: int = 0,
          **options: Any) -> ReplayReport:
    """One-call benchmark: build platform, synthesize, replay.

    ``prefetch_hot`` warms the cache with the N most popular modules;
    ``options`` are :class:`DprScheduler`'s keywords.
    """
    manager = build_sched_soc(spec.modules, frame=spec.frame,
                              controller=controller)
    cache = make_cache(manager, arena_bytes=cache_bytes,
                       charge_sd_time=charge_sd_time)
    return replay(manager, synthesize(spec), cache=cache,
                  prefetch=module_names(min(prefetch_hot, spec.modules)),
                  **options)


def power_sweep(spec: WorkloadSpec, caps_mw: List[Optional[float]],
                **bench_kwargs: Any) -> List[Dict[str, Any]]:
    """Replay the same workload under several peak-power caps.

    The first point is always the uncapped baseline (power accounting
    on, governor off); each capped point reports its deadline-miss
    delta against it — the deadline-miss-vs-energy tradeoff curve.
    A ``None`` in ``caps_mw`` is skipped (the baseline already covers
    it).  Caps infeasible for a single reconfiguration surface in-band
    as failed requests, so a sweep never aborts mid-curve.
    """
    bench_kwargs.pop("peak_power_mw", None)
    profile = bench_kwargs.pop("power_profile", None) or DEFAULT_PROFILE
    baseline = bench(spec, power_profile=profile, **bench_kwargs)
    points: List[Dict[str, Any]] = []
    entry = baseline.to_dict()
    entry["power_cap_mw"] = None
    entry["miss_delta_vs_uncapped"] = 0.0
    points.append(entry)
    for cap in caps_mw:
        if cap is None:
            continue
        report = bench(spec, power_profile=profile, peak_power_mw=cap,
                       **bench_kwargs)
        entry = report.to_dict()
        entry["power_cap_mw"] = cap
        entry["miss_delta_vs_uncapped"] = round(
            report.deadline_miss_rate - baseline.deadline_miss_rate, 6)
        points.append(entry)
    return points
