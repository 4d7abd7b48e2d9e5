"""Fleet task catalog: evaluation workloads decomposed into shards.

A fleet *task* names an evaluation workload whose points are mutually
independent — each point builds its own SoC, runs, and reports — so the
runner can execute them in any order, in any process, and still merge
to one deterministic report.  Each task contributes:

``units(seed=..., **params)``
    The full, ordered list of unit descriptors.  A unit is a plain
    JSON/pickle-able dict carrying everything ``run_unit`` needs,
    including a per-unit seed derived from the campaign seed — the
    decomposition itself is what makes serial and sharded runs
    byte-identical.

``run_unit(unit)``
    Execute one unit in the current process and return a JSON-able
    result dict containing only deterministic (simulated-time) fields.

``summarize(results)``
    Fold the ordered result list into the task-level scorecard.

The runner (:mod:`repro.fleet.runner`) wraps ``run_unit`` with a fresh
:class:`~repro.obs.Observability` per unit and merges the per-shard
metric registries afterwards.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.eval.fault_sweep import fault_sweep
from repro.eval.figures import unroll_sweep
from repro.faults.campaign import ALL_KINDS
from repro.sched.replay import bench
from repro.sched.workload import WorkloadSpec

Unit = Dict[str, Any]
Result = Dict[str, Any]


def derive_seed(seed: int, *tokens: object) -> int:
    """Stable per-unit seed: mix the campaign seed with unit coordinates.

    CRC32 over the stringified coordinates keeps the derivation
    platform- and process-independent (no ``hash()`` randomization), so
    the same campaign seed always yields the same unit seeds.
    """
    text = ":".join(str(token) for token in tokens)
    return (seed * 0x9E37_79B1 + zlib.crc32(text.encode("utf-8"))) & 0x7FFF_FFFF


@dataclass(frozen=True)
class FleetTask:
    """One shardable workload: decomposition, execution, aggregation."""

    name: str
    description: str
    units: Callable[..., List[Unit]]
    run_unit: Callable[[Unit], Result]
    summarize: Callable[[List[Result]], Dict[str, Any]]


# ----------------------------------------------------------------------
# faults: one unit per (kind, point) of the injection campaign
# ----------------------------------------------------------------------
def _fault_units(*, seed: int, points: int = 2,
                 kinds: Optional[Sequence[str]] = None,
                 mode: str = "interrupt") -> List[Unit]:
    sweep_kinds = tuple(kinds) if kinds else ALL_KINDS
    units: List[Unit] = []
    for kind in sweep_kinds:
        for index in range(points):
            units.append({
                "kind": kind,
                "index": index,
                "mode": mode,
                "seed": derive_seed(seed, "faults", kind, index),
            })
    return units


def _fault_run(unit: Unit) -> Result:
    report = fault_sweep(points=1, seed=unit["seed"],
                         kinds=(unit["kind"],), mode=unit["mode"])
    outcome = report.outcomes[0]
    return {
        "kind": outcome.kind,
        "point": outcome.point,
        "detected": outcome.detected,
        "recovered": outcome.recovered,
        "error": outcome.error,
    }


def _fault_summary(results: List[Result]) -> Dict[str, Any]:
    n = len(results)
    detected = sum(1 for r in results if r["detected"])
    recovered = sum(1 for r in results if r["recovered"])
    return {
        "points": n,
        "detected": detected,
        "recovered": recovered,
        "detection_rate": round(detected / n, 6) if n else 1.0,
        "recovery_rate": round(recovered / n, 6) if n else 1.0,
    }


# ----------------------------------------------------------------------
# unroll: one unit per loop-unroll factor of the Sec. IV-B study
# ----------------------------------------------------------------------
def _unroll_units(*, seed: int,
                  factors: Sequence[int] = (1, 2, 4, 8, 16, 32)) -> List[Unit]:
    del seed  # the firmware study is fully deterministic
    return [{"factor": int(factor)} for factor in factors]


def _unroll_run(unit: Unit) -> Result:
    point = unroll_sweep((unit["factor"],)).points[0]
    return {
        "unroll": point.unroll,
        "tr_us": round(point.tr_us, 3),
        "throughput_mb_s": round(point.throughput_mb_s, 3),
        "instructions": point.instructions,
    }


def _unroll_summary(results: List[Result]) -> Dict[str, Any]:
    best = max(results, key=lambda r: float(r["throughput_mb_s"]),
               default=None)
    return {
        "points": len(results),
        "best_unroll": best["unroll"] if best else None,
        "best_throughput_mb_s": best["throughput_mb_s"] if best else None,
    }


# ----------------------------------------------------------------------
# sched: one unit per arrival rate of a scheduler replay rate sweep
# ----------------------------------------------------------------------
def _sched_units(*, seed: int,
                 rates: Sequence[float] = (1000.0, 2000.0, 4000.0),
                 requests: int = 400, modules: int = 8, frame: int = 32,
                 cache_bytes: int = 1 << 20,
                 power: bool = False,
                 power_cap_mw: Optional[float] = None,
                 power_window_us: float = 200.0) -> List[Unit]:
    return [{
        "rate": float(rate),
        "requests": requests,
        "modules": modules,
        "frame": frame,
        "cache_bytes": cache_bytes,
        # energy accounting is simulated-time-only, so power units stay
        # byte-identical between serial and sharded runs
        "power": bool(power or power_cap_mw is not None),
        "power_cap_mw": power_cap_mw,
        "power_window_us": power_window_us,
        # same workload shape at every rate (as sched-bench --sweep)
        "seed": seed,
    } for rate in rates]


def _sched_run(unit: Unit) -> Result:
    spec = WorkloadSpec(requests=unit["requests"],
                        arrival_rate_rps=unit["rate"],
                        modules=unit["modules"], frame=unit["frame"],
                        deadline_slack_us=20_000.0, seed=unit["seed"])
    power_kwargs: Dict[str, Any] = {}
    if unit.get("power"):
        from repro.power import DEFAULT_PROFILE
        power_kwargs = {
            "power_profile": DEFAULT_PROFILE,
            "peak_power_mw": unit.get("power_cap_mw"),
            "power_window_us": unit.get("power_window_us", 200.0),
        }
    report = bench(spec, cache_bytes=unit["cache_bytes"], **power_kwargs)
    out = report.to_dict()
    # wall_seconds is host time — the one non-deterministic field
    del out["wall_seconds"]
    out["arrival_rate_rps"] = unit["rate"]
    return out


def _sched_summary(results: List[Result]) -> Dict[str, Any]:
    summary = {
        "points": len(results),
        "completed": sum(int(r["completed"]) for r in results),
        "deadline_misses": sum(int(r["deadline_misses"]) for r in results),
        "reconfigurations": sum(int(r["reconfigurations"]) for r in results),
    }
    powered = [r["power"] for r in results if r.get("power")]
    if powered:
        summary["energy_nj_total"] = round(
            sum(float(p["energy_nj_total"]) for p in powered), 3)
        summary["power_deferrals"] = sum(
            int(p["power_deferrals"]) for p in powered)
    return summary


FLEET_TASKS: Dict[str, FleetTask] = {
    "faults": FleetTask(
        name="faults",
        description="fault-injection campaign, one shard per (kind, point)",
        units=_fault_units, run_unit=_fault_run, summarize=_fault_summary),
    "unroll": FleetTask(
        name="unroll",
        description="HWICAP loop-unroll study, one shard per factor",
        units=_unroll_units, run_unit=_unroll_run,
        summarize=_unroll_summary),
    "sched": FleetTask(
        name="sched",
        description="scheduler replay rate sweep, one shard per rate",
        units=_sched_units, run_unit=_sched_run, summarize=_sched_summary),
}
