"""Fleet runner: shard independent simulation units across processes.

The SoC simulator is single-threaded Python, so evaluation campaigns
(fault sweeps, unroll studies, scheduler rate sweeps) are wall-clock
bound by one core.  Their points are mutually independent — each builds
its own SoC — which makes them embarrassingly parallel at the process
level.  ``run_fleet`` maps a task's unit list over a ``fork``-context
``multiprocessing.Pool`` and merges the ordered results.

Determinism contract: the *unit decomposition* is the source of truth.
Serial mode (``workers=1``) executes the exact same unit list in the
exact same order in-process, so ``FleetReport.stable_json()`` is
byte-identical between a serial run and any worker count.  Host-time
fields (wall seconds, worker count) are excluded from the stable view.

Each unit runs under its own :class:`~repro.obs.Observability`; the
per-shard metric registries are merged in unit order via
:meth:`~repro.obs.MetricsRegistry.merge` into one fleet-wide snapshot.
"""

from __future__ import annotations

import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ControllerError
from repro.fleet.tasks import FLEET_TASKS, Unit
from repro.obs import Observability, set_default_observability
from repro.obs.metrics import MetricsRegistry


def _execute_unit(payload: Tuple[str, Unit]) -> Dict[str, Any]:
    """Run one unit under a fresh default observability (worker entry).

    Top-level so it pickles by reference into pool workers; dispatch
    goes through the task registry, never through pickled closures.
    """
    name, unit = payload
    task = FLEET_TASKS[name]
    obs = Observability()
    set_default_observability(obs)
    try:
        result = task.run_unit(unit)
    finally:
        set_default_observability(None)
    # a plain copy: observed instruments would keep the unit's SoCs alive
    metrics = MetricsRegistry()
    metrics.merge(obs.metrics)
    return {"unit": unit, "result": result, "metrics": metrics}


@dataclass
class FleetReport:
    """Merged view of one fleet run, JSON-exportable."""

    task: str
    seed: int
    workers: int
    units: List[Dict[str, Any]] = field(default_factory=list)
    summary: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    wall_seconds: float = 0.0

    def stable_dict(self) -> Dict[str, Any]:
        """Deterministic content only — identical for any worker count."""
        return {
            "schema": "repro-fleet-v1",
            "task": self.task,
            "seed": self.seed,
            "units": self.units,
            "summary": self.summary,
            "metrics": self.metrics,
        }

    def stable_json(self) -> str:
        return json.dumps(self.stable_dict(), indent=2, sort_keys=True)

    def to_dict(self) -> Dict[str, Any]:
        out = self.stable_dict()
        out["workers"] = self.workers
        out["wall_seconds"] = round(self.wall_seconds, 3)
        return out

    def render(self) -> str:
        lines = [
            f"fleet {self.task}: {len(self.units)} units, "
            f"{self.workers} worker(s), seed {self.seed}, "
            f"{self.wall_seconds:.2f} s wall",
        ]
        for key in sorted(self.summary):
            lines.append(f"  {key}: {self.summary[key]}")
        return "\n".join(lines)


def run_fleet(task: str, *, workers: int = 1, seed: int = 2026,
              params: Optional[Mapping[str, Any]] = None) -> FleetReport:
    """Run every unit of ``task``, sharded over ``workers`` processes.

    ``params`` is forwarded to the task's unit decomposition (e.g.
    ``points``/``kinds`` for faults, ``factors`` for unroll).  Results
    always come back in unit order regardless of completion order.
    """
    spec = FLEET_TASKS.get(task)
    if spec is None:
        raise ControllerError(
            f"unknown fleet task {task!r}; "
            f"available: {', '.join(sorted(FLEET_TASKS))}")
    if workers < 1:
        raise ControllerError("workers must be >= 1")
    units = spec.units(seed=seed, **dict(params or {}))
    payload = [(task, unit) for unit in units]

    started = time.perf_counter()
    if workers == 1 or len(payload) <= 1:
        raw = [_execute_unit(item) for item in payload]
    else:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            # no fork on this platform: degrade to the serial path,
            # which produces the identical stable report
            raw = [_execute_unit(item) for item in payload]
        else:
            with ctx.Pool(min(workers, len(payload))) as pool:
                # ordered map: results come back in unit order
                raw = pool.map(_execute_unit, payload, chunksize=1)
    wall = time.perf_counter() - started

    merged = MetricsRegistry()
    for entry in raw:
        merged.merge(entry["metrics"])
    results = [entry["result"] for entry in raw]
    return FleetReport(
        task=task, seed=seed, workers=workers,
        units=[{"unit": entry["unit"], "result": entry["result"]}
               for entry in raw],
        summary=spec.summarize(results),
        metrics=merged.snapshot(),
        wall_seconds=wall,
    )
