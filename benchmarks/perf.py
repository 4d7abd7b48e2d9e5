"""Same-run ratio gates on the simulator's host speed.

Each gate times two workloads back to back in this process, so machine
speed cancels out of the ratio:

* ``iss_unroll``: the block ISS run loop must run the unroll-16 HWICAP
  firmware (``unroll_sweep((16,))``) >= 1.8x faster than the one-step
  oracle ``tests/property/iss_oracle.run_until`` patched over
  ``Hart.run_until``;
* ``power_replay``: a 400-request scheduler replay with a power profile
  and a peak-power governor must stay <= 1.25x of the same replay
  without them (``sched_replay``);
* ``obs_replay``: that replay with observability attached
  (``sched_replay``: ``bench``, whose ``replay`` attaches it) must stay
  <= 1.50x of the same requests served detached (``detached_replay``:
  ``DprScheduler.run`` on a fresh ``build_sched_soc``/``make_cache``
  platform).  On a shared 2-vCPU x86 host with CPython 3.11 the ratio
  read a median of 1.33 (1.25-1.54, 10 runs) before the tracer and its
  emit sites were reworked for cost and 1.24 (0.96-1.47, 15 runs)
  after.  That host's noise is wider than the gap, so the bound sits
  just above the worst reading after: it catches the attached cost
  growing by half again, not a drift back to the old 1.33;
* ``fleet``: a fault sweep sharded over 2 fleet workers must run >= 1.7x
  faster than the same sweep run serially.  Pool start-up and a second
  busy process need cores to spare, so this ratio gates only on hosts
  with >= 4 cores and is reported elsewhere.

Both sides run once untimed (block compilation, imports, first-touch
allocation), then ``RUNS`` times each in alternating order; a ratio
compares the two sides' best walls.  End-to-end timing lives in
``benchmarks/rvbench`` and its parent/change A/B in ``benchmarks/ab.py``.

Usage::

    python benchmarks/perf.py        # exit 1 when a gate fails
"""

from __future__ import annotations

import gc
import os
import sys
import time
from pathlib import Path
from typing import Callable, Tuple
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
# the oracle imports only repro, so this needs neither pytest nor hypothesis
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from repro.eval.figures import unroll_sweep  # noqa: E402
from repro.fleet import run_fleet  # noqa: E402
from repro.power import DEFAULT_PROFILE  # noqa: E402
from repro.riscv.hart import Hart  # noqa: E402
from repro.sched import (  # noqa: E402
    WorkloadSpec, bench, build_sched_soc, make_cache, synthesize,
)
from repro.sched.scheduler import DprScheduler  # noqa: E402
from tests.property.iss_oracle import run_until  # noqa: E402

#: timed runs per side; each ratio divides best-of-RUNS walls
RUNS = 4
FLEET_GATE_MIN_CPUS = 4

SCHED_SPEC = WorkloadSpec(requests=400, arrival_rate_rps=2000.0, modules=8,
                          frame=32, deadline_slack_us=20_000.0, seed=2026)


def iss_block() -> None:
    unroll_sweep((16,))


def iss_oracle() -> None:
    with mock.patch.object(Hart, "run_until", run_until):
        unroll_sweep((16,))


def sched_replay() -> None:
    bench(SCHED_SPEC, cache_bytes=1 << 20)


def detached_replay() -> None:
    manager = build_sched_soc(SCHED_SPEC.modules, frame=SCHED_SPEC.frame)
    cache = make_cache(manager, arena_bytes=1 << 20)
    DprScheduler(manager, cache=cache).run(synthesize(SCHED_SPEC))


def power_replay() -> None:
    bench(SCHED_SPEC, cache_bytes=1 << 20, power_profile=DEFAULT_PROFILE,
          peak_power_mw=400.0, power_window_us=2000.0)


def fleet(workers: int) -> Callable[[], None]:
    params = {"points": 2, "kinds": ("bitflip", "truncate")}
    return lambda: run_fleet("faults", workers=workers, seed=3, params=params)


def best_walls(a: Callable[[], None], b: Callable[[], None]
               ) -> Tuple[float, float]:
    """Best-of-RUNS wall of each side, alternating which runs first."""
    a()
    b()
    best = [float("inf"), float("inf")]
    for i in range(RUNS):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            # a collected heap: garbage from the other side must not
            # land its collection on this one
            gc.collect()
            t0 = time.perf_counter()
            (a, b)[side]()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best[0], best[1]


def main() -> int:
    block, oracle = best_walls(iss_block, iss_oracle)
    plain, power = best_walls(sched_replay, power_replay)
    attached, detached = best_walls(sched_replay, detached_replay)
    serial, sharded = best_walls(fleet(1), fleet(2))
    cpus = os.cpu_count() or 1
    gates = [
        ("iss_unroll", f"one-step oracle {oracle:.3f} s / block loop "
         f"{block:.3f} s", oracle / block, ">=", 1.8, True),
        ("power_replay", f"power_replay {power:.3f} s / sched_replay "
         f"{plain:.3f} s", power / plain, "<=", 1.25, True),
        ("obs_replay", f"sched_replay {attached:.3f} s / detached_replay "
         f"{detached:.3f} s", attached / detached, "<=", 1.50, True),
        ("fleet", f"serial {serial:.3f} s / 2 workers {sharded:.3f} s",
         serial / sharded, ">=", 1.7, cpus >= FLEET_GATE_MIN_CPUS),
    ]
    failed = []
    for name, walls, ratio, op, bound, gated in gates:
        ok = ratio >= bound if op == ">=" else ratio <= bound
        tag = ("ok" if ok else "FAIL") if gated else \
            f"report only: {cpus} cpus < {FLEET_GATE_MIN_CPUS}"
        print(f"perf: {name:12s} {ratio:5.2f}x (need {op} {bound:.2f}x; "
              f"{walls}) [{tag}]")
        if gated and not ok:
            failed.append(name)
    if failed:
        print(f"perf: FAILED {', '.join(failed)}")
        return 1
    print("perf: all same-run ratio gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
