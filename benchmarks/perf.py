"""Wall-clock perf harness for the DPR simulator.

Runs the canonical benches (bitstream generation, raw ICAP parse,
end-to-end reconfiguration, the Table II sweep — tracer-off and
tracer-on, the ISS unroll sweep and the fault campaign), records wall
time plus simulated-payload throughput to ``BENCH_perf.json``, and — in
``--check`` mode — fails when a bench regresses more than 25 % against
the committed baseline or a same-run A/B gate fails (block ISS run
loop against its one-step oracle, power accounting, 2-worker fleet
scaling).  ``--obs-check``
additionally gates the observability layer's detached overhead below
2 % on Table II.

Wall-clock numbers are machine-dependent, so every run also times a
fixed pure-Python calibration workload (the scalar CRC reference over a
known word block).  ``--check`` compares *calibration-normalized* wall
times, which keeps the regression gate meaningful when CI runners and
developer laptops differ in single-core speed.

Usage::

    PYTHONPATH=src python benchmarks/perf.py              # run + write JSON
    PYTHONPATH=src python benchmarks/perf.py --check      # gate vs baseline
    PYTHONPATH=src python benchmarks/perf.py --bench table2 --repeat 3
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Tuple
from unittest import mock

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_JSON = REPO_ROOT / "BENCH_perf.json"

SCHEMA = "rvcap-perf/1"

#: wall seconds measured on the pre-optimization tree (same machine that
#: produced the committed baseline; used only for the speedup column).
PRE_PR_WALL_S = {
    "bitgen_ref": 0.387,
    "icap_stream": 0.368,
    "e2e_reconfig": 0.478,
    "table2": 3.456,
    "iss_unroll": 0.852,
    "fault_sweep": 4.682,
    "sched_replay": 1.1552,
    "table2_obs": 0.5312,
}

#: allowed normalized wall-clock regression before --check fails
REGRESSION_TOLERANCE = 1.25

#: block-engine gate: iss_unroll must run >= this much faster on the
#: production run loop (compiled basic blocks) than with the
#: one-step-per-instruction oracle of tests/property/iss_oracle.py
#: patched over ``Hart.run_until``.  Measured as a same-run A/B (same
#: process, same machine), so CI-runner speed differences cancel
#: exactly — the old fixed-constant formulation (5x vs the
#: interpreter-*era* seed, which also predated the MMIO fastpath and
#: kernel batching that sped the interpreter up too) flagged spurious
#: failures whenever the runner drifted from the machine that captured
#: the constants.  The block loop's win measures 3.2-4.7x on a 2-vCPU
#: x86 host; gate at 1.8x.
ISS_UNROLL_MIN_SPEEDUP = 1.8

#: serving-path seed gates: each bench must stay >= min_speedup faster
#: than the pre-optimization engine, calibration-normalized.  The seed
#: (wall_s, calibration_wall_s) pairs were captured by re-running the
#: committed pre-optimization tree on the machine that refreshed the
#: baseline, in the same session — name -> (wall, calib, min_speedup).
SEED_GATES = {
    "sched_replay": (1.4971, 0.0365, 3.0),
    "table2_obs": (0.3069, 0.0365, 1.5),
}

#: power-accounting gate: the power_replay bench (sched_replay's exact
#: workload plus profile + governor) must stay within this factor of
#: the plain sched_replay wall, measured as a same-run A/B so machine
#: speed cancels — energy accounting must not tax the serving path.
POWER_REPLAY_MAX_OVERHEAD = 1.25

#: fleet gate: the fault sweep sharded over 2 workers must run >= this
#: much faster than the same sweep run serially, measured as a same-run
#: A/B.  Fork-pool start-up and a second busy process need cores to
#: spare, so the ratio gates only on hosts with at least
#: FLEET_GATE_MIN_CPUS cores and is reported elsewhere (2-vCPU hosts
#: measure 0.75x-1.31x).
FLEET_MIN_SPEEDUP = 1.7
FLEET_GATE_MIN_CPUS = 4

#: allowed tracer-off overhead of the observability layer: the guarded
#: emit sites (`obs is not None` checks) must cost <2 % on the Table II
#: workload vs the committed baseline (--obs-check)
OBS_OVERHEAD_TOLERANCE = 1.02


# ---------------------------------------------------------------------------
# bench bodies live in repro.eval.benches so `python -m repro profile`
# runs the exact same workloads the regression gate times
# ---------------------------------------------------------------------------

from repro.eval.benches import BENCHES  # noqa: E402


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------

def calibrate() -> float:
    """Time a fixed scalar-CRC workload to normalize machine speed."""
    from repro.utils.crc import crc32_config_word

    payload = [(i * 0x9E3779B9) & 0xFFFF_FFFF for i in range(20_000)]
    best = float("inf")
    for _ in range(3):
        crc = 0
        t0 = time.perf_counter()
        for word in payload:
            crc = crc32_config_word(crc, word, 2)
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(name: str, repeat: int) -> Tuple[float, int]:
    fn = BENCHES[name]
    best = float("inf")
    work = 0
    for _ in range(repeat):
        # start every timed run from a collected heap — garbage carried
        # over from earlier benches otherwise lands its collection cost
        # on whichever bench happens to trip the GC threshold, which is
        # exactly the kind of cross-bench contamination that breaks the
        # few-percent A/B gates
        gc.collect()
        t0 = time.perf_counter()
        work = fn()
        best = min(best, time.perf_counter() - t0)
    return best, work


def iss_oracle_wall() -> float:
    """Wall of ``iss_unroll`` with the ISS oracle over ``Hart.run_until``.

    The oracle (``tests/property/iss_oracle.py``) imports only
    ``repro``, so this needs neither pytest nor hypothesis.
    """
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from repro.riscv.hart import Hart
    from tests.property.iss_oracle import run_until

    with mock.patch.object(Hart, "run_until", run_until):
        wall, _ = run_bench("iss_unroll", 1)
    return wall


def fleet_speedup() -> float:
    """Same-run A/B: a serial fault sweep's wall over the 2-worker one.

    Both runs sweep identical units back to back in this process, so
    machine speed cancels.
    """
    from repro.fleet import run_fleet

    params = {"points": 2, "kinds": ("bitflip", "truncate")}
    walls = []
    for workers in (1, 2):
        gc.collect()
        t0 = time.perf_counter()
        run_fleet("faults", workers=workers, seed=3, params=params)
        walls.append(time.perf_counter() - t0)
    serial_wall, sharded_wall = walls
    return serial_wall / sharded_wall if sharded_wall > 0 else float("inf")


def run_all(names: List[str], repeat: int) -> dict:
    results = []
    for name in names:
        wall, work = run_bench(name, repeat)
        mb_s = work / wall / 1e6 if wall > 0 else 0.0
        baseline = PRE_PR_WALL_S.get(name)
        entry = {
            "name": name,
            "wall_s": round(wall, 4),
            "sim_mb_s": round(mb_s, 2),
            "speedup_vs_baseline": round(baseline / wall, 2) if baseline else None,
        }
        results.append(entry)
        print(
            f"{name:14s} {wall:8.3f} s   {mb_s:9.2f} MB/s   "
            f"{entry['speedup_vs_baseline'] or '-':>6}x vs pre-opt"
        )
    return {
        "schema": SCHEMA,
        "calibration_wall_s": round(calibrate(), 4),
        "benches": results,
    }


# ---------------------------------------------------------------------------
# regression gate
# ---------------------------------------------------------------------------

def check_regressions(current: dict, baseline_path: Path) -> int:
    if not baseline_path.exists():
        print(
            f"perf-check: no committed baseline at {baseline_path}; "
            "skipping gate (non-blocking first run)"
        )
        return 0
    baseline = json.loads(baseline_path.read_text())
    base_calib = baseline.get("calibration_wall_s") or 1.0
    cur_calib = current.get("calibration_wall_s") or 1.0
    base_by_name = {b["name"]: b for b in baseline.get("benches", [])}
    failures = []
    for bench in current["benches"]:
        ref = base_by_name.get(bench["name"])
        if ref is None:
            continue
        # normalize by the calibration workload so differently-fast
        # machines compare like for like
        cur_norm = bench["wall_s"] / cur_calib
        ref_norm = ref["wall_s"] / base_calib
        ratio = cur_norm / ref_norm if ref_norm > 0 else 1.0
        tag = "FAIL" if ratio > REGRESSION_TOLERANCE else "ok"
        print(
            f"perf-check: {bench['name']:14s} normalized {ratio:5.2f}x "
            f"of baseline [{tag}]"
        )
        if ratio > REGRESSION_TOLERANCE:
            failures.append((bench["name"], ratio))
    for bench in current["benches"]:
        gate = SEED_GATES.get(bench["name"])
        if gate is not None:
            # absolute gate: the optimized engine's win over the seed
            # must hold, not just not-regress vs the last commit
            seed_wall, seed_calib, min_speedup = gate
            seed_norm = seed_wall / seed_calib
            cur_norm = bench["wall_s"] / cur_calib
            speedup = seed_norm / cur_norm if cur_norm > 0 else float("inf")
            tag = "ok" if speedup >= min_speedup else "FAIL"
            print(
                f"perf-check: {bench['name']} seed speedup {speedup:5.2f}x "
                f"(need >= {min_speedup:.1f}x) [{tag}]"
            )
            if speedup < min_speedup:
                failures.append((f"{bench['name']}(seed-speedup)", speedup))
        if bench["name"] == "iss_unroll":
            # same-run A/B: time the bench on the one-step oracle and
            # compare against the block-loop wall just measured —
            # machine speed cancels exactly
            interp_wall = iss_oracle_wall()
            block_wall = bench["wall_s"]
            speedup = (interp_wall / block_wall if block_wall > 0
                       else float("inf"))
            tag = "ok" if speedup >= ISS_UNROLL_MIN_SPEEDUP else "FAIL"
            print(
                f"perf-check: iss_unroll block-engine speedup "
                f"{speedup:5.2f}x vs one-step oracle (same-run A/B, need "
                f">= {ISS_UNROLL_MIN_SPEEDUP:.1f}x) [{tag}]"
            )
            if speedup < ISS_UNROLL_MIN_SPEEDUP:
                failures.append(("iss_unroll(seed-speedup)", speedup))
        if bench["name"] == "power_replay":
            # same-run A/B against the plain scheduler replay.  Both
            # benches are re-timed here, back to back, rather than
            # reusing walls from run_all — minutes of elapsed time (and
            # load drift) between the two run_all measurements can
            # swamp the few-percent overhead being gated
            plain_wall, _ = run_bench("sched_replay", 3)
            power_wall, _ = run_bench("power_replay", 3)
            ratio = power_wall / plain_wall if plain_wall > 0 else 1.0
            tag = "ok" if ratio <= POWER_REPLAY_MAX_OVERHEAD else "FAIL"
            print(
                f"perf-check: power_replay accounting overhead "
                f"{ratio:5.2f}x of sched_replay (same-run A/B, need "
                f"<= {POWER_REPLAY_MAX_OVERHEAD:.2f}x) [{tag}]"
            )
            if ratio > POWER_REPLAY_MAX_OVERHEAD:
                failures.append(("power_replay(accounting-overhead)",
                                 ratio))
    speedup = fleet_speedup()
    cpus = os.cpu_count() or 1
    if cpus >= FLEET_GATE_MIN_CPUS:
        tag = "ok" if speedup >= FLEET_MIN_SPEEDUP else "FAIL"
        if speedup < FLEET_MIN_SPEEDUP:
            failures.append(("fleet(2-worker-speedup)", speedup))
    else:
        tag = f"report only: {cpus} cpus"
    print(
        f"perf-check: fleet 2-worker speedup {speedup:5.2f}x vs serial "
        f"(same-run A/B, need >= {FLEET_MIN_SPEEDUP:.1f}x on >= "
        f"{FLEET_GATE_MIN_CPUS} cpus) [{tag}]"
    )
    if failures:
        worst = max(failures, key=lambda f: f[1])
        print(
            f"perf-check: FAILED — {len(failures)} bench(es) regressed "
            f">{(REGRESSION_TOLERANCE - 1) * 100:.0f}% "
            f"(worst: {worst[0]} at {worst[1]:.2f}x)"
        )
        return 1
    print("perf-check: all benches within tolerance")
    return 0


def check_obs_overhead(repeat: int, baseline_path: Path) -> int:
    """Gate the observability layer's cost on the Table II workload.

    Two measurements: ``table2`` with the tracer detached (the emit
    sites reduce to one ``is not None`` check each) and ``table2_obs``
    with a full tracer+metrics registry attached.  The tracer-ON ratio
    is informational; the gate is on tracer-OFF — calibration-normalized
    against the committed baseline, it must stay under
    ``OBS_OVERHEAD_TOLERANCE`` (2 %).
    """
    calib = calibrate()
    off_wall, _ = run_bench("table2", repeat)
    on_wall, _ = run_bench("table2_obs", repeat)
    on_ratio = on_wall / off_wall if off_wall > 0 else 1.0
    print(f"obs-check: table2 tracer-off {off_wall:7.3f} s")
    print(f"obs-check: table2 tracer-on  {on_wall:7.3f} s "
          f"({on_ratio:5.2f}x of tracer-off, informational)")
    if not baseline_path.exists():
        print(f"obs-check: no committed baseline at {baseline_path}; "
              "skipping gate (non-blocking first run)")
        return 0
    baseline = json.loads(baseline_path.read_text())
    base_calib = baseline.get("calibration_wall_s") or 1.0
    ref = next((b for b in baseline.get("benches", [])
                if b["name"] == "table2"), None)
    if ref is None:
        print("obs-check: baseline has no table2 entry; skipping gate")
        return 0
    ratio = (off_wall / calib) / (ref["wall_s"] / base_calib)
    tag = "FAIL" if ratio > OBS_OVERHEAD_TOLERANCE else "ok"
    print(f"obs-check: tracer-off normalized {ratio:5.3f}x of baseline "
          f"(tolerance {OBS_OVERHEAD_TOLERANCE:.2f}x) [{tag}]")
    if ratio > OBS_OVERHEAD_TOLERANCE:
        print("obs-check: FAILED — detached observability costs more "
              f"than {(OBS_OVERHEAD_TOLERANCE - 1) * 100:.0f}% on the "
              "Table II workload")
        return 1
    print("obs-check: detached observability overhead within tolerance")
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench", action="append", choices=sorted(BENCHES),
        help="run only the named bench (repeatable; default: all)",
    )
    parser.add_argument(
        "--repeat", type=int, default=2,
        help="runs per bench; best-of-N wall time is recorded (default 2)",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help=f"output path (default {DEFAULT_JSON})",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline and fail on "
             f">{(REGRESSION_TOLERANCE - 1) * 100:.0f}%% normalized regression",
    )
    parser.add_argument(
        "--baseline", type=Path, default=DEFAULT_JSON,
        help="baseline JSON for --check (default: the committed one)",
    )
    parser.add_argument(
        "--obs-check", action="store_true",
        help="gate the detached-observability overhead on the Table II "
             f"workload (<{(OBS_OVERHEAD_TOLERANCE - 1) * 100:.0f}%% vs "
             "baseline); tracer-on cost is reported alongside",
    )
    args = parser.parse_args(argv)

    if args.obs_check:
        return check_obs_overhead(max(3, args.repeat), args.baseline)

    names = args.bench or list(BENCHES)
    current = run_all(names, max(1, args.repeat))

    out_path = args.json
    if args.check:
        status = check_regressions(current, args.baseline)
    else:
        status = 0
        if out_path is None:
            out_path = DEFAULT_JSON
    if out_path is not None:
        out_path.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {out_path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
