"""rvbench: end-to-end and per-layer benchmark of the RV-CAP simulator.

Runs each workload in its own fresh, single-threaded subprocess (one at
a time), checks every rep's simulated output against golden.json, and
prints every metric by name with its unit::

    python benchmarks/rvbench/run.py                         # all workloads
    python benchmarks/rvbench/run.py --workload serve_hot --seed 7
    python benchmarks/rvbench/run.py --trace --json out.json

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics BENCHMARK.json
lists, or with ``--trace 1`` its per-layer metrics.  ``--trace`` adds
one cProfile'd rep per workload and writes the per-layer ledger and the
benchmark's spans to ``rvbench-trace.json`` in the working directory.
Exits 1 when any output mismatches, 2 when the source tree is missing.
See README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
GOLDEN_JSON = HERE / "golden.json"
TRACE_JSON = Path("rvbench-trace.json")

DEFAULT_SEED = 2026
#: fresh processes sampled for setup_s: this many set-up-only probes
#: plus the measuring process itself
SETUP_PROBES = 2
#: a workload subprocess that runs longer than this is a hung run
CHILD_TIMEOUT_S = 170

#: every end-to-end metric and its unit; the catalog with directions
#: and bounds is in README.md, the gated subset in BENCHMARK.json
E2E_UNITS = {
    "run_s": "s",
    "run_norm": "chunks",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fail_rate": "fraction",
    "sim_latency_p50_us": "us",
    "sim_latency_p99_us": "us",
    "sim_miss_rate": "fraction",
    "sim_reconfig_mb_s": "MB/s",
    "paper_err_pct": "%",
}

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def child_env() -> tuple[Dict[str, str], Dict[str, str]]:
    """Environment for a workload process, and the REPRO_* it drops.

    The benchmark always measures the production default engines, with
    a fixed hash seed and single-threaded numeric libraries.
    """
    env = dict(os.environ)
    removed = {key: env.pop(key) for key in sorted(env)
               if key.startswith("REPRO_")}
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env, removed


def spawn(env: Dict[str, str], workload: str, seed: int, reps: int,
          trace: bool, setup_only: bool) -> Dict[str, Any]:
    """Run one workload process to completion; its JSON result."""
    args = [sys.executable, str(HERE / "workloads.py"),
            "--workload", workload, "--seed", str(seed), "--reps", str(reps),
            "--trace", str(int(trace))]
    if setup_only:
        args.append("--setup-only")
    args += ["--t0-ns", str(time.monotonic_ns())]
    proc = subprocess.run(args, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: List[Optional[float]]) -> Optional[Dict[str, float]]:
    """median, q1, q3 and n of the samples; None when there are none."""
    data = [v for v in values if v is not None]
    if not data:
        return None
    q1, _q2, q3 = (statistics.quantiles(data, n=4) if len(data) > 1
                   else (data[0], data[0], data[0]))
    return {"median": statistics.median(data), "q1": q1, "q3": q3,
            "n": len(data)}


def check(name: str, child: Dict[str, Any], seed: int,
          golden: Dict[str, Any]) -> Dict[str, Any]:
    """Compare every rep's digest with the expected one.

    The golden digest applies to the golden seed (and to the paper
    workloads, which ignore the seed); for any other seed every rep must
    reproduce the first timed rep's digest.
    """
    entry = golden[name]
    samples = child["samples"]
    seeded = workloads.WORKLOADS[name].seeded
    use_golden = not seeded or seed == entry["seed"]
    expected = entry["digest"] if use_golden else samples["digest"][0]
    reps = [(child["warmup"]["digest"], samples["ops"][0])]
    reps += list(zip(samples["digest"], samples["ops"], strict=True))
    errors = [child["warmup"]["errors"], *samples["errors"]]
    if child["trace"] is not None:
        reps.append((child["trace"]["digest"], samples["ops"][0]))
        errors.append(child["trace"]["errors"])
    failed = sum(ops if digest != expected else err
                 for (digest, ops), err in zip(reps, errors, strict=True))
    problems = []
    if failed:
        problems.append(f"{failed} failed ops; digests "
                        f"{sorted({d for d, _ in reps})} != {expected}")
    err_pct = samples["paper_err_pct"][0]
    if err_pct != entry["paper_err_pct"]:
        problems.append(f"paper_err_pct {err_pct} != committed "
                        f"{entry['paper_err_pct']}")
    return {"attempted": sum(ops for _d, ops in reps), "failed": failed,
            "correct": not problems, "problems": problems}


def end_to_end(child: Dict[str, Any], setup_samples: List[float]
               ) -> Dict[str, Any]:
    samples = child["samples"]
    stats = {
        "run_s": summarize(samples["run_s"]),
        "run_norm": summarize([
            None if chunk is None else run / chunk for run, chunk
            in zip(samples["run_s"], samples["chunk_s"], strict=True)]),
        "setup_s": summarize(setup_samples),
        "peak_rss_mb": summarize([child["peak_rss_mb"]]),
        "fail_rate": summarize([
            failed / ops for failed, ops
            in zip(samples["failed"], samples["ops"], strict=True)]),
    }
    for key in workloads.SIM_METRICS:
        stats[key] = summarize(samples[key])
    return {name: (None if s is None else {**s, "unit": E2E_UNITS[name]})
            for name, s in stats.items()}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, or None when it is not a git work tree.

    A checkout nested in some other work tree records None rather than
    the enclosing tree's commit.
    """
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 \
            or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def print_report(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name} (seed {result['seed']}, {result['reps']} reps, "
          f"{'ok' if result['correct'] else 'MISMATCH'})")
    for metric, stats in result["end_to_end"].items():
        if stats is None:
            print(f"  {metric:20s} {'null':>14s}")
            continue
        print(f"  {metric:20s} {stats['median']:14.6g} {stats['unit']:9s}"
              f" q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}")
    trace = result.get("trace")
    if trace:
        print(f"  trace_overhead {trace['trace_overhead']:.3f}  "
              f"(traced rep {trace['traced_rep_s']:.3f} s)")
        for layer, row in trace["layers"].items():
            print(f"  {layer:12s} self {row['self_s']:9.4f} s  share "
                  f"{row['share']:6.3f}  calls_in {row['calls_in']}")
    for problem in result["problems"]:
        print(f"  ERROR {problem}")


def summary_metrics(result: Dict[str, Any], catalog: List[Dict[str, Any]],
                   trace: bool) -> Dict[str, Dict[str, Any]]:
    """The BENCHMARK.json metrics of one workload, for the summary line."""
    out = {}
    for spec in catalog:
        name = spec["name"]
        if trace:
            value = result["trace"]["metrics"][name]
        else:
            value = result["end_to_end"][name]["median"]
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=list(workloads.WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"serving-trace seed (default {DEFAULT_SEED}; "
                             "7 is held out)")
    # the common benchmark command line passes --seconds; rep counts are
    # constants of the benchmark, so the value changes nothing
    parser.add_argument("--seconds", type=float, default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add one cProfile'd rep per workload and "
                             f"write {TRACE_JSON}")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full results (raw samples included)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"rvbench: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    benchmark = json.loads(BENCHMARK_JSON.read_text())
    golden = json.loads(GOLDEN_JSON.read_text())
    names = args.workload or list(workloads.WORKLOADS)
    env, removed = child_env()
    trace = bool(args.trace)

    results: Dict[str, Any] = {}
    for name in names:
        reps = workloads.WORKLOADS[name].reps
        setups = [spawn(env, name, args.seed, reps, False, True)
                  for _ in range(SETUP_PROBES)]
        child = spawn(env, name, args.seed, reps, trace, False)
        setups.append(child)
        setup_samples = [s["setup_s"] for s in setups]
        result = {"seed": args.seed, "reps": reps,
                  **check(name, child, args.seed, golden),
                  "end_to_end": end_to_end(child, setup_samples),
                  "samples": {**child["samples"], "setup_s": setup_samples,
                              "setup_wall_s": [s["setup_wall_s"]
                                               for s in setups],
                              "peak_rss_mb": [child["peak_rss_mb"]]},
                  "warmup": child["warmup"],
                  "trace": child["trace"]}
        results[name] = result
        print_report(name, result)

    meta = {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "removed_env": removed,
    }
    if trace:
        TRACE_JSON.write_text(json.dumps(
            {"meta": meta, "workloads": {
                name: {"untraced_digest": r["samples"]["digest"][0],
                       **r["trace"]}
                for name, r in results.items()}}, indent=1) + "\n")
        print(f"wrote {TRACE_JSON}")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"meta": meta, "workloads": results}, indent=1) + "\n")
        print(f"wrote {args.json}")

    catalog = benchmark["per_layer" if trace else "end_to_end"]
    metrics = {name: summary_metrics(r, catalog, trace)
               for name, r in results.items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics[names[0]] if len(names) == 1 else metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
