"""Parent/change A/B of the end-to-end benchmark (``benchmarks/rvbench``).

Checks ``--base REV`` out as a temporary git worktree, byte-compiles both
trees' ``src/`` so both import from the same bytecode state, and runs
each tree's own ``benchmarks/rvbench/run.py --json`` in ``--pairs``
pairs, alternating which side runs first.  The change is this checkout,
uncommitted edits included.

For every workload and every end-to-end metric of BENCHMARK.json it
prints both sides' medians over the runs with q1-q3, the change/base
ratio and the pairs the change won, and exits 1 when

* a change median is worse than the base's by more than the metric's
  ``bound`` while the base's quartile spread is within the bound (a
  wider spread reads ``unresolved`` and does not fail);
* any run on either side is ``correct: false``;
* the change fails a larger share of its operations than the base.

When ``benchmarks/rvbench`` or ``BENCHMARK.json`` differ between the
trees their numbers do not compare: the change runs once, for its golden
check, and the A/B is reported as skipped.

Usage::

    python benchmarks/ab.py --base origin/main --pairs 5
    python benchmarks/ab.py --base HEAD~1 --pairs 2 --workload serve_hot \\
        --seed 7 --json rvbench-ab.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: the benchmark's definition: runs of trees that differ here do not compare
BENCH_PATHS = ("benchmarks/rvbench", "BENCHMARK.json")

#: one rvbench run: its JSON ``workloads`` mapping, workload -> result
Run = Dict[str, Dict[str, Any]]


def bench_files(tree: Path) -> Dict[str, bytes]:
    """The benchmark's files in ``tree``, by path relative to it."""
    files = {}
    for rel in BENCH_PATHS:
        top = tree / rel
        for path in [top] if top.is_file() else sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[path.relative_to(tree).as_posix()] = path.read_bytes()
    return files


def collect(base: Path, change: Path, pairs: int,
            run: Callable[[Path], Run]) -> Tuple[List[Run], List[Run]]:
    """The base's and the change's runs, paired by index.

    With a different benchmark on the two sides the base list is empty
    and the change runs once.
    """
    if bench_files(base) != bench_files(change):
        return [], [run(change)]
    for tree in (base, change):
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(tree / "src")], check=True)
    runs: Tuple[List[Run], List[Run]] = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run((base, change)[side]))
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """q1, median and q3, by rvbench's own rule."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def failed_share(runs: List[Run]) -> float:
    failed = sum(r["failed"] for run in runs for r in run.values())
    attempted = sum(r["attempted"] for run in runs for r in run.values())
    return failed / attempted if attempted else 0.0


def verdict(base: List[Run], change: List[Run],
            catalog: List[Dict[str, Any]]
            ) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Table rows and failures of the A/B; ``catalog`` is BENCHMARK.json's
    ``end_to_end`` list.  With no base runs only the change's golden
    check and failed operations count.
    """
    failures = [f"{side} run {i}: {name} correct: false "
                f"({'; '.join(result['problems'])})"
                for side, runs in (("base", base), ("change", change))
                for i, run in enumerate(runs, 1)
                for name, result in run.items() if not result["correct"]]
    shares = failed_share(base), failed_share(change)
    if shares[1] > shares[0]:
        failures.append(f"change fails {shares[1]:.3%} of operations, "
                        f"base {shares[0]:.3%}")
    rows: List[Dict[str, Any]] = []
    if not base:
        return rows, failures
    for name in change[0]:
        for spec in catalog:
            metric, bound = spec["name"], spec["bound"]
            b = [run[name]["end_to_end"][metric]["median"] for run in base]
            c = [run[name]["end_to_end"][metric]["median"] for run in change]
            # +1 when lower is better: sign * (c - b) > 0 means worse
            sign = 1 if spec["better"] == "lower" else -1
            bq, cq = quartiles(b), quartiles(c)
            worse = sign * (cq[1] - bq[1]) / bq[1]
            spread = (bq[2] - bq[0]) / bq[1]
            wins = sum(sign * (y - x) < 0 for x, y in zip(b, c, strict=True))
            if spread > bound and max(sign * y for y in c) >= \
                    min(sign * x for x in b):
                status = "unresolved"
            elif worse > bound:
                status = "FAIL"
                failures.append(
                    f"{name} {metric}: change median {cq[1]:.5g} is "
                    f"{worse:.1%} worse than base {bq[1]:.5g} "
                    f"(bound {bound:.0%})")
            else:
                status = "ok"
            rows.append({"workload": name, "metric": metric,
                         "unit": spec["unit"], "bound": bound,
                         "base": b, "change": c, "base_q": bq,
                         "change_q": cq, "ratio": cq[1] / bq[1],
                         "wins": wins, "spread": spread, "status": status})
    return rows, failures


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':17s} {'metric':12s} {'base median [q1, q3]':>27s}"
             f" {'change median [q1, q3]':>27s} {'ratio':>6s} {'won':>5s}"
             "  verdict"]
    for row in rows:
        cells = [f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
                 for q in (row["base_q"], row["change_q"])]
        lines.append(f"{row['workload']:17s} {row['metric']:12s} "
                     f"{cells[0]:>27s} {cells[1]:>27s} {row['ratio']:6.3f} "
                     f"{row['wins']}/{len(row['base']):<3d}  {row['status']}")
    return "\n".join(lines)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          capture_output=True).stdout.strip()


def rvbench(out_dir: Path, forward: List[str]) -> Callable[[Path], Run]:
    """A runner of one tree's own rvbench, reading its ``--json`` file."""
    numbers = itertools.count(1)

    def run(tree: Path) -> Run:
        number = next(numbers)
        out = out_dir / f"run{number}.json"
        side = "change" if tree == ROOT else "base"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(tree / "benchmarks/rvbench/run.py"),
             "--json", str(out), *forward], cwd=tree, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False)
        if not out.is_file():
            raise RuntimeError(f"{side} rvbench wrote no results (exit "
                               f"{proc.returncode}):\n{proc.stdout[-3000:]}")
        print(f"ab: run {number}, {side}: exit {proc.returncode} in "
              f"{time.perf_counter() - t0:.1f} s", flush=True)
        workloads: Run = json.loads(out.read_text())["workloads"]
        return workloads

    return run


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, default=5,
                        help="alternating base/change pairs (default 5)")
    parser.add_argument("--workload", action="append", default=[],
                        help="forwarded to run.py (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=None,
                        help="forwarded to run.py")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the rows and failures here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    forward = [arg for w in args.workload for arg in ("--workload", w)]
    if args.seed is not None:
        forward += ["--seed", str(args.seed)]

    base_rev = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    catalog = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="rvbench-ab-"))
    worktree = tmp / "base"
    git("worktree", "add", "--detach", "--quiet", str(worktree), base_rev)
    try:
        print(f"ab: base {base_rev} vs change {git('rev-parse', 'HEAD')} "
              "(working tree)", flush=True)
        base, change = collect(worktree, ROOT, args.pairs,
                               rvbench(tmp, forward))
    finally:
        git("worktree", "remove", "--force", str(worktree))
        shutil.rmtree(tmp, ignore_errors=True)

    rows, failures = verdict(base, change, catalog)
    if base:
        print(render(rows))
    else:
        print("ab: benchmarks/rvbench or BENCHMARK.json differ between base "
              "and change; A/B skipped, the change ran once for its golden "
              "check")
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"base": base_rev, "pairs": len(base), "skipped": not base,
             "rows": rows, "failures": failures}, indent=1) + "\n")
    for failure in failures:
        print(f"ab: FAIL {failure}")
    print("ab: FAILED" if failures else "ab: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
