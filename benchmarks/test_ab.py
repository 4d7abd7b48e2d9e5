"""The A/B verdict of benchmarks/ab.py on synthetic rvbench results.

No git and no rvbench run: ``verdict`` is a pure function of the two
sides' parsed runs and BENCHMARK.json's end-to-end catalog, and
``collect`` takes the runner as an argument.
"""

import json
from pathlib import Path

import pytest

from ab import collect, render, verdict

CATALOG = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)["end_to_end"]


def run(run_norm, *, correct=True, failed=0, attempted=1000,
        setup_s=0.3, peak_rss_mb=64.0):
    """One rvbench ``workloads`` mapping with a single workload."""
    medians = {"run_norm": run_norm, "setup_s": setup_s,
               "peak_rss_mb": peak_rss_mb}
    return {"serve_hot": {
        "correct": correct, "problems": [] if correct else ["digest"],
        "failed": failed, "attempted": attempted,
        "end_to_end": {name: {"median": value}
                       for name, value in medians.items()}}}


def runs(*norms, **kwargs):
    return [run(norm, **kwargs) for norm in norms]


def statuses(rows):
    return {row["metric"]: row["status"] for row in rows}


def test_change_within_the_bound_passes():
    rows, failures = verdict(runs(100, 101, 99), runs(110, 111, 109),
                             CATALOG)
    assert failures == []
    assert statuses(rows) == dict.fromkeys(
        ("run_norm", "setup_s", "peak_rss_mb"), "ok")
    assert rows[0]["wins"] == 0


def test_change_worse_than_the_bound_fails_naming_workload_and_metric():
    rows, failures = verdict(runs(100, 101, 99), runs(120, 121, 119),
                             CATALOG)
    assert statuses(rows)["run_norm"] == "FAIL"
    assert len(failures) == 1
    assert "serve_hot run_norm" in failures[0]
    assert "bound 15%" in failures[0]


def test_wide_parent_spread_is_unresolved_and_passes():
    rows, failures = verdict(runs(80, 100, 130), runs(150, 150, 150),
                             CATALOG)
    assert failures == []
    assert statuses(rows)["run_norm"] == "unresolved"
    assert "unresolved" in render(rows)


@pytest.mark.parametrize("side", ["base", "change"])
def test_incorrect_run_on_either_side_fails(side):
    good = runs(100, 100)
    bad = [run(100), run(100, correct=False)]
    base, change = (bad, good) if side == "base" else (good, bad)
    _rows, failures = verdict(base, change, CATALOG)
    assert failures == [f"{side} run 2: serve_hot correct: false (digest)"]


def test_larger_failed_share_on_the_change_fails():
    _rows, failures = verdict(runs(100, 100, failed=1),
                              runs(100, 100, failed=2), CATALOG)
    assert len(failures) == 1
    assert failures[0].startswith("change fails 0.200% of operations")
    assert verdict(runs(100, failed=2), runs(100, failed=1),
                   CATALOG)[1] == []


def make_tree(root, golden):
    (root / "src").mkdir(parents=True)
    (root / "benchmarks" / "rvbench").mkdir(parents=True)
    (root / "benchmarks" / "rvbench" / "golden.json").write_text(golden)
    (root / "BENCHMARK.json").write_text("{}")
    return root


def test_different_benchmark_files_run_the_change_once(tmp_path):
    base = make_tree(tmp_path / "base", "old")
    change = make_tree(tmp_path / "change", "new")
    calls = []

    def fake_run(tree):
        calls.append(tree)
        return run(100)

    base_runs, change_runs = collect(base, change, 3, fake_run)
    assert calls == [change]
    assert base_runs == []
    rows, failures = verdict(base_runs, change_runs, CATALOG)
    assert rows == [] and failures == []

    (change / "benchmarks" / "rvbench" / "golden.json").write_text("old")
    calls.clear()
    base_runs, change_runs = collect(base, change, 3, fake_run)
    assert calls == [base, change, change, base, base, change]
    assert len(base_runs) == len(change_runs) == 3
