"""Checks of the rvbench harness itself: ``pytest benchmarks/rvbench``."""

from __future__ import annotations

import json
import os
import signal
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")
sys.path[:0] = [HERE, SRC]

import layers  # noqa: E402
import workloads  # noqa: E402

PACKAGE_DIR = os.path.join(SRC, "repro")
BENCHMARK_JSON = os.path.join(os.path.dirname(SRC), "BENCHMARK.json")
TRACED_WORKLOADS = ("paper_case_study", "firmware_unroll")


def test_every_source_file_maps_to_exactly_one_layer() -> None:
    files = sorted(
        os.path.relpath(os.path.join(root, name), PACKAGE_DIR)
        .replace(os.sep, "/")
        for root, _dirs, names in os.walk(PACKAGE_DIR)
        for name in names if name.endswith(".py"))
    assert files
    for rel in files:
        claims = layers.claims(rel)
        best = max(specificity for specificity, _layer in claims)
        owners = {layer for specificity, layer in claims
                  if specificity == best}
        assert len(owners) == 1, f"{rel} is claimed by {sorted(owners)}"
    owned = {layers.layer_of_relpath(rel) for rel in files}
    assert owned == set(layers.LAYERS) - {layers.EXT}


def test_speed_probe_samples_both_kinds_and_restores_handler() -> None:
    probe = workloads.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    with probe.sampling():
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.tight and probe.wide
    assert 0 < probe.busy_s() < 0.3
    assert probe.chunk_s() > 0


@pytest.fixture(scope="module")
def traced() -> dict:
    """One timed and one traced rep of each paper workload, in-process."""
    with pytest.MonkeyPatch.context() as mp:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            mp.delenv(key)
        return {name: workloads.run_workload(name, 2026, reps=1, trace=True)
                for name in TRACED_WORKLOADS}


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_layer_self_time_sums_to_profile_total(traced: dict, name: str) -> None:
    trace = traced[name]["trace"]
    rows = trace["layers"]
    assert sum(row["self_s"] for row in rows.values()) == pytest.approx(
        trace["profile_total_s"], rel=0.01)
    assert sum(row["share"] for row in rows.values()) == pytest.approx(
        1.0, abs=0.01)
    assert rows["other"]["share"] < 0.05
    with open(BENCHMARK_JSON) as handle:
        listed = [m["name"] for m in json.load(handle)["per_layer"]]
    assert sorted(listed) == sorted(trace["metrics"])


@pytest.mark.parametrize("name", TRACED_WORKLOADS)
def test_traced_digest_matches_untraced(traced: dict, name: str) -> None:
    with open(os.path.join(HERE, "golden.json")) as handle:
        golden = json.load(handle)[name]["digest"]
    result = traced[name]
    assert result["samples"]["digest"] == [golden]
    assert result["trace"]["digest"] == golden
