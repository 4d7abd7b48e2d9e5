"""Fleet runner: determinism, sharding equivalence, metric merging."""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.errors import ControllerError
from repro.fleet import FLEET_TASKS, derive_seed, run_fleet
from repro.obs.metrics import MetricsRegistry


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(2026, "faults", "bitflip", 0) == \
            derive_seed(2026, "faults", "bitflip", 0)

    def test_distinct_units_distinct_seeds(self):
        seeds = {derive_seed(2026, "faults", kind, index)
                 for kind in ("bitflip", "truncate", "ddr-read")
                 for index in range(4)}
        assert len(seeds) == 12

    def test_campaign_seed_changes_unit_seeds(self):
        assert derive_seed(1, "faults", "bitflip", 0) != \
            derive_seed(2, "faults", "bitflip", 0)


class TestMetricsMerge:
    def test_counters_and_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(3)
        b.counter("n").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("g").set(1.5)
        b.gauge("g").set(2.5)
        a.merge(b)
        assert a.counter("n").value == 7
        assert a.counter("only_b").value == 1
        assert a.gauge("g").value == 2.5  # last-writer wins

    def test_histograms_combine_exactly(self):
        a, b, ref = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        for value in (1, 5, 200):
            a.histogram("h").record(value)
            ref.histogram("h").record(value)
        for value in (0, 9, 10_000):
            b.histogram("h").record(value)
            ref.histogram("h").record(value)
        a.merge(b)
        assert a.snapshot() == ref.snapshot()

    def test_labels_kept_separate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n", labels={"k": "x"}).inc(1)
        b.counter("n", labels={"k": "y"}).inc(2)
        a.merge(b)
        assert a.counter("n", labels={"k": "x"}).value == 1
        assert a.counter("n", labels={"k": "y"}).value == 2


class TestRunFleet:
    def test_unknown_task_rejected(self):
        with pytest.raises(ControllerError, match="unknown fleet task"):
            run_fleet("nope")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ControllerError, match="workers"):
            run_fleet("faults", workers=0)

    def test_task_catalog(self):
        assert set(FLEET_TASKS) == {"faults", "unroll", "sched"}

    def test_serial_fault_sweep_shape(self):
        report = run_fleet("faults", workers=1, seed=7,
                           params={"points": 1,
                                   "kinds": ("bitflip", "truncate")})
        assert len(report.units) == 2
        assert report.summary["points"] == 2
        assert report.summary["detection_rate"] == 1.0
        assert report.summary["recovery_rate"] == 1.0
        # per-shard observability merged into one snapshot
        assert report.metrics["driver_reconfigurations_total"] >= 2

    def test_sharded_byte_identical_to_serial(self):
        """The acceptance gate: any worker count, same stable JSON."""
        params = {"points": 1, "kinds": ("bitflip", "sd-read")}
        serial = run_fleet("faults", workers=1, seed=11, params=params)
        sharded = run_fleet("faults", workers=2, seed=11, params=params)
        assert serial.stable_json() == sharded.stable_json()

    def test_unroll_task_matches_direct_sweep(self):
        from repro.eval.figures import unroll_sweep
        report = run_fleet("unroll", workers=1, params={"factors": (16,)})
        direct = unroll_sweep((16,)).points[0]
        result = report.units[0]["result"]
        assert result["unroll"] == 16
        assert result["tr_us"] == pytest.approx(direct.tr_us, abs=0.1)
        assert result["instructions"] == direct.instructions

    def test_sched_task_sharded_identical(self):
        params = {"rates": (1500.0, 3000.0), "requests": 50}
        serial = run_fleet("sched", workers=1, seed=2026, params=params)
        sharded = run_fleet("sched", workers=2, seed=2026, params=params)
        assert serial.stable_json() == sharded.stable_json()
        for entry in serial.units:
            assert "wall_seconds" not in entry["result"]

    def test_stable_json_excludes_host_time(self):
        report = run_fleet("unroll", workers=1, params={"factors": (8,)})
        stable = json.loads(report.stable_json())
        assert "wall_seconds" not in stable
        assert "workers" not in stable
        full = report.to_dict()
        assert full["workers"] == 1
        assert full["wall_seconds"] >= 0.0

    def test_pool_path_exercised_even_on_one_core(self):
        """The fork-pool path itself must work regardless of core count."""
        if multiprocessing.get_start_method(allow_none=True) != "fork":
            try:
                multiprocessing.get_context("fork")
            except ValueError:
                pytest.skip("no fork start method on this platform")
        report = run_fleet("faults", workers=4, seed=5,
                           params={"points": 1, "kinds": ("truncate",)})
        assert report.workers == 4
        assert len(report.units) == 1
