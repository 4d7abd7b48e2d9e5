"""Power-aware scheduling: energy accounting, caps, budgets, sweeps."""

import pytest

from repro.power import DEFAULT_PROFILE
from repro.sched import (
    COMPLETED,
    DROPPED,
    DprScheduler,
    SwapRequest,
    WorkloadSpec,
    bench,
    power_sweep,
)


SPEC = WorkloadSpec(requests=60, arrival_rate_rps=2000.0, modules=4,
                    frame=32, deadline_slack_us=20_000.0, seed=2026)


class TestEnergyAccounting:
    def test_plain_replay_reports_no_power_block(self):
        report = bench(SPEC)
        assert report.power is None
        assert report.to_dict()["power"] is None

    def test_accounted_replay_charges_energy(self):
        report = bench(SPEC, power_profile=DEFAULT_PROFILE)
        power = report.power
        assert power is not None
        assert power["profile_version"] == DEFAULT_PROFILE.version
        assert power["energy_nj_total"] > 0
        # no governor: cap and peak are absent from the model
        assert power["power_cap_mw"] is None
        assert power["peak_window_power_mw"] is None
        assert power["power_deferrals"] == 0

    def test_accounting_does_not_change_outcomes(self):
        plain = bench(SPEC)
        powered = bench(SPEC, power_profile=DEFAULT_PROFILE)
        assert powered.statuses == plain.statuses
        assert powered.deadline_misses == plain.deadline_misses
        assert powered.latency_p99_us == plain.latency_p99_us

    def test_tenant_energy_attribution(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache,
                                 power_profile=DEFAULT_PROFILE)
        requests = [
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0, tenant="a"),
            SwapRequest("rm1", 10.0, 90_000.0, request_id=1, tenant="b"),
            SwapRequest("rm2", 10.0, 90_000.0, request_id=2),  # shared pool
        ]
        outcomes = scheduler.run(requests)
        assert all(o.status == COMPLETED for o in outcomes)
        summary = scheduler.power_summary()
        per_tenant = summary["energy_by_tenant"]
        assert set(per_tenant) == {"a", "b"}
        assert all(nj > 0 for nj in per_tenant.values())
        # the shared-pool request bills the total but no tenant
        assert sum(per_tenant.values()) < summary["energy_nj_total"]


class TestPeakPowerCap:
    def test_capped_replay_never_exceeds_cap(self):
        cap = 400.0
        report = bench(SPEC, peak_power_mw=cap, power_window_us=2000.0)
        power = report.power
        assert power["peak_window_power_mw"] is not None
        assert power["peak_window_power_mw"] <= cap

    def test_near_floor_cap_forces_deferrals(self):
        # floor is ~160 mW; 166 mW leaves almost no reconfig budget per
        # window, so a dense workload must be deferred to comply
        dense = WorkloadSpec(requests=100, arrival_rate_rps=4000.0,
                             modules=8, frame=32,
                             deadline_slack_us=20_000.0, seed=2026)
        capped = bench(dense, peak_power_mw=166.0, power_window_us=20_000.0)
        power = capped.power
        assert power["power_deferrals"] > 0
        assert power["power_deferred_cycles"] > 0
        assert power["peak_window_power_mw"] <= 166.0
        uncapped = bench(dense, power_profile=DEFAULT_PROFILE)
        assert capped.deadline_misses >= uncapped.deadline_misses

    def test_infeasible_cap_fails_requests_in_band(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        # barely above the floor: one atomic reconfig busts the budget
        scheduler = DprScheduler(manager, cache=cache,
                                 peak_power_mw=DEFAULT_PROFILE.floor_mw + 0.5,
                                 power_window_us=200.0)
        outcomes = scheduler.run([
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0)])
        assert outcomes[0].status == "failed"
        assert "infeasible" in outcomes[0].error


class TestEnergyBudgets:
    def test_exhausted_tenant_budget_drops_requests(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(
            manager, cache=cache,
            energy_budgets_nj={"metered": 1.0})  # ~one nJ: gone instantly
        requests = [
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0,
                        tenant="metered"),
            SwapRequest("rm1", 200.0, 90_000.0, request_id=1,
                        tenant="metered"),
            SwapRequest("rm2", 200.0, 90_000.0, request_id=2,
                        tenant="free"),
        ]
        outcomes = scheduler.run(requests)
        by_id = {o.request_id: o for o in outcomes}
        # first request is admitted (budget untouched), burns the budget
        assert by_id[0].status == COMPLETED
        assert by_id[1].status == DROPPED
        assert by_id[1].error == "tenant energy budget exhausted"
        # un-budgeted tenants are unaffected
        assert by_id[2].status == COMPLETED

    def test_budgets_imply_accounting(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache,
                                 energy_budgets_nj={"a": 1e9})
        assert scheduler.power_profile is not None


class TestPowerSweep:
    def test_sweep_reports_tradeoff_curve(self):
        points = power_sweep(SPEC, [400.0, 300.0])
        assert len(points) == 3
        baseline = points[0]
        assert baseline["power_cap_mw"] is None
        assert baseline["miss_delta_vs_uncapped"] == 0.0
        assert baseline["power"]["peak_window_power_mw"] is None
        for point, cap in zip(points[1:], [400.0, 300.0]):
            assert point["power_cap_mw"] == cap
            assert point["power"]["peak_window_power_mw"] <= cap
            assert point["miss_delta_vs_uncapped"] == pytest.approx(
                point["deadline_miss_rate"]
                - baseline["deadline_miss_rate"], abs=1e-9)

    def test_none_caps_are_skipped(self):
        points = power_sweep(SPEC, [None])
        assert len(points) == 1
        assert points[0]["power_cap_mw"] is None
