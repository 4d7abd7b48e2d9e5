"""Sliding-window admission-control tests for the peak-power governor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SchedulerError
from repro.power import DEFAULT_PROFILE, PowerGovernor

FREQ = 100e6


def make_governor(cap_mw: float = 300.0, window_us: float = 100.0,
                  **kwargs) -> PowerGovernor:
    return PowerGovernor(cap_mw, window_us=window_us, freq_hz=FREQ, **kwargs)


class TestConstruction:
    def test_cap_at_or_below_floor_is_infeasible(self):
        floor = DEFAULT_PROFILE.floor_mw
        with pytest.raises(SchedulerError, match="idle .*floor"):
            make_governor(cap_mw=floor)
        with pytest.raises(SchedulerError):
            make_governor(cap_mw=floor - 10.0)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SchedulerError, match="window_us"):
            make_governor(window_us=0.0)

    def test_budget_fraction_clamped_to_one(self):
        gov = make_governor(cap_mw=10_000.0)
        assert gov.budget_fraction == 1.0

    def test_budget_fraction_matches_cap_formula(self):
        gov = make_governor(cap_mw=300.0)
        expected = (300.0 - gov.floor_mw) / gov.dynamic_mw
        assert gov.budget_fraction == pytest.approx(expected)


class TestAdmission:
    def test_empty_trace_admits_immediately(self):
        gov = make_governor()
        assert gov.admission_delay(0, 100) == 0

    def test_duration_over_window_budget_raises(self):
        gov = make_governor()
        budget = int(gov.budget_fraction * gov.window_cycles)
        with pytest.raises(SchedulerError, match="infeasible"):
            gov.admission_delay(0, budget + 1)

    def test_back_to_back_bursts_get_deferred(self):
        gov = make_governor()
        budget = int(gov.budget_fraction * gov.window_cycles)
        first = budget - 10  # nearly exhausts one window's budget
        gov.commit(0, first)
        delay = gov.admission_delay(first, first)
        assert delay > 0
        # the admitted start actually satisfies the window constraint
        start = first + delay
        allowance = budget - first
        assert gov._busy_before(start, first) <= allowance
        # one cycle earlier would have violated it (earliest safe start)
        assert gov._busy_before(start - 1, first) > allowance

    def test_old_intervals_age_out_of_the_window(self):
        gov = make_governor()
        budget = int(gov.budget_fraction * gov.window_cycles)
        gov.commit(0, budget)
        # a full window after the burst ends, the slate is clean again
        now = budget + gov.window_cycles
        assert gov.admission_delay(now, budget) == 0


class TestComplianceTrace:
    def test_committed_trace_respects_the_cap(self):
        gov = make_governor(cap_mw=300.0)
        budget = int(gov.budget_fraction * gov.window_cycles)
        duration = budget // 2
        now = 0
        for _ in range(8):
            delay = gov.admission_delay(now, duration)
            start = now + delay
            gov.commit(start, start + duration)
            now = start + duration
        assert gov.max_window_power_mw() <= 300.0 + 1e-9

    def test_power_samples_bracket_each_interval(self):
        gov = make_governor()
        gov.commit(1000, 2000)
        cycles = [cycle for cycle, _mw in gov.power_samples()]
        assert 1000 in cycles and 2000 in cycles
        assert 2000 + gov.window_cycles in cycles
        # window fully past the burst: back at the idle floor
        tail = dict(gov.power_samples())[2000 + gov.window_cycles]
        assert tail == pytest.approx(gov.floor_mw, abs=1e-3)

    def test_peak_matches_busy_fraction(self):
        gov = make_governor()
        gov.commit(0, gov.window_cycles // 4)
        expected = gov.floor_mw + gov.dynamic_mw / 4
        assert gov.max_window_power_mw() == pytest.approx(expected, abs=1e-3)

    def test_empty_governor_reports_floor(self):
        gov = make_governor()
        assert gov.max_window_power_mw() == gov.floor_mw
        assert gov.power_samples() == []

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 50_000),
                              st.integers(1, 30_000)), max_size=25))
    def test_samples_equal_the_per_window_loop(self, bursts):
        # the array pass against the loop it replaced: every critical
        # window end, each interval's overlap with the window summed
        gov = make_governor()
        gov._intervals = sorted((a, a + d) for a, d in bursts)
        width = gov.window_cycles
        expected = []
        for end in sorted({c for a, b in gov._intervals
                           for c in (a, b, b + width)}):
            busy = sum(max(0, min(b, end) - max(a, end - width))
                       for a, b in gov._intervals)
            expected.append((end, round(
                gov.floor_mw + gov.dynamic_mw * busy / width, 3)))
        assert gov.power_samples() == expected


class TestBookkeeping:
    def test_note_deferral_accumulates(self):
        gov = make_governor()
        gov.note_deferral(120)
        gov.note_deferral(80)
        assert gov.deferrals == 2
        assert gov.deferred_cycles == 200

    def test_commit_ignores_empty_interval(self):
        gov = make_governor()
        gov.commit(500, 500)
        assert gov.power_samples() == []

    def test_commit_prunes_ancient_intervals(self):
        gov = make_governor()
        gov.commit(0, 10)
        far = 100 * gov.window_cycles
        gov.commit(far, far + 10)
        assert gov._intervals == [(far, far + 10)]
