"""Peak-power governor: defer reconfigurations to honor a power cap.

A reconfiguration's instantaneous power draw is a fixed step (the ICAP
streams at 4 B/cycle or not at all — Nafkha & Louet's measurements show
a flat overhead band for the whole write burst), so a cap below
``floor + reconfig_power`` can never be met instant-by-instant by a
single serialized port.  What a deployment actually constrains is the
*windowed average* (thermal mass / RAPL-style enforcement), and that is
what this governor enforces exactly: over every sliding window of
``window_us``, the modeled average power must stay at or below
``cap_mw``.

Admission control is exact, not heuristic.  With committed busy
intervals all in the past and a candidate reconfiguration of duration
``d`` starting at ``s``, the worst window is the one ending at
``s + d`` (busy time within a window only grows while the candidate
streams, and only shrinks as the window slides past older intervals).
So the candidate is safe iff::

    busy((s + d - W, s]) <= f * W - d,   f = (cap - floor) / p_dyn

and the earliest safe ``s`` is found by binary search (the left side is
non-increasing in ``s``).  The committed-interval trace doubles as the
compliance record: :meth:`power_samples` evaluates the windowed power
at every interval edge — the points where the maximum is attained — so
``max_window_power_mw() <= cap_mw`` is the assertable "cap never
exceeded" contract the replay tests check.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SchedulerError
from repro.power.profile import DEFAULT_PROFILE, PowerProfile


class PowerGovernor:
    """Sliding-window average-power admission control for the ICAP."""

    def __init__(self, cap_mw: float, *,
                 profile: Optional[PowerProfile] = None,
                 window_us: float = 200.0,
                 freq_hz: float = 100e6) -> None:
        if window_us <= 0:
            raise SchedulerError("power window_us must be positive")
        self.profile = profile or DEFAULT_PROFILE
        self.cap_mw = cap_mw
        self.window_us = window_us
        self.freq_hz = freq_hz
        self.window_cycles = max(1, int(window_us * freq_hz / 1e6))
        self.floor_mw = self.profile.floor_mw
        self.dynamic_mw = self.profile.reconfig_power_mw(freq_hz)
        if cap_mw <= self.floor_mw:
            raise SchedulerError(
                f"peak_power_mw={cap_mw} is at or below the modeled idle "
                f"floor ({self.floor_mw:.1f} mW); no schedule can meet it")
        #: fraction of any window the reconfig power may occupy
        self.budget_fraction = min(
            1.0, (cap_mw - self.floor_mw) / self.dynamic_mw)
        #: committed (start, end) busy intervals, chronological,
        #: non-overlapping (the ICAP is serialized)
        self._intervals: List[Tuple[int, int]] = []
        self.deferrals = 0
        self.deferred_cycles = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _busy_before(self, start: int, duration: int) -> int:
        """Committed busy cycles inside ``(start + d - W, start]``."""
        lo = start + duration - self.window_cycles
        busy = 0
        for a, b in self._intervals:
            overlap = min(b, start) - max(a, lo)
            if overlap > 0:
                busy += overlap
        return busy

    def admission_delay(self, now: int, duration: int) -> int:
        """Cycles to defer a ``duration``-cycle reconfig starting now.

        Raises :class:`SchedulerError` when the cap is infeasible for
        one atomic reconfiguration (the budget share of a window is
        shorter than the reconfiguration itself) — raise the cap or
        widen the averaging window.
        """
        budget = int(self.budget_fraction * self.window_cycles)
        if duration > budget:
            raise SchedulerError(
                f"peak_power_mw={self.cap_mw} infeasible: one "
                f"reconfiguration needs {duration} busy cycles but the "
                f"cap allows only {budget} per {self.window_us:.0f} us "
                f"window; raise the cap or widen power_window_us")
        allowance = budget - duration
        if self._busy_before(now, duration) <= allowance:
            return 0
        # earliest safe start: _busy_before is non-increasing in s
        # (all committed intervals lie in the past), so binary search
        lo, hi = now, max(b for _a, b in self._intervals) \
            + self.window_cycles - duration
        while lo < hi:
            mid = (lo + hi) // 2
            if self._busy_before(mid, duration) <= allowance:
                hi = mid
            else:
                lo = mid + 1
        return lo - now

    def commit(self, start: int, end: int) -> None:
        """Record the actual busy interval of a served reconfiguration."""
        if end <= start:
            return
        self._intervals.append((start, end))
        # prune intervals that can no longer intersect a future window
        horizon = end - 4 * self.window_cycles
        if self._intervals[0][1] < horizon:
            self._intervals = [(a, b) for a, b in self._intervals
                               if b >= horizon]

    def note_deferral(self, cycles: int) -> None:
        self.deferrals += 1
        self.deferred_cycles += cycles

    # ------------------------------------------------------------------
    # compliance trace
    # ------------------------------------------------------------------
    def power_samples(self) -> List[Tuple[int, float]]:
        """(cycle, windowed-average mW) at every critical window end.

        Windowed busy time is piecewise linear with maxima at interval
        end edges; sampling starts, ends and trailing edges bounds the
        whole trace.  The intervals are chronological, so a window's
        scan stops at the first interval that starts at or after its
        end.
        """
        intervals = self._intervals
        width = self.window_cycles
        samples = []
        for cycle in sorted({edge for a, b in intervals
                             for edge in (a, b, b + width)}):
            lo = cycle - width
            busy = 0
            for a, b in intervals:
                if a >= cycle:
                    break
                if b > lo:
                    busy += (b if b < cycle else cycle) - (a if a > lo else lo)
            mw = self.floor_mw + self.dynamic_mw * busy / width
            samples.append((cycle, round(mw, 3)))
        return samples

    def max_window_power_mw(self) -> float:
        """Peak of the modeled windowed power-over-time trace."""
        samples = self.power_samples()
        return max((mw for _cycle, mw in samples), default=self.floor_mw)
