"""Cycle-integrated power model over the recorded obs trace.

:class:`PowerModel` turns a :class:`~repro.obs.tracer.SpanTracer` into
a modeled power-over-time step function and per-component energies.
Everything is computed *after* the simulation from spans the
instrumented components already record — the hot paths pay nothing
beyond the counters they maintain anyway, which is what keeps the
``sched_replay``/``table2_obs`` perf gates intact.

The accounting identity the CI job asserts is built in: the
power-series integral over any window equals the sum of the
per-component energies over the same window, because both are derived
from the same list of span contributions (interval power adders plus
per-event energies spread uniformly over their span; zero-length spans
contribute impulses).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import SpanTracer
from repro.power.profile import DEFAULT_PROFILE, PowerProfile

#: (start_cycle, end_cycle, component, add_mw, event_nj)
Contribution = Tuple[int, int, str, float, float]

#: tracks whose spans get lazy ``energy_nj`` annotations by default
ANNOTATED_TRACK_PREFIXES = ("driver", "icap", "sched", "dma.")


class PowerModel:
    """Derives power/energy views of a recorded trace from a profile."""

    def __init__(self, profile: Optional[PowerProfile] = None) -> None:
        self.profile = profile or DEFAULT_PROFILE

    # ------------------------------------------------------------------
    # span -> contribution mapping
    # ------------------------------------------------------------------
    def contributions(self, tracer: SpanTracer) -> List[Contribution]:
        """Interval power adders + per-event energies from the trace."""
        p = self.profile
        out: List[Contribution] = []
        for span in tracer.spans:
            end = span.end_cycle
            if end is None:
                continue
            track, name, start = span.track, span.name, span.start_cycle
            if track == "icap" and name == "session":
                out.append((start, end, "icap", p.icap_active_mw, 0.0))
            elif track.startswith("dma.") and name == "transfer":
                nbytes = int(span.args.get("bytes", 0))
                bursts = -(-nbytes // p.dma_burst_bytes) if nbytes else 0
                activates = (1 + (nbytes - 1) // p.ddr_row_bytes
                             if nbytes else 0)
                out.append((start, end, "dma", p.dma_active_mw,
                            bursts * p.dma_burst_nj + p.dma_descriptor_nj))
                out.append((start, end, "ddr", 0.0,
                            nbytes * p.ddr_pj_per_byte * 1e-3
                            + activates * p.ddr_activate_nj))
            elif track == "driver" and name in ("reconfig", "sd_load",
                                                "accel_run"):
                out.append((start, end, "cpu", p.cpu_active_mw, 0.0))
                if name == "accel_run":
                    out.append((start, end, "accel", p.accel_active_mw, 0.0))
        return out

    # ------------------------------------------------------------------
    # windowed per-component energy
    # ------------------------------------------------------------------
    def component_energy(self, contributions: List[Contribution],
                         start_cycle: int, end_cycle: int, *,
                         freq_hz: float) -> Dict[str, float]:
        """nJ per component over ``[start_cycle, end_cycle)``.

        The floor (leakage + clocked idle + refresh) is reported under
        ``static``; each contribution is attributed by overlap, and a
        per-event energy by the overlapped fraction of its span (whole
        event when the span has zero length and starts inside the
        window).
        """
        us_per_cycle = 1e6 / freq_hz
        window = max(0, end_cycle - start_cycle)
        out: Dict[str, float] = {name: 0.0 for name in self.profile.components}
        out["static"] = self.profile.floor_mw * window * us_per_cycle
        for c_start, c_end, component, add_mw, event_nj in contributions:
            duration = c_end - c_start
            if duration == 0:
                if event_nj and start_cycle <= c_start < end_cycle:
                    out[component] = out.get(component, 0.0) + event_nj
                continue
            overlap = min(c_end, end_cycle) - max(c_start, start_cycle)
            if overlap <= 0:
                continue
            energy = add_mw * overlap * us_per_cycle
            if event_nj:
                energy += event_nj * overlap / duration
            out[component] = out.get(component, 0.0) + energy
        return out

    # ------------------------------------------------------------------
    # power-over-time step series
    # ------------------------------------------------------------------
    def series(self, tracer: SpanTracer, *,
               freq_hz: float) -> List[Tuple[int, float]]:
        """Modeled instantaneous power as (cycle, mW) step samples."""
        contributions = self.contributions(tracer)
        return self._series(contributions, tracer, freq_hz)

    def _trace_extent(self, tracer: SpanTracer) -> Tuple[int, int]:
        lo: Optional[int] = None
        hi = 0
        for span in tracer.spans:
            lo = span.start_cycle if lo is None else min(lo, span.start_cycle)
            if span.end_cycle is not None:
                hi = max(hi, span.end_cycle)
        for event in tracer.instants:
            lo = event.cycle if lo is None else min(lo, event.cycle)
            hi = max(hi, event.cycle)
        return (lo or 0), hi

    def _series(self, contributions: List[Contribution],
                tracer: SpanTracer,
                freq_hz: float) -> List[Tuple[int, float]]:
        us_per_cycle = 1e6 / freq_hz
        lo, hi = self._trace_extent(tracer)
        deltas: Dict[int, float] = {lo: 0.0, hi: 0.0}
        for start, end, _component, add_mw, event_nj in contributions:
            duration = end - start
            if duration == 0:
                continue  # impulse: carried by the integrator, not the steps
            mw = add_mw + event_nj / (duration * us_per_cycle)
            deltas[start] = deltas.get(start, 0.0) + mw
            deltas[end] = deltas.get(end, 0.0) - mw
        level = self.profile.floor_mw
        out: List[Tuple[int, float]] = []
        for cycle in sorted(deltas):
            level += deltas[cycle]
            if out and out[-1][0] == cycle:
                out[-1] = (cycle, level)
            else:
                out.append((cycle, level))
        return out

    # ------------------------------------------------------------------
    # lazy span annotation + exporter injection
    # ------------------------------------------------------------------
    def annotate(self, tracer: SpanTracer, *, freq_hz: float,
                 track_prefixes: Tuple[str, ...] = ANNOTATED_TRACK_PREFIXES,
                 ) -> int:
        """Attach ``energy_nj`` to completed spans on instrumented tracks.

        Runs after the simulation and writes through the spans' lazy
        args dicts (the PR-8 fast path: argless hot spans only
        materialize a dict here, never on the recording path).  A
        span's energy is the whole-SoC modeled energy integrated over
        its interval.  Returns the number of spans annotated.
        """
        integrator = PowerIntegrator(self, tracer, freq_hz=freq_hz)
        annotated = 0
        for span in tracer.spans:
            if span.end_cycle is None:
                continue
            track = span.track
            if not track.startswith(track_prefixes):
                continue
            span.args["energy_nj"] = round(
                integrator.energy_nj(span.start_cycle, span.end_cycle), 3)
            annotated += 1
        return annotated

    def inject_power_track(self, tracer: SpanTracer, *,
                           freq_hz: float) -> int:
        """Materialize the ``power_mw`` counter track and VCD signal.

        Chrome-trace exports render the counter samples as a "C"
        counter track; the VCD exporter renders the integer-mW signal.
        Returns the number of step samples injected.
        """
        series = self.series(tracer, freq_hz=freq_hz)
        for cycle, mw in series:
            tracer.count("power_mw", cycle, round(mw, 3))
            tracer.signal("power_mw", cycle, int(round(mw)))
        return len(series)


class PowerIntegrator:
    """Prefix-sum integrator over the modeled power step series.

    Spans are annotated in one O(series) build plus O(log n) per query
    instead of walking every contribution per span.
    """

    def __init__(self, model: PowerModel, tracer: SpanTracer, *,
                 freq_hz: float,
                 contributions: Optional[List[Contribution]] = None) -> None:
        self._us_per_cycle = 1e6 / freq_hz
        contribs = (model.contributions(tracer)
                    if contributions is None else contributions)
        series = model._series(contribs, tracer, freq_hz)
        self._cycles = [cycle for cycle, _mw in series]
        self._levels = [mw for _cycle, mw in series]
        self._floor = model.profile.floor_mw
        # prefix[i] = nJ accumulated from series start to cycles[i]
        prefix = [0.0]
        for i in range(1, len(series)):
            width = self._cycles[i] - self._cycles[i - 1]
            prefix.append(prefix[-1]
                          + self._levels[i - 1] * width * self._us_per_cycle)
        self._prefix = prefix
        #: zero-length contributions as (cycle, nJ) impulses
        self._impulses = sorted(
            (start, event_nj) for start, end, _c, _mw, event_nj in contribs
            if end == start and event_nj)
        self._impulse_cycles = [cycle for cycle, _nj in self._impulses]
        impulse_prefix = [0.0]
        for _cycle, nj in self._impulses:
            impulse_prefix.append(impulse_prefix[-1] + nj)
        self._impulse_prefix = impulse_prefix

    def _cumulative(self, cycle: int) -> float:
        """nJ from series start up to ``cycle`` (floor before start)."""
        if not self._cycles:
            return 0.0
        index = bisect_right(self._cycles, cycle) - 1
        if index < 0:
            return (cycle - self._cycles[0]) * self._us_per_cycle * self._floor
        partial = (cycle - self._cycles[index]) * self._us_per_cycle \
            * self._levels[index]
        return self._prefix[index] + partial

    def energy_nj(self, start_cycle: int, end_cycle: int) -> float:
        """Whole-SoC modeled energy over ``[start_cycle, end_cycle)``."""
        energy = self._cumulative(end_cycle) - self._cumulative(start_cycle)
        lo = bisect_right(self._impulse_cycles, start_cycle - 1)
        hi = bisect_right(self._impulse_cycles, end_cycle - 1)
        return energy + self._impulse_prefix[hi] - self._impulse_prefix[lo]
