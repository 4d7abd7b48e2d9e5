"""Latency-breakdown report: where the cycles of one DPR run go.

The paper reports a single end-to-end number — Tr = 1651 us for the
reference partial bitstream — and this module decomposes it from the
driver's phase spans: DMA kick (programming SA/LENGTH), the overlapped
DMA+ICAP streaming window, interrupt delivery (DMA completion to the
PLIC gateway to the pending line), and interrupt service.  The phases
are contiguous sub-intervals of the driver's Tr window, so their cycle
sum equals the end-to-end window *exactly*; the report verifies that
identity and cross-checks the window against the CLINT-measured Tr
(which is quantized to the 5 MHz timebase, paper Sec. III-A).

Phases outside the Tr window (SD-card load, the decision time Td,
decouple and recouple) are reported alongside so one run shows the
whole Listing-1 flow.

Two plain-text renderers sit beside it for ``repro reconfig``: the
span timeline (one line per span, by start cycle) and the
``Soc.stats()`` counter snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.obs.tracer import SpanTracer


@dataclass(frozen=True)
class Phase:
    """One contiguous segment of the breakdown."""

    name: str
    start_cycle: int
    end_cycle: int

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


@dataclass(frozen=True)
class TrBreakdown:
    """Decomposition of one reconfiguration's timing."""

    module: str
    freq_hz: float
    #: contiguous phases partitioning the Tr window
    tr_phases: List[Phase]
    #: context phases outside the Tr window (sd-load, decision, ...)
    context_phases: List[Phase]
    tr_window_cycles: int
    #: the CLINT-measured Tr in us (None when no driver result given)
    tr_reported_us: Optional[float]
    #: absolute cycle bounds of the Tr window span (the energy
    #: breakdown integrates over exactly this interval)
    window_start_cycle: int = 0
    window_end_cycle: int = 0

    @property
    def phase_sum_cycles(self) -> int:
        return sum(phase.cycles for phase in self.tr_phases)

    @property
    def consistent(self) -> bool:
        """Phase cycle sum equals the end-to-end window exactly."""
        return self.phase_sum_cycles == self.tr_window_cycles

    def cycles_to_us(self, cycles: int) -> float:
        return cycles * 1e6 / self.freq_hz


def build_tr_breakdown(tracer: SpanTracer, freq_hz: float = 100e6, *,
                       tr_reported_us: Optional[float] = None
                       ) -> TrBreakdown:
    """Assemble the breakdown from the most recent driver reconfig spans.

    Raises :class:`ValueError` when the tracer holds no completed
    reconfiguration (nothing was instrumented, or the run failed before
    the Tr window closed).
    """
    window = tracer.last("driver", "tr_window")
    if window is None or window.end_cycle is None:
        raise ValueError(
            "no completed reconfiguration in the trace; run a DPR with "
            "observability attached first")
    window_end = window.end_cycle
    reconfig = tracer.last("driver", "reconfig")
    module = str(reconfig.args.get("module", "?")) if reconfig else "?"

    phases: List[Phase] = []
    children = sorted(tracer.children(window),
                      key=lambda span: span.start_cycle)
    for span in children:
        if span.end_cycle is None:
            continue
        if span.name == "transfer" and "dma_done_cycle" in span.args:
            done = int(span.args["dma_done_cycle"])
            if span.start_cycle <= done <= span.end_cycle:
                phases.append(Phase("dma+icap stream",
                                    span.start_cycle, done))
                phases.append(Phase("irq delivery", done, span.end_cycle))
                continue
        phases.append(Phase(span.name, span.start_cycle, span.end_cycle))

    context: List[Phase] = []
    sd_spans = tracer.find("driver", "sd_load")
    if sd_spans:
        context.append(Phase("sd-card load (all modules)",
                             sd_spans[0].start_cycle,
                             sd_spans[-1].end_cycle or
                             sd_spans[-1].start_cycle))
    for name, label in (("decision", "decision (Td)"),
                        ("decouple", "decouple"),
                        ("recouple", "recouple")):
        span = tracer.last("driver", name)
        if span is not None and span.end_cycle is not None:
            context.append(Phase(label, span.start_cycle, span.end_cycle))

    return TrBreakdown(
        module=module,
        freq_hz=freq_hz,
        tr_phases=phases,
        context_phases=context,
        tr_window_cycles=window.duration,
        tr_reported_us=tr_reported_us,
        window_start_cycle=window.start_cycle,
        window_end_cycle=window_end,
    )


def render_tr_breakdown(breakdown: TrBreakdown) -> str:
    """Human-readable table of the decomposition plus the cross-checks."""
    lines = [f"Tr latency breakdown — module {breakdown.module!r} "
             f"at {breakdown.freq_hz / 1e6:.0f} MHz"]
    width = max([len(p.name) for p in
                 breakdown.tr_phases + breakdown.context_phases] + [12])
    total = breakdown.tr_window_cycles or 1
    lines.append("")
    lines.append("  Tr window phases (contiguous):")
    for phase in breakdown.tr_phases:
        us = breakdown.cycles_to_us(phase.cycles)
        share = 100.0 * phase.cycles / total
        lines.append(f"    {phase.name:<{width}}  {phase.cycles:>9,} cyc"
                     f"  {us:>10.2f} us  {share:5.1f}%")
    lines.append(f"    {'sum':<{width}}  "
                 f"{breakdown.phase_sum_cycles:>9,} cyc"
                 f"  {breakdown.cycles_to_us(breakdown.phase_sum_cycles):>10.2f} us"
                 f"  100.0%")
    lines.append("")
    mark = "OK" if breakdown.consistent else "MISMATCH"
    lines.append(f"  cross-check: phase sum vs end-to-end window — {mark} "
                 f"({breakdown.phase_sum_cycles:,} == "
                 f"{breakdown.tr_window_cycles:,} cycles)")
    if breakdown.tr_reported_us is not None:
        window_us = breakdown.cycles_to_us(breakdown.tr_window_cycles)
        delta = breakdown.tr_reported_us - window_us
        lines.append(
            f"  cross-check: CLINT-reported Tr {breakdown.tr_reported_us:.2f} us"
            f" vs span window {window_us:.2f} us "
            f"(delta {delta:+.2f} us, 5 MHz timebase quantization)")
    if breakdown.context_phases:
        lines.append("")
        lines.append("  outside the Tr window:")
        for phase in breakdown.context_phases:
            us = breakdown.cycles_to_us(phase.cycles)
            lines.append(f"    {phase.name:<{width}}  "
                         f"{phase.cycles:>9,} cyc  {us:>10.2f} us")
    return "\n".join(lines)


def format_timeline(tracer: SpanTracer, freq_hz: float = 100e6) -> str:
    """One line per span, by start cycle: start, track, name, duration
    (``open`` while unfinished) and attributes."""
    us_per_cycle = 1e6 / freq_hz
    lines = []
    for span in sorted(tracer.spans, key=lambda s: (s.start_cycle, s.span_id)):
        length = ("open" if span.end_cycle is None
                  else f"{span.duration * us_per_cycle:.2f} us")
        attrs = " ".join(f"{key}={value}" for key, value in span.args.items())
        lines.append(f"[{span.start_cycle * us_per_cycle:12.2f} us] "
                     f"{span.track:12} {span.name:14} {length:>12}  "
                     f"{attrs}".rstrip())
    return "\n".join(lines)


def format_stats(stats: Dict[str, int | float]) -> str:
    """Aligned ``name  value`` lines for a counter snapshot."""
    if not stats:
        return ""
    width = max(len(k) for k in stats)
    lines = []
    for key, value in stats.items():
        if isinstance(value, float):
            lines.append(f"{key:<{width}}  {value:,.2f}")
        else:
            lines.append(f"{key:<{width}}  {value:,}")
    return "\n".join(lines)
