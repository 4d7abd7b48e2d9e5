"""Observability: span tracing, metrics and exporters for the simulator.

The package is the simulator's one instrumentation surface:

* :class:`SpanTracer` — hierarchical begin/end spans with cycle
  timestamps over the DMA engines, AXIS switch, AXIS2ICAP converter,
  ICAP parser, RP decouple/recouple, PLIC delivery and driver API calls;
* :class:`MetricsRegistry` — named counters, gauges and HDR-bucketed
  cycle histograms components register into;
* exporters — Chrome-trace/Perfetto JSON, VCD signal dumps, Prometheus
  text, JSON snapshots, the Tr latency-breakdown report, and the
  plain-text span timeline ``repro reconfig`` prints.

Attach with ``soc.attach_observability()`` (or set a process-wide
default via :func:`set_default_observability` so every
``build_soc()`` — including the ones evaluation workloads build
internally — comes up instrumented).  When nothing is attached, every
emit path reduces to one ``is not None`` check: the tracer-off overhead
is gated below 2 % by ``benchmarks/perf.py --obs-check``.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.exporters import (
    chrome_trace_json,
    metrics_json,
    prometheus_text,
    validate_chrome_trace,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.report import (
    Phase,
    TrBreakdown,
    build_tr_breakdown,
    format_stats,
    format_timeline,
    render_tr_breakdown,
)
from repro.obs.tracer import InstantEvent, Span, SpanTracer
from repro.obs.vcd import parse_vcd, vcd_dump


class Observability:
    """One tracer plus one metrics registry, attached as a unit."""

    def __init__(self, tracer: Optional[SpanTracer] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    # convenience re-exports so callers hold a single handle ------------
    def chrome_trace(self, freq_hz: float = 100e6) -> str:
        return chrome_trace_json(self.tracer, freq_hz)

    def vcd(self, freq_hz: float = 100e6) -> str:
        return vcd_dump(self.tracer, freq_hz)

    def prometheus(self) -> str:
        return prometheus_text(self.metrics)

    def json_metrics(self) -> str:
        return metrics_json(self.metrics)


#: process-wide default observability, consulted by ``build_soc``
_default: Optional[Observability] = None


def set_default_observability(obs: Optional[Observability]) -> None:
    """Install (or clear, with None) the process-wide default.

    While set, every subsequently built SoC auto-attaches to it — the
    hook evaluation workloads and the perf harness use to instrument
    SoCs they construct internally.
    """
    global _default
    _default = obs


def get_default_observability() -> Optional[Observability]:
    return _default


__all__ = [
    "Observability",
    "SpanTracer",
    "Span",
    "InstantEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace_json",
    "validate_chrome_trace",
    "prometheus_text",
    "metrics_json",
    "vcd_dump",
    "parse_vcd",
    "Phase",
    "TrBreakdown",
    "build_tr_breakdown",
    "render_tr_breakdown",
    "format_timeline",
    "format_stats",
    "set_default_observability",
    "get_default_observability",
]
