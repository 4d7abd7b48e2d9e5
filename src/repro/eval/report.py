"""One-shot reproduction report: every table and figure, regenerated.

``generate_report`` runs the full evaluation (Tables I-IV, Fig. 3, the
unroll study) and renders a markdown document with paper-vs-measured
columns — the machine-generated counterpart of EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List


@dataclass
class ReportSection:
    title: str
    body: str


@dataclass
class ReproductionReport:
    sections: List[ReportSection] = field(default_factory=list)

    def add(self, title: str, body: str) -> None:
        self.sections.append(ReportSection(title, body))

    def render(self) -> str:
        parts = ["# RV-CAP reproduction report",
                 "",
                 "Generated by `python -m repro report`; every value below "
                 "comes from a live simulation run.",
                 ""]
        for section in self.sections:
            parts.append(f"## {section.title}")
            parts.append("")
            parts.append("```")
            parts.append(section.body)
            parts.append("```")
            parts.append("")
        return "\n".join(parts)


def generate_report(*, include_unroll: bool = True) -> ReproductionReport:
    """Run the whole evaluation; returns the assembled report."""
    from repro.eval.figures import fig3_series, unroll_sweep
    from repro.eval.tables import table1, table2, table3, table4
    from repro.power import (
        build_energy_breakdown,
        render_energy_breakdown,
        traced_reconfiguration,
    )

    report = ReproductionReport()

    t1 = table1()
    report.add("Table I — controller resources and throughput "
               "(paper: RV-CAP 398.1 MB/s, HWICAP 8.23 MB/s)", t1.render())

    t2 = table2(measured_rvcap=t1.throughput("RV-CAP"),
                measured_hwicap=t1.throughput("AXI_HWICAP"))
    report.add("Table II — state-of-the-art comparison", t2.render())

    report.add("Table III — full-SoC utilization "
               "(paper: 74393 / 64059 / 92 / 47)", table3().render())

    t4 = table4()
    golden = "all outputs bit-exact vs golden filters" \
        if t4.outputs_match_golden else "OUTPUT MISMATCH"
    report.add("Table IV — case study "
               "(paper Tc: 606 / 598 / 588 us)",
               t4.render() + f"\n({golden})")

    fig3 = fig3_series()
    report.add("Fig. 3 — reconfiguration time vs RP size "
               "(paper max: 398.1 MB/s)", fig3.render())

    soc, result = traced_reconfiguration()
    energy = build_energy_breakdown(soc.obs.tracer, soc.sim.freq_hz,
                                    tr_reported_us=result.tr_us)
    report.add("Energy breakdown — reference reconfiguration "
               f"(modeled, profile {energy.profile_version}; phase "
               "boundaries shared with the Tr latency breakdown)",
               render_energy_breakdown(energy))

    if include_unroll:
        sweep = unroll_sweep()
        report.add("Sec. IV-B — HWICAP loop unrolling on the ISS "
                   "(paper: 4.16 -> 8.23 MB/s, <5% beyond 16x)",
                   sweep.render())
    return report
