"""Reconfiguration-energy breakdown, phase-aligned with the Tr report.

The energy breakdown reuses the *exact* phase boundaries of
:func:`repro.obs.report.build_tr_breakdown` — the phases are the same
:class:`~repro.obs.report.Phase` cycle intervals, so the two tables
line up cycle-for-cycle and the energy identity mirrors the latency
identity: per-phase component energies sum to each phase total, phase
totals sum to the Tr-window total, and the window total equals the
power-series integral over the window (all derived from one
contribution list, see :mod:`repro.power.model`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.report import Phase, TrBreakdown, build_tr_breakdown
from repro.obs.tracer import SpanTracer
from repro.power.model import PowerModel
from repro.power.profile import DEFAULT_PROFILE, PowerProfile


@dataclass(frozen=True)
class EnergyPhase:
    """Energy of one Tr-breakdown phase, split per component."""

    name: str
    start_cycle: int
    end_cycle: int
    component_nj: Dict[str, float]

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def total_nj(self) -> float:
        return sum(self.component_nj.values())


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-phase, per-component energy of one reconfiguration."""

    module: str
    freq_hz: float
    profile_version: str
    components: Tuple[str, ...]
    #: phases with identical boundaries to ``TrBreakdown.tr_phases``
    phases: List[EnergyPhase]
    #: context phases outside the Tr window (sd-load, decision, ...)
    context_phases: List[EnergyPhase]
    #: power-series integral over the whole Tr window
    tr_window_nj: float
    #: the latency breakdown the phases were taken from
    timing: TrBreakdown

    @property
    def total_nj(self) -> float:
        return sum(phase.total_nj for phase in self.phases)

    def component_totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {name: 0.0 for name in self.components}
        for phase in self.phases:
            for name, nj in phase.component_nj.items():
                out[name] = out.get(name, 0.0) + nj
        return out

    @property
    def consistent(self) -> bool:
        """Phase/component sums equal the window integral (<= 0.1 %)."""
        total = self.total_nj
        window = self.tr_window_nj
        if not self.phases_match_timing:
            return False
        return abs(total - window) <= 1e-3 * max(abs(window), 1e-9)

    @property
    def phases_match_timing(self) -> bool:
        """Energy phases reuse the Tr phases cycle-for-cycle."""
        timing = [(p.name, p.start_cycle, p.end_cycle)
                  for p in self.timing.tr_phases]
        energy = [(p.name, p.start_cycle, p.end_cycle) for p in self.phases]
        return timing == energy

    def cycles_to_us(self, cycles: int) -> float:
        return cycles * 1e6 / self.freq_hz

    def to_dict(self) -> Dict[str, Any]:
        def phase_dict(phase: EnergyPhase) -> Dict[str, Any]:
            return {
                "name": phase.name,
                "start_cycle": phase.start_cycle,
                "end_cycle": phase.end_cycle,
                "cycles": phase.cycles,
                "component_nj": {name: round(nj, 3) for name, nj
                                 in sorted(phase.component_nj.items())},
                "total_nj": round(phase.total_nj, 3),
            }
        return {
            "module": self.module,
            "freq_hz": self.freq_hz,
            "profile_version": self.profile_version,
            "components": list(self.components),
            "phases": [phase_dict(p) for p in self.phases],
            "context_phases": [phase_dict(p) for p in self.context_phases],
            "component_totals_nj": {name: round(nj, 3) for name, nj
                                    in sorted(self.component_totals().items())},
            "total_nj": round(self.total_nj, 3),
            "tr_window_nj": round(self.tr_window_nj, 3),
            "consistent": self.consistent,
            "phases_match_timing": self.phases_match_timing,
        }


def build_energy_breakdown(tracer: SpanTracer, freq_hz: float = 100e6, *,
                           profile: Optional[PowerProfile] = None,
                           tr_reported_us: Optional[float] = None,
                           ) -> EnergyBreakdown:
    """Assemble the energy breakdown for the latest traced reconfig."""
    timing = build_tr_breakdown(tracer, freq_hz,
                                tr_reported_us=tr_reported_us)
    model = PowerModel(profile)
    contributions = model.contributions(tracer)

    def energy_phase(phase: Phase) -> EnergyPhase:
        return EnergyPhase(
            name=phase.name,
            start_cycle=phase.start_cycle,
            end_cycle=phase.end_cycle,
            component_nj=model.component_energy(
                contributions, phase.start_cycle, phase.end_cycle,
                freq_hz=freq_hz))

    window_nj = sum(model.component_energy(
        contributions, timing.window_start_cycle, timing.window_end_cycle,
        freq_hz=freq_hz).values())
    return EnergyBreakdown(
        module=timing.module,
        freq_hz=freq_hz,
        profile_version=(profile or DEFAULT_PROFILE).version,
        components=(profile or DEFAULT_PROFILE).components,
        phases=[energy_phase(p) for p in timing.tr_phases],
        context_phases=[energy_phase(p) for p in timing.context_phases],
        tr_window_nj=window_nj,
        timing=timing,
    )


def render_energy_breakdown(breakdown: EnergyBreakdown) -> str:
    """Human-readable table mirroring :func:`render_tr_breakdown`."""
    lines = [f"Reconfiguration energy breakdown — module "
             f"{breakdown.module!r} at {breakdown.freq_hz / 1e6:.0f} MHz "
             f"(profile {breakdown.profile_version})"]
    names = [p.name for p in breakdown.phases + breakdown.context_phases]
    width = max([len(name) for name in names] + [12])
    total = breakdown.total_nj or 1.0
    lines.append("")
    lines.append("  Tr window phases (boundaries identical to the Tr "
                 "latency breakdown):")
    for phase in breakdown.phases:
        share = 100.0 * phase.total_nj / total
        top = max(phase.component_nj, key=lambda k: phase.component_nj[k])
        lines.append(f"    {phase.name:<{width}}  {phase.cycles:>9,} cyc"
                     f"  {phase.total_nj / 1000.0:>10.2f} uJ  {share:5.1f}%"
                     f"  (top: {top})")
    lines.append(f"    {'sum':<{width}}  "
                 f"{breakdown.timing.phase_sum_cycles:>9,} cyc"
                 f"  {breakdown.total_nj / 1000.0:>10.2f} uJ  100.0%")
    lines.append("")
    lines.append("  per-component energy over the Tr window:")
    totals = breakdown.component_totals()
    for name in breakdown.components:
        nj = totals.get(name, 0.0)
        share = 100.0 * nj / total
        lines.append(f"    {name:<{width}}  {nj / 1000.0:>10.2f} uJ"
                     f"  {share:5.1f}%")
    extra = sorted(set(totals) - set(breakdown.components))
    for name in extra:  # pragma: no cover - future components
        lines.append(f"    {name:<{width}}  "
                     f"{totals[name] / 1000.0:>10.2f} uJ")
    mark = "OK" if breakdown.consistent else "MISMATCH"
    lines.append("")
    lines.append(
        f"  cross-check: phase sum vs window integral — {mark} "
        f"({breakdown.total_nj / 1000.0:.3f} uJ vs "
        f"{breakdown.tr_window_nj / 1000.0:.3f} uJ)")
    align = "OK" if breakdown.phases_match_timing else "MISMATCH"
    lines.append(f"  cross-check: phase boundaries vs Tr breakdown — {align} "
                 f"(cycle-for-cycle)")
    if breakdown.context_phases:
        lines.append("")
        lines.append("  outside the Tr window:")
        for phase in breakdown.context_phases:
            lines.append(f"    {phase.name:<{width}}  "
                         f"{phase.cycles:>9,} cyc  "
                         f"{phase.total_nj / 1000.0:>10.2f} uJ")
    return "\n".join(lines)


def traced_reconfiguration(module: Optional[str] = None, *,
                           mode: str = "interrupt") -> Tuple[Any, Any]:
    """Run one observed RV-CAP reconfiguration; returns (soc, result).

    Shared by ``repro power report``, the eval report's energy section
    and the CI determinism job, so they all describe the same run.  The
    breakdown is defined on RV-CAP's ``driver/tr_window`` span, which
    the HWICAP driver does not record.
    """
    from repro.drivers.manager import ReconfigurationManager
    from repro.obs import Observability
    from repro.soc.builder import build_soc

    soc = build_soc()
    soc.attach_observability(Observability())
    manager = ReconfigurationManager(soc)
    manager.provision_sdcard()
    manager.init_rmodules()
    name = module or soc.registered_modules[0]
    result = manager.load_module(name, mode=mode)
    return soc, result
