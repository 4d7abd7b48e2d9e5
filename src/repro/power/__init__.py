"""Cycle-integrated power & energy accounting (see docs/OBSERVABILITY.md).

The package layers a declarative power model over the obs traces:

* :mod:`repro.power.profile` — versioned per-component coefficients;
* :mod:`repro.power.model` — span contributions -> power series,
  per-component energies, lazy ``energy_nj`` span annotation and the
  ``power_mw`` exporter track;
* :mod:`repro.power.report` — the reconfiguration-energy breakdown,
  phase-aligned with the Tr latency breakdown;
* :mod:`repro.power.governor` — sliding-window peak-power admission
  control for the power-aware scheduler.
"""

from repro.power.governor import PowerGovernor
from repro.power.model import (
    ANNOTATED_TRACK_PREFIXES,
    PowerIntegrator,
    PowerModel,
)
from repro.power.profile import DEFAULT_PROFILE, PowerProfile
from repro.power.report import (
    EnergyBreakdown,
    EnergyPhase,
    build_energy_breakdown,
    render_energy_breakdown,
    traced_reconfiguration,
)

__all__ = [
    "ANNOTATED_TRACK_PREFIXES",
    "DEFAULT_PROFILE",
    "EnergyBreakdown",
    "EnergyPhase",
    "PowerGovernor",
    "PowerIntegrator",
    "PowerModel",
    "PowerProfile",
    "build_energy_breakdown",
    "render_energy_breakdown",
    "traced_reconfiguration",
]
