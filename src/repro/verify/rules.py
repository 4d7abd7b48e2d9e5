"""Verifier rule catalog and finding construction.

The artifact verifiers (:mod:`repro.verify.firmware`,
:mod:`repro.verify.bitstream`) reuse the DRC's structured
:class:`~repro.lint.findings.Finding` records but run a single
analysis walk per artifact rather than independent per-rule callables,
so the registry here is *declarative*: rule ids, titles, default
severities and descriptions.  It feeds ``repro verify --list-rules``,
the SARIF rule table and the per-rule fixture tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import DrcError
from repro.lint.findings import Finding, Severity


@dataclass(frozen=True)
class VerifierRule:
    """One verifier rule: identity, documentation, default severity."""

    rule_id: str
    title: str
    severity: Severity
    description: str = ""


_REGISTRY: Dict[str, VerifierRule] = {}


def _register(rule_id: str, title: str, severity: Severity,
              description: str) -> None:
    if rule_id in _REGISTRY:
        raise DrcError(f"duplicate verifier rule id {rule_id!r}")
    _REGISTRY[rule_id] = VerifierRule(rule_id, title, severity, description)


# ---------------------------------------------------------------------------
# firmware rules (static CFG / MMIO analysis)
# ---------------------------------------------------------------------------
_register(
    "VFY-FW-001", "MMIO access outside the SoC address map", Severity.ERROR,
    "A statically-resolved load/store address decodes to no slave in the "
    "SoC memory map, falls beyond the target slave's register file, or "
    "(downgraded to a warning) hits a mapped register bank at an offset "
    "with no declared register.")
_register(
    "VFY-FW-002", "Misaligned MMIO access", Severity.ERROR,
    "A statically-resolved MMIO access address is not aligned to the "
    "access size; the interconnect responds SLVERR at runtime.")
_register(
    "VFY-FW-003", "Write to a read-only register", Severity.ERROR,
    "A store targets a register declared read_only (status registers, "
    "version words); the IP ignores the write, so the firmware's state "
    "machine is likely wrong.")
_register(
    "VFY-FW-004", "Write sets reserved register bits", Severity.WARNING,
    "A store with a statically-known value sets bits outside the "
    "register's declared write mask; reserved bits must be written as "
    "zero (UG585-style contract).")
_register(
    "VFY-FW-005", "AXI4-Lite port accessed wider than 32 bits", Severity.ERROR,
    "A 64-bit load/store targets a register bank declared lite_only; "
    "the AXI4->Lite protocol converter only carries 32-bit beats.")
_register(
    "VFY-FW-006", "ICAP-path write not dominated by RP decouple", Severity.ERROR,
    "A store that launches configuration data toward the ICAP (DMA "
    "MM2S_LENGTH kick or HWICAP WF/CR) is reachable without first "
    "passing a store asserting the RP decouple bit — the fabric could "
    "glitch mid-reconfiguration (Listing 1 orders decouple first).")
_register(
    "VFY-FW-007", "Store to executable memory without reachable fence.i",
    Severity.WARNING,
    "A store writes into the executable image's address range but no "
    "fence.i is reachable from the storing block, so stale instructions "
    "may execute from the pre-store bytes.")
_register(
    "VFY-FW-008", "Worst-case stack depth exceeds the reserved stack",
    Severity.ERROR,
    "The call-graph worst-case stack bound exceeds the stack budget, or "
    "recursion makes the bound unbounded (downgraded to a warning).")
_register(
    "VFY-FW-009", "Unreachable code in the firmware image", Severity.WARNING,
    "Image bytes are not reachable from the entry point or any "
    "discovered trap vector; dead code wastes boot ROM and usually "
    "signals a wiring mistake in the build.")

# ---------------------------------------------------------------------------
# bitstream rules (static packet-stream analysis)
# ---------------------------------------------------------------------------
_register(
    "VFY-BIT-001", "Malformed bitstream framing", Severity.ERROR,
    "The stream has no sync word, so the configuration logic never leaves "
    "the preamble, or (warning) words other than dummies, bus-width words "
    "and NOOPs come before the sync word; the device ignores them.")
_register(
    "VFY-BIT-002", "Malformed configuration packet", Severity.ERROR,
    "A payload's word count runs past the end of the stream, or a packet "
    "header fails to decode, a type-2 packet has no preceding type-1 or a "
    "read packet is malformed (the ICAP latches a protocol error); or "
    "(warning) a CMD write carries no command code, of which the device "
    "acts on the low 5 bits.")
_register(
    "VFY-BIT-003", "FAR coverage does not match the declared partition",
    Severity.ERROR,
    "Frame writes configure frames outside the declared partition "
    "(error), leave declared frames unconfigured (warning), write a "
    "non-whole number of frames, write FDRI without an established frame "
    "address or step it off the device's frame grid, or the stream's "
    "last session writes no frames.")
_register(
    "VFY-BIT-004", "IDCODE missing or does not match the device",
    Severity.ERROR,
    "The stream writes a wrong IDCODE (error) or configuration frames "
    "without any IDCODE check at all (warning); a mismatched stream "
    "would be rejected or, worse, loaded onto the wrong die.")
_register(
    "VFY-BIT-005", "CRC / desync protocol violation", Severity.ERROR,
    "The CRC check word does not match the running CRC or the stream "
    "never desyncs; or (warnings) non-padding words follow a DESYNC, "
    "which the desynchronized device ignores, or the stream lacks an "
    "RCRC before frame data or any CRC check.")
_register(
    "VFY-BIT-006", "Frame data written without WCFG", Severity.ERROR,
    "An FDRI write occurs while the CMD register does not hold WCFG; the "
    "ICAP latches a protocol error and commits none of the frames.")


def all_verifier_rules() -> List[VerifierRule]:
    """Every verifier rule, sorted by rule id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_verifier_rule(rule_id: str) -> VerifierRule:
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise DrcError(f"unknown verifier rule {rule_id!r}") from None


def verifier_rule_help() -> Dict[str, str]:
    """``rule_id -> title`` map for the SARIF rule table."""
    return {r.rule_id: r.title for r in all_verifier_rules()}


def vfinding(rule_id: str, component: str, message: str, *,
             hint: str = "",
             severity: Optional[Severity] = None) -> Finding:
    """Build a :class:`Finding` for a registered verifier rule."""
    registered = _REGISTRY[rule_id]
    return Finding(
        rule_id=rule_id,
        severity=registered.severity if severity is None else severity,
        component=component,
        message=message,
        hint=hint,
    )
