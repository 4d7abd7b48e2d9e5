"""Cross-layer static artifact verifier.

Two verifiers prove properties about the artifacts the DPR serving
path consumes, *before* they ever touch the modelled hardware:

* :func:`verify_firmware` — reconstructs the control-flow graph of an
  assembled firmware image, abstract-interprets register values, and
  checks every statically-resolvable MMIO access against the live SoC
  address map and per-register write masks (rules ``VFY-FW-*``).
* :func:`verify_bitstream` — a dry run of the production ICAP over a
  scratch configuration memory: its rules (``VFY-BIT-*``) check what
  the port parsed, so a stream has an ERROR finding exactly when the
  ICAP would not configure it or would write a frame outside the
  declared partition; it also emits a relocatability verdict.

Both emit :class:`repro.lint.findings.Finding` records, surface
through ``repro verify`` (human / JSON / SARIF output) and gate
admission in :class:`repro.sched.scheduler.DprScheduler` when
constructed with ``verify=True``.
"""

from repro.verify.bitstream import (
    BitstreamVerifyReport,
    RelocatabilityVerdict,
    verify_bitstream,
)
from repro.verify.cfg import (
    BasicBlock,
    CfgError,
    ControlFlowGraph,
    MemAccess,
    build_cfg,
    discover_cfg,
    propagate_constants,
)
from repro.verify.firmware import FirmwareVerifyReport, verify_firmware
from repro.verify.rules import (
    VerifierRule,
    all_verifier_rules,
    get_verifier_rule,
    verifier_rule_help,
    vfinding,
)

__all__ = [
    "BasicBlock",
    "BitstreamVerifyReport",
    "CfgError",
    "ControlFlowGraph",
    "FirmwareVerifyReport",
    "MemAccess",
    "RelocatabilityVerdict",
    "VerifierRule",
    "all_verifier_rules",
    "build_cfg",
    "discover_cfg",
    "get_verifier_rule",
    "propagate_constants",
    "verifier_rule_help",
    "verify_bitstream",
    "verify_firmware",
    "vfinding",
]
