"""Static partial-bitstream verifier: packet walk + FAR coverage proof.

Walks the type-1/type-2 configuration packet stream the way the ICAP's
state machine would (:class:`repro.fpga.icap.Icap`) but *never raises*:
every structural defect becomes a structured finding, so the serving
path can reject a malformed stream in-band and CI can report all
defects at once.

Beyond well-formedness the walker proves that the FAR coverage of all
FDRI writes is exactly the declared partition's frame set — the
precondition for the amorphous-DPR relocation work (ROADMAP item 2) —
and emits a :class:`RelocatabilityVerdict`: whether the stream can be
retargeted to a geometry-compatible partition by rewriting its FAR
word(s) alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import BitstreamError
from repro.fpga.bitstream import Bitstream
from repro.fpga.device import FpgaDevice
from repro.fpga.frames import FrameAddress
from repro.fpga.packets import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigPacket,
    ConfigRegister,
    DUMMY_WORD,
    NOOP_WORD,
    Opcode,
    SYNC_WORD,
)
from repro.fpga.partition import ReconfigurablePartition
from repro.lint.findings import Finding, Severity, sort_findings
from repro.utils.crc import crc32_config_word, crc32_config_words
from repro.verify.rules import vfinding


@dataclass(frozen=True)
class RelocatabilityVerdict:
    """Can the stream be FAR-rewritten into a compatible partition?"""

    relocatable: bool
    reasons: Tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {"relocatable": self.relocatable,
                "reasons": list(self.reasons)}


@dataclass
class BitstreamVerifyReport:
    """Outcome of statically verifying one partial bitstream."""

    name: str
    findings: List[Finding] = field(default_factory=list)
    relocatability: RelocatabilityVerdict = RelocatabilityVerdict(
        relocatable=False, reasons=("stream not analyzed",))
    frames_written: int = 0
    far_writes: int = 0
    words: int = 0

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def to_dict(self) -> dict[str, object]:
        return {
            "artifact": self.name,
            "kind": "bitstream",
            "ok": self.ok,
            "words": self.words,
            "frames_written": self.frames_written,
            "far_writes": self.far_writes,
            "relocatability": self.relocatability.to_dict(),
            "findings": [f.to_dict() for f in sort_findings(self.findings)],
        }


def verify_bitstream(bitstream: Bitstream,
                     rp: ReconfigurablePartition, *,
                     device: Optional[FpgaDevice] = None,
                     name: str = "bitstream") -> BitstreamVerifyReport:
    """Statically verify ``bitstream`` against its declared partition."""
    dev = device or rp.device
    report = BitstreamVerifyReport(name=name)
    words = bitstream.words
    n = int(words.size)
    report.words = n

    def emit(rule_id: str, index: int, message: str, *,
             hint: str = "", severity: Optional[Severity] = None) -> None:
        report.findings.append(vfinding(
            rule_id, f"{name}[word {index}]", message,
            hint=hint, severity=severity))

    # ------------------------------------------------------------------
    # preamble (VFY-BIT-001)
    # ------------------------------------------------------------------
    i = 0
    synced = False
    while i < n:
        word = int(words[i])
        i += 1
        if word == SYNC_WORD:
            synced = True
            break
        if word not in (DUMMY_WORD, BUS_WIDTH_SYNC, BUS_WIDTH_DETECT, 0):
            emit("VFY-BIT-001", i - 1,
                 f"unexpected preamble word {word:#010x} before sync",
                 hint="the preamble may only carry dummy words and the "
                      "bus-width sequence")
    if not synced:
        emit("VFY-BIT-001", n, "no sync word found",
             hint="the configuration logic never leaves the preamble; "
                  "the stream can have no effect")
        report.findings = sort_findings(report.findings)
        report.relocatability = RelocatabilityVerdict(
            False, ("stream never syncs",))
        return report

    # ------------------------------------------------------------------
    # packet walk
    # ------------------------------------------------------------------
    crc = 0
    crc_seen = False
    rcrc_before_frames = False
    idcode_value: Optional[int] = None
    idcode_index: Optional[int] = None
    last_command: Optional[Command] = None
    desynced_at: Optional[int] = None
    pending_type1_reg: Optional[int] = None
    current_far: Optional[int] = None
    far_writes = 0
    #: (start_linear, frame_count, block_type) per FDRI write
    coverage: List[Tuple[int, int, int]] = []
    wpf = dev.words_per_frame
    mfwr_used = False
    aborted = False

    while i < n:
        index = i
        word = int(words[i])
        i += 1
        if word == NOOP_WORD:
            continue
        if desynced_at is not None:
            if word in (DUMMY_WORD, 0):
                continue
            emit("VFY-BIT-005", index,
                 f"non-padding word {word:#010x} after DESYNC",
                 hint="the device ignores post-desync words; whatever "
                      "they were meant to do will not happen")
            continue
        try:
            header = ConfigPacket.decode(word)
        except BitstreamError:
            emit("VFY-BIT-002", index,
                 f"undecodable packet header {word:#010x}",
                 hint="the ICAP state machine desynchronizes here; "
                      "everything after this word is unpredictable")
            aborted = True
            break
        if header.packet_type == 1:
            reg = header.register
            count = header.word_count
            pending_type1_reg = reg
        else:
            if pending_type1_reg is None:
                emit("VFY-BIT-002", index,
                     "type-2 packet without a preceding type-1 header")
                aborted = True
                break
            reg = pending_type1_reg
            count = header.word_count
        if header.opcode == Opcode.READ:
            emit("VFY-BIT-002", index,
                 f"read packet (register {reg:#x}) inside a partial "
                 f"write stream",
                 hint="readback belongs to a capture flow, not a "
                      "reconfiguration stream", severity=Severity.WARNING)
            continue
        if header.opcode != Opcode.WRITE or count == 0:
            continue
        if i + count > n:
            emit("VFY-BIT-002", index,
                 f"payload of {count} words for register {reg:#x} runs "
                 f"{i + count - n} words past the end of the stream",
                 hint="word count corrupted or stream truncated")
            aborted = True
            break
        payload = words[i:i + count]
        i += count

        if reg == ConfigRegister.FDRI:
            if last_command is not Command.WCFG:
                emit("VFY-BIT-006", index,
                     "FDRI frame data written while the last CMD is "
                     f"{last_command.name if last_command else 'unset'}, "
                     f"not WCFG",
                     hint="issue CMD=WCFG before streaming frame data")
            if count % wpf:
                emit("VFY-BIT-003", index,
                     f"FDRI write of {count} words is not a whole number "
                     f"of {wpf}-word frames")
            frames = count // wpf
            if current_far is None:
                emit("VFY-BIT-003", index,
                     "FDRI write with no established frame address",
                     hint="write FAR before FDRI")
            elif frames:
                far = FrameAddress.decode(current_far)
                coverage.append((far.linear_index(), frames,
                                 far.block_type))
                try:
                    current_far = far.advance(frames).encode()
                except BitstreamError:
                    emit("VFY-BIT-003", index,
                         f"frame address {current_far:#010x} + {frames} "
                         f"frames overflows the device frame space")
                    current_far = None
            report.frames_written += frames
            crc = crc32_config_words(crc, payload, reg)
            continue

        value = int(payload[-1])
        if reg == ConfigRegister.CRC:
            crc_seen = True
            if value != crc:
                emit("VFY-BIT-005", index,
                     f"CRC check word {value:#010x} does not match the "
                     f"running CRC {crc:#010x}",
                     hint="the device would assert CRC_ERROR and abort "
                          "the configuration")
            crc = 0
            continue
        if reg == ConfigRegister.CMD:
            try:
                command = Command(value)
            except ValueError:
                emit("VFY-BIT-002", index,
                     f"unknown CMD code {value:#x}")
                continue
            last_command = command
            if command is Command.MFW:
                mfwr_used = True
            if command is Command.RCRC:
                crc = 0
                if not coverage:
                    rcrc_before_frames = True
                continue
            if command is Command.DESYNC:
                desynced_at = index
        if reg == ConfigRegister.IDCODE:
            idcode_value = value
            idcode_index = index
        if reg == ConfigRegister.FAR:
            current_far = value
            far_writes += 1
        if reg == ConfigRegister.MFWR:
            mfwr_used = True
        for item in payload.tolist():
            crc = crc32_config_word(crc, item, reg)

    report.far_writes = far_writes

    # ------------------------------------------------------------------
    # end-of-stream protocol checks (VFY-BIT-004/005)
    # ------------------------------------------------------------------
    if coverage:
        if idcode_value is None:
            emit("VFY-BIT-004", n,
                 "frame data written without an IDCODE check",
                 hint="a stream without IDCODE can configure the wrong "
                      "die", severity=Severity.WARNING)
        elif idcode_value != dev.idcode:
            emit("VFY-BIT-004", idcode_index or n,
                 f"IDCODE {idcode_value:#010x} does not match the "
                 f"{dev.name} ({dev.idcode:#010x})")
        if not rcrc_before_frames:
            emit("VFY-BIT-005", n,
                 "no RCRC before the first frame write",
                 hint="the running CRC starts from stale state",
                 severity=Severity.WARNING)
    elif not aborted:
        emit("VFY-BIT-003", n, "stream writes no configuration frames",
             hint="a partial bitstream that configures nothing cannot "
                  "load a module")
    if not crc_seen and not aborted:
        emit("VFY-BIT-005", n, "stream carries no CRC check word",
             hint="transmission errors would go undetected",
             severity=Severity.WARNING)
    if desynced_at is None and not aborted:
        emit("VFY-BIT-005", n, "stream never issues CMD=DESYNC",
             hint="the configuration port is left synchronized; "
                  "subsequent bus noise can be interpreted as packets")

    _check_coverage(report, coverage, rp, name)
    report.relocatability = _relocatability(
        coverage, far_writes, mfwr_used, aborted, rp)
    report.findings = sort_findings(report.findings)
    return report


def _check_coverage(report: BitstreamVerifyReport,
                    coverage: List[Tuple[int, int, int]],
                    rp: ReconfigurablePartition, name: str) -> None:
    """FAR coverage must be exactly the partition's frame set."""
    if not coverage:
        return
    base = rp.base_far.linear_index()
    frames = rp.frames
    block_type = rp.base_far.block_type
    written: set[int] = set()
    for start, count, btype in coverage:
        if btype != block_type:
            report.findings.append(vfinding(
                "VFY-BIT-003", name,
                f"frame write targets block type {btype}, partition "
                f"{rp.name!r} is block type {block_type}"))
            continue
        span = range(start, start + count)
        outside = [f for f in span if not base <= f < base + frames]
        if outside:
            report.findings.append(vfinding(
                "VFY-BIT-003", name,
                f"{len(outside)} of {count} frames written at linear "
                f"index {start} fall outside partition {rp.name!r} "
                f"[{base}, {base + frames})",
                hint="an out-of-partition write reconfigures static "
                     "logic — the defect the decoupler cannot protect "
                     "against"))
        written.update(f for f in span if base <= f < base + frames)
    missing = frames - len(written)
    if missing:
        report.findings.append(vfinding(
            "VFY-BIT-003", name,
            f"{missing} of {frames} frames of partition {rp.name!r} are "
            f"never written",
            hint="stale frames keep the previous module's logic",
            severity=Severity.WARNING))


def _relocatability(coverage: List[Tuple[int, int, int]], far_writes: int,
                    mfwr_used: bool, aborted: bool,
                    rp: ReconfigurablePartition) -> RelocatabilityVerdict:
    """A stream is FAR-rewritable when it is one contiguous frame run."""
    reasons: List[str] = []
    if aborted:
        reasons.append("stream is structurally malformed")
    if far_writes != 1:
        reasons.append(f"{far_writes} FAR writes (need exactly 1)")
    if mfwr_used:
        reasons.append("multi-frame-write compression pins frame "
                       "addresses")
    if not coverage:
        reasons.append("no frame data")
    else:
        expected = coverage[0][0]
        for start, count, _btype in coverage:
            if start != expected:
                reasons.append("frame writes are not contiguous")
                break
            expected = start + count
        total = sum(count for _s, count, _b in coverage)
        if total != rp.frames:
            reasons.append(
                f"covers {total} frames, partition footprint is "
                f"{rp.frames}")
    if reasons:
        return RelocatabilityVerdict(False, tuple(reasons))
    return RelocatabilityVerdict(True)
