"""Static partial-bitstream verifier: a dry run of the production ICAP.

The ``VFY-BIT-*`` rules check what :class:`repro.fpga.icap.Icap` parsed
(its register writes and frame-data packets), its final state and the
words a desynchronized port ignores.  A stream has an ERROR finding
exactly when the ICAP, fed the same words in any burst split, does not
end its last session ``configured`` or writes a frame outside the
declared partition (``tests/property/test_verify_contract.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.fpga.bitstream import Bitstream
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.frames import FAR_MASK, LINEAR_MASK
from repro.fpga.icap import Icap, _ParseState
from repro.fpga.packets import (
    BUS_WIDTH_DETECT, BUS_WIDTH_SYNC, DUMMY_WORD, NOOP_WORD, SYNC_WORD,
    Command, ConfigRegister)
from repro.fpga.partition import ReconfigurablePartition
from repro.lint.findings import Finding, Severity, sort_findings
from repro.verify.rules import vfinding

#: words a desynchronized port passes over without a finding
_PAD = frozenset([DUMMY_WORD, BUS_WIDTH_SYNC, BUS_WIDTH_DETECT, NOOP_WORD, 0])
_NAMES = {int(command): command.name for command in Command}
_CMD, _WARN = ConfigRegister.CMD, Severity.WARNING
#: FAR bits naming a frame: the block type and the linear frame index
_FRAME = FAR_MASK ^ (1 << 22)


@dataclass(frozen=True)
class RelocatabilityVerdict:
    """Can the stream be FAR-rewritten into a compatible partition?"""

    relocatable: bool
    reasons: Tuple[str, ...] = ()

    def to_dict(self) -> dict[str, object]:
        return {"relocatable": self.relocatable, "reasons": list(self.reasons)}


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
        return {"artifact": self.name, "kind": "bitstream", "ok": self.ok,
                "words": self.words, "frames_written": self.frames_written,
                "far_writes": self.far_writes,
                "relocatability": self.relocatability.to_dict(),
                "findings": [f.to_dict()
                             for f in sort_findings(self.findings)]}


class _LoggingIcap(Icap):
    """The production ICAP, logging register writes as ``(register, value,
    stream word, running CRC)`` and FDRI packets as ``(FAR, words, CMD
    register, register writes before it)``."""

    def __init__(self, config_memory: ConfigMemory) -> None:
        super().__init__(config_memory)
        self.writes: List[Tuple[int, int, int, int]] = []
        self.packets: List[Tuple[Optional[int], int, int, int]] = []

    def _write_register(self, reg: int, value: int, pos: int) -> None:
        self.writes.append((reg, value, pos, self._running_crc()))
        super()._write_register(reg, value, pos)

    def _commit_frames(self) -> None:
        words = sum(map(len, self._fdri_raw)) // 4 + sum(
            map(len, self._fdri_words))
        self.packets.append((self._far, words, self._command,
                             len(self.writes)))
        super()._commit_frames()


def verify_bitstream(bitstream: Bitstream, rp: ReconfigurablePartition, *,
                     name: str = "bitstream") -> BitstreamVerifyReport:
    """Statically verify ``bitstream`` against its declared partition."""
    words, dev, n = bitstream.words, rp.device, len(bitstream)
    report = BitstreamVerifyReport(name=name, words=n)

    def emit(rule_id: str, index: Optional[int], message: str,
             hint: str = "", severity: Optional[Severity] = None) -> None:
        report.findings.append(vfinding(
            rule_id, name if index is None else f"{name}[word {index}]",
            message, hint=hint, severity=severity))

    icap = _LoggingIcap(ConfigMemory(dev))
    icap.accept(bitstream.to_bytes(), 0)
    writes, packets = icap.writes, icap.packets
    registers = [reg for reg, _value, _pos, _crc in writes]
    codes = [(value & 0x1F, pos) for reg, value, pos, _c in writes
             if reg == _CMD]  # the CMD register reads the low 5 bits
    # the port hunts for the sync word before its first one and after
    # each DESYNC, passing over every word: junk there only warns
    syncs = np.flatnonzero(words == SYNC_WORD)
    for start in [0, *(p + 1 for code, p in codes if code == Command.DESYNC)]:
        stop = int(next(iter(syncs[syncs >= start]), n))
        junk = [(start + k, word) for k, word
                in enumerate(words[start:stop].tolist()) if word not in _PAD]
        if junk:
            where = "after DESYNC" if start else "before the sync word"
            emit("VFY-BIT-005" if start else "VFY-BIT-001", junk[0][0],
                 f"{len(junk)} non-padding word(s) {where}, the first "
                 f"{junk[0][1]:#010x}", "the desynchronized device ignores "
                 "them", _WARN)
    for reg, value, pos, crc in writes:
        if reg == ConfigRegister.CRC and value != crc:
            emit("VFY-BIT-005", pos, f"CRC check word {value:#010x} does not "
                 f"match the running CRC {crc:#010x}",
                 "the device would assert CRC_ERROR and drop the frames")
        elif reg == ConfigRegister.IDCODE and value != dev.idcode:
            emit("VFY-BIT-004", pos, f"IDCODE {value:#010x} does not match "
                 f"the {dev.name} ({dev.idcode:#010x})")
        elif reg == _CMD and value not in _NAMES:
            emit("VFY-BIT-002", pos, f"unknown CMD code {value:#x}", "the "
                 f"device reads {value & 0x1F:#x}, NULL if reserved", _WARN)
    report.far_writes = registers.count(ConfigRegister.FAR)
    # the port logs no position for an FDRI packet, a missing sync word,
    # a payload cut short or a bad header: their findings name the end
    wpf, checked = dev.words_per_frame, len(report.findings)
    runs: List[Tuple[int, int]] = []
    for far, count, command, _before in packets:
        frames = count // wpf
        report.frames_written += frames
        if command != Command.WCFG:
            emit("VFY-BIT-006", n, "FDRI frame data written while the last "
                 f"CMD is {_NAMES.get(command, hex(command))}, not WCFG",
                 "issue CMD=WCFG before streaming frame data")
        if count % wpf:
            emit("VFY-BIT-003", n, f"FDRI write of {count} words is not a "
                 f"whole number of {wpf}-word frames")
        if far is None:
            emit("VFY-BIT-003", n, "FDRI write with no established frame "
                 "address", "write FAR before FDRI")
        elif (far & LINEAR_MASK) + frames > LINEAR_MASK:
            emit("VFY-BIT-003", n, f"frame address {far:#010x} + {frames} "
                 "frames overflows the device frame space")
        elif frames:
            runs.append((far & _FRAME, frames))
    reasons = ["stream is structurally malformed"]
    if not icap.sessions_opened:
        reasons = ["stream never syncs"]
        emit("VFY-BIT-001", n, "no sync word found",
             "the configuration logic never leaves the preamble")
    elif icap.outcome is None and icap._state is _ParseState.PAYLOAD:
        emit("VFY-BIT-002", n, f"payload of register {icap._payload_reg:#x} "
             f"runs {icap._payload_remaining} words past the end of the "
             "stream", "word count corrupted or stream truncated")
    elif icap.protocol_error and len(report.findings) == checked:
        emit("VFY-BIT-002", n, "a malformed packet latched a protocol error",
             "an undecodable header, a type-2 packet with no type-1 or a read")
    else:
        reasons = []
        if not packets or icap.outcome in ("empty", "readback"):
            emit("VFY-BIT-003", n, "stream writes no configuration frames "
                 "in its last session", "it cannot load a module")
        if ConfigRegister.CRC not in registers:
            emit("VFY-BIT-005", n, "stream carries no CRC check word",
                 "transmission errors would go undetected", _WARN)
        if icap.outcome is None:
            emit("VFY-BIT-005", n, "stream never issues CMD=DESYNC",
                 "the port stays synchronized; later noise reads as packets")
    if packets and ConfigRegister.IDCODE not in registers:
        emit("VFY-BIT-004", n, "frame data written without an IDCODE check",
             "a stream without IDCODE can configure the wrong die", _WARN)
    if packets and not any(reg == _CMD and value & 0x1F == Command.RCRC
                           for reg, value, _p, _c in writes[:packets[0][3]]):
        emit("VFY-BIT-005", n, "no RCRC before the first frame write",
             "the running CRC starts from stale state", _WARN)

    # the frame runs must cover exactly the partition's frames; one run
    # over its whole footprint can be FAR-rewritten into another partition
    base = rp.base_far.encode() & _FRAME
    end = base + rp.frames
    written: set[int] = set()
    for start, count in runs:
        inside = range(max(start, base), min(start + count, end))
        if len(inside) < count:
            emit("VFY-BIT-003", None, f"{count - len(inside)} of {count} "
                 f"frames written from FAR {start:#010x} fall outside "
                 f"partition {rp.name!r} [{base:#010x}, {end:#010x})",
                 "an out-of-partition write reconfigures static logic")
        written.update(inside)
    if runs and len(written) < rp.frames:
        emit("VFY-BIT-003", None, f"{rp.frames - len(written)} of "
             f"{rp.frames} frames of partition {rp.name!r} are never "
             "written", "stale frames keep the previous module's logic", _WARN)
    if report.far_writes != 1:
        reasons.append(f"{report.far_writes} FAR writes (need exactly 1)")
    if (ConfigRegister.MFWR in registers
            or any(code == Command.MFW for code, _pos in codes)):
        reasons.append("multi-frame-write compression pins frame addresses")
    if sum(count for _start, count in runs) != rp.frames or any(
            start != prev + count for (prev, count), (start, _c)
            in zip(runs, runs[1:], strict=False)):
        reasons.append(f"frame writes are not one run of {rp.frames} frames")
    report.relocatability = RelocatabilityVerdict(not reasons, tuple(reasons))
    report.findings = sort_findings(report.findings)
    return report
