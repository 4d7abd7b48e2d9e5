"""Malformed-bitstream fixtures: one corruption per verifier rule.

Every case starts from the reference partition's generated partial
bitstream (which verifies clean) and applies one word-level corruption
targeting a single rule.  Mutators locate the word to corrupt by
structure, not by hard-coded index, so they survive bitgen layout
changes.  ``BITSTREAM_CASES`` holds one ERROR per rule: a stream the
ICAP would not configure.  ``WARNING_CASES`` hold words the
desynchronized ICAP ignores, so their streams still configure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.fpga.bitgen import Bitgen
from repro.fpga.bitstream import Bitstream
from repro.fpga.frames import FrameAddress
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    make_reference_rp,
)
from repro.fpga.packets import (
    SYNC_WORD,
    Command,
    ConfigRegister,
    type1_write,
)

_MODULE = ReconfigurableModule(
    name="fixture_rm",
    resources=ResourceBudget(luts=100, ffs=100, brams=1, dsps=1))


def reference_stream() -> Tuple[Bitstream, ReconfigurablePartition]:
    """The clean reference (stream, partition) pair all cases mutate."""
    rp = make_reference_rp()
    return Bitgen(rp.device).generate(rp, _MODULE), rp


def _index_of(words: np.ndarray, value: int, *, after: int = 0) -> int:
    hits = np.nonzero(words[after:] == np.uint32(value))[0]
    assert hits.size, f"word {value:#010x} not found in the stream"
    return int(hits[0]) + after


def _reg_value_index(words: np.ndarray, register: ConfigRegister) -> int:
    """Index of the payload word of the first type-1 write to ``register``."""
    return _index_of(words, type1_write(register, 1)) + 1


def _cmd_index(words: np.ndarray, command: Command) -> int:
    header = type1_write(ConfigRegister.CMD, 1)
    start = 0
    while True:
        idx = _index_of(words, header, after=start)
        if int(words[idx + 1]) == int(command):
            return idx + 1
        start = idx + 1


@dataclass(frozen=True)
class BitstreamCase:
    """One word-level corruption targeting one verifier rule."""

    rule_id: str
    describe: str
    mutate: Callable[[np.ndarray], None]


def _corrupt_sync(words: np.ndarray) -> None:
    words[_index_of(words, SYNC_WORD)] ^= 0x1


def _garbage_preamble(words: np.ndarray) -> None:
    sync = _index_of(words, SYNC_WORD)
    words[sync // 2] = 0xDEAD_BEEF


def _write_after_desync(words: np.ndarray) -> None:
    # the trailing pad is NOOPs; make its last word a register header
    words[-1] = type1_write(ConfigRegister.FAR, 0)


def _undecodable_header(words: np.ndarray) -> None:
    # the FDRI type-2 header becomes a (nonexistent) type-3 packet
    fdri = _index_of(words, type1_write(ConfigRegister.FDRI, 0))
    words[fdri + 1] = 0x6000_0000


def _far_outside_partition(words: np.ndarray) -> None:
    far = _reg_value_index(words, ConfigRegister.FAR)
    words[far] = FrameAddress(block_type=0, row=4, column=100,
                              minor=0).encode()


def _wrong_idcode(words: np.ndarray) -> None:
    idcode = _reg_value_index(words, ConfigRegister.IDCODE)
    words[idcode] ^= 0xFF


def _corrupt_crc(words: np.ndarray) -> None:
    crc = _reg_value_index(words, ConfigRegister.CRC)
    words[crc] ^= 0xDEAD_BEEF


def _fdri_without_wcfg(words: np.ndarray) -> None:
    wcfg = _cmd_index(words, Command.WCFG)
    words[wcfg] = int(Command.DGHIGH)


BITSTREAM_CASES = [
    BitstreamCase("VFY-BIT-001", "sync word corrupted", _corrupt_sync),
    BitstreamCase("VFY-BIT-002", "FDRI type-2 header undecodable",
                  _undecodable_header),
    BitstreamCase("VFY-BIT-003", "FAR points outside the partition",
                  _far_outside_partition),
    BitstreamCase("VFY-BIT-004", "IDCODE does not match the device",
                  _wrong_idcode),
    BitstreamCase("VFY-BIT-005", "CRC check word corrupted",
                  _corrupt_crc),
    BitstreamCase("VFY-BIT-006", "WCFG replaced by DGHIGH before FDRI",
                  _fdri_without_wcfg),
]

WARNING_CASES = [
    BitstreamCase("VFY-BIT-001", "garbage word in the preamble",
                  _garbage_preamble),
    BitstreamCase("VFY-BIT-005", "register header in the post-DESYNC pad",
                  _write_after_desync),
]
