"""The list-based bitstream assembler: ``Bitgen._assemble``'s oracle.

:meth:`repro.fpga.bitgen.Bitgen._assemble` builds the ~50 protocol
words as short lists and concatenates them around the payload array.
This module keeps the assembler it replaced, which appends every word,
one placeholder zero per payload word included, to one Python list,
converts the list with ``np.array`` and copies the payload over the
placeholders, as the reference ``tests/fpga/test_bitgen.py`` compares
against.  It imports only numpy and ``repro``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import BitstreamError
from repro.fpga.bitgen import Bitgen
from repro.fpga.bitstream import Bitstream
from repro.fpga.packets import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    type1_write,
    type2_write,
)
from repro.fpga.partition import ReconfigurableModule, ReconfigurablePartition
from repro.utils.crc import crc32_config_word, crc32_config_words


def assemble(bitgen: Bitgen, rp: ReconfigurablePartition,
             payload: np.ndarray) -> Bitstream:
    """``bitgen._assemble(rp, payload)``, one list entry per word."""
    opts = bitgen.options
    if len(payload) != rp.frame_words:
        raise BitstreamError(
            f"payload of {len(payload)} words does not match RP "
            f"footprint of {rp.frame_words} words"
        )
    words: list[int] = []
    words.extend([DUMMY_WORD] * opts.preamble_dummies)
    words.append(BUS_WIDTH_SYNC)
    words.append(BUS_WIDTH_DETECT)
    words.extend([DUMMY_WORD] * 2)
    words.append(SYNC_WORD)
    words.append(NOOP_WORD)

    crc = 0

    def emit_reg(register: ConfigRegister, value: int) -> None:
        nonlocal crc
        words.append(type1_write(register, 1))
        words.append(value)
        if register != ConfigRegister.CRC:
            crc = crc32_config_word(crc, value, register)

    emit_reg(ConfigRegister.CMD, Command.RCRC)
    crc = 0  # RCRC resets the running CRC
    words.append(NOOP_WORD)
    words.append(NOOP_WORD)
    emit_reg(ConfigRegister.IDCODE, bitgen.device.idcode)
    emit_reg(ConfigRegister.FAR, rp.base_far.encode())
    emit_reg(ConfigRegister.CMD, Command.WCFG)
    words.append(NOOP_WORD)

    words.append(type1_write(ConfigRegister.FDRI, 0))
    words.append(type2_write(len(payload)))
    frame_start = len(words)
    words.extend([0] * len(payload))  # placeholder, filled vectorized

    crc = crc32_config_words(crc, payload, ConfigRegister.FDRI)

    if opts.emit_crc:
        crc_value = crc ^ 0xDEAD_BEEF if opts.corrupt_crc else crc
        words.append(type1_write(ConfigRegister.CRC, 1))
        words.append(crc_value)
    emit_reg(ConfigRegister.CMD, Command.DGHIGH)
    words.append(NOOP_WORD)
    words.append(NOOP_WORD)
    emit_reg(ConfigRegister.CMD, Command.DESYNC)
    words.extend([NOOP_WORD] * opts.pad_nops)

    array = np.array(words, dtype=np.uint32)
    array[frame_start : frame_start + len(payload)] = payload
    return Bitstream(array)


def generate(bitgen: Bitgen, rp: ReconfigurablePartition,
             module: ReconfigurableModule) -> Bitstream:
    """``bitgen.generate(rp, module)`` through :func:`assemble`."""
    rp.check_fits(module)
    return assemble(bitgen, rp, bitgen.frame_payload(rp, module))
