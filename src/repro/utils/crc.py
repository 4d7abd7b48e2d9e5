"""CRC-32 used by the Xilinx 7-series configuration logic.

The real devices compute a CRC-32C (Castagnoli polynomial, 0x1EDC6F41)
over {configuration word, register address} pairs as packets stream
through the ICAP.  We reproduce that computation so that bitstreams
generated by :mod:`repro.fpga.bitgen` carry valid CRC words and the ICAP
model can flag corruption exactly like real hardware would.

Two implementations coexist:

* the **scalar reference** (`crc32_update` / `crc32_config_word` /
  `crc32_xilinx`): one table lookup per byte, exactly the textbook
  MSB-first algorithm (`crc32_config_word` unrolls `crc32_update`'s
  five byte steps).  It stays the ground truth for the property
  tests.
* the **vectorized path** (`crc32c_bytes` / `crc32_config_words`): a
  block-parallel numpy evaluation.  The CRC recurrence is GF(2)-linear
  in (state, data), so a long stream can be cut into B equal blocks
  whose zero-seeded CRCs are computed *column-wise* across all blocks
  at once (one numpy op per byte position instead of one Python-level
  table lookup per byte), then folded left-to-right with the "advance
  the state by L zero bytes" linear operator.  That operator is stored
  as four 256-entry tables, built once per distinct L by repeated
  squaring of the single-byte-shift operator.  Python-level work drops
  from O(bytes) to O(sqrt(bytes)).

Both paths produce bit-identical results for every input; equivalence
is enforced by `tests/property/test_crc_vector_props.py`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence, Tuple

import numpy as np

_CRC32C_POLY = 0x1EDC6F41
_MASK32 = 0xFFFF_FFFF


def build_table(poly: int = _CRC32C_POLY) -> Tuple[int, ...]:
    """MSB-first CRC byte table for ``poly``.

    A pure function of its argument (no module-level mutation) so the
    table can be rebuilt for other polynomials in tests.
    """
    table = []
    for i in range(256):
        crc = i << 24
        for _ in range(8):
            if crc & 0x8000_0000:
                crc = ((crc << 1) ^ poly) & _MASK32
            else:
                crc = (crc << 1) & _MASK32
        table.append(crc)
    return tuple(table)


_TABLE: Tuple[int, ...] = build_table()
_TABLE_NP = np.array(_TABLE, dtype=np.uint32)


# ---------------------------------------------------------------------------
# scalar reference implementation
# ---------------------------------------------------------------------------
def crc32_update(crc: int, value: int, width: int = 32) -> int:
    """Feed one ``width``-bit value into a running CRC-32C (MSB first)."""
    for shift in range(width - 8, -8, -8):
        byte = (value >> max(shift, 0)) & 0xFF
        crc = ((crc << 8) & _MASK32) ^ _TABLE[((crc >> 24) & 0xFF) ^ byte]
    return crc


def crc32_config_word(crc: int, data_word: int, reg_addr: int) -> int:
    """Update the configuration CRC with one (data word, register) pair.

    The 7-series config logic hashes the 32-bit data word together with
    the 5-bit destination register address, 37 bits total.  We fold the
    register address in as a final byte, which preserves the property the
    models rely on: any single-bit corruption of data or address changes
    the CRC.

    The five byte steps of :func:`crc32_update` (the data word MSB
    first, then the address byte) are unrolled: every register word of
    a configuration session comes through here.
    """
    table = _TABLE
    crc = (((crc << 8) & _MASK32)
           ^ table[((crc >> 24) & 0xFF) ^ ((data_word >> 24) & 0xFF)])
    crc = ((crc << 8) & _MASK32) ^ table[(crc >> 24) ^ ((data_word >> 16) & 0xFF)]
    crc = ((crc << 8) & _MASK32) ^ table[(crc >> 24) ^ ((data_word >> 8) & 0xFF)]
    crc = ((crc << 8) & _MASK32) ^ table[(crc >> 24) ^ (data_word & 0xFF)]
    return ((crc << 8) & _MASK32) ^ table[(crc >> 24) ^ (reg_addr & 0x1F)]


def crc32_xilinx(words: Iterable[tuple[int, int]]) -> int:
    """CRC over a sequence of ``(data_word, reg_addr)`` pairs from reset."""
    crc = 0
    for data_word, reg_addr in words:
        crc = crc32_config_word(crc, data_word, reg_addr)
    return crc


# ---------------------------------------------------------------------------
# zero-byte shift operators (GF(2)-linear maps on the 32-bit state)
# ---------------------------------------------------------------------------
# Advancing a CRC state by k zero bytes is linear, so the map is fully
# described by its action on the four state bytes: four 256-entry tables,
# applied with four lookups and three XORs.

_ShiftOp = Tuple[Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[int, ...]]


def _apply_op(op: _ShiftOp, state: int) -> int:
    return (op[0][state & 0xFF]
            ^ op[1][(state >> 8) & 0xFF]
            ^ op[2][(state >> 16) & 0xFF]
            ^ op[3][(state >> 24) & 0xFF])


def _compose(first: _ShiftOp, second: _ShiftOp) -> _ShiftOp:
    """Operator applying ``first`` then ``second``."""
    return tuple(
        tuple(_apply_op(second, x) for x in t) for t in first
    )  # type: ignore[return-value]


@lru_cache(maxsize=None)
def _shift_pow2(j: int) -> _ShiftOp:
    """The operator advancing the state by 2**j zero bytes."""
    if j == 0:
        def one(s: int) -> int:
            return ((s << 8) & _MASK32) ^ _TABLE[(s >> 24) & 0xFF]
        return tuple(
            tuple(one(v << (8 * b)) for v in range(256)) for b in range(4)
        )  # type: ignore[return-value]
    prev = _shift_pow2(j - 1)
    return _compose(prev, prev)


@lru_cache(maxsize=128)
def _shift_op(nbytes: int) -> _ShiftOp | None:
    """The operator advancing the state by ``nbytes`` zero bytes."""
    op: _ShiftOp | None = None
    j = 0
    while nbytes:
        if nbytes & 1:
            p = _shift_pow2(j)
            op = p if op is None else _compose(op, p)
        nbytes >>= 1
        j += 1
    return op


def crc32c_shift(crc: int, nbytes: int) -> int:
    """Advance ``crc`` as if ``nbytes`` zero bytes were hashed."""
    op = _shift_op(nbytes)
    return crc if op is None else _apply_op(op, crc)


# ---------------------------------------------------------------------------
# block-parallel byte-stream CRC
# ---------------------------------------------------------------------------
#: below this many bytes the numpy setup costs more than the scalar loop
_VECTOR_MIN_BYTES = 512


def _crc32c_bytes_scalar(crc: int, data: Sequence[int]) -> int:
    table = _TABLE
    for byte in data:
        crc = ((crc << 8) & _MASK32) ^ table[((crc >> 24) & 0xFF) ^ byte]
    return crc


def crc32c_bytes(crc: int, data) -> int:
    """CRC of a byte stream (``bytes`` or uint8 ndarray) from state ``crc``."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        buf = np.frombuffer(bytes(data), dtype=np.uint8)
    else:
        buf = np.ascontiguousarray(data, dtype=np.uint8)
    n = int(buf.size)
    if n == 0:
        return crc
    if n < _VECTOR_MIN_BYTES:
        return _crc32c_bytes_scalar(crc, buf.tolist())
    # B blocks of L bytes, front-padded with zeros: a zero-seeded CRC
    # ignores leading zero bytes, and the true seed is folded back in
    # afterwards via the shift operator (linearity).
    blocks = max(1, min(8192, int(1.8 * n ** 0.5)))
    length = -(-n // blocks)
    padded = np.zeros(blocks * length, dtype=np.uint8)
    padded[blocks * length - n:] = buf
    # column-major copy: one contiguous row per byte position
    columns = np.ascontiguousarray(padded.reshape(blocks, length).T)
    crcs = np.zeros(blocks, dtype=np.uint32)
    table = _TABLE_NP
    for row in columns:
        crcs = ((crcs << 8) ^ table[(crcs >> 24) ^ row])
    op = _shift_op(length)
    folded = 0
    for c in crcs.tolist():
        folded = _apply_op(op, folded) ^ c
    return crc32c_shift(crc, n) ^ folded


#: payload folds at or above this many words memoize their result; the
#: DPR serving path re-parses the same handful of partial bitstreams on
#: every cache refill, so identical (seed, register, payload) folds
#: repeat verbatim
_FOLD_MEMO_MIN_WORDS = 2048
_FOLD_MEMO_MAX_ENTRIES = 32
_FOLD_MEMO: dict = {}


def crc32_config_words(crc: int, words, reg_addr: int) -> int:
    """Vectorized ``crc32_config_word`` over a whole payload array.

    ``words`` is any sequence convertible to uint32; every word is
    hashed against the same destination register (the FDRI burst case).
    Bit-identical to folding ``crc32_config_word`` over the array.
    """
    arr = np.ascontiguousarray(words, dtype=np.uint32)
    count = int(arr.size)
    if count == 0:
        return crc
    if count * 5 < _VECTOR_MIN_BYTES:
        reg = reg_addr & 0x1F
        for value in arr.tolist():
            crc = crc32_config_word(crc, value, reg)
        return crc
    # a CRC fold is a pure function of (state, register, payload), so
    # large repeated payloads are served from a content-keyed memo
    key = None
    if count >= _FOLD_MEMO_MIN_WORDS:
        key = (crc, reg_addr & 0x1F, arr.tobytes())
        cached = _FOLD_MEMO.get(key)
        if cached is not None:
            return cached
    buf = np.empty((count, 5), dtype=np.uint8)
    buf[:, 0] = (arr >> 24).astype(np.uint8)
    buf[:, 1] = (arr >> 16).astype(np.uint8)
    buf[:, 2] = (arr >> 8).astype(np.uint8)
    buf[:, 3] = arr.astype(np.uint8)
    buf[:, 4] = reg_addr & 0x1F
    result = crc32c_bytes(crc, buf.reshape(-1))
    if key is not None:
        if len(_FOLD_MEMO) >= _FOLD_MEMO_MAX_ENTRIES:
            _FOLD_MEMO.clear()
        _FOLD_MEMO[key] = result
    return result
