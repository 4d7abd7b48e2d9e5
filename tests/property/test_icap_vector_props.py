"""The ICAP parser is observationally equal to its word-at-a-time oracle.

Feed the same bitstream — pristine, bit-flipped, or truncated
mid-payload — to an :class:`Icap` and to :class:`WordIcap`, the
original per-word state machine kept here as the oracle, in identical
random burst chunkings and require every externally visible outcome to
match: parser state, CRC machinery, error flags and the full
configuration-memory contents.  The corruptions reuse the
fault-injection primitives from :mod:`repro.faults.injectors` so the
properties cover exactly the damage the fault campaign inflicts.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.injectors import flip_word_bit, truncate_at_word
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import ConfigRegister
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.utils.crc import crc32_config_word


class WordIcap(Icap):
    """Oracle: every word walks the per-word state machine, and FDRI
    words fold into the CRC one by one as they arrive (no staging, no
    numpy scan, no deferred CRC backlog)."""

    def accept(self, data: bytes, now: int) -> int:
        self._busy_until = (max(self._busy_until, now)
                            + -(-len(data) // self.BYTES_PER_CYCLE))
        buffer = self._byte_buffer
        buffer.extend(data)
        whole = len(buffer) // 4 * 4
        words = [int.from_bytes(buffer[k:k + 4], "big")
                 for k in range(0, whole, 4)]
        del buffer[:whole]
        self._consume_words_scalar(words, now)
        return self._busy_until

    def _payload_scalar(self, chunk: list, pos: int) -> int:
        if self._payload_reg != ConfigRegister.FDRI or not self.crc_check:
            return super()._payload_scalar(chunk, pos)
        crc = self._crc
        for value in chunk:
            crc = crc32_config_word(crc, value, ConfigRegister.FDRI)
        self._crc = crc
        self._fdri_words.append(np.array(chunk, dtype=np.uint32))
        self._finish_payload_chunk(ConfigRegister.FDRI, len(chunk))
        return len(chunk)


geometries = st.builds(
    RpGeometry,
    clb_cols=st.integers(min_value=1, max_value=5),
    bram_cols=st.integers(min_value=0, max_value=2),
    dsp_cols=st.integers(min_value=0, max_value=1),
    rows=st.integers(min_value=1, max_value=2),
)


def _bitstream(geometry) -> bytes:
    rp = ReconfigurablePartition(
        "vec_rp", geometry, ResourceBudget(10**6, 10**6, 10**3, 10**3))
    module = ReconfigurableModule("vecmod", ResourceBudget(1, 1, 0, 0))
    return Bitgen().generate(rp, module).to_bytes()


def _stream(icap: Icap, data: bytes, chunks: list) -> None:
    pos = 0
    for span in chunks:
        icap.accept(data[pos:pos + span], 0)
        pos += span
    if pos < len(data):
        icap.accept(data[pos:], 0)


def _chunking(seed: int, nbytes: int) -> list:
    """Seeded word-aligned burst sizes (one draw instead of thousands)."""
    rng = random.Random(seed)
    chunks = []
    total = 0
    while total < nbytes:
        span = 4 * rng.randint(1, 1024)
        chunks.append(span)
        total += span
    return chunks


def _observable(icap: Icap) -> dict:
    return {
        "state": icap._state,
        "crc": icap._running_crc(),
        "words_consumed": icap.words_consumed,
        "crc_error": icap.crc_error,
        "protocol_error": icap.protocol_error,
        "idcode_mismatch": icap.idcode_mismatch,
        "desynced_count": icap.desynced_count,
        "reconfigurations_completed": icap.reconfigurations_completed,
        "configured_frames": icap.config_memory.configured_frames,
        "frames": {
            index: frame.tobytes()
            for index, frame in icap.config_memory._frames.items()
        },
    }


def _assert_engines_agree(data: bytes, chunks: list) -> None:
    vec = Icap(ConfigMemory(KINTEX7_325T))
    ref = WordIcap(ConfigMemory(KINTEX7_325T))
    _stream(vec, data, chunks)
    _stream(ref, data, chunks)
    assert _observable(vec) == _observable(ref)


chunk_seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=10, deadline=None)
@given(geometries, chunk_seeds)
def test_pristine_stream_agrees(geometry, seed):
    data = _bitstream(geometry)
    _assert_engines_agree(data, _chunking(seed, len(data)))


@settings(max_examples=10, deadline=None)
@given(geometries, chunk_seeds, st.floats(min_value=0.0, max_value=1.0),
       st.integers(min_value=0, max_value=31))
def test_bitflip_corruption_agrees(geometry, seed, where, bit):
    """Including CRC-destroying flips anywhere in the stream."""
    data = _bitstream(geometry)
    nwords = len(data) // 4
    word = min(nwords - 1, int(where * nwords))
    corrupted = flip_word_bit(data, word, bit)
    _assert_engines_agree(corrupted, _chunking(seed, len(corrupted)))


@settings(max_examples=10, deadline=None)
@given(geometries, chunk_seeds, st.floats(min_value=0.0, max_value=1.0))
def test_midpayload_truncation_agrees(geometry, seed, where):
    data = _bitstream(geometry)
    nwords = len(data) // 4
    cut = max(1, int(where * nwords))
    truncated = truncate_at_word(data, cut)
    _assert_engines_agree(truncated, _chunking(seed, len(truncated)))


@settings(max_examples=6, deadline=None)
@given(geometries, chunk_seeds)
def test_oneshot_equals_bursted_vectorized(geometry, seed):
    """The parser itself is chunking-invariant."""
    data = _bitstream(geometry)
    one = Icap(ConfigMemory(KINTEX7_325T))
    one.accept(data, 0)
    burst = Icap(ConfigMemory(KINTEX7_325T))
    _stream(burst, data, _chunking(seed, len(data)))
    assert _observable(one) == _observable(burst)


def test_word_oracle_never_stages_fdri_raw():
    """Liveness: were the overrides bypassed, the properties would
    compare the parser with itself.  The parser stages FDRI bursts in
    ``_fdri_raw``; the oracle never does."""
    data = _bitstream(RpGeometry(clb_cols=2, bram_cols=0, dsp_cols=0))
    flushed = []
    flush = Icap._flush_fdri_raw

    def spy(icap):
        flushed.append(type(icap))
        flush(icap)

    with mock.patch.object(Icap, "_flush_fdri_raw", spy):
        _assert_engines_agree(data, _chunking(0, len(data)))
    assert Icap in flushed and WordIcap not in flushed
