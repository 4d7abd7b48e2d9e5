"""The ICAP parser is observationally equal to its word-at-a-time oracle.

Feed the same bitstream — pristine, bit-flipped, or truncated
mid-payload — to an :class:`Icap` and to :class:`WordIcap`, the
original per-word state machine kept here as the oracle, in identical
random burst chunkings and require every externally visible outcome to
match: parser state, CRC machinery, error flags and the full
configuration-memory contents.  The corruptions reuse the
fault-injection primitives from :mod:`repro.faults.injectors` so the
properties cover exactly the damage the fault campaign inflicts.
Deterministic cases pin the small accepts of real traffic (keyhole
words, a descriptor's 60-byte partial tail), session trace included,
and every corner of the packet-header decode, each fed as one accept
and split in two at every word.
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitstreamError
from repro.faults.injectors import flip_word_bit, truncate_at_word
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap, _ParseState
from repro.fpga.packets import (
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    Command,
    ConfigPacket,
    ConfigRegister,
    Opcode,
    type1_read,
    type1_write,
    type2_read,
    type2_write,
)
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.obs import Observability
from repro.utils.crc import crc32_config_word


class WordIcap(Icap):
    """Oracle: every word walks the per-word state machine, every packet
    header decodes through :meth:`ConfigPacket.decode` (the protocol's
    reference codec), and FDRI words fold into the CRC one by one
    as they arrive (no staging, no window, no deferred CRC backlog).
    Only the register semantics (``_write_register``, the frame commit
    and the session boundaries) are the parser's own; the word loop,
    the header decode and the packet bookkeeping are this class's."""

    def accept(self, data: bytes, now: int) -> int:
        self._busy_until = (max(self._busy_until, now)
                            + -(-len(data) // self.BYTES_PER_CYCLE))
        buffer = self._byte_buffer
        buffer.extend(data)
        whole = len(buffer) // 4 * 4
        words = [int.from_bytes(buffer[k:k + 4], "big")
                 for k in range(0, whole, 4)]
        del buffer[:whole]
        self._consume_words(words, now)
        return self._busy_until

    def _consume_words(self, words: list, now: int) -> None:
        n = len(words)
        base = self.words_consumed  # stream index of words[0]
        self.words_consumed = base + n
        i = 0
        while i < n:
            if self._state is _ParseState.PAYLOAD:
                take = min(self._payload_remaining, n - i)
                i += self._payload(words[i:i + take], base + i)
                continue
            word = words[i]
            i += 1
            if self._state is _ParseState.UNSYNCED:
                if word == SYNC_WORD:
                    self._state = _ParseState.IDLE
                    self._begin_session(now, base + i - 1)
                continue
            if word == NOOP_WORD:
                continue
            self._header(word)

    def _header(self, word: int) -> None:
        try:
            header = ConfigPacket.decode(word)
        except BitstreamError:
            self.protocol_error = True
            self._state = _ParseState.UNSYNCED
            return
        if header.packet_type == 1:
            self._payload_reg = header.register
            self._payload_remaining = header.word_count
        else:
            if self._payload_reg is None:
                self.protocol_error = True
                return
            self._payload_remaining = header.word_count
        if header.opcode == Opcode.WRITE and self._payload_remaining:
            self._state = _ParseState.PAYLOAD
        elif header.opcode == Opcode.READ and self._payload_remaining:
            self._serve_read(self._payload_reg, self._payload_remaining)
            self._payload_remaining = 0

    def _payload(self, chunk: list, pos: int) -> int:
        reg = self._payload_reg
        if reg == ConfigRegister.FDRI:
            crc = self._crc
            for value in chunk:
                crc = crc32_config_word(crc, value, reg)
            self._crc = crc
            self._fdri_words.append(np.array(chunk, dtype=np.uint32))
            taken = len(chunk)
        else:
            taken = self._write_registers(reg, chunk, pos)
        self._payload_remaining -= taken
        if self._payload_remaining == 0:
            if self._state is _ParseState.PAYLOAD:
                self._state = _ParseState.IDLE
            if reg == ConfigRegister.FDRI:
                self._commit_frames()
        return taken

    def _write_registers(self, reg: int, values: list, pos: int) -> int:
        """Write ``values``, from stream word ``pos`` on, to ``reg``;
        the number of words taken (a DESYNC ends the packet)."""
        for k, value in enumerate(values):
            self._write_register(reg, value, pos + k)
            if self._state is not _ParseState.PAYLOAD:
                return k + 1
        return len(values)


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
        "packet": (icap._payload_reg, icap._payload_remaining),
        "far": icap.far,
        "pending_frames": icap.pending_frames,
        "readback_queue": list(icap.readback_queue),
        "busy_until": icap.busy_until,
        "crc": icap._running_crc(),
        "words_consumed": icap.words_consumed,
        "crc_error": icap.crc_error,
        "protocol_error": icap.protocol_error,
        "idcode_mismatch": icap.idcode_mismatch,
        "desynced_count": icap.desynced_count,
        "reconfigurations_completed": icap.reconfigurations_completed,
        "sessions_opened": icap.sessions_opened,
        "outcome": icap.outcome,
        "configured_frames": icap.config_memory.configured_frames,
        "frames": {
            index: frame.tobytes()
            for index, frame in icap.config_memory.frames()
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


def _small_case(form: str) -> bytes:
    """A 15,804-byte bitstream, the serving RP's size, whose descriptor
    tail is a 60-byte partial burst of post-DESYNC NOOP pad: pristine,
    with a flipped CRC check word, or cut right after that word."""
    data = _bitstream(RpGeometry(clb_cols=1, bram_cols=0, dsp_cols=0))
    words = np.frombuffer(data, dtype=">u4")
    check = int(np.flatnonzero(
        words == type1_write(ConfigRegister.CRC, 1))[-1]) + 1
    if form == "flip":
        return flip_word_bit(data, check, 0)
    if form == "truncate":
        return truncate_at_word(data, check + 1)
    return data


def _paced_observable(cls: type, data: bytes, chunks: list) -> dict:
    """Stream ``data`` in ``chunks``, each arriving when the port drains
    the one before; every observable, the session trace included."""
    icap = cls(ConfigMemory(KINTEX7_325T))
    obs = Observability()
    icap.attach_obs(obs)
    now = pos = 0
    for span in chunks:
        now = icap.accept(data[pos:pos + span], now)
        pos += span
    assert pos == len(data)
    tracer = obs.tracer
    return {
        **_observable(icap),
        "spans": [(span.name, span.start_cycle, span.end_cycle,
                   dict(span.args)) for span in tracer.spans],
        "instants": [(event.cycle, event.name, dict(event.args))
                     for event in tracer.instants],
        "signals": tracer.signals,
    }


@pytest.mark.parametrize("feed", ["word", "burst"])
@pytest.mark.parametrize("form, outcome", [
    ("pristine", "configured"), ("flip", "error"), ("truncate", None)])
def test_small_accepts_agree(form, outcome, feed):
    """The accepts a DMA descriptor's partial tail or a keyhole write
    makes go through the one word scan: one word per accept, or
    128-byte bursts with the last 60 bytes as their own accept."""
    data = _small_case(form)
    if feed == "word":
        chunks = [4] * (len(data) // 4)
    else:
        head = len(data) - 60
        chunks = [min(128, head - pos) for pos in range(0, head, 128)] + [60]
    ours = _paced_observable(Icap, data, chunks)
    assert ours == _paced_observable(WordIcap, data, chunks)
    assert ours["outcome"] == outcome
    assert ours["configured_frames"] == (0 if form == "flip" else 36)


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


def _header(packet_type: int, opcode: int, register: int = 0,
            count: int = 0) -> int:
    """A raw packet-header word, reserved fields included."""
    return (packet_type << 29) | (opcode << 27) | (register << 13) | count


#: words after each case: a CMD write that desyncs (a type-1 packet),
#: then post-DESYNC pad
_DESYNC_TAIL = [type1_write(ConfigRegister.CMD, 1), Command.DESYNC,
                NOOP_WORD, NOOP_WORD]

#: header corners; each runs between a sync and ``_DESYNC_TAIL``
_HEADER_CASES = {
    "opcode 3, type 1": [_header(1, 3, ConfigRegister.CMD, 1), 0x7],
    "opcode 3, type 2": [type1_write(ConfigRegister.CMD, 0),
                         _header(2, 3, count=1), Command.DESYNC],
    **{f"packet type {t}": [_header(t, Opcode.WRITE, ConfigRegister.CMD, 1),
                            Command.DESYNC]
       for t in (0, 3, 4, 5, 6, 7)},
    # the parser stays IDLE, so the tail's CMD packet still desyncs
    "type 2 before any type 1": [type2_write(1)],
    "type-1 READ of STAT": [type1_read(ConfigRegister.STAT, 3)],
    # 2,049 status words: a type-2 count uses all 27 bits
    "type-2 READ of STAT": [type1_read(ConfigRegister.STAT, 0),
                            type2_read(0x801)],
    "type-1 READ of FDRO, no FAR": [type1_read(ConfigRegister.FDRO, 202)],
    "zero-count WRITE, then type 2": [type1_write(ConfigRegister.CMD, 0),
                                      type2_write(1), Command.DESYNC],
    "zero-count type-2 WRITE": [type1_write(ConfigRegister.IDCODE, 1),
                                KINTEX7_325T.idcode, type2_write(0)],
    "NOP header with a register": [_header(1, Opcode.NOP,
                                           ConfigRegister.CMD, 0),
                                   type2_write(1), Command.DESYNC],
    "NOP header with a count": [_header(1, Opcode.NOP, 0, 5),
                                type1_write(ConfigRegister.CMD, 1),
                                Command.RCRC],
    "NOP header, register and count": [
        _header(1, Opcode.NOP, ConfigRegister.FAR, 2),
        _header(2, Opcode.WRITE, count=1), 0x0040_0000],
    # an IDLE NOOP run longer than two of the scan's 16-word windows
    "NOOP run, then a header": [
        *[NOOP_WORD] * 40, type1_write(ConfigRegister.IDCODE, 1),
        KINTEX7_325T.idcode],
}


@pytest.mark.parametrize("case", sorted(_HEADER_CASES))
def test_header_decode_agrees(case):
    """The production decode and ConfigPacket.decode agree on every
    header corner, in one accept and split in two at every word."""
    words = [DUMMY_WORD, SYNC_WORD, NOOP_WORD, *_HEADER_CASES[case],
             *_DESYNC_TAIL]
    data = np.array(words, dtype=">u4").tobytes()
    splits = [[len(data)], *([4 * k, len(data) - 4 * k]
                             for k in range(1, len(words)))]
    for chunks in splits:
        ours = _paced_observable(Icap, data, chunks)
        assert ours == _paced_observable(WordIcap, data, chunks), chunks
