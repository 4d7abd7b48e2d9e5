"""The bitstream verifier's verdict is the ICAP's.

``verify_bitstream`` must report an ERROR finding exactly when the
production :class:`~repro.fpga.icap.Icap`, fed the same words in any
burst split, does not end the stream's last session ``configured`` or
writes a frame outside the declared partition.  Streams come from random
geometries and are then damaged once: one word XORed anywhere (most
draws land on the protocol words around the frame data: the preamble,
the headers, the CRC word, DESYNC and the post-DESYNC pad), a
truncation, or a splice (a second stream appended, or one word
inserted).  The ICAP side takes the words in random byte-sized bursts,
partial words included.
"""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fpga.bitgen import Bitgen
from repro.fpga.bitstream import Bitstream
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.frames import FrameAddress
from repro.fpga.icap import Icap
from repro.fpga.packets import (
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    Command,
    ConfigRegister,
    type1_write,
    type2_write,
)
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.verify import verify_bitstream

geometries = st.builds(
    RpGeometry,
    clb_cols=st.integers(min_value=1, max_value=4),
    bram_cols=st.integers(min_value=0, max_value=1),
    dsp_cols=st.integers(min_value=0, max_value=1),
    rows=st.integers(min_value=1, max_value=2),
)
#: XOR masks: one bit, or any nonzero word
masks = st.one_of(st.integers(min_value=0, max_value=31).map(lambda b: 1 << b),
                  st.integers(min_value=1, max_value=0xFFFF_FFFF))
#: words a splice inserts: protocol words, packet headers, any word
inserts = st.one_of(
    st.sampled_from([SYNC_WORD, NOOP_WORD, DUMMY_WORD,
                     type1_write(ConfigRegister.CMD, 1), int(Command.DESYNC),
                     int(Command.WCFG), type2_write(1)]),
    st.builds(type1_write, st.sampled_from(list(ConfigRegister)),
              st.integers(min_value=0, max_value=3)),
    st.integers(min_value=0, max_value=0xFFFF_FFFF))


def _partition(geometry: RpGeometry,
               first: int = 0) -> ReconfigurablePartition:
    return ReconfigurablePartition(
        "contract_rp", geometry, ResourceBudget(10**6, 10**6, 10**3, 10**3),
        base_far=FrameAddress.from_linear(first))


def _words(rp: ReconfigurablePartition, module: str) -> np.ndarray:
    rm = ReconfigurableModule(module, ResourceBudget(1, 1, 0, 0))
    return np.array(Bitgen(rp.device).generate(rp, rm).words, copy=True)


def _icap_accepts(words: np.ndarray, rp: ReconfigurablePartition,
                  seed: int) -> bool:
    """Does a standalone ICAP, fed ``words`` in random bursts, end its
    last session ``configured`` with every frame inside ``rp``?"""
    icap = Icap(ConfigMemory(rp.device))
    data = words.astype(">u4").tobytes()
    rng = random.Random(seed)
    pos = 0
    while pos < len(data):
        span = rng.randint(1, 4096)
        icap.accept(data[pos:pos + span], 0)
        pos += span
    base = rp.base_far.linear_index()
    return icap.outcome == "configured" and all(
        base <= index < base + rp.frames
        for index, _frame in icap.config_memory.frames())


def _assert_contract(words: np.ndarray, rp: ReconfigurablePartition,
                     seed: int) -> None:
    report = verify_bitstream(Bitstream(words), rp)
    assert report.ok == _icap_accepts(words, rp, seed), [
        f.to_dict() for f in report.findings]


seeds = st.integers(min_value=0, max_value=2**32 - 1)
#: where a flip lands: near the start (the preamble and the headers
#: before the frame data), near the end (the CRC word, DESYNC and the
#: post-DESYNC pad, negative indices) or anywhere
places = st.one_of(st.integers(min_value=0, max_value=40),
                   st.integers(min_value=-300, max_value=-1),
                   st.floats(min_value=0.0, max_value=1.0))


@settings(max_examples=60, deadline=None)
@example(RpGeometry(1, 0, 0), -1, 1, 0)  # bit 0 of the last pad word
@given(geometries, places, masks, seeds)
def test_one_word_xored(geometry, where, mask, seed):
    rp = _partition(geometry)
    words = _words(rp, "first")
    index = where if isinstance(where, int) else int(where * (len(words) - 1))
    words[index] ^= mask
    _assert_contract(words, rp, seed)


@settings(max_examples=25, deadline=None)
@given(geometries, st.data(), seeds)
def test_truncated(geometry, data, seed):
    rp = _partition(geometry)
    words = _words(rp, "first")
    cut = data.draw(st.integers(min_value=0, max_value=len(words) - 1),
                    label="cut")
    _assert_contract(words[:cut], rp, seed)


@settings(max_examples=40, deadline=None)
@given(geometries, st.one_of(st.none(), geometries), seeds)
def test_second_stream_appended(geometry, second, seed):
    # another module for the same partition, or one for a partition of
    # another size at the same base
    rp = _partition(geometry)
    words = np.concatenate((_words(rp, "first"),
                            _words(_partition(second or geometry), "second")))
    _assert_contract(words, rp, seed)


@settings(max_examples=40, deadline=None)
@given(geometries, st.data(), inserts, seeds)
def test_one_word_inserted(geometry, data, word, seed):
    rp = _partition(geometry)
    words = _words(rp, "first")
    index = data.draw(st.integers(min_value=0, max_value=len(words)),
                      label="at")
    _assert_contract(np.insert(words, index, word), rp, seed)


@settings(max_examples=20, deadline=None)
@given(geometries, st.integers(min_value=-2, max_value=2), seeds)
def test_built_for_a_moved_partition(geometry, shift, seed):
    rp = _partition(geometry, first=64)
    words = _words(_partition(geometry, first=64 + shift), "first")
    _assert_contract(words, rp, seed)


@settings(max_examples=15, deadline=None)
@given(geometries, st.sampled_from(Command), seeds)
def test_wcfg_replaced_under_a_valid_crc(geometry, command, seed):
    rp = _partition(geometry)
    words = _words(rp, "first")
    cmd = type1_write(ConfigRegister.CMD, 1)
    wcfg = next(i for i in range(1, len(words))
                if words[i - 1] == cmd and words[i] == Command.WCFG)
    words[wcfg] = command
    check = int(np.flatnonzero(
        words == type1_write(ConfigRegister.CRC, 1))[-1]) + 1
    icap = Icap(ConfigMemory(rp.device))
    icap.accept(words[:check - 1].astype(">u4").tobytes(), 0)
    words[check] = icap._running_crc()
    _assert_contract(words, rp, seed)


def test_pristine_streams_pass_both():
    for geometry in (RpGeometry(1, 0, 0), RpGeometry(4, 1, 1, rows=2)):
        rp = _partition(geometry)
        words = _words(rp, "first")
        assert verify_bitstream(Bitstream(words), rp).ok
        assert _icap_accepts(words, rp, seed=0)
