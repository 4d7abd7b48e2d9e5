"""Bitstream generate -> ICAP / verifier invariants over random RPs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fpga.bitgen import Bitgen
from repro.fpga.bitstream import Bitstream
from repro.fpga.compression import rle_compress, rle_decompress
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    RpGeometry,
)
from repro.verify import verify_bitstream

geometries = st.builds(
    RpGeometry,
    clb_cols=st.integers(min_value=1, max_value=6),
    bram_cols=st.integers(min_value=0, max_value=2),
    dsp_cols=st.integers(min_value=0, max_value=2),
    rows=st.integers(min_value=1, max_value=2),
)
module_names = st.text(
    alphabet=st.characters(min_codepoint=97, max_codepoint=122),
    min_size=1, max_size=8,
)


def _rp(geometry):
    return ReconfigurablePartition(
        "prop_rp", geometry, ResourceBudget(10**6, 10**6, 10**3, 10**3))


@settings(max_examples=15, deadline=None)
@given(geometries, module_names)
def test_generate_parse_roundtrip(geometry, name):
    rp = _rp(geometry)
    gen = Bitgen()
    module = ReconfigurableModule(name, ResourceBudget(1, 1, 0, 0))
    bs = gen.generate(rp, module)
    icap = Icap(ConfigMemory(KINTEX7_325T))
    icap.accept(bs.to_bytes(), 0)
    assert icap.outcome == "configured" and not icap.crc_error
    assert icap.config_memory.frames_written == rp.frames
    assert np.array_equal(icap.config_memory.read_frames(rp.base_far, rp.frames),
                          gen.frame_payload(rp, module))
    report = verify_bitstream(bs, rp)
    assert report.findings == []
    assert (report.far_writes, report.frames_written) == (1, rp.frames)
    assert bs.nbytes == gen.expected_size_bytes(rp)


@settings(max_examples=10, deadline=None)
@given(geometries, st.integers(min_value=13, max_value=4097))
def test_icap_accepts_any_chunking(geometry, chunk):
    rp = _rp(geometry)
    gen = Bitgen()
    module = ReconfigurableModule("chunky", ResourceBudget(1, 1, 0, 0))
    data = gen.generate(rp, module).to_bytes()
    icap = Icap(ConfigMemory(KINTEX7_325T))
    t = 0
    for i in range(0, len(data), chunk):
        t = icap.accept(data[i:i + chunk], t)
    assert not icap.error
    assert icap.reconfigurations_completed == 1
    # timing invariant: one 32-bit word per cycle, regardless of chunking
    assert t >= len(data) // 4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), max_size=300))
def test_rle_roundtrip_random(values):
    data = np.array(values, dtype=np.uint32)
    assert np.array_equal(rle_decompress(rle_compress(data)), data)


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=4, max_size=400).filter(lambda b: len(b) % 4 == 0))
def test_bitstream_bytes_roundtrip(data):
    assert Bitstream.from_bytes(data).to_bytes() == data
