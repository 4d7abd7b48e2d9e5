from unittest import mock

import numpy as np
import pytest

from repro.errors import BitstreamError
from repro.eval.scenarios import fig3_geometries, rp_for_geometry, small_rp
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.bitstream import parse_bitstream
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    make_reference_rp,
)
from repro.sched.workload import SCHED_RP_BUDGET, SCHED_RP_GEOMETRY
from tests.property import bitgen_oracle


@pytest.fixture()
def gen():
    return Bitgen()


def _module(name="m", luts=10):
    return ReconfigurableModule(name, ResourceBudget(luts, luts, 1, 1))


class TestReferenceSize:
    def test_reference_rp_is_exactly_650892_bytes(self, gen):
        """The paper's Sec. IV-A partial bitstream size, to the byte."""
        rp = make_reference_rp()
        bs = gen.generate(rp, _module())
        assert bs.nbytes == 650_892

    def test_expected_size_matches_generated(self, gen):
        for rp in (make_reference_rp(), small_rp()):
            bs = gen.generate(rp, _module())
            assert gen.expected_size_bytes(rp) == bs.nbytes

    def test_reference_frame_count(self):
        assert make_reference_rp().frames == 1608


class TestDeterminism:
    def test_same_module_same_payload(self, gen):
        rp = small_rp()
        a = gen.generate(rp, _module("sobel"))
        b = gen.generate(rp, _module("sobel"))
        assert np.array_equal(a.words, b.words)

    def test_different_modules_differ(self, gen):
        rp = small_rp()
        a = gen.frame_payload(rp, _module("sobel"))
        b = gen.frame_payload(rp, _module("median"))
        assert not np.array_equal(a, b)

    def test_different_rp_names_differ(self, gen):
        a = gen.frame_payload(small_rp("rp_a"), _module())
        b = gen.frame_payload(small_rp("rp_b"), _module())
        assert not np.array_equal(a, b)


class TestStructure:
    def test_far_matches_rp_base(self, gen):
        rp = make_reference_rp()
        parsed = parse_bitstream(gen.generate(rp, _module()))
        assert parsed.far == rp.base_far.encode()

    def test_payload_embedded_verbatim(self, gen):
        rp = small_rp()
        module = _module()
        payload = gen.frame_payload(rp, module)
        parsed = parse_bitstream(gen.generate(rp, module))
        assert np.array_equal(parsed.frame_words, payload)

    def test_crc_can_be_omitted(self):
        gen = Bitgen(options=BitgenOptions(emit_crc=False))
        parsed = parse_bitstream(gen.generate(small_rp(), _module()))
        assert parsed.crc_written is None

    def test_module_must_fit_budget(self, gen):
        rp = small_rp()
        oversized = ReconfigurableModule("huge",
                                         ResourceBudget(10**6, 1, 0, 0))
        with pytest.raises(BitstreamError):
            gen.generate(rp, oversized)

    def test_wrong_payload_length_rejected(self, gen):
        rp = small_rp()
        with pytest.raises(BitstreamError):
            gen._assemble(rp, np.zeros(7, dtype=np.uint32))


def _oracle_rps():
    rps = [small_rp(), make_reference_rp()]
    rps += [rp_for_geometry(name, geometry)
            for name, geometry in fig3_geometries()]
    rps.append(ReconfigurablePartition("rp_sched", SCHED_RP_GEOMETRY,
                                       SCHED_RP_BUDGET))
    return rps


_ORACLE_OPTIONS = {
    "default": BitgenOptions(),
    "no_crc": BitgenOptions(emit_crc=False),
    "corrupt_crc": BitgenOptions(corrupt_crc=True),
    "no_pad": BitgenOptions(pad_nops=0),
    "no_preamble": BitgenOptions(preamble_dummies=0),
}


class TestAssemblyOracle:
    """``generate`` is byte-identical to the list-based assembler."""

    @pytest.mark.parametrize("options", list(_ORACLE_OPTIONS.values()),
                             ids=list(_ORACLE_OPTIONS))
    @pytest.mark.parametrize("rp", _oracle_rps(), ids=lambda rp: rp.name)
    def test_matches_list_assembler(self, rp, options):
        gen = Bitgen(rp.device, options)
        module = _module()
        ours = gen.generate(rp, module).to_bytes()
        assert ours == bitgen_oracle.generate(gen, rp, module).to_bytes()
        assert len(ours) == gen.expected_size_bytes(rp)

    def test_oracle_is_the_list_assembler(self, gen):
        """Liveness: the oracle never reaches ``Bitgen._assemble``."""
        rp = small_rp()
        with mock.patch.object(Bitgen, "_assemble",
                               side_effect=AssertionError("production")):
            bitstream = bitgen_oracle.generate(gen, rp, _module())
        assert bitstream.nbytes == gen.expected_size_bytes(rp)
