from unittest import mock

import numpy as np
import pytest

from repro.errors import BitstreamError
from repro.eval.scenarios import fig3_geometries, rp_for_geometry, small_rp
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.icap import Icap
from repro.fpga.packets import Command, ConfigRegister, type1_write
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    ResourceBudget,
    make_reference_rp,
)
from repro.sched.workload import SCHED_RP_BUDGET, SCHED_RP_GEOMETRY
from repro.verify import verify_bitstream
from tests.property import bitgen_oracle


@pytest.fixture()
def gen():
    return Bitgen()


def _module(name="m", luts=10):
    return ReconfigurableModule(name, ResourceBudget(luts, luts, 1, 1))


def _icap(rp):
    return Icap(ConfigMemory(rp.device))


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
        # one FAR write, whose FDRI frames cover exactly the partition
        rp = make_reference_rp()
        bs = gen.generate(rp, _module())
        report = verify_bitstream(bs, rp)
        assert report.findings == []
        assert report.far_writes == 1
        assert report.frames_written == rp.frames
        icap = _icap(rp)
        icap.accept(bs.to_bytes(), now=0)
        assert icap.config_memory.frames_written == rp.frames
        assert icap.far == rp.base_far.advance(rp.frames)

    def test_payload_embedded_verbatim(self, gen):
        rp = small_rp()
        module = _module()
        payload = gen.frame_payload(rp, module)
        icap = _icap(rp)
        icap.accept(gen.generate(rp, module).to_bytes(), now=0)
        assert icap.outcome == "configured" and not icap.crc_error
        assert np.array_equal(
            icap.config_memory.read_frames(rp.base_far, rp.frames), payload)

    def test_crc_can_be_omitted(self):
        rp = small_rp()
        gen = Bitgen(options=BitgenOptions(emit_crc=False))
        bs = gen.generate(rp, _module())
        report = verify_bitstream(bs, rp)
        assert [(f.rule_id, f.message) for f in report.findings] == [
            ("VFY-BIT-005", "stream carries no CRC check word")]
        assert report.ok  # a warning
        # with no CRC word to prove them, the frames stay staged until
        # the DESYNC applies them
        data = bs.to_bytes()
        desync = (np.array([type1_write(ConfigRegister.CMD, 1),
                            int(Command.DESYNC)], dtype=">u4").tobytes())
        cut = data.index(desync)
        icap = _icap(rp)
        icap.accept(data[:cut], now=0)
        assert icap.pending_frames == rp.frames
        assert icap.config_memory.frames_written == 0
        icap.accept(data[cut:], now=0)
        assert icap.outcome == "configured" and not icap.crc_error
        assert np.array_equal(
            icap.config_memory.read_frames(rp.base_far, rp.frames),
            gen.frame_payload(rp, _module()))

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
