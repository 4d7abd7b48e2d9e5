import numpy as np
import pytest

from repro.errors import BitstreamError
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.bitstream import Bitstream
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.eval.scenarios import make_test_bitstream, small_rp
from repro.fpga.partition import ReconfigurableModule, ResourceBudget
from repro.verify import verify_bitstream


class TestContainer:
    def test_to_from_bytes_roundtrip(self):
        words = np.array([0xAA995566, 0x20000000, 0x12345678], dtype=np.uint32)
        bs = Bitstream(words)
        again = Bitstream.from_bytes(bs.to_bytes())
        assert np.array_equal(again.words, words)

    def test_serialization_is_big_endian_per_word(self):
        bs = Bitstream(np.array([0x11223344], dtype=np.uint32))
        assert bs.to_bytes() == b"\x11\x22\x33\x44"

    def test_partial_word_rejected(self):
        with pytest.raises(BitstreamError):
            Bitstream.from_bytes(b"\x00" * 5)

    def test_len_and_nbytes(self):
        bs = Bitstream(np.zeros(10, dtype=np.uint32))
        assert len(bs) == 10 and bs.nbytes == 40


def _through_icap(bitstream):
    icap = Icap(ConfigMemory(KINTEX7_325T))
    icap.accept(bitstream.to_bytes(), now=0)
    return icap


def _rules(report):
    return {finding.rule_id for finding in report.findings}


class TestParser:
    """The generator's streams through the ICAP's parser, on its own and
    under the static verifier's dry run."""

    def test_parse_generated_bitstream(self):
        rp = small_rp()
        gen = Bitgen()
        module = ReconfigurableModule("m", ResourceBudget(1, 1, 0, 0))
        bs = gen.generate(rp, module)
        icap = _through_icap(bs)
        assert icap.outcome == "configured" and not icap.crc_error
        assert np.array_equal(
            icap.config_memory.read_frames(rp.base_far, rp.frames),
            gen.frame_payload(rp, module))
        # the IDCODE, the RCRC before the frames, WCFG before FDRI, the
        # CRC word and the DESYNC each have a finding when missing
        report = verify_bitstream(bs, rp)
        assert report.findings == []
        assert report.far_writes == 1
        assert report.frames_written == rp.frames

    def test_corrupted_payload_breaks_crc(self):
        rp = small_rp()
        words = make_test_bitstream(rp).words.copy()
        words[100] ^= 0x1  # flip one bit inside the frame data
        icap = _through_icap(Bitstream(words))
        assert icap.crc_error and icap.outcome == "error"
        assert icap.config_memory.frames_written == 0
        assert "VFY-BIT-005" in _rules(verify_bitstream(Bitstream(words), rp))

    def test_missing_sync_rejected(self):
        bs = Bitstream(np.full(10, 0xFFFFFFFF, dtype=np.uint32))
        icap = _through_icap(bs)
        assert icap.sessions_opened == 0 and icap.outcome is None
        report = verify_bitstream(bs, small_rp())
        assert _rules(report) == {"VFY-BIT-001"}
        assert report.frames_written == 0

    def test_garbage_preamble_warns(self):
        # the desynced ICAP ignores a junk word, so the verifier warns
        rp = small_rp()
        bs = Bitstream(np.concatenate((
            np.array([0x12345678], dtype=np.uint32),
            make_test_bitstream(rp).words)))
        assert _through_icap(bs).outcome == "configured"
        report = verify_bitstream(bs, rp)
        assert _rules(report) == {"VFY-BIT-001"} and report.ok

    def test_truncated_payload_rejected(self):
        rp = small_rp()
        # cut inside the FDRI payload
        truncated = Bitstream(make_test_bitstream(rp).words[:100])
        icap = _through_icap(truncated)
        assert icap.outcome is None and not icap.error
        assert icap.pending_frames == 0
        assert icap.config_memory.frames_written == 0
        report = verify_bitstream(truncated, rp)
        assert _rules(report) == {"VFY-BIT-002"}
        assert report.frames_written == 0

    def test_corrupt_crc_option(self):
        rp = small_rp()
        gen = Bitgen(options=BitgenOptions(corrupt_crc=True))
        module = ReconfigurableModule("bad", ResourceBudget(1, 1, 0, 0))
        bs = gen.generate(rp, module)
        icap = _through_icap(bs)
        assert icap.crc_error and icap.outcome == "error"
        assert icap.config_memory.frames_written == 0
        report = verify_bitstream(bs, rp)
        assert _rules(report) == {"VFY-BIT-005"}
        assert report.frames_written == rp.frames
