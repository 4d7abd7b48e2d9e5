"""Bitstream verifier: every rule fires on its corruption, clean passes.

The corpus lives in ``tests/verify/fixtures/bitstreams.py`` — one
word-level corruption of the reference stream per ``VFY-BIT-*`` rule.
"""

import numpy as np
import pytest

from repro.fpga.bitstream import Bitstream
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.icap import Icap
from repro.lint.findings import Severity
from repro.verify import all_verifier_rules, verify_bitstream
from tests.verify.fixtures import BITSTREAM_CASES, reference_stream
from tests.verify.fixtures.bitstreams import WARNING_CASES

CASES = {case.rule_id: case for case in BITSTREAM_CASES}


@pytest.fixture(scope="module")
def reference():
    return reference_stream()


class TestCorpus:
    def test_every_bitstream_rule_has_a_fixture(self):
        bit_rules = {r.rule_id for r in all_verifier_rules()
                     if r.rule_id.startswith("VFY-BIT-")}
        assert set(CASES) == bit_rules

    def test_reference_stream_verifies_clean(self, reference):
        stream, rp = reference
        report = verify_bitstream(stream, rp)
        assert report.findings == [], [f.to_dict() for f in report.findings]
        assert report.ok
        assert report.frames_written == rp.frames
        assert report.far_writes == 1

    @pytest.mark.parametrize("rule_id", sorted(CASES))
    def test_corruption_fires_its_rule(self, reference, rule_id):
        case = CASES[rule_id]
        stream, rp = reference
        words = np.array(stream.words, copy=True)
        case.mutate(words)
        report = verify_bitstream(Bitstream(words), rp, name=rule_id)
        hits = [f for f in report.findings if f.rule_id == rule_id]
        assert hits, (f"{case.describe}: {rule_id} did not fire; got "
                      f"{[f.rule_id for f in report.findings]}")
        # every fixture rule defaults to ERROR, so the stream must fail
        assert not report.ok


    @pytest.mark.parametrize("case", WARNING_CASES,
                             ids=lambda case: case.describe)
    def test_ignored_word_warns(self, reference, case):
        # the desynchronized ICAP ignores the word and configures the
        # stream, so the finding is a WARNING and the stream passes
        stream, rp = reference
        words = np.array(stream.words, copy=True)
        case.mutate(words)
        report = verify_bitstream(Bitstream(words), rp)
        assert [(f.rule_id, f.severity) for f in report.findings] == [
            (case.rule_id, Severity.WARNING)]
        assert report.ok
        icap = Icap(ConfigMemory(rp.device))
        icap.accept(Bitstream(words).to_bytes(), 0)
        assert icap.outcome == "configured"


class TestRelocatability:
    def test_reference_stream_is_relocatable(self, reference):
        stream, rp = reference
        verdict = verify_bitstream(stream, rp).relocatability
        assert verdict.relocatable
        assert verdict.reasons == ()

    def test_split_far_stream_is_not_relocatable(self, reference):
        from repro.fpga.packets import ConfigRegister, type1_write
        stream, rp = reference
        words = stream.words.tolist()
        # splice a second FAR write just before DESYNC: still a legal
        # stream shape, but no longer a single contiguous frame run
        far_header = type1_write(ConfigRegister.FAR, 1)
        idx = words.index(far_header)
        report = verify_bitstream(
            Bitstream(np.array(
                words[:idx] + [far_header, words[idx + 1]] + words[idx:],
                dtype=np.uint32)), rp)
        verdict = report.relocatability
        assert not verdict.relocatable
        assert any("FAR writes" in reason for reason in verdict.reasons)

    def test_malformed_stream_is_not_relocatable(self, reference):
        stream, rp = reference
        words = np.array(stream.words, copy=True)
        CASES["VFY-BIT-002"].mutate(words)
        verdict = verify_bitstream(Bitstream(words), rp).relocatability
        assert not verdict.relocatable


class TestProtocolDetails:
    def test_truncated_stream_reports_overrun(self, reference):
        stream, rp = reference
        words = np.array(stream.words[:len(stream.words) // 2], copy=True)
        report = verify_bitstream(Bitstream(words), rp)
        assert any(f.rule_id == "VFY-BIT-002" and "past the end" in f.message
                   for f in report.findings)

    def test_stream_without_sync_is_inert(self, reference):
        _, rp = reference
        words = np.full(64, 0xFFFF_FFFF, dtype=np.uint32)
        report = verify_bitstream(Bitstream(words), rp)
        assert any(f.rule_id == "VFY-BIT-001" and "sync" in f.message
                   for f in report.findings)
        assert not report.relocatability.relocatable

    def test_words_after_desync_are_flagged(self, reference):
        stream, rp = reference
        words = np.array(stream.words, copy=True)
        # the trailing pad is NOPs; make one a (ignored) register write
        from repro.fpga.packets import ConfigRegister, type1_write
        words[-1] = type1_write(ConfigRegister.FAR, 0)
        report = verify_bitstream(Bitstream(words), rp)
        assert any(f.rule_id == "VFY-BIT-005" and "DESYNC" in f.message
                   for f in report.findings)
