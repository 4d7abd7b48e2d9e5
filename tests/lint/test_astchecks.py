"""AST lint tests: each check fires on a violating snippet and stays
silent on the idiomatic form, and the shipped tree itself is clean."""

import ast
import textwrap

from repro.lint.astchecks import (
    check_annotations,
    check_env_and_test_imports,
    check_file,
    check_obs_time,
    check_register_masks,
    check_span_pairing,
    run_astchecks,
)
from repro.lint.findings import Severity


def lint(check, source):
    tree = ast.parse(textwrap.dedent(source))
    return list(check(tree, "snippet.py"))


class TestSpanPairing:
    def test_unclosed_local_span_fires(self):
        found = lint(check_span_pairing, """
            def transfer(self):
                span = self.tracer.begin("dma", "transfer")
                self.run()
        """)
        assert [f.rule_id for f in found] == ["LINT-SPAN-001"]
        assert found[0].severity is Severity.ERROR
        assert "never ended" in found[0].message

    def test_closed_span_is_clean(self):
        assert lint(check_span_pairing, """
            def transfer(self):
                span = self.tracer.begin("dma", "transfer")
                self.run()
                self.tracer.end(span, now)
        """) == []

    def test_discarded_begin_fires(self):
        found = lint(check_span_pairing, """
            def start(self):
                self.tracer.begin("reconfig", "root")
        """)
        assert [f.rule_id for f in found] == ["LINT-SPAN-001"]
        assert "end_open" in found[0].message

    def test_begin_with_end_open_is_clean(self):
        # the driver idiom: root span closed by name later in the
        # same function
        assert lint(check_span_pairing, """
            def start(self):
                self.tracer.begin("reconfig", "root")
                self.work()
                self.tracer.end_open("reconfig", now)
        """) == []

    def test_attribute_parked_span_is_deferred_close(self):
        assert lint(check_span_pairing, """
            def start(self):
                self._span = self.tracer.begin("icap", "session")
        """) == []

    def test_nested_function_spans_stay_separate(self):
        # the inner function owns (and fails to close) its span; the
        # outer function's end must not excuse it
        found = lint(check_span_pairing, """
            def outer(self):
                def inner():
                    span = self.tracer.begin("x", "y")
                span = self.tracer.begin("a", "b")
                self.tracer.end(span, now)
        """)
        assert [f.rule_id for f in found] == ["LINT-SPAN-001"]


class TestObsTime:
    def test_advancing_time_fires(self):
        found = lint(check_obs_time, """
            def snapshot(self):
                self.sim.advance(1)
        """)
        assert [f.rule_id for f in found] == ["LINT-OBS-001"]
        assert "advance" in found[0].message

    def test_reading_time_is_clean(self):
        assert lint(check_obs_time, """
            def snapshot(self, now):
                self.samples.append(now)
        """) == []


class TestRegisterMasks:
    def test_unmasked_write_hook_fires(self):
        found = lint(check_register_masks, """
            def _write_control(self, value):
                self.control = value
        """)
        assert [f.rule_id for f in found] == ["LINT-REG-001"]
        assert "without masking" in found[0].message

    def test_masked_write_hook_is_clean(self):
        assert lint(check_register_masks, """
            def _write_control(self, value):
                self.control = value & 0xFFFF_FFFF
        """) == []

    def test_non_hook_signature_is_exempt(self):
        # (self, reg, value) is not the WriteHook shape: a generic
        # dispatcher may store full words
        assert lint(check_register_masks, """
            def _write_register(self, reg, value):
                self.regs[reg] = value
        """) == []


class TestAnnotations:
    def test_missing_annotations_fire(self):
        found = lint(check_annotations, """
            def decode(addr, nbytes=4):
                return addr
        """)
        assert [f.rule_id for f in found] == ["LINT-TYPE-001"]
        assert "addr" in found[0].message
        assert "return" in found[0].message

    def test_fully_annotated_is_clean(self):
        assert lint(check_annotations, """
            def decode(self, addr: int, nbytes: int = 4) -> int:
                return addr
        """) == []


class TestEnvAndTestImports:
    def test_each_violating_form_fires(self):
        forms = {
            "os.environ.get('REPRO_X')": "reads os.environ",
            "os.environ['REPRO_X']": "reads os.environ",
            "'REPRO_X' in os.environ": "reads os.environ",
            "os.getenv('REPRO_X')": "reads os.getenv",
            "from os import environ": "environment reader",
            "from os import getenv as _getenv": "environment reader",
            "import tests": "tests package",
            "import tests.property.iss_oracle as oracle": "tests package",
            "from tests.property import iss_oracle": "from tests.property",
            "from tests import conftest": "from tests",
        }
        for source, message in forms.items():
            found = lint(check_env_and_test_imports, source)
            assert [f.rule_id for f in found] == ["LINT-ENV-001"], source
            assert found[0].severity is Severity.ERROR
            assert message in found[0].message, source

    def test_clean_module_is_clean(self):
        assert lint(check_env_and_test_imports, """
            import os
            from os import path
            from .tests import helper
            import testsuite

            def load(name: str) -> str:
                return os.path.join(path.dirname(name), "environ")
        """) == []


class TestCheckFile:
    def test_annotation_gate_applies_only_to_strict_packages(self, tmp_path):
        source = "def helper(x):\n    return x\n"
        for package in ("axi", "eval"):
            (tmp_path / package).mkdir()
            (tmp_path / package / "mod.py").write_text(source)
        strict = check_file(tmp_path / "axi" / "mod.py", root=tmp_path)
        lax = check_file(tmp_path / "eval" / "mod.py", root=tmp_path)
        assert [f.rule_id for f in strict] == ["LINT-TYPE-001"]
        assert lax == []

    def test_obs_time_gate_applies_only_under_obs(self, tmp_path):
        source = ("def f(self) -> None:\n"
                  "    self.sim.advance(1)\n")
        for package in ("obs", "sim"):
            (tmp_path / package).mkdir()
            (tmp_path / package / "mod.py").write_text(source)
        obs = check_file(tmp_path / "obs" / "mod.py", root=tmp_path)
        sim = check_file(tmp_path / "sim" / "mod.py", root=tmp_path)
        assert [f.rule_id for f in obs] == ["LINT-OBS-001"]
        assert sim == []


class TestShippedTree:
    def test_repro_tree_is_lint_clean(self):
        findings = run_astchecks()
        assert findings == [], "\n".join(
            f"{f.component}: {f.rule_id} {f.message}" for f in findings)
