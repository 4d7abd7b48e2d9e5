"""CLI smoke tests (fast paths only; slow regenerations run in benchmarks)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("tables", "fig3", "unroll", "reconfig", "faults",
                        "asm", "disasm"):
            assert command in text

    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReconfigCommand:
    def test_reconfig_prints_timeline_and_stats(self, capsys):
        assert main(["reconfig", "sobel"]) == 0
        out = capsys.readouterr().out
        assert "Tr=1651.0 us" in out
        assert "dma.mm2s" in out
        assert "icap_reconfigurations" in out


class TestFaultsCommand:
    def test_single_kind_sweep(self, capsys):
        assert main(["faults", "--points", "1", "--kinds", "truncate",
                     "--seed", "9"]) == 0
        out = capsys.readouterr().out
        assert "truncate" in out
        assert "recovery rate: 100.0%" in out

    def test_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            main(["faults", "--kinds", "gamma-ray"])


class TestTableCommand:
    def test_table3_only(self, capsys):
        assert main(["tables", "3"]) == 0
        out = capsys.readouterr().out
        assert "Full SoC" in out and "74393" in out
        assert "Table I:" not in out


class TestAsmRoundtrip:
    def test_asm_then_disasm(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("_start:\n    li a0, 42\n    ebreak\n")
        binary = tmp_path / "prog.bin"
        assert main(["asm", str(source), "-o", str(binary)]) == 0
        assert binary.exists() and binary.stat().st_size == 8
        assert main(["disasm", str(binary)]) == 0
        out = capsys.readouterr().out
        assert "ebreak" in out

    def test_asm_compressed_is_smaller(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text(
            "_start:\n    addi a0, a0, 1\n    addi a0, a0, 1\n    ebreak\n")
        small = tmp_path / "small.bin"
        full = tmp_path / "full.bin"
        main(["asm", str(source), "-o", str(full)])
        main(["asm", str(source), "-o", str(small), "--compress"])
        assert small.stat().st_size < full.stat().st_size

    def test_unroll_single_factor(self, capsys):
        assert main(["unroll", "16"]) == 0
        out = capsys.readouterr().out
        assert "MB/s" in out


class TestProfileCommand:
    def test_profiles_a_named_bench(self, capsys):
        assert main(["profile", "bitgen_ref", "--top", "5",
                     "--sort", "tottime"]) == 0
        out = capsys.readouterr().out
        assert "function calls" in out
        assert "restriction <5>" in out

    def test_registry_matches_perf_harness(self):
        from repro.eval.benches import BENCHES
        parser = build_parser()
        text = parser.format_help()
        assert "profile" in text
        for name in BENCHES:
            assert parser.parse_args(["profile", name]).scenario == name
