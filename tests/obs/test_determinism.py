"""Satellite: two identical traced runs produce byte-identical artifacts."""

import json

from repro.cli import main


def _run_reconfig(tmp_path, tag):
    chrome = tmp_path / f"trace_{tag}.json"
    prom = tmp_path / f"metrics_{tag}.prom"
    rc = main([
        "reconfig", "sobel",
        "--trace-chrome", str(chrome),
        "--metrics", str(prom),
    ])
    assert rc == 0
    return chrome.read_bytes(), prom.read_bytes()


class TestTraceDeterminism:
    def test_reconfig_chrome_trace_byte_identical(self, tmp_path, capsys):
        chrome_a, prom_a = _run_reconfig(tmp_path, "a")
        chrome_b, prom_b = _run_reconfig(tmp_path, "b")
        capsys.readouterr()
        assert chrome_a == chrome_b
        assert prom_a == prom_b
        assert chrome_a  # non-empty artifact

    def test_trace_subcommand_all_artifacts_identical(self, tmp_path, capsys):
        outputs = []
        for tag in ("a", "b"):
            paths = {
                "--chrome": tmp_path / f"t{tag}.json",
                "--vcd": tmp_path / f"t{tag}.vcd",
                "--metrics": tmp_path / f"t{tag}.prom",
                "--metrics-json": tmp_path / f"t{tag}.mjson",
            }
            argv = ["trace", "sobel", "--no-breakdown"]
            for flag, path in paths.items():
                argv += [flag, str(path)]
            assert main(argv) == 0
            outputs.append({k: p.read_bytes() for k, p in paths.items()})
        capsys.readouterr()
        for flag in outputs[0]:
            assert outputs[0][flag] == outputs[1][flag], flag


def _reconfig_metrics(tmp_path, controller):
    path = tmp_path / f"metrics_{controller}.json"
    rc = main(["reconfig", "sobel", "--controller", controller,
               "--metrics-json", str(path)])
    assert rc == 0
    return json.loads(path.read_text())


class TestExportedCounters:
    """The exported counters of one reference reconfiguration, pinned:
    the observed instruments read the same facts the pushed ones did."""

    def test_rvcap(self, tmp_path, capsys):
        metrics = _reconfig_metrics(tmp_path, "rvcap")
        capsys.readouterr()
        assert metrics["icap_words_total"] == 162_723
        assert metrics["icap_stall_cycles_total"] == 180_219_224
        assert metrics["icap_sessions_total"] == 1
        assert metrics["axis2icap_bytes_in_total"] == 650_892
        assert metrics["axis2icap_bytes_out_total"] == 650_892
        assert metrics['axi_transactions_total{xbar="main_xbar"}'] == 21
        assert metrics[
            'axi_transactions_total{xbar="rvcap_xbar_mm2s"}'] == 5_086
        assert metrics["soc_icap_words"] == 162_723

    def test_hwicap(self, tmp_path, capsys):
        metrics = _reconfig_metrics(tmp_path, "hwicap")
        capsys.readouterr()
        assert metrics["hwicap_words_total"] == 162_723
        assert metrics["hwicap_drains_total"] == 159
        assert metrics['axi_transactions_total{xbar="main_xbar"}'] == 167_501
