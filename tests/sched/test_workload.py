"""Workload synthesis, trace files, replay reports, and the CLI."""

import json

import pytest

from repro.errors import SchedulerError
from repro.sched import (
    WorkloadSpec,
    load_trace,
    replay,
    save_trace,
    synthesize,
)


class TestSynthesis:
    def test_same_seed_same_trace(self):
        spec = WorkloadSpec(requests=100, seed=7)
        assert synthesize(spec) == synthesize(spec)

    def test_different_seed_different_trace(self):
        assert synthesize(WorkloadSpec(requests=100, seed=1)) != \
            synthesize(WorkloadSpec(requests=100, seed=2))

    def test_zipf_skews_popularity_to_low_ranks(self):
        spec = WorkloadSpec(requests=2000, modules=8, zipf_s=1.2)
        counts = {}
        for request in synthesize(spec):
            counts[request.module] = counts.get(request.module, 0) + 1
        assert counts["rm0"] == max(counts.values())
        assert counts["rm0"] > 3 * counts.get("rm7", 1)

    def test_arrivals_monotonic_and_deadlines_after(self):
        requests = synthesize(WorkloadSpec(requests=200))
        arrivals = [r.arrival_us for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(r.deadline_us > r.arrival_us for r in requests)

    def test_spec_validation(self):
        with pytest.raises(SchedulerError):
            WorkloadSpec(requests=0)
        with pytest.raises(SchedulerError):
            WorkloadSpec(arrival_rate_rps=0)
        with pytest.raises(SchedulerError):
            WorkloadSpec(slack_jitter=1.5)


class TestTraceFiles:
    def test_roundtrip(self, tmp_path):
        spec = WorkloadSpec(requests=50, seed=11)
        requests = synthesize(spec)
        path = tmp_path / "trace.json"
        save_trace(requests, path, spec=spec)
        assert load_trace(path) == requests
        document = json.loads(path.read_text())
        assert document["spec"]["seed"] == 11

    def test_bare_list_accepted(self, tmp_path):
        requests = synthesize(WorkloadSpec(requests=5))
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([r.to_dict() for r in requests]))
        assert load_trace(path) == requests


class TestReplay:
    def test_report_accounts_for_every_request(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory(charge_sd_time=True)
        spec = WorkloadSpec(requests=60, arrival_rate_rps=1000.0,
                            modules=4, frame=32,
                            deadline_slack_us=50_000.0, seed=5)
        report = replay(manager, synthesize(spec), cache=cache)
        assert report.requests == 60
        assert report.completed == 60
        assert sum(report.statuses.values()) == 60
        assert report.throughput_rps > 0
        assert report.latency_p99_us >= report.latency_p50_us > 0
        assert 0.0 <= report.icap_utilization <= 1.0
        assert report.cache["hits"] + report.cache["misses"] >= \
            report.reconfigurations

    def test_replay_is_deterministic(self, sched_platform_factory):
        spec = WorkloadSpec(requests=40, arrival_rate_rps=1500.0,
                            modules=4, frame=32, seed=9)
        reports = []
        for _ in range(2):
            manager, cache = sched_platform_factory(charge_sd_time=True)
            report = replay(manager, synthesize(spec), cache=cache)
            data = report.to_dict()
            data.pop("wall_seconds")
            reports.append(data)
        assert reports[0] == reports[1]

    def test_report_dict_is_json_clean(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        spec = WorkloadSpec(requests=10, modules=4, frame=32,
                            payload=False)
        report = replay(manager, synthesize(spec), cache=cache)
        text = json.dumps(report.to_dict(include_outcomes=True))
        assert json.loads(text)["requests"] == 10


class TestCli:
    def test_sched_bench_emit_and_serve_roundtrip(self, tmp_path, capsys):
        from repro.cli import main
        trace_path = tmp_path / "trace.json"
        report_path = tmp_path / "report.json"
        chrome_path = tmp_path / "chrome.json"
        assert main(["sched-bench", "--requests", "30", "--rate", "500",
                     "--modules", "4", "--frame", "32",
                     "--deadline-slack-us", "50000",
                     "--emit-trace", str(trace_path),
                     "--trace-chrome", str(chrome_path),
                     "-o", str(report_path)]) == 0
        capsys.readouterr()
        bench_report = json.loads(report_path.read_text())
        assert bench_report["requests"] == 30

        from repro.obs.exporters import validate_chrome_trace
        validate_chrome_trace(chrome_path.read_text())

        serve_out = tmp_path / "serve.json"
        assert main(["serve", str(trace_path), "--json",
                     "-o", str(serve_out)]) == 0
        capsys.readouterr()
        serve_report = json.loads(serve_out.read_text())
        # same trace, same platform defaults -> identical serving result
        for key in ("requests", "completed", "deadline_misses",
                    "reconfigurations", "span_us"):
            assert serve_report[key] == bench_report[key]

    def test_serve_rejects_unknown_modules(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sched import SwapRequest
        path = tmp_path / "bad.json"
        save_trace([SwapRequest("mystery", 0.0, 10.0)], path)
        assert main(["serve", str(path), "--modules", "2"]) == 2
        capsys.readouterr()

    def test_text_report_counts_failed_requests(self, capsys):
        # no reconfiguration fits under a 200 mW cap: the text report
        # says why none of the 20 requests completed
        from repro.cli import main
        assert main(["sched-bench", "--requests", "20", "--modules", "4",
                     "--frame", "32", "--cache-kb", "64",
                     "--power-cap-mw", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "completed           0" in lines
        assert "statuses            failed 20" in lines

    def test_power_sweep_rows_count_failed_requests(self, capsys):
        # one reconfiguration does not fit under a 200 mW cap, so every
        # request fails in-band: no deferral, no energy, 20 failed
        from repro.cli import main
        assert main(["power", "sweep", "--caps", "200", "--requests", "20",
                     "--cache-kb", "64"]) == 0
        header, uncapped, capped = capsys.readouterr().out.splitlines()
        column = header.split().index("failed")
        assert uncapped.split()[column] == "0"
        row = capped.split()
        assert row[0] == "200.0" and row[column] == "20"

    @pytest.mark.parametrize("argv", [
        ["sched-bench", "--cache-kb", "0"],
        ["serve", "trace.json", "--cache-kb", "0"],
        ["power", "sweep", "--caps", "200", "--cache-kb", "-4"],
    ])
    def test_cache_below_one_kib_is_a_usage_error(self, argv, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--cache-kb: must be at least 1" in capsys.readouterr().err
