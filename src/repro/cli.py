"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``   — regenerate Tables I-IV from live simulation runs
* ``fig3``     — the reconfiguration-time-vs-RP-size sweep (Fig. 3)
* ``unroll``   — the HWICAP loop-unrolling firmware study (Sec. IV-B)
* ``reconfig`` — one reconfiguration with a trace timeline and stats
  (``--trace-chrome``/``--trace-vcd``/``--metrics``/``--breakdown``
  export span traces, signal dumps and metric snapshots)
* ``trace``    — one traced reconfiguration; Perfetto/VCD/metrics
  exports plus the Tr latency-breakdown report
* ``faults``   — fault-injection sweep: detection and recovery rates
* ``lint``     — static analysis: SoC design-rule checks + AST lints
  (``--format json|sarif`` for CI artifacts, ``--list-rules`` for the
  catalog; exit 0 clean / 1 findings / 2 internal error)
* ``verify``   — static artifact verification: firmware MMIO/CFG
  analysis and partial-bitstream packet/FAR-coverage checks over the
  reference artifacts (or ``--firmware``/``--bitstream`` files); same
  format flags and exit-code contract as ``lint``
* ``sched-bench`` — replay a synthetic multi-tenant swap-request stream
  through the EDF DPR scheduler; throughput/latency/miss report
* ``serve``    — replay a recorded JSON request trace through the
  scheduler (the interchange format ``sched-bench --emit-trace`` writes)
* ``power``    — cycle-integrated energy accounting: ``report`` renders
  the per-phase/per-component breakdown of one reconfiguration,
  ``sweep`` replays a workload under several peak-power caps
  (``--power-chrome``/``--power-vcd`` on ``reconfig``/``sched-bench``/
  ``serve`` export power-annotated traces)
* ``asm``      — assemble an RV64 source file (optionally RVC-compressed)
* ``disasm``   — disassemble a flat binary image
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.eval.tables import table1, table2, table3, table4
    which = set(args.which or ["1", "2", "3", "4"])
    if "1" in which:
        print("Table I: controller resources and throughput")
        print(table1().render(), end="\n\n")
    if "2" in which:
        print("Table II: state-of-the-art comparison")
        print(table2().render(), end="\n\n")
    if "3" in which:
        print("Table III: full-SoC utilization")
        print(table3().render(), end="\n\n")
    if "4" in which:
        print("Table IV: adaptive image-processing case study")
        print(table4().render(), end="\n\n")
    return 0


def _cmd_fig3(args: argparse.Namespace) -> int:
    from repro.eval.figures import fig3_series
    series = fig3_series(controller=args.controller)
    print(series.render())
    return 0


def _cmd_unroll(args: argparse.Namespace) -> int:
    from repro.eval.figures import unroll_sweep
    sweep = unroll_sweep(tuple(args.factors))
    print(sweep.render())
    return 0


def _export_observability(soc, obs, args: argparse.Namespace) -> None:
    """Write whichever trace/metric artifacts the flags requested."""
    if getattr(args, "trace_chrome", None):
        Path(args.trace_chrome).write_text(obs.chrome_trace(soc.sim.freq_hz))
        print(f"chrome trace written to {args.trace_chrome}")
    if getattr(args, "trace_vcd", None):
        Path(args.trace_vcd).write_text(obs.vcd(soc.sim.freq_hz))
        print(f"vcd dump written to {args.trace_vcd}")
    if getattr(args, "metrics", None):
        Path(args.metrics).write_text(obs.prometheus())
        print(f"prometheus metrics written to {args.metrics}")
    if getattr(args, "metrics_json", None):
        Path(args.metrics_json).write_text(obs.json_metrics())
        print(f"json metrics written to {args.metrics_json}")
    _export_power(soc, obs, args)


def _export_power(soc, obs, args: argparse.Namespace) -> None:
    """Power-annotated exports: energy per span + a power_mw track.

    Runs after the plain exports so ``--trace-chrome`` stays
    byte-identical with or without the power flags.
    """
    power_chrome = getattr(args, "power_chrome", None)
    power_vcd = getattr(args, "power_vcd", None)
    if not (power_chrome or power_vcd):
        return
    from repro.power import DEFAULT_PROFILE, PowerModel
    model = PowerModel(DEFAULT_PROFILE)
    annotated = model.annotate(obs.tracer, freq_hz=soc.sim.freq_hz)
    model.inject_power_track(obs.tracer, freq_hz=soc.sim.freq_hz)
    if power_chrome:
        Path(power_chrome).write_text(obs.chrome_trace(soc.sim.freq_hz))
        print(f"power chrome trace written to {power_chrome} "
              f"({annotated} spans carry energy_nj)")
    if power_vcd:
        Path(power_vcd).write_text(obs.vcd(soc.sim.freq_hz))
        print(f"power vcd dump written to {power_vcd}")


def _print_breakdown(soc, obs, result) -> None:
    from repro.obs import build_tr_breakdown, render_tr_breakdown
    try:
        breakdown = build_tr_breakdown(obs.tracer, soc.sim.freq_hz,
                                       tr_reported_us=result.tr_us)
    except ValueError as exc:
        print(f"breakdown unavailable: {exc}", file=sys.stderr)
        return
    print()
    print(render_tr_breakdown(breakdown))


def _cache_kib(text: str) -> int:
    """argparse type of ``--cache-kb``: the arena holds at least 1 KiB."""
    kib = int(text)
    if kib < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {kib}")
    return kib


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-chrome", metavar="FILE", default=None,
                   help="write a Perfetto-loadable Chrome trace JSON")
    p.add_argument("--trace-vcd", metavar="FILE", default=None,
                   help="write a VCD signal dump")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="write Prometheus text-format metrics")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="write a JSON metrics snapshot")
    p.add_argument("--breakdown", action="store_true",
                   help="print the Tr latency-breakdown report")
    p.add_argument("--power-chrome", metavar="FILE", default=None,
                   help="write a Chrome trace with a power_mw counter "
                        "track and per-span energy_nj attributes")
    p.add_argument("--power-vcd", metavar="FILE", default=None,
                   help="write a VCD dump including the power_mw signal")


def _cmd_reconfig(args: argparse.Namespace) -> int:
    from repro.drivers.manager import ReconfigurationManager
    from repro.obs import format_stats, format_timeline
    from repro.soc.builder import build_soc

    soc = build_soc()
    obs = soc.attach_observability()
    manager = ReconfigurationManager(soc, controller=args.controller)
    manager.provision_sdcard()
    manager.init_rmodules()
    result = manager.load_module(args.module)
    print(f"module {result.module}: Td={result.td_us:.1f} us, "
          f"Tr={result.tr_us:.1f} us, "
          f"{result.throughput_mb_s:.1f} MB/s\n")
    print("timeline:")
    print(format_timeline(obs.tracer, soc.sim.freq_hz))
    print("\nstats:")
    print(format_stats(soc.stats()))
    _export_observability(soc, obs, args)
    if args.breakdown:
        _print_breakdown(soc, obs, result)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """One traced DPR: exports are the point, the console stays terse."""
    from repro.drivers.manager import ReconfigurationManager
    from repro.soc.builder import build_soc

    soc = build_soc()
    obs = soc.attach_observability()
    manager = ReconfigurationManager(soc, controller="rvcap")
    manager.provision_sdcard()
    manager.init_rmodules()
    result = manager.load_module(args.module)
    print(f"module {result.module}: Td={result.td_us:.1f} us, "
          f"Tr={result.tr_us:.1f} us, "
          f"{result.throughput_mb_s:.1f} MB/s")
    # `trace` spells the flags --chrome/--vcd; reuse the shared exporter
    # by aliasing them onto the reconfig-style attribute names
    args.trace_chrome = args.chrome
    args.trace_vcd = args.vcd
    _export_observability(soc, obs, args)
    if not args.no_breakdown:
        _print_breakdown(soc, obs, result)
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.eval.fault_sweep import fault_sweep
    if args.points < 1:
        print("faults: --points must be >= 1", file=sys.stderr)
        return 2
    report = fault_sweep(points=args.points, seed=args.seed,
                         kinds=args.kinds or None, mode=args.mode,
                         module=args.module)
    print(report.render())
    if report.recovery_rate < args.min_recovery:
        print(f"recovery rate below the {100 * args.min_recovery:.0f}% "
              "threshold")
        return 1
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.eval.validation import render_validation, run_validation
    checks = run_validation()
    print(render_validation(checks))
    return 0 if all(c.ok for c in checks) else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import generate_report
    report = generate_report(include_unroll=not args.no_unroll)
    text = report.render()
    if args.output:
        Path(args.output).write_text(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


#: reporter exit-code contract shared by ``lint`` and ``verify``:
#: 0 clean, 1 findings reported, 2 the tool itself failed
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2


def _report_format(args: argparse.Namespace) -> str:
    """Resolve ``--format`` (with the legacy ``--json`` alias)."""
    if args.format:
        return str(args.format)
    return "json" if getattr(args, "json", False) else "human"


def _emit_findings(findings, args: argparse.Namespace, *,
                   tool: str, rule_help=None, label: str = "report") -> int:
    """Render findings in the chosen format; return the exit code."""
    from repro.lint import findings_to_json, findings_to_sarif, render_findings

    fmt = _report_format(args)
    if fmt == "json":
        text = findings_to_json(findings)
    elif fmt == "sarif":
        text = findings_to_sarif(findings, tool=tool, rule_help=rule_help)
    else:
        text = render_findings(findings) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"{label} written to {args.output}")
    else:
        print(text, end="")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: SoC DRC + AST lints; human/JSON/SARIF output."""
    from repro.lint import all_rules, run_drc
    from repro.lint.astchecks import run_astchecks
    from repro.lint.findings import dedupe_findings
    from repro.lint.findings import suppress as apply_suppressions

    if args.list_rules:
        for drc_rule in all_rules():
            print(f"{drc_rule.rule_id}  [{drc_rule.severity}]  "
                  f"{drc_rule.title}")
        return EXIT_CLEAN

    try:
        run_both = not (args.drc or args.ast)
        findings = []
        rule_help = {r.rule_id: r.title for r in all_rules()}
        if args.drc or run_both:
            from repro.soc.builder import build_soc
            report = run_drc(build_soc(), rules=args.rules or None,
                             suppressions=args.suppress)
            findings.extend(report.findings)
        if args.ast or run_both:
            findings.extend(
                apply_suppressions(run_astchecks(), args.suppress))
        findings = dedupe_findings(findings)
        return _emit_findings(findings, args, tool="repro-lint",
                              rule_help=rule_help, label="lint report")
    except Exception as exc:  # noqa: BLE001 - reporter contract: 2 on crash
        print(f"lint: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def _cmd_verify(args: argparse.Namespace) -> int:
    """Static artifact verification: firmware images + partial bitstreams."""
    from repro.verify import all_verifier_rules

    if args.list_rules:
        for rule in all_verifier_rules():
            print(f"{rule.rule_id}  [{rule.severity}]  {rule.title}")
        return EXIT_CLEAN

    try:
        reports = _collect_verify_reports(args)
    except Exception as exc:  # noqa: BLE001 - reporter contract: 2 on crash
        print(f"verify: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR

    from repro.lint import Severity, findings_to_sarif, render_findings
    from repro.verify import verifier_rule_help

    findings = [f for report in reports for f in report.findings]
    fmt = _report_format(args)
    if fmt == "json":
        document = {
            "tool": "repro-verify",
            "artifacts": [report.to_dict() for report in reports],
            "count": len(findings),
            "errors": sum(1 for f in findings
                          if f.severity is Severity.ERROR),
            "ok": all(report.ok for report in reports),
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif fmt == "sarif":
        text = findings_to_sarif(findings, tool="repro-verify",
                                 rule_help=verifier_rule_help())
    else:
        lines = []
        for report in reports:
            status = "ok" if report.ok else "FAIL"
            extra = ""
            reloc = getattr(report, "relocatability", None)
            if reloc is not None:
                extra = (", relocatable" if reloc.relocatable
                         else ", not relocatable")
            bound = getattr(report, "stack_bound", None)
            if bound is not None:
                extra = f", stack bound {bound} B"
            lines.append(f"{report.name}: {status} "
                         f"({len(report.findings)} findings{extra})")
        body = render_findings(findings)
        text = "\n".join(lines) + "\n\n" + body + "\n"
    if args.output:
        Path(args.output).write_text(text)
        print(f"verify report written to {args.output}")
    else:
        print(text, end="")
    return EXIT_FINDINGS if findings else EXIT_CLEAN


def _collect_verify_reports(args: argparse.Namespace) -> list:
    """Run the requested verifications and return the report objects."""
    from repro.soc.builder import build_soc
    from repro.verify import verify_bitstream, verify_firmware

    soc = build_soc()
    reports: list = []

    if args.firmware or args.bitstream:
        if args.firmware:
            from repro.riscv.assembler import Program
            data = Path(args.firmware).read_bytes()
            base = int(args.base, 0)
            program = Program(base=base, text=data)
            if args.entry:
                program.symbols["_start"] = int(args.entry, 0)
            reports.append(verify_firmware(
                program, soc, name=Path(args.firmware).name))
        if args.bitstream:
            from repro.fpga.bitstream import Bitstream
            rp = soc.partitions[args.partition]
            stream = Bitstream.from_bytes(Path(args.bitstream).read_bytes())
            reports.append(verify_bitstream(
                stream, rp, name=Path(args.bitstream).name))
        return reports

    # default: verify every artifact the reference platform ships —
    # both firmware flavours and one generated PB per registered module
    pbit_bytes = soc.module_bitstream(soc.registered_modules[0]).nbytes
    src_address = soc.config.layout.ddr_base

    from repro.firmware.hwicap_fw import build_hwicap_firmware
    from repro.firmware.rvcap_fw import build_rvcap_firmware
    reports.append(verify_firmware(
        build_rvcap_firmware(src_address, pbit_bytes,
                             layout=soc.config.layout),
        soc, name="rvcap_fw"))
    reports.append(verify_firmware(
        build_hwicap_firmware(src_address, pbit_bytes,
                              layout=soc.config.layout),
        soc, name="hwicap_fw"))
    for name in soc.registered_modules:
        rp = soc.partitions[soc.module_rp_index(name)]
        reports.append(verify_bitstream(
            soc.module_bitstream(name), rp, name=f"{name}@{rp.name}"))
    return reports


def _render_sched_report(report) -> str:
    from repro.sched.request import STATUSES
    statuses = ", ".join(f"{status} {report.statuses[status]}"
                         for status in STATUSES
                         if report.statuses.get(status))
    lines = [
        f"requests            {report.requests}",
        f"completed           {report.completed}",
        f"statuses            {statuses}",
        f"deadline misses     {report.deadline_misses} "
        f"({100 * report.deadline_miss_rate:.2f}%)",
        f"span                {report.span_us / 1e3:.1f} ms simulated",
        f"throughput          {report.throughput_rps:.0f} req/s",
        f"latency p50 / p99   {report.latency_p50_us:.0f} / "
        f"{report.latency_p99_us:.0f} us",
        f"queue wait p99      {report.queue_wait_p99_us:.0f} us",
        f"ICAP utilization    {100 * report.icap_utilization:.2f}%",
        f"reconfigurations    {report.reconfigurations} "
        f"(+{report.reconfig_skips} skips, "
        f"{report.batches} batches, mean size "
        f"{report.mean_batch_size:.2f})",
    ]
    if report.power is not None:
        power = report.power
        lines.append(
            f"energy              {power['energy_nj_total'] / 1e6:.3f} mJ "
            f"modeled (profile {power['profile_version']})")
        if power["power_cap_mw"] is not None:
            lines.append(
                f"power cap           {power['power_cap_mw']:.0f} mW, "
                f"peak window {power['peak_window_power_mw']:.1f} mW, "
                f"{power['power_deferrals']} deferrals")
    cache = report.cache
    lines.append(
        f"cache               {cache['hits']} hits / "
        f"{cache['misses']} misses "
        f"({100 * cache['hit_rate']:.1f}%), "
        f"{cache['evictions']} evictions, "
        f"{cache['sd_bytes_loaded']} SD bytes")
    lines.append(f"wall time           {report.wall_seconds:.2f} s")
    return "\n".join(lines)


def _power_kwargs(args: argparse.Namespace) -> dict:
    """Scheduler power kwargs from the shared sched CLI flags."""
    cap = getattr(args, "power_cap_mw", None)
    wants = getattr(args, "power", False) or cap is not None \
        or getattr(args, "power_chrome", None) \
        or getattr(args, "power_vcd", None)
    if not wants:
        return {}
    from repro.power import DEFAULT_PROFILE
    return {
        "power_profile": DEFAULT_PROFILE,
        "peak_power_mw": cap,
        "power_window_us": getattr(args, "power_window_us", 200.0),
    }


def _sched_platform(args: argparse.Namespace, modules: int, frame: int):
    """Build the serving SoC + cache from shared sched CLI flags."""
    from repro.sched import build_sched_soc, make_cache
    manager = build_sched_soc(modules, frame=frame,
                              controller=args.controller)
    return manager, make_cache(manager, arena_bytes=args.cache_kb << 10,
                               charge_sd_time=not args.no_sd_cost)


def _finish_sched(manager, report, args: argparse.Namespace) -> int:
    import json as _json
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2))
    else:
        print(_render_sched_report(report))
    if getattr(args, "output", None):
        Path(args.output).write_text(
            _json.dumps(report.to_dict(), indent=2) + "\n")
        print(f"report written to {args.output}")
    soc = manager.soc
    if soc.obs is not None:
        _export_observability(soc, soc.obs, args)
    return 0


def _cmd_sched_bench(args: argparse.Namespace) -> int:
    import json as _json
    from dataclasses import replace
    from repro.sched import (
        WorkloadSpec, module_names, replay, save_trace, synthesize,
    )

    spec = WorkloadSpec(
        requests=args.requests,
        arrival_rate_rps=args.rate,
        modules=args.modules,
        zipf_s=args.zipf,
        deadline_slack_us=args.deadline_slack_us,
        slack_jitter=args.slack_jitter,
        payload=not args.no_payload,
        frame=args.frame,
        timeout_us=args.timeout_us,
        seed=args.seed,
    )
    if args.sweep:
        from repro.sched import bench
        curves = []
        for rate in args.sweep:
            report = bench(replace(spec, arrival_rate_rps=rate),
                           cache_bytes=args.cache_kb << 10,
                           charge_sd_time=not args.no_sd_cost,
                           batch_limit=args.batch_limit,
                           drop_late=args.drop_late,
                           controller=args.controller,
                           reconfig_mode=args.mode,
                           verify=args.verify,
                           **_power_kwargs(args))
            entry = report.to_dict()
            entry["arrival_rate_rps"] = rate
            curves.append(entry)
            if not args.json:
                print(f"-- {rate:.0f} req/s --")
                print(_render_sched_report(report), end="\n\n")
        if args.json:
            print(_json.dumps(curves, indent=2))
        if args.output:
            Path(args.output).write_text(
                _json.dumps(curves, indent=2) + "\n")
            print(f"sweep written to {args.output}")
        return 0
    requests = synthesize(spec)
    if args.emit_trace:
        save_trace(requests, args.emit_trace, spec=spec)
        print(f"trace written to {args.emit_trace}")
    manager, cache = _sched_platform(args, spec.modules, spec.frame)
    warm = module_names(min(args.prefetch_hot, spec.modules))
    report = replay(manager, requests, cache=cache,
                    batch_limit=args.batch_limit, drop_late=args.drop_late,
                    reconfig_mode=args.mode, verify=args.verify,
                    prefetch=warm or None, **_power_kwargs(args))
    return _finish_sched(manager, report, args)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.sched import load_trace, replay

    requests = load_trace(args.trace)
    if not requests:
        print("serve: trace holds no requests", file=sys.stderr)
        return 2
    names = {request.module for request in requests}
    modules = args.modules
    if modules is None:
        # rmN catalogs size themselves; anything else counts names
        indices = [int(name[2:]) for name in names
                   if name.startswith("rm") and name[2:].isdigit()]
        modules = max(indices) + 1 if len(indices) == len(names) \
            else len(names)
    frame = args.frame
    if frame is None:
        shapes = {request.payload_shape for request in requests
                  if request.payload_shape is not None}
        frame = next(iter(shapes))[0] if len(shapes) == 1 else 64
    manager, cache = _sched_platform(args, modules, frame)
    missing = names - set(manager.soc.registered_modules)
    if missing:
        print(f"serve: trace references unregistered modules "
              f"{sorted(missing)}", file=sys.stderr)
        return 2
    report = replay(manager, requests, cache=cache,
                    batch_limit=args.batch_limit, drop_late=args.drop_late,
                    reconfig_mode=args.mode, verify=args.verify,
                    **_power_kwargs(args))
    return _finish_sched(manager, report, args)


def _cmd_power(args: argparse.Namespace) -> int:
    """Energy/power accounting: breakdown report or cap sweep."""
    if args.power_command == "report":
        from repro.power import (
            build_energy_breakdown,
            render_energy_breakdown,
            traced_reconfiguration,
        )
        soc, result = traced_reconfiguration(args.module, mode=args.mode)
        breakdown = build_energy_breakdown(
            soc.obs.tracer, soc.sim.freq_hz, tr_reported_us=result.tr_us)
        if args.json:
            print(json.dumps(breakdown.to_dict(), indent=2))
        else:
            print(render_energy_breakdown(breakdown))
        if args.output:
            Path(args.output).write_text(
                json.dumps(breakdown.to_dict(), indent=2) + "\n")
            print(f"energy breakdown written to {args.output}")
        if not breakdown.consistent:
            print("power report: component energies do not sum to the "
                  "window total (>0.1% drift)", file=sys.stderr)
            return 1
        return 0
    # sweep: deadline-miss-vs-energy tradeoff across peak-power caps
    from repro.sched import FAILED, WorkloadSpec, power_sweep
    spec = WorkloadSpec(
        requests=args.requests, arrival_rate_rps=args.rate,
        modules=args.modules, frame=args.frame,
        deadline_slack_us=args.deadline_slack_us, seed=args.seed)
    points = power_sweep(spec, list(args.caps),
                         cache_bytes=args.cache_kb << 10,
                         power_window_us=args.power_window_us)
    if args.json:
        print(json.dumps(points, indent=2))
    else:
        print(f"{'cap_mw':>8} {'peak_mw':>8} {'deferrals':>9} {'failed':>6} "
              f"{'miss_rate':>9} {'miss_delta':>10} {'energy_mJ':>10}")
        for point in points:
            power = point["power"]
            cap = point["power_cap_mw"]
            print(f"{cap if cap is not None else '-':>8} "
                  f"{power['peak_window_power_mw'] or '-':>8} "
                  f"{power['power_deferrals']:>9} "
                  f"{point['statuses'].get(FAILED, 0):>6} "
                  f"{point['deadline_miss_rate']:>9.4f} "
                  f"{point['miss_delta_vs_uncapped']:>10.4f} "
                  f"{power['energy_nj_total'] / 1e6:>10.3f}")
    if args.output:
        Path(args.output).write_text(json.dumps(points, indent=2) + "\n")
        print(f"power sweep written to {args.output}")
    return 0


def _cmd_asm(args: argparse.Namespace) -> int:
    from repro.riscv.assembler import assemble
    source = Path(args.input).read_text()
    program = assemble(source, base=args.base, compress=args.compress)
    Path(args.output).write_bytes(program.text)
    print(f"{args.output}: {program.size} bytes at {program.base:#x}, "
          f"entry {program.entry:#x}, {len(program.symbols)} symbols")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.riscv.disasm import disassemble
    image = Path(args.input).read_bytes()
    for line in disassemble(image, base=args.base):
        print(line)
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet import run_fleet
    if args.stable and not args.json:
        print("fleet: --stable needs --json (the text report shows wall "
              "time)", file=sys.stderr)
        return 2
    params: dict = {}
    if args.task == "faults":
        params = {"points": args.points, "mode": args.mode}
        if args.kinds:
            params["kinds"] = tuple(args.kinds)
    elif args.task == "unroll":
        if args.factors:
            params = {"factors": tuple(args.factors)}
    elif args.task == "sched":
        params = {"requests": args.requests}
        if args.rates:
            params["rates"] = tuple(args.rates)
        if args.power_cap_mw is not None:
            params["power_cap_mw"] = args.power_cap_mw
        elif args.power:
            params["power"] = True
    report = run_fleet(args.task, workers=args.workers, seed=args.seed,
                       params=params)
    if args.json:
        text = report.stable_json() if args.stable \
            else json.dumps(report.to_dict(), indent=2, sort_keys=True)
        if args.output:
            Path(args.output).write_text(text + "\n")
            print(f"fleet report written to {args.output}")
        else:
            print(text)
    else:
        print(report.render())
        if args.output:
            Path(args.output).write_text(report.stable_json() + "\n")
            print(f"fleet report written to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RV-CAP reproduction: regenerate the paper's results "
                    "and drive the simulated SoC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="regenerate Tables I-IV")
    p.add_argument("which", nargs="*", choices=["1", "2", "3", "4"],
                   help="subset of tables (default: all)")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("fig3", help="reconfiguration time vs RP size")
    p.add_argument("--controller", choices=["rvcap", "hwicap"],
                   default="rvcap")
    p.set_defaults(func=_cmd_fig3)

    p = sub.add_parser("unroll", help="HWICAP loop-unrolling study (ISS)")
    p.add_argument("factors", nargs="*", type=int,
                   default=[1, 2, 4, 8, 16, 32])
    p.set_defaults(func=_cmd_unroll)

    p = sub.add_parser("reconfig", help="run one DPR with trace + stats")
    p.add_argument("module", choices=["sobel", "median", "gaussian"])
    p.add_argument("--controller", choices=["rvcap", "hwicap"],
                   default="rvcap")
    _add_obs_flags(p)
    p.set_defaults(func=_cmd_reconfig)

    p = sub.add_parser("trace", help="run one traced DPR and export "
                                     "Perfetto/VCD/metrics artifacts")
    p.add_argument("module", nargs="?", default="sobel",
                   choices=["sobel", "median", "gaussian"])
    p.add_argument("--chrome", metavar="FILE", default=None,
                   help="write a Perfetto-loadable Chrome trace JSON")
    p.add_argument("--vcd", metavar="FILE", default=None,
                   help="write a VCD signal dump")
    p.add_argument("--metrics", metavar="FILE", default=None,
                   help="write Prometheus text-format metrics")
    p.add_argument("--metrics-json", metavar="FILE", default=None,
                   help="write a JSON metrics snapshot")
    p.add_argument("--no-breakdown", action="store_true",
                   help="skip the Tr latency-breakdown report")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("faults", help="fault-injection sweep: detection "
                                      "and recovery rates")
    p.add_argument("--points", type=int, default=2,
                   help="injection points per fault kind")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--kinds", nargs="*",
                   choices=["ddr-read", "bitflip", "truncate",
                            "dma-reset", "sd-read"],
                   help="subset of fault kinds (default: all)")
    p.add_argument("--mode", choices=["interrupt", "polling"],
                   default="interrupt")
    p.add_argument("--module", default=None,
                   help="RM to reconfigure (default: first registered)")
    p.add_argument("--min-recovery", type=float, default=0.95,
                   help="exit 1 when the recovery rate falls below this")
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("validate", help="fast anchor self-check "
                                        "(~10 s; exit 1 on mismatch)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("report", help="regenerate every result into one "
                                      "markdown report")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--no-unroll", action="store_true",
                   help="skip the (slower) firmware unroll sweep")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("lint", help="static analysis: SoC design-rule "
                                    "checks + source lints")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report "
                        "(alias for --format json)")
    p.add_argument("--format", choices=("human", "json", "sarif"),
                   default=None,
                   help="report format (SARIF 2.1.0 for CI annotation)")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--drc", action="store_true",
                   help="run only the SoC design-rule checks")
    p.add_argument("--ast", action="store_true",
                   help="run only the source-level AST lints")
    p.add_argument("--rules", nargs="*", metavar="RULE_ID",
                   help="restrict the DRC to these rule ids")
    p.add_argument("--suppress", nargs="*", metavar="PATTERN", default=(),
                   help="drop findings matching RULE_ID[:component-glob]")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered DRC rules and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("verify", help="static artifact verification: "
                                      "firmware MMIO/CFG analysis + "
                                      "partial-bitstream checks")
    p.add_argument("--firmware", default=None, metavar="PATH",
                   help="verify a flat firmware binary instead of the "
                        "reference artifacts")
    p.add_argument("--base", default="0x80000000", metavar="ADDR",
                   help="load address of --firmware (default DDR base)")
    p.add_argument("--entry", default=None, metavar="ADDR",
                   help="entry point of --firmware (default: its base)")
    p.add_argument("--bitstream", default=None, metavar="PATH",
                   help="verify a partial-bitstream file instead of the "
                        "reference artifacts")
    p.add_argument("--partition", type=int, default=0,
                   help="partition index --bitstream targets")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report "
                        "(alias for --format json)")
    p.add_argument("--format", choices=("human", "json", "sarif"),
                   default=None,
                   help="report format (SARIF 2.1.0 for CI annotation)")
    p.add_argument("-o", "--output", default=None,
                   help="write the report to a file instead of stdout")
    p.add_argument("--list-rules", action="store_true",
                   help="list registered verifier rules and exit")
    p.set_defaults(func=_cmd_verify)

    def _add_sched_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-kb", type=_cache_kib, default=1024,
                       help="DDR bitstream-cache arena size in KiB "
                            "(at least 1)")
        p.add_argument("--no-sd-cost", action="store_true",
                       help="do not charge simulated SD time on cache "
                            "misses")
        p.add_argument("--batch-limit", type=int, default=64,
                       help="max requests served per ICAP batch")
        p.add_argument("--drop-late", action="store_true",
                       help="drop requests whose deadline passed before "
                            "service instead of running them")
        p.add_argument("--verify", action="store_true",
                       help="statically verify each module's bitstream "
                            "before its first reconfiguration; malformed "
                            "streams finish as status=rejected")
        p.add_argument("--controller", choices=["rvcap", "hwicap"],
                       default="rvcap")
        p.add_argument("--mode", choices=["interrupt", "polling"],
                       default="interrupt",
                       help="reconfiguration completion mode")
        p.add_argument("--json", action="store_true",
                       help="print the report as JSON")
        p.add_argument("-o", "--output", default=None,
                       help="also write the JSON report to a file")
        p.add_argument("--trace-chrome", metavar="FILE", default=None,
                       help="write a Perfetto-loadable Chrome trace JSON")
        p.add_argument("--trace-vcd", metavar="FILE", default=None,
                       help="write a VCD signal dump")
        p.add_argument("--metrics", metavar="FILE", default=None,
                       help="write Prometheus text-format metrics")
        p.add_argument("--metrics-json", metavar="FILE", default=None,
                       help="write a JSON metrics snapshot")
        p.add_argument("--power", action="store_true",
                       help="charge modeled energy to every request "
                            "(calibrated default power profile)")
        p.add_argument("--power-cap-mw", type=float, default=None,
                       metavar="MW",
                       help="peak-power cap: defer reconfigurations so "
                            "the windowed average never exceeds this "
                            "(implies --power)")
        p.add_argument("--power-window-us", type=float, default=200.0,
                       metavar="US",
                       help="averaging window for the power cap "
                            "(default 200 us)")
        p.add_argument("--power-chrome", metavar="FILE", default=None,
                       help="write a Chrome trace with a power_mw "
                            "counter track and per-span energy_nj")
        p.add_argument("--power-vcd", metavar="FILE", default=None,
                       help="write a VCD dump including the power_mw "
                            "signal")

    p = sub.add_parser("sched-bench",
                       help="replay a synthetic request stream through "
                            "the EDF DPR scheduler")
    p.add_argument("--requests", type=int, default=10_000)
    p.add_argument("--rate", type=float, default=2000.0,
                   help="mean arrival rate (requests per simulated "
                        "second)")
    p.add_argument("--modules", type=int, default=8,
                   help="module catalog size (rm0..rmN-1)")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="popularity skew exponent (0 = uniform)")
    p.add_argument("--deadline-slack-us", type=float, default=20_000.0)
    p.add_argument("--slack-jitter", type=float, default=0.5)
    p.add_argument("--frame", type=int, default=64,
                   help="square payload frame edge (pixels)")
    p.add_argument("--no-payload", action="store_true",
                   help="pure reconfiguration requests, no image "
                        "streaming")
    p.add_argument("--timeout-us", type=float, default=None,
                   help="per-request queue timeout")
    p.add_argument("--seed", type=int, default=2026)
    p.add_argument("--prefetch-hot", type=int, default=0,
                   help="warm the cache with the N hottest modules")
    p.add_argument("--sweep", nargs="*", type=float, default=None,
                   metavar="RATE",
                   help="replay at each arrival rate; emit the curve")
    p.add_argument("--emit-trace", metavar="FILE", default=None,
                   help="save the synthesized trace for `repro serve`")
    _add_sched_flags(p)
    p.set_defaults(func=_cmd_sched_bench)

    p = sub.add_parser("serve",
                       help="replay a recorded JSON request trace "
                            "through the scheduler")
    p.add_argument("trace", help="trace file (see sched-bench "
                                 "--emit-trace)")
    p.add_argument("--modules", type=int, default=None,
                   help="catalog size (default: inferred from the "
                        "trace)")
    p.add_argument("--frame", type=int, default=None,
                   help="RM frame edge (default: inferred from the "
                        "trace payloads)")
    _add_sched_flags(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("power", help="cycle-integrated energy/power "
                                     "accounting reports")
    power_sub = p.add_subparsers(dest="power_command", required=True)

    pr = power_sub.add_parser("report",
                              help="energy breakdown of one traced "
                                   "reconfiguration (phases shared with "
                                   "the Tr latency breakdown)")
    pr.add_argument("module", nargs="?", default=None,
                    choices=["sobel", "median", "gaussian"],
                    help="RM to reconfigure (default: first registered)")
    pr.add_argument("--mode", choices=["interrupt", "polling"],
                    default="interrupt")
    pr.add_argument("--json", action="store_true",
                    help="emit the machine-readable breakdown")
    pr.add_argument("-o", "--output", default=None,
                    help="also write the JSON breakdown to a file")
    pr.set_defaults(func=_cmd_power)

    ps = power_sub.add_parser("sweep",
                              help="replay one workload under several "
                                   "peak-power caps; miss-vs-energy curve")
    ps.add_argument("--caps", nargs="+", type=float, required=True,
                    metavar="MW", help="peak-power caps to sweep")
    ps.add_argument("--power-window-us", type=float, default=200.0)
    ps.add_argument("--requests", type=int, default=200)
    ps.add_argument("--rate", type=float, default=2000.0)
    ps.add_argument("--modules", type=int, default=8)
    ps.add_argument("--frame", type=int, default=32)
    ps.add_argument("--deadline-slack-us", type=float, default=20_000.0)
    ps.add_argument("--cache-kb", type=_cache_kib, default=1024,
                    help="DDR bitstream-cache arena size in KiB "
                         "(at least 1)")
    ps.add_argument("--seed", type=int, default=2026)
    ps.add_argument("--json", action="store_true",
                    help="print the curve as JSON")
    ps.add_argument("-o", "--output", default=None,
                    help="also write the JSON curve to a file")
    ps.set_defaults(func=_cmd_power)

    p = sub.add_parser("asm", help="assemble an RV64 source file")
    p.add_argument("input")
    p.add_argument("-o", "--output", default="a.bin")
    p.add_argument("--base", type=lambda x: int(x, 0), default=0x1_0000)
    p.add_argument("--compress", action="store_true",
                   help="enable the RVC relaxation pass")
    p.set_defaults(func=_cmd_asm)

    p = sub.add_parser("disasm", help="disassemble a flat binary image")
    p.add_argument("input")
    p.add_argument("--base", type=lambda x: int(x, 0), default=0x1_0000)
    p.set_defaults(func=_cmd_disasm)

    p = sub.add_parser("fleet", help="shard an evaluation workload over "
                                     "worker processes")
    p.add_argument("task", choices=["faults", "unroll", "sched"])
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial, same report)")
    p.add_argument("--seed", type=int, default=2026,
                   help="campaign seed (default: 2026)")
    p.add_argument("--points", type=int, default=2,
                   help="faults: injections per kind (default: 2)")
    p.add_argument("--kinds", nargs="+", default=None, metavar="KIND",
                   help="faults: subset of fault kinds to sweep")
    p.add_argument("--mode", choices=["interrupt", "polling"],
                   default="interrupt",
                   help="faults: completion-wait mode (default: interrupt)")
    p.add_argument("--factors", nargs="+", type=int, default=None,
                   metavar="N", help="unroll: loop-unroll factors")
    p.add_argument("--rates", nargs="+", type=float, default=None,
                   metavar="RPS", help="sched: arrival rates to sweep")
    p.add_argument("--requests", type=int, default=400,
                   help="sched: requests per rate (default: 400)")
    p.add_argument("--power", action="store_true",
                   help="sched: charge modeled energy to every request")
    p.add_argument("--power-cap-mw", type=float, default=None,
                   metavar="MW",
                   help="sched: peak-power cap for every shard "
                        "(implies --power)")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON")
    p.add_argument("--stable", action="store_true",
                   help="with --json (required): deterministic fields "
                        "only (drops wall time and worker count)")
    p.add_argument("-o", "--output", default=None,
                   help="also write the stable JSON report to a file")
    p.set_defaults(func=_cmd_fleet)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
