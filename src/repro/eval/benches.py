"""Canonical perf-bench workloads, shared by the harness and the CLI.

``benchmarks/perf.py`` times these bodies for the regression gate;
``python -m repro profile`` runs the same bodies under cProfile so the
per-function attribution matches the numbers the gate sees.  Each bench
returns the number of simulated payload bytes it pushed through the
model, so MB/s is comparable across machines.
"""

from __future__ import annotations

from typing import Callable, Dict


def _reference_pbit() -> bytes:
    from repro.eval.scenarios import rp_for_geometry
    from repro.fpga.bitgen import Bitgen
    from repro.fpga.partition import (
        ReconfigurableModule,
        ResourceBudget,
        RpGeometry,
    )

    rp = rp_for_geometry("rp_ref", RpGeometry(25, 4, 3, 1))
    module = ReconfigurableModule("ref_mod", ResourceBudget(1, 1, 0, 0))
    return Bitgen().generate(rp, module).to_bytes()


def bench_bitgen_ref() -> int:
    """Assemble the reference partial bitstream (CRC-heavy)."""
    return len(_reference_pbit())


def bench_icap_stream() -> int:
    """Parse the reference bitstream through a bare ICAP model."""
    from repro.fpga.config_memory import ConfigMemory
    from repro.fpga.device import KINTEX7_325T
    from repro.fpga.icap import Icap

    pbit = _reference_pbit()
    Icap(ConfigMemory(KINTEX7_325T)).accept(pbit, 0)
    return len(pbit)


def bench_e2e_reconfig() -> int:
    """Full DMA -> ICAP reconfiguration of the reference bitstream."""
    from repro.eval.throughput import measure_reconfiguration

    pbit = _reference_pbit()
    measure_reconfiguration(pbit)
    return len(pbit)


def bench_table2() -> int:
    """Reproduce Table II (RV-CAP and HWICAP throughput rows)."""
    from repro.eval.tables import table2

    table2()
    # both controller rows stream the reference partial bitstream
    return 2 * 650_892


def bench_table2_obs() -> int:
    """Table II with full observability attached (tracer-on cost)."""
    from repro.eval.tables import table2
    from repro.obs import Observability, set_default_observability

    set_default_observability(Observability())
    try:
        table2()
    finally:
        set_default_observability(None)
    return 2 * 650_892


def bench_iss_unroll() -> int:
    """Firmware-driven unroll sweep at factor 16 (ISS-bound)."""
    from repro.eval.figures import unroll_sweep

    unroll_sweep((16,))
    return 133_772


def bench_sched_replay() -> int:
    """Replay a 400-request stream through the asyncio DPR scheduler."""
    from repro.sched import WorkloadSpec, bench

    spec = WorkloadSpec(requests=400, arrival_rate_rps=2000.0, modules=8,
                        frame=32, deadline_slack_us=20_000.0, seed=2026)
    report = bench(spec, cache_bytes=1 << 20)
    # payload bytes streamed both directions plus SD-faulted pbit bytes
    frame_bytes = spec.frame * spec.frame
    return 2 * frame_bytes * report.completed + \
        int(report.cache["sd_bytes_loaded"])


def bench_power_replay() -> int:
    """bench_sched_replay's workload with full power accounting on.

    Same spec, platform and request stream as ``sched_replay`` plus a
    power profile and peak-power governor, so the pair measures exactly
    the marginal cost of energy accounting on the serving path (the
    ``power_replay`` A/B gate in benchmarks/perf.py).
    """
    from repro.power import DEFAULT_PROFILE
    from repro.sched import WorkloadSpec, bench

    spec = WorkloadSpec(requests=400, arrival_rate_rps=2000.0, modules=8,
                        frame=32, deadline_slack_us=20_000.0, seed=2026)
    report = bench(spec, cache_bytes=1 << 20,
                   power_profile=DEFAULT_PROFILE, peak_power_mw=400.0,
                   power_window_us=2000.0)
    frame_bytes = spec.frame * spec.frame
    return 2 * frame_bytes * report.completed + \
        int(report.cache["sd_bytes_loaded"])


def bench_fault_sweep() -> int:
    """One fault-campaign point per fault kind on the reference SoC."""
    from repro.eval.fault_sweep import fault_sweep
    from repro.faults.campaign import sweep_kinds

    report = fault_sweep(points=1, seed=2026)
    return report.points * 650_892 if report.points else len(sweep_kinds(None)) * 650_892


BENCHES: Dict[str, Callable[[], int]] = {
    "bitgen_ref": bench_bitgen_ref,
    "icap_stream": bench_icap_stream,
    "e2e_reconfig": bench_e2e_reconfig,
    "table2": bench_table2,
    "table2_obs": bench_table2_obs,
    "iss_unroll": bench_iss_unroll,
    "fault_sweep": bench_fault_sweep,
    "sched_replay": bench_sched_replay,
    "power_replay": bench_power_replay,
}
