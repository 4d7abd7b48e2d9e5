"""Regenerate the paper's figures (data series; plotting left to the
caller — these are terminal benchmarks, not a plotting package)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.eval.scenarios import fig3_geometries, rp_for_geometry
from repro.eval.throughput import SweepPoint, measure_size_sweep
from repro.firmware import build_hwicap_firmware, run_firmware
from repro.fpga.bitgen import Bitgen
from repro.fpga.partition import ReconfigurableModule, ResourceBudget, RpGeometry
from repro.soc.builder import build_soc


@dataclass
class Fig3Series:
    """Fig. 3: reconfiguration time vs RP (bitstream) size."""

    points: List[SweepPoint] = field(default_factory=list)

    @property
    def max_throughput_mb_s(self) -> float:
        return max(p.throughput_mb_s for p in self.points)

    def render(self) -> str:
        lines = [f"{'RP':8} {'PB bytes':>10} {'Tr (us)':>10} {'MB/s':>8}"]
        for p in self.points:
            lines.append(f"{p.name:8} {p.pbit_bytes:>10} {p.tr_us:>10.1f} "
                         f"{p.throughput_mb_s:>8.2f}")
        lines.append(f"max throughput: {self.max_throughput_mb_s:.1f} MB/s "
                     "(paper: 398.1)")
        return "\n".join(lines)


def fig3_series(*, controller: str = "rvcap") -> Fig3Series:
    """Measure the Fig. 3 sweep (reconfiguration time vs RP size)."""
    return Fig3Series(points=measure_size_sweep(fig3_geometries(),
                                                controller=controller))


@dataclass
class UnrollPoint:
    """One point of the Sec. IV-B loop-unrolling study."""

    unroll: int
    tr_us: float
    throughput_mb_s: float
    instructions: int


@dataclass
class UnrollSweep:
    points: List[UnrollPoint] = field(default_factory=list)

    def point(self, unroll: int) -> UnrollPoint:
        for p in self.points:
            if p.unroll == unroll:
                return p
        raise KeyError(unroll)

    def gain_beyond_16(self) -> float:
        """Relative throughput gain of the largest unroll over 16x."""
        beyond = [p for p in self.points if p.unroll > 16]
        if not beyond:
            return 0.0
        best = max(p.throughput_mb_s for p in beyond)
        return best / self.point(16).throughput_mb_s - 1.0

    def render(self) -> str:
        lines = [f"{'unroll':>6} {'Tr (us)':>12} {'MB/s':>8} {'instr':>10}"]
        for p in self.points:
            lines.append(f"{p.unroll:>6} {p.tr_us:>12.1f} "
                         f"{p.throughput_mb_s:>8.2f} {p.instructions:>10}")
        lines.append(
            f"gain beyond 16x: {100 * self.gain_beyond_16():.1f}% (paper: <5%)")
        return "\n".join(lines)


def unroll_sweep(unrolls: tuple[int, ...] = (1, 2, 4, 8, 16, 32), *,
                 geometry: RpGeometry | None = None) -> UnrollSweep:
    """The Sec. IV-B unroll study, run as firmware on the ISS.

    Uses a reduced bitstream by default (throughput is size-insensitive
    for the CPU-copy path); pass the reference geometry for the full
    650 892-byte measurement.
    """
    geometry = geometry or RpGeometry(4, 1, 1, 1)
    rp = rp_for_geometry("unroll_rp", geometry)
    module = ReconfigurableModule("unroll_mod", ResourceBudget(1, 1, 0, 0))
    pbit = Bitgen().generate(rp, module).to_bytes()
    sweep = UnrollSweep()
    for unroll in unrolls:
        soc = build_soc(with_case_study_modules=False)
        src = soc.config.layout.ddr_base + (16 << 20)
        soc.ddr_write(src, pbit)
        firmware = build_hwicap_firmware(src, len(pbit), unroll=unroll)
        result = run_firmware(soc, firmware)
        if not result.done or soc.icap.outcome != "configured":
            raise RuntimeError(f"unroll={unroll} firmware run failed")
        us = result.elapsed_us()
        sweep.points.append(UnrollPoint(
            unroll=unroll,
            tr_us=us,
            throughput_mb_s=len(pbit) / (us * 1e-6) / 1e6,
            instructions=result.instructions,
        ))
    return sweep
