"""Regenerate the paper's tables from live simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.accel import GOLDEN_FILTERS, scene_image
from repro.drivers.manager import ExecutionTimes
from repro.eval.baselines import BASELINES
from repro.eval.figures import unroll_sweep
from repro.eval.scenarios import fig3_geometries, reference_setup
from repro.eval.throughput import measure_size_sweep
from repro.resources.library import (
    axi_dma,
    axi_hwicap_ip,
    full_soc_report,
    hwicap_axi_modules,
    hwicap_controller,
    reconfigurable_partition,
    rp_control_and_axi_modules,
    rvcap_controller,
)
from repro.resources.model import ResourceCost


def _fmt_row(cells: list, widths: list[int]) -> str:
    return "  ".join(str(c).ljust(w) for c, w in zip(cells, widths,
                                                      strict=True))


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
@dataclass
class Table1Row:
    controller: str
    module: str
    resources: ResourceCost
    throughput_mb_s: Optional[float] = None


@dataclass
class Table1:
    rows: List[Table1Row] = field(default_factory=list)

    def throughput(self, controller: str) -> float:
        for row in self.rows:
            if row.controller == controller and row.throughput_mb_s is not None:
                return row.throughput_mb_s
        raise KeyError(controller)

    def render(self) -> str:
        widths = [12, 26, 7, 7, 6, 12]
        lines = [_fmt_row(["Controller", "Modules", "LUTs", "FFs", "BRAMs",
                           "Tput (MB/s)"], widths)]
        for row in self.rows:
            tput = f"{row.throughput_mb_s:.2f}" if row.throughput_mb_s else ""
            lines.append(_fmt_row(
                [row.controller, row.module, row.resources.luts,
                 row.resources.ffs, row.resources.brams, tput], widths))
        return "\n".join(lines)


def table1() -> Table1:
    """Table I: RV-CAP vs AXI_HWICAP resources and throughput.

    RV-CAP throughput is the sweep maximum (the paper's 398.1 MB/s
    point).  The HWICAP number runs the Listing-2 copy loop, unrolled
    16x, as real RISC-V firmware on the ISS (the paper's measurement is
    instruction-level) over a reduced bitstream — the CPU-copy
    throughput is size-insensitive.
    """
    # throughput: RV-CAP at the largest Fig.3 sweep point
    sweep = measure_size_sweep([fig3_geometries()[-1]])
    rvcap_tput = sweep[0].throughput_mb_s
    hwicap_tput = unroll_sweep((16,)).points[0].throughput_mb_s

    table = Table1()
    table.rows.append(Table1Row("RV-CAP", "RP cntrl. + AXI modules",
                                rp_control_and_axi_modules(), rvcap_tput))
    table.rows.append(Table1Row("RV-CAP", "DMA Cntrl.", axi_dma()))
    table.rows.append(Table1Row("AXI_HWICAP", "HWICAP AXI modules",
                                hwicap_axi_modules(), hwicap_tput))
    table.rows.append(Table1Row("AXI_HWICAP", "AXI_HWICAP", axi_hwicap_ip()))
    return table


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------
@dataclass
class Table2Row:
    name: str
    processor: str
    custom_drivers: bool
    resources: ResourceCost
    throughput_mb_s: float
    freq_mhz: float
    is_ours: bool = False


@dataclass
class Table2:
    rows: List[Table2Row] = field(default_factory=list)

    def render(self) -> str:
        widths = [34, 11, 8, 7, 7, 6, 12, 6]
        lines = [_fmt_row(["DPR Controller", "Processor", "Drivers", "LUTs",
                           "FFs", "BRAMs", "Tput (MB/s)", "MHz"], widths)]
        for row in self.rows:
            lines.append(_fmt_row(
                [row.name, row.processor, "yes" if row.custom_drivers else "-",
                 row.resources.luts, row.resources.ffs, row.resources.brams,
                 f"{row.throughput_mb_s:.2f}", int(row.freq_mhz)], widths))
        return "\n".join(lines)

    def ours(self) -> List[Table2Row]:
        return [row for row in self.rows if row.is_ours]


def table2(*, measured_rvcap: float | None = None,
           measured_hwicap: float | None = None) -> Table2:
    """Table II: the state-of-the-art comparison.

    Third-party rows carry published values (validated against each
    controller's architecture model); our two rows are measured unless
    values are passed in.
    """
    table = Table2()
    for baseline in BASELINES:
        table.rows.append(Table2Row(
            name=baseline.name,
            processor=baseline.processor,
            custom_drivers=baseline.custom_drivers,
            resources=baseline.resources,
            throughput_mb_s=baseline.published_throughput_mb_s,
            freq_mhz=baseline.freq_mhz,
        ))
    if measured_hwicap is None or measured_rvcap is None:
        t1 = table1()
        measured_rvcap = measured_rvcap or t1.throughput("RV-CAP")
        measured_hwicap = measured_hwicap or t1.throughput("AXI_HWICAP")
    table.rows.append(Table2Row(
        name="Xilinx AXI_HWICAP (with RISC-V)", processor="RV64GC",
        custom_drivers=True, resources=hwicap_controller(),
        throughput_mb_s=measured_hwicap, freq_mhz=100, is_ours=True))
    table.rows.append(Table2Row(
        name="RV-CAP", processor="RV64GC", custom_drivers=True,
        resources=rvcap_controller(), throughput_mb_s=measured_rvcap,
        freq_mhz=100, is_ours=True))
    return table


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------
@dataclass
class Table3Row:
    component: str
    resources: ResourceCost
    rp_utilization: Optional[dict] = None  # for RM rows


@dataclass
class Table3:
    rows: List[Table3Row] = field(default_factory=list)

    def component(self, name: str) -> Table3Row:
        for row in self.rows:
            if row.component == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        widths = [26, 7, 7, 6, 5, 30]
        lines = [_fmt_row(["Component", "LUTs", "FFs", "BRAMs", "DSPs",
                           "% of RP (L/F/B/D)"], widths)]
        for row in self.rows:
            pct = ""
            if row.rp_utilization:
                u = row.rp_utilization
                pct = (f"{u['luts']:.2f}/{u['ffs']:.2f}/"
                       f"{u['brams']:.2f}/{u['dsps']:.2f}")
            r = row.resources
            lines.append(_fmt_row([row.component, r.luts, r.ffs, r.brams,
                                   r.dsps, pct], widths))
        return "\n".join(lines)


def table3() -> Table3:
    """Table III: full-SoC utilization with the RM breakdown."""
    from repro.accel import ACCELERATOR_RESOURCES
    report = full_soc_report()
    table = Table3()
    table.rows.append(Table3Row("Full SoC", report.total))
    for child in report.children:
        table.rows.append(Table3Row(child.name, child.total))
    rp_budget = reconfigurable_partition()
    for name in ("gaussian", "median", "sobel"):
        res = ACCELERATOR_RESOURCES[name]
        cost = ResourceCost(res.luts, res.ffs, res.brams, res.dsps)
        table.rows.append(Table3Row(
            f"RM: {name.capitalize()}", cost,
            rp_utilization=cost.utilization_of(rp_budget)))
    return table


# ---------------------------------------------------------------------------
# Table IV
# ---------------------------------------------------------------------------
@dataclass
class Table4:
    rows: List[ExecutionTimes] = field(default_factory=list)
    outputs_match_golden: bool = True

    def row(self, name: str) -> ExecutionTimes:
        for row in self.rows:
            if row.accelerator == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        widths = [12, 10, 10, 10, 10]
        lines = [_fmt_row(["Accelerator", "Td (us)", "Tr (us)", "Tc (us)",
                           "Tex (us)"], widths)]
        for row in self.rows:
            lines.append(_fmt_row(
                [row.accelerator, f"{row.td_us:.1f}", f"{row.tr_us:.1f}",
                 f"{row.tc_us:.1f}", f"{row.tex_us:.1f}"], widths))
        return "\n".join(lines)


def table4(image: np.ndarray | None = None) -> Table4:
    """Table IV: the adaptive image-processing case study."""
    _soc, manager = reference_setup()
    image = image if image is not None else scene_image(512)
    table = Table4()
    for name in ("gaussian", "median", "sobel"):
        output, times = manager.process_image(name, image)
        table.rows.append(times)
        if not np.array_equal(output, GOLDEN_FILTERS[name](image)):
            table.outputs_match_golden = False
    return table
