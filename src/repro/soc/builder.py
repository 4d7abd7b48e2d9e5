"""SoC assembly: instantiate and wire every component (Fig. 1 + Fig. 2).

``build_soc`` produces the paper's reference platform:

* main 64-bit AXI-4 crossbar with the hart as master;
* boot ROM, CLINT (5 MHz timebase), PLIC, UART, SPI+SD card;
* DDR controller reachable from both the main crossbar and the
  RV-CAP-internal crossbar (the "additional crossbar" of Sec. III-B);
* the RV-CAP controller (DMA + AXIS switch + AXIS2ICAP + RP control)
  with its 32-bit control ports behind 64->32 width and AXI4->Lite
  protocol converters;
* the AXI_HWICAP baseline behind the same converter chain, sharing the
  one physical ICAP primitive;
* one reconfigurable partition with AXI isolation, hosting the three
  image-filter RMs of the case study.
"""

from __future__ import annotations

from repro.axi.crossbar import AxiCrossbar
from repro.axi.interface import AxiSlave
from repro.axi.isolator import AxiIsolator
from repro.axi.protocol_converter import Axi4ToLiteConverter
from repro.axi.width_converter import AxiWidthConverter
from repro.core.hwicap import AxiHwIcap
from repro.core.rvcap import RvCapController
from repro.fpga.bitgen import Bitgen
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.partition import ReconfigurablePartition, make_reference_rp
from repro.mem.bootrom import BootRom
from repro.mem.ddr import DdrController
from repro.soc.clint import Clint
from repro.soc.config import IRQ_DMA_MM2S, IRQ_DMA_S2MM, SocConfig
from repro.soc.plic import Plic
from repro.soc.sdcard import SdCard
from repro.soc.soc import Soc
from repro.soc.spi import SpiController
from repro.soc.uart import Uart
from repro.accel import make_filter_module


def _lite_port(slave: AxiSlave, *, stage_latency: int = 1) -> AxiWidthConverter:
    """The converter chain every 32-bit control port sits behind."""
    return AxiWidthConverter(
        Axi4ToLiteConverter(slave, stage_latency=stage_latency),
        wide_bytes=8,
        narrow_bytes=4,
        stage_latency=stage_latency,
    )


def build_soc(config: SocConfig | None = None, *,
              with_case_study_modules: bool = True) -> Soc:
    """Build the reference SoC; returns a fully wired :class:`Soc`."""
    config = config or SocConfig()
    soc = Soc(config)
    sim = soc.sim
    layout = config.layout
    timing = config.timing

    # memories ----------------------------------------------------------
    soc.ddr = DdrController(layout.ddr_size, timing=timing.ddr)
    soc.bootrom = BootRom(layout.bootrom_size)

    # FPGA configuration fabric ------------------------------------------
    soc.config_memory = ConfigMemory(KINTEX7_325T)
    soc.icap = Icap(soc.config_memory, crc_check=config.icap_crc_check)
    soc.icap.on_complete = soc.on_reconfiguration_complete
    soc.bitgen = Bitgen(KINTEX7_325T)
    # one or more reconfigurable partitions, floorplanned back to back
    base = make_reference_rp()
    soc.partitions = [base]
    for index in range(1, config.num_rps):
        previous = soc.partitions[-1]
        soc.partitions.append(ReconfigurablePartition(
            name=f"rp{index}",
            geometry=previous.geometry,
            budget=previous.budget,
            base_far=previous.base_far.advance(previous.frames + 64),
            device=previous.device,
        ))

    # interconnect --------------------------------------------------------
    soc.xbar = AxiCrossbar("main_xbar")
    # the "additional crossbar" between the RV-CAP DMA and the DDR
    # controller (Sec. III-B): one per DMA master port, modelling the
    # real crossbar's independent per-master paths into separate MIG
    # ports so MM2S and S2MM stream concurrently in acceleration mode
    soc.dma_xbar = AxiCrossbar("rvcap_xbar_mm2s")
    soc.dma_xbar.attach("ddr", layout.ddr_base, layout.ddr_size,
                        soc.ddr.port("dma_mm2s"))
    dma_xbar_s2mm = AxiCrossbar("rvcap_xbar_s2mm")
    dma_xbar_s2mm.attach("ddr", layout.ddr_base, layout.ddr_size,
                         soc.ddr.port("dma_s2mm"))

    # RV-CAP controller ----------------------------------------------------
    soc.rvcap = RvCapController(
        sim,
        soc.dma_xbar,
        soc.icap,
        ddr_port_s2mm=dma_xbar_s2mm,
        burst_beats=config.dma_max_burst,
    )
    for _ in range(1, config.num_rps):
        soc.rvcap.add_rm_port()

    # AXI_HWICAP baseline (shares the one ICAP primitive) -------------------
    soc.hwicap = AxiHwIcap(soc.icap, fifo_words=config.hwicap_fifo_words)

    # peripherals -----------------------------------------------------------
    soc.clint = Clint(sim, divider=timing.clint_divider)
    soc.plic = Plic(sim, latency=timing.plic_latency)
    soc.uart = Uart()
    soc.spi = SpiController()
    soc.sdcard = SdCard()
    soc.spi.attach_device(soc.sdcard)

    # DMA interrupts into the PLIC (non-blocking reconfiguration mode);
    # the irq_sources map is the declared wiring the DRC audits
    soc.irq_sources = {"dma_mm2s": IRQ_DMA_MM2S, "dma_s2mm": IRQ_DMA_S2MM}
    soc.rvcap.dma.mm2s.irq_callback = lambda: soc.plic.raise_irq(IRQ_DMA_MM2S)
    soc.rvcap.dma.s2mm.irq_callback = lambda: soc.plic.raise_irq(IRQ_DMA_S2MM)

    # main crossbar memory map ------------------------------------------------
    xbar = soc.xbar
    xbar.attach("bootrom", layout.bootrom_base, layout.bootrom_size, soc.bootrom)
    xbar.attach("clint", layout.clint_base, layout.clint_size, soc.clint)
    xbar.attach("plic", layout.plic_base, layout.plic_size, soc.plic)
    xbar.attach("uart", layout.uart_base, layout.uart_size,
                _lite_port(soc.uart))
    xbar.attach("spi", layout.spi_base, layout.spi_size, _lite_port(soc.spi))
    xbar.attach("rp_ctrl", layout.rp_ctrl_base, layout.rp_ctrl_size,
                _lite_port(soc.rvcap.rp_control))
    xbar.attach("dma", layout.dma_base, layout.dma_size,
                _lite_port(soc.rvcap.dma))
    xbar.attach("hwicap", layout.hwicap_base, layout.hwicap_size,
                _lite_port(soc.hwicap))
    # the RM's memory-mapped control port sits behind a PR decoupler
    rm_isolator = AxiIsolator(_lite_port(soc.rvcap.rp_control), "rm_isolator")
    soc.rvcap.rp_control.attach_isolator(rm_isolator)
    xbar.attach("rm", layout.rm_base, layout.rm_size, rm_isolator)
    xbar.attach("ddr", layout.ddr_base, layout.ddr_size, soc.ddr)

    # case-study modules -----------------------------------------------------
    if with_case_study_modules:
        for behavior in ("sobel", "median", "gaussian"):
            soc.register_module(make_filter_module(behavior))

    # a process-wide default observability (set by the fleet runner
    # around each unit) instruments every SoC built while installed —
    # including ones evaluation workloads construct internally
    from repro.obs import get_default_observability
    default_obs = get_default_observability()
    if default_obs is not None:
        soc.attach_observability(default_obs)

    return soc
