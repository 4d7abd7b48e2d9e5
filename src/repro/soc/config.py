"""Reference SoC configuration: memory map, clocks, timing parameters.

The values mirror the paper's evaluation platform (Sec. IV-A): a
Kintex-7 XC7K325T (Genesys2) with every SoC component clocked at
100 MHz — the ICAP ceiling on 7-series — and the CLINT real-time
counter at 5 MHz.  ``TimingParams`` collects every calibratable
constant in one place; EXPERIMENTS.md documents which paper numbers
anchor each one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mem.ddr import DdrTiming
from repro.riscv.timing import CpuTiming


@dataclass(frozen=True)
class MemoryLayout:
    """Address windows of the reference SoC (see DESIGN.md §5)."""

    bootrom_base: int = 0x0001_0000
    bootrom_size: int = 192 * 1024
    clint_base: int = 0x0200_0000
    clint_size: int = 0x1_0000
    plic_base: int = 0x0C00_0000
    plic_size: int = 0x40_0000
    uart_base: int = 0x1000_0000
    uart_size: int = 0x1000
    spi_base: int = 0x2000_0000
    spi_size: int = 0x1000
    rp_ctrl_base: int = 0x3000_0000
    rp_ctrl_size: int = 0x1000
    dma_base: int = 0x3000_1000
    dma_size: int = 0x1000
    hwicap_base: int = 0x3000_2000
    hwicap_size: int = 0x1000
    rm_base: int = 0x3000_3000
    rm_size: int = 0x1000
    ddr_base: int = 0x8000_0000
    ddr_size: int = 256 * 1024 * 1024

    def is_cacheable(self, addr: int) -> bool:
        """Cacheable = main memory; everything else is device space."""
        in_ddr = self.ddr_base <= addr < self.ddr_base + self.ddr_size
        in_rom = self.bootrom_base <= addr < self.bootrom_base + self.bootrom_size
        return in_ddr or in_rom

    def is_mmio(self, addr: int) -> bool:
        return not self.is_cacheable(addr)


#: PLIC interrupt source numbers
IRQ_DMA_MM2S = 1
IRQ_DMA_S2MM = 2
IRQ_SPI = 3
IRQ_UART = 4


@dataclass(frozen=True)
class TimingParams:
    """All calibratable timing constants of the platform model."""

    #: SoC clock (Hz); fixed by the 7-series ICAP ceiling
    soc_freq_hz: float = 100e6
    #: CLINT timebase divider (100 MHz / 20 = 5 MHz, as measured with
    #: in the paper, quantizing timings to 200 ns)
    clint_divider: int = 20
    cpu: CpuTiming = field(default_factory=CpuTiming)
    ddr: DdrTiming = field(default_factory=DdrTiming)
    #: interrupt wire propagation + PLIC gateway latching
    plic_latency: int = 3
    #: host-driver mode: software decision time before a reconfiguration
    #: is issued — looking up the RM table and preparing the descriptor
    #: (the paper's T_d = 18 us at 100 MHz)
    decision_cycles: int = 1640
    #: interrupt service latency: trap entry, context save, dispatch to
    #: the completion handler and return (non-blocking mode, Sec. IV-B);
    #: calibrated together with the handler's DMASR cause read so the
    #: reference reconfiguration lands on the paper's Tr = 1651 us
    isr_latency_cycles: int = 2080
    #: driver-side completion deadline for one reconfiguration; ~12x the
    #: reference Tr of 1651 us, so only a genuinely stuck transfer trips
    reconfig_timeout_us: float = 20_000.0
    #: initial recover-and-retry backoff (doubles per failed attempt)
    recovery_backoff_us: float = 100.0


@dataclass(frozen=True)
class SocConfig:
    """Aggregate configuration for :func:`repro.soc.builder.build_soc`."""

    layout: MemoryLayout = field(default_factory=MemoryLayout)
    timing: TimingParams = field(default_factory=TimingParams)
    #: depth of the AXI_HWICAP write FIFO in 32-bit words; the paper
    #: resizes the stock IP's FIFO to 1024 (Sec. III-C)
    hwicap_fifo_words: int = 1024
    #: maximum AXI burst length of the RV-CAP DMA in beats (Sec. IV-A)
    dma_max_burst: int = 16
    #: number of reconfigurable partitions ("one or more RPs can be
    #: created", Sec. III-A); the reference evaluation uses one
    num_rps: int = 1
