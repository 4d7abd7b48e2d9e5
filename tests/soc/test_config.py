"""Configuration dataclass semantics."""

import dataclasses

import pytest

from repro.mem.ddr import DdrTiming
from repro.riscv.timing import CpuTiming
from repro.soc.config import MemoryLayout, SocConfig, TimingParams


class TestImmutability:
    def test_layout_is_frozen(self):
        layout = MemoryLayout()
        with pytest.raises(dataclasses.FrozenInstanceError):
            layout.ddr_base = 0

    def test_timing_is_frozen(self):
        timing = TimingParams()
        with pytest.raises(dataclasses.FrozenInstanceError):
            timing.decision_cycles = 0

    def test_config_is_frozen(self):
        config = SocConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dma_max_burst = 99


class TestCalibrationAnchors:
    """The calibrated constants EXPERIMENTS.md documents, pinned.

    These tests exist to make accidental calibration drift loud: if a
    default changes, the paper-anchored numbers move too, and the
    change must be deliberate (update EXPERIMENTS.md alongside).
    """

    def test_clock_and_timebase(self):
        timing = TimingParams()
        assert timing.soc_freq_hz == 100e6
        assert timing.clint_divider == 20  # 5 MHz, Sec. IV-B

    def test_driver_constants(self):
        timing = TimingParams()
        assert timing.decision_cycles == 1640   # T_d = 18 us
        # 2080 + the ISR's DMASR cause read keeps T_r = 1651 us
        assert timing.isr_latency_cycles == 2080

    def test_cpu_mmio_constants(self):
        cpu = CpuTiming()
        assert cpu.mmio_issue_overhead == 12
        assert cpu.noncacheable_store_cost == 24
        assert cpu.mmio_after_branch_block == 43  # 4.16 / 8.23 MB/s
        assert cpu.branch_taken_penalty == 5

    def test_reference_knobs(self):
        config = SocConfig()
        assert config.dma_max_burst == 16        # Sec. IV-A
        assert config.hwicap_fifo_words == 1024  # Sec. III-C resize
        assert config.num_rps == 1

    def test_ddr_defaults(self):
        ddr = DdrTiming()
        assert ddr.bytes_per_beat == 8           # 64-bit AXI
        assert ddr.device_beats_per_cycle == 0   # uncapped MIG core


class TestDerivedViews:
    def test_custom_layout_flows_through(self):
        layout = MemoryLayout()
        custom = dataclasses.replace(layout, ddr_size=64 << 20)
        assert custom.is_cacheable(custom.ddr_base + (64 << 20) - 1)
        assert not custom.is_cacheable(custom.ddr_base + (64 << 20))

    def test_config_composition(self):
        config = SocConfig(dma_max_burst=32, num_rps=2)
        assert config.dma_max_burst == 32
        assert config.timing.cpu.base_cpi == 1
