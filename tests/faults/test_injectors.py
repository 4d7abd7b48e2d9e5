"""Unit coverage for the fault injectors themselves."""

import pytest

from repro.errors import FilesystemError
from repro.fat32.blockdev import RamBlockDevice
from repro.faults.injectors import (
    DmaResetInjector,
    FaultPlan,
    FaultyAxiPort,
    FaultyBlockDevice,
    flip_word_bit,
    truncate_at_word,
)
from repro.mem.ddr import DdrController


@pytest.fixture()
def ddr():
    return DdrController(1 << 20)


class TestFaultyAxiPort:
    def test_clean_passthrough(self, ddr):
        ddr.load_image(0, b"abcdefgh")
        proxy = FaultyAxiPort(ddr)
        result = proxy.read(0, 8, 0)
        assert result.ok and result.data == b"abcdefgh"
        assert proxy.faults_injected == 0

    def test_read_fault_at_cumulative_offset(self, ddr):
        proxy = FaultyAxiPort(ddr, fail_read_at=256)
        assert proxy.read(0, 128, 0).ok      # bytes 0..127
        assert proxy.read(128, 128, 0).ok    # bytes 128..255
        assert not proxy.read(256, 128, 0).ok  # contains byte 256
        assert proxy.faults_injected == 1

    def test_once_disarms_after_firing(self, ddr):
        proxy = FaultyAxiPort(ddr, fail_read_at=0)
        assert not proxy.read(0, 64, 0).ok
        assert proxy.read(0, 64, 0).ok
        assert not proxy.armed

    def test_hard_fault_keeps_failing(self, ddr):
        proxy = FaultyAxiPort(ddr, fail_read_at=64, once=False)
        assert proxy.read(0, 64, 0).ok
        assert not proxy.read(64, 64, 0).ok
        assert not proxy.read(128, 64, 0).ok

    def test_write_fault(self, ddr):
        proxy = FaultyAxiPort(ddr, fail_write_at=16)
        assert proxy.write(0, b"x" * 16, 0).ok
        assert not proxy.write(16, b"x" * 16, 0).ok

    def test_disarmed_never_fires(self, ddr):
        proxy = FaultyAxiPort(ddr, fail_read_at=32)
        proxy.disarm()
        assert proxy.read(0, 64, 0).ok  # would have tripped
        proxy.arm()
        proxy.fail_read_at = proxy.read_bytes + 32
        assert not proxy.read(64, 64, 0).ok


class TestFaultyBlockDevice:
    def test_fails_chosen_read_ordinal(self):
        inner = RamBlockDevice(64)
        device = FaultyBlockDevice(inner, fail_at_read=2)
        device.read_block(0)
        device.read_block(1)
        with pytest.raises(FilesystemError):
            device.read_block(2)
        device.read_block(3)  # once: subsequent reads succeed
        assert device.faults_injected == 1

    def test_fails_chosen_lba(self):
        device = FaultyBlockDevice(RamBlockDevice(64), fail_lba=7)
        device.read_block(6)
        with pytest.raises(FilesystemError):
            device.read_block(7)

    def test_writes_pass_through(self):
        inner = RamBlockDevice(64)
        device = FaultyBlockDevice(inner, fail_at_read=0)
        device.write_block(3, bytes(512))
        assert inner.reads == 0 and inner.writes == 1


class TestBitstreamCorruptions:
    def test_flip_word_bit_roundtrip(self):
        data = bytes(range(16))
        flipped = flip_word_bit(data, 1, 5)
        assert flipped != data
        assert flip_word_bit(flipped, 1, 5) == data
        assert len(flipped) == len(data)

    def test_flip_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            flip_word_bit(bytes(8), 2, 0)
        with pytest.raises(ValueError):
            flip_word_bit(bytes(8), 0, 32)

    def test_truncate_at_word(self):
        data = bytes(range(16))
        assert truncate_at_word(data, 2) == data[:8]
        with pytest.raises(ValueError):
            truncate_at_word(data, 0)


class TestDmaResetInjector:
    def test_fires_only_when_busy(self):
        from repro.axi.stream import CaptureSink
        from repro.core import dma as dr
        from repro.core.dma import AxiDma
        from repro.sim import Simulator

        sim = Simulator()
        ddr = DdrController(1 << 20)
        dma = AxiDma(sim, ddr)
        dma.mm2s.sink = CaptureSink(bytes_per_cycle=4)
        injector = DmaResetInjector(sim, dma.mm2s, delay_cycles=500)
        dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_LENGTH, (32 * 1024).to_bytes(4, "little"), 0)
        sim.run()
        assert injector.fired
        assert dma.mm2s.transfers_aborted == 1
        assert dma.mm2s.transfers_completed == 0

    def test_cancel_prevents_firing(self):
        from repro.axi.stream import CaptureSink
        from repro.core import dma as dr
        from repro.core.dma import AxiDma
        from repro.sim import Simulator

        sim = Simulator()
        ddr = DdrController(1 << 20)
        dma = AxiDma(sim, ddr)
        dma.mm2s.sink = CaptureSink(bytes_per_cycle=4)
        injector = DmaResetInjector(sim, dma.mm2s, delay_cycles=500)
        injector.cancel()
        dma.write(dr.MM2S_DMACR, dr.CR_RS.to_bytes(4, "little"), 0)
        dma.write(dr.MM2S_LENGTH, (32 * 1024).to_bytes(4, "little"), 0)
        sim.run()
        assert not injector.fired
        assert dma.mm2s.transfers_completed == 1


class TestFaultPlan:
    def test_same_seed_same_points(self):
        a, b = FaultPlan(42), FaultPlan(42)
        assert [a.byte_offset(10_000) for _ in range(5)] \
            == [b.byte_offset(10_000) for _ in range(5)]
        assert a.word_index(1000) == b.word_index(1000)
        assert a.bit() == b.bit()

    def test_points_land_in_middle_half(self):
        plan = FaultPlan(7)
        for _ in range(100):
            offset = plan.byte_offset(1000)
            assert 250 <= offset < 750
            word = plan.word_index(1000)
            assert 250 <= word < 750
