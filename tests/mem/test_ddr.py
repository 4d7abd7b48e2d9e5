import pytest

from repro.axi.types import AxiResp
from repro.mem.ddr import DdrController, DdrTiming


@pytest.fixture()
def ddr():
    return DdrController(1 << 24)


class TestFunctional:
    def test_write_read_roundtrip(self, ddr):
        ddr.write(0x1000, b"payload!", now=0)
        assert ddr.read(0x1000, 8, now=10).data == b"payload!"

    def test_out_of_range(self, ddr):
        assert ddr.read(1 << 24, 8, now=0).resp is AxiResp.SLVERR

    def test_backdoor_zero_time(self, ddr):
        ddr.load_image(0x2000, b"backdoor")
        assert ddr.dump(0x2000, 8) == b"backdoor"
        assert ddr.bytes_read == 0 and ddr.bytes_written == 0

    def test_traffic_counters(self, ddr):
        ddr.write(0x0, b"\x00" * 128, now=0)
        ddr.read(0x0, 64, now=200)
        assert ddr.bytes_written == 128 and ddr.bytes_read == 64


class TestTiming:
    def test_random_access_pays_first_access_latency(self, ddr):
        t = ddr.timing
        result = ddr.read(0x1000, 8, now=0)
        assert result.complete_at == t.first_access_latency + 1

    def test_sequential_stream_is_one_beat_per_cycle(self, ddr):
        first = ddr.read(0x0, 128, now=0)
        second = ddr.read(128, 128, now=first.complete_at)
        assert second.complete_at - first.complete_at == 16  # 16 beats

    def test_row_crossing_penalty(self, ddr):
        t = ddr.timing
        # stream right up to a row boundary, then cross it
        ddr.read(t.row_bytes - 128, 128, now=0)
        before = ddr.read(t.row_bytes - 64, 64, now=1000)
        crossing = ddr.read(t.row_bytes, 128, now=before.complete_at)
        beats = 16
        assert (crossing.complete_at - before.complete_at
                == beats + t.row_miss_penalty)

    def test_port_busy_serializes(self, ddr):
        a = ddr.read(0x0, 128, now=0)
        b = ddr.read(0x8000, 128, now=0)
        assert b.complete_at > a.complete_at

    def test_independent_ports_do_not_serialize(self, ddr):
        p1 = ddr.port("one")
        p2 = ddr.port("two")
        a = p1.read(0x0, 128, now=0)
        b = p2.read(0x10000, 128, now=0)
        assert a.complete_at == b.complete_at

    def test_device_bandwidth_cap_when_enabled(self):
        timing = DdrTiming(device_beats_per_cycle=1)
        ddr = DdrController(1 << 20, timing=timing)
        p1, p2 = ddr.port("a"), ddr.port("b")
        a = p1.read(0x0, 128, now=0)
        b = p2.read(0x1000, 128, now=0)
        # with a 1-beat/cycle device, the second port queues behind it
        assert b.complete_at > a.complete_at

    def test_ports_share_data(self, ddr):
        ddr.port("w").write(0x100, b"shared!!", now=0)
        assert ddr.port("r").read(0x100, 8, now=100).data == b"shared!!"

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            DdrTiming(bytes_per_beat=0)
        with pytest.raises(ValueError):
            DdrTiming(device_beats_per_cycle=-1)


class TestPortIndependenceUnderLoad:
    def test_cpu_port_unaffected_by_dma_stream(self):
        """The Sec. III-B rationale for the extra crossbar: the DMA's
        dedicated MIG port leaves the CPU port's latency unchanged."""
        ddr = DdrController(1 << 24)
        dma_port = ddr.port("dma")
        baseline = ddr.read(0x100, 64, now=0)
        baseline_latency = baseline.complete_at - 0
        # saturate the DMA port with a long in-flight stream
        t = 0
        for i in range(64):
            t = dma_port.read(0x10000 + i * 128, 128, t).complete_at
        # CPU access issued mid-stream sees its own port only
        probe = ddr.read(0x8000, 64, now=1000)
        assert probe.complete_at - 1000 <= baseline_latency
