"""The reconfiguration timeline and counter snapshot ``repro reconfig``
prints: span lines from the tracer, ``Soc.stats()`` formatted."""

from repro.obs import format_stats, format_timeline


class TestFormatStats:
    def test_empty_stats_formats_to_empty_string(self):
        assert format_stats({}) == ""

    def test_mixed_value_types(self):
        text = format_stats({"a": 1, "bb": 2.5})
        assert "a" in text and "2.50" in text


class TestSocIntegration:
    def test_trace_captures_reconfiguration(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        obs = soc.attach_observability()
        manager.load_module("sobel")
        tracer = obs.tracer
        assert {"dma.mm2s", "icap"} <= set(tracer.tracks)
        [transfer] = tracer.find("dma.mm2s", "transfer")
        assert transfer.args["length"] == 650_892
        assert transfer.args["status"] == "ok"
        assert transfer.start_cycle < transfer.end_cycle
        # the ICAP session streams inside its DMA transfer
        [session] = tracer.find("icap", "session")
        assert session.args["status"] == "ok"
        assert (transfer.start_cycle <= session.start_cycle
                < session.end_cycle <= transfer.end_cycle)

    def test_stats_snapshot(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        manager.load_module("median")
        stats = soc.stats()
        assert stats["icap_reconfigurations"] == 1
        assert stats["config_frames_written"] == soc.rp.frames
        assert stats["ddr_bytes_read"] >= 650_892
        assert stats["plic_claims"] == 1
        assert stats["icap_errors"] == 0
        text = format_stats(stats)
        assert "icap_reconfigurations" in text

    def test_timeline_rendering(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        obs = soc.attach_observability()
        manager.load_module("gaussian")
        timeline = format_timeline(obs.tracer, soc.sim.freq_hz)
        lines = timeline.splitlines()
        assert len(lines) == len(obs.tracer.spans)
        assert "us]" in timeline and "dma.mm2s" in timeline
        starts = [float(line[1:line.index(" us]")]) for line in lines]
        assert starts == sorted(starts)
        assert any("icap" in line and "status=ok" in line for line in lines)
