import pytest

from repro.axi.stream import BufferSource, CaptureSink
from repro.axi.stream_switch import AxiStreamSwitch
from repro.errors import BusError
from repro.obs import Observability
from repro.sim.kernel import Simulator


@pytest.fixture()
def switch():
    sw = AxiStreamSwitch()
    sw.attach_sink("icap", CaptureSink())
    sw.attach_sink("rm", CaptureSink())
    sw.attach_source("rm", BufferSource(b"rm-output-data"))
    return sw


class TestSwitchRouting:
    def test_forwards_to_selected_sink(self, switch):
        switch.select("icap")
        switch.accept(b"bitstream", now=0)
        assert bytes(switch._sinks["icap"].data) == b"bitstream"
        assert bytes(switch._sinks["rm"].data) == b""

    def test_reselect_reroutes(self, switch):
        switch.select("icap")
        switch.accept(b"one", now=0)
        switch.select("rm")
        switch.accept(b"two", now=10)
        assert bytes(switch._sinks["icap"].data) == b"one"
        assert bytes(switch._sinks["rm"].data) == b"two"

    def test_source_path(self, switch):
        switch.select("rm")
        data, _ = switch.produce(7, now=0)
        assert data == b"rm-outp"

    def test_unselected_accept_raises(self, switch):
        with pytest.raises(BusError):
            switch.accept(b"x", now=0)

    def test_unknown_port_raises(self, switch):
        with pytest.raises(BusError):
            switch.select("bogus")

    def test_port_without_source_raises(self, switch):
        switch.select("icap")
        with pytest.raises(BusError):
            switch.produce(4, now=0)

    def test_ports_listing(self, switch):
        assert switch.ports == ["icap", "rm"]

    def test_stage_latency_added(self, switch):
        switch.select("icap")
        done = switch.accept(b"\x00" * 8, now=0)
        # 1 stage + 1 cycle at 8 B/cycle
        assert done == 2


class TestResolvedPorts:
    """A port's resolved accept and produce are built once per route and
    rebuilt when the port's sink or source or the observability changes."""

    def test_each_port_keeps_its_route(self, switch):
        switch.select("icap")
        icap = switch.resolve_accept()
        switch.select("rm")
        rm = switch.resolve_accept()
        assert rm is not icap
        assert switch.resolve_produce() is switch.resolve_produce()
        switch.select("icap")
        assert switch.resolve_accept() is icap

    def test_attached_sink_takes_later_bursts(self, switch):
        switch.select("icap")
        switch.accept(b"old", now=0)
        fresh = CaptureSink()
        switch.attach_sink("icap", fresh)
        switch.accept(b"new", now=10)
        assert bytes(switch._sinks["rm"].data) == b""
        assert bytes(fresh.data) == b"new"

    def test_attached_source_feeds_later_bursts(self, switch):
        switch.select("rm")
        assert switch.produce(3, now=0)[0] == b"rm-"
        switch.attach_source("rm", BufferSource(b"fresh"))
        assert switch.produce(3, now=10)[0] == b"fre"

    def test_attached_obs_counts_later_bursts(self, switch):
        switch.select("rm")
        switch.accept(b"uncounted", now=0)
        switch.produce(2, now=0)
        obs = Observability()
        switch.attach_obs(obs, Simulator())
        switch.accept(b"12345", now=10)
        switch.produce(4, now=20)
        switch.select("icap")
        switch.accept(b"123", now=30)
        counts = {port: obs.metrics.get(
                      "axis_switch_bytes_total",
                      {"switch": "axis_switch", "port": port}).value
                  for port in ("rm", "icap")}
        assert counts == {"rm": 9, "icap": 3}
