"""AXI-Stream switch: route the DMA stream to the ICAP or to the RM.

This is component (4) in the RV-CAP architecture (Fig. 2): a 1-to-N
switch on the DMA's MM2S output selecting *reconfiguration mode* (data
flows into the AXIS2ICAP converter) or *acceleration mode* (data flows
into the reconfigurable module), plus the mirrored N-to-1 return path
for the RM's output stream into the DMA's S2MM channel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional

from repro.axi.stream import (
    AcceptPort,
    BulkAccept,
    PollLaw,
    ProducePort,
    StreamSink,
    StreamSource,
    counted_bulk,
)
from repro.errors import BusError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter
    from repro.sim.kernel import Simulator


class AxiStreamSwitch(StreamSink):
    """Registered stream switch with named output ports.

    The select input comes from the RP control interface's
    ``select_ICAP`` register; switching while a transfer is in flight is
    a protocol violation in real hardware and raises here.  The owner
    wires in what "in flight" means (:meth:`set_busy_source`): RV-CAP
    reports whether either DMA channel on the switch is busy.

    Each port's resolved accept and produce ports are built on first
    use and kept until the port's sink or source, or the attached
    observability, changes.
    """

    def __init__(self, name: str = "axis_switch", stage_latency: int = 1) -> None:
        self.name = name
        self.stage_latency = stage_latency
        self._sinks: Dict[str, StreamSink] = {}
        self._sources: Dict[str, StreamSource] = {}
        self._selected: str | None = None
        self._busy: Callable[[], bool] = lambda: False
        self.obs: Optional["Observability"] = None
        self._sim: Optional["Simulator"] = None
        self._port_counters: Dict[str, "Counter"] = {}
        self._accepts: Dict[str, AcceptPort] = {}
        self._produces: Dict[str, ProducePort] = {}

    def attach_obs(self, obs: "Observability", sim: "Simulator") -> None:
        """Attach observability; events stamp at ``sim.now``.

        Register-write paths (``select``) carry no timestamp of their
        own, so the switch reads the simulator's clock attribute when
        stamping events.
        """
        self.obs = obs
        self._sim = sim
        self._port_counters = {}
        self._accepts.clear()
        self._produces.clear()

    def _port_counter(self, port: str) -> "Counter":
        counter = self._port_counters.get(port)
        if counter is None:
            counter = self.obs.metrics.counter(  # type: ignore[union-attr]
                "axis_switch_bytes_total",
                "bytes routed through the AXIS switch, per output port",
                labels={"switch": self.name, "port": port})
            self._port_counters[port] = counter
        return counter

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach_sink(self, port: str, sink: StreamSink) -> None:
        self._sinks[port] = sink
        self._accepts.pop(port, None)

    def attach_source(self, port: str, source: StreamSource) -> None:
        self._sources[port] = source
        self._produces.pop(port, None)

    def set_busy_source(self, source: Callable[[], bool]) -> None:
        """``source()`` is True while a transfer through the switch is in
        flight; :meth:`select` refuses to change ports then."""
        self._busy = source

    @property
    def ports(self) -> list[str]:
        return sorted(set(self._sinks) | set(self._sources))

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def select(self, port: str) -> None:
        """Route subsequent traffic to ``port``."""
        if port not in self._sinks and port not in self._sources:
            raise BusError(f"switch {self.name!r}: unknown port {port!r}")
        if port != self._selected and self._busy():
            raise BusError(
                f"switch {self.name!r}: cannot switch ports mid-transfer"
            )
        if self.obs is not None and port != self._selected:
            now = self._sim.now  # type: ignore[union-attr]
            self.obs.tracer.instant("axis.switch", "select", now, port=port)
            self.obs.tracer.signal(
                f"{self.name}_sel_icap", now, 1 if port == "icap" else 0)
        self._selected = port

    @property
    def selected(self) -> str | None:
        return self._selected

    # ------------------------------------------------------------------
    # datapath
    # ------------------------------------------------------------------
    def _selected_port(self) -> str:
        if self._selected is None:
            raise BusError(f"switch {self.name!r}: no port selected")
        return self._selected

    def accept(self, data: bytes, now: int) -> int:
        """Forward a burst to the selected sink (adds one stage)."""
        return self.resolve_accept()(data, now)

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        """Pull a burst from the selected source (adds one stage)."""
        return self.resolve_produce()(nbytes, now)

    def resolve_accept(self) -> AcceptPort:
        """The accept port of the selected route: the stage latency and
        the per-port byte counter around the sink's own port.

        The DMA engine resolves it per transfer; :meth:`select` refuses
        to switch mid-transfer, so the port stays the route for the
        whole transfer.  Raises :class:`BusError` when no port with a
        sink is selected.
        """
        port = self._selected_port()
        accept = self._accepts.get(port)
        if accept is None:
            accept = self._accepts[port] = self._accept_port(port)
        return accept

    def _accept_port(self, port: str) -> AcceptPort:
        sink = self._sinks.get(port)
        if sink is None:
            raise BusError(f"switch {self.name!r}: port {port!r} has no sink")
        inner = sink.resolve_accept()
        stage = self.stage_latency
        if self.obs is None:
            def accept(data: bytes, now: int) -> int:
                return inner(data, now + stage)
        else:
            counter = self._port_counter(port)

            def accept(data: bytes, now: int) -> int:
                counter.value += len(data)
                return inner(data, now + stage)
        return accept

    def resolve_bulk_accept(self, lead: int = 0) -> Optional[BulkAccept]:
        """Bulk sibling of :meth:`resolve_accept` (see ``BulkAccept``).

        The stage latency folds into the selected sink's ``lead``; the
        per-port byte counter advances by each committed run.  ``None``
        unless the selected sink resolves a bulk path itself.
        """
        if self._selected is None:
            return None
        sink = self._sinks.get(self._selected)
        resolve = getattr(sink, "resolve_bulk_accept", None)
        inner: Optional[BulkAccept] = (resolve(lead + self.stage_latency)
                                       if resolve is not None else None)
        if inner is None or self.obs is None:
            return inner
        return counted_bulk(inner, self._port_counter(self._selected).inc)

    def resolve_produce(self) -> ProducePort:
        """The produce port of the selected route, mirroring
        :meth:`resolve_accept` (only bytes produced are counted)."""
        port = self._selected_port()
        produce = self._produces.get(port)
        if produce is None:
            produce = self._produces[port] = self._produce_port(port)
        return produce

    def _produce_port(self, port: str) -> ProducePort:
        source = self._sources.get(port)
        if source is None:
            raise BusError(
                f"switch {self.name!r}: port {port!r} has no source")
        inner = source.resolve_produce()
        stage = self.stage_latency
        if self.obs is None:
            def produce(nbytes: int, now: int) -> tuple[bytes, int]:
                return inner(nbytes, now + stage)
        else:
            counter = self._port_counter(port)

            def produce(nbytes: int, now: int) -> tuple[bytes, int]:
                data, done = inner(nbytes, now + stage)
                if data:
                    counter.value += len(data)
                return data, done
        return produce

    def poll_law(self) -> Optional[PollLaw]:
        """The selected source's empty-poll law, one stage later."""
        source = (self._sources.get(self._selected)
                  if self._selected is not None else None)
        law = source.poll_law() if source is not None else None
        if law is None:
            return None
        return law[0] + self.stage_latency, law[1]
