"""Platform-level interrupt controller (PLIC).

The RV-CAP DMA completion interrupts are "directly connected to the
processor-level interrupt controller (PLIC) to support non-blocking
mode during data transfer" (Sec. III-B).  This model implements the
standard priority/pending/enable/threshold/claim architecture for a
single hart context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.axi.interface import RegisterBank
from repro.riscv import isa
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Histogram
    from repro.obs.tracer import Span

PRIORITY_BASE = 0x0000
PENDING_OFFSET = 0x1000
ENABLE_OFFSET = 0x2000
THRESHOLD_OFFSET = 0x20_0000
CLAIM_OFFSET = 0x20_0004

MAX_SOURCES = 31  # sources 1..31 live in one 32-bit pending/enable word


class Plic(RegisterBank):
    """A single-context PLIC with level-triggered gateways."""

    def __init__(self, sim: Simulator, latency: int = 3) -> None:
        super().__init__("plic", size=0x40_0000)
        self.sim = sim
        self.latency = latency
        self.priority: Dict[int, int] = {s: 0 for s in range(1, MAX_SOURCES + 1)}
        self.pending = 0
        self.enable = 0
        self.threshold = 0
        self.in_service: Optional[int] = None
        self.claims = 0
        self._set_mip: Optional[Callable[[int, bool], None]] = None
        self.obs: Optional["Observability"] = None
        #: per source: the open pending-to-claim span (attached only)
        self._pending_spans: List[Optional["Span"]] = \
            [None] * (MAX_SOURCES + 1)
        #: per source: its span name, built once
        self._span_names = [f"irq{source}" for source in
                            range(MAX_SOURCES + 1)]
        self._h_service: Optional["Histogram"] = None

        for source in range(1, MAX_SOURCES + 1):
            self.define_register(
                PRIORITY_BASE + 4 * source,
                on_read=lambda _o, s=source: self.priority[s],
                on_write=lambda v, s=source: self._write_priority(s, v),
            )
        self.define_register(PENDING_OFFSET, on_read=lambda _o: self.pending)
        self.define_register(ENABLE_OFFSET, on_read=lambda _o: self.enable,
                             on_write=self._write_enable)
        self.define_register(THRESHOLD_OFFSET, on_read=lambda _o: self.threshold,
                             on_write=self._write_threshold)
        self.define_register(CLAIM_OFFSET, on_read=self._read_claim,
                             on_write=self._write_complete)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect_hart(self, set_mip: Callable[[int, bool], None]) -> None:
        self._set_mip = set_mip

    def attach_obs(self, obs: "Observability") -> None:
        """Wire the PLIC in; each source's pending line mirrors its
        pending-to-claim spans."""
        self.obs = obs
        for source in range(1, MAX_SOURCES + 1):
            obs.tracer.mirror(f"plic_pending_{source}", "plic",
                              self._span_names[source])
        self._h_service = obs.metrics.histogram(
            "plic_irq_service_cycles",
            "cycles from PLIC gateway latch to the hart's claim read")

    def raise_irq(self, source: int) -> None:
        """Device-side interrupt assertion (edge into the gateway)."""
        if not 1 <= source <= MAX_SOURCES:
            raise ValueError(f"PLIC source {source} out of range")
        self.sim.schedule(self.latency, lambda: self._latch(source))

    def _latch(self, source: int) -> None:
        self.pending |= 1 << source
        if self.obs is not None and self._pending_spans[source] is None:
            self._pending_spans[source] = self.obs.tracer.begin(
                "plic", self._span_names[source], self.sim.now,
                source=source)
        self._update_meip()

    # ------------------------------------------------------------------
    # register behaviour
    # ------------------------------------------------------------------
    def _write_priority(self, source: int, value: int) -> None:
        self.priority[source] = value & 0x7
        self._update_meip()

    def _write_enable(self, value: int) -> None:
        self.enable = value & 0xFFFF_FFFE  # source 0 does not exist
        self._update_meip()

    def _write_threshold(self, value: int) -> None:
        self.threshold = value & 0x7
        self._update_meip()

    def _best_source(self) -> int:
        """Highest-priority pending+enabled source above threshold."""
        best, best_priority = 0, self.threshold
        candidates = self.pending & self.enable
        for source in range(1, MAX_SOURCES + 1):
            if candidates & (1 << source) and self.priority[source] > best_priority:
                best, best_priority = source, self.priority[source]
        return best

    def _read_claim(self, _offset: int) -> int:
        source = self._best_source()
        if source:
            self.pending &= ~(1 << source)
            self.in_service = source
            self.claims += 1
            span = self._pending_spans[source]
            if span is not None and self.obs is not None:
                self._pending_spans[source] = None
                now = self.sim.now
                self.obs.tracer.end(span, now, claimed=True)
                self._h_service.record(  # type: ignore[union-attr]
                    now - span.start_cycle)
            self._update_meip()
        return source

    def _write_complete(self, value: int) -> None:
        if self.in_service == (value & 0xFFFF_FFFF):
            self.in_service = None
        self._update_meip()

    def _update_meip(self) -> None:
        if self._set_mip is not None:
            self._set_mip(isa.IRQ_MEI, self._best_source() != 0)
