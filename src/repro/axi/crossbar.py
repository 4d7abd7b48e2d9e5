"""AXI4 crossbar with address decoding, hop latency and port arbitration.

The reference SoC (Fig. 1/2 of the paper) contains two instances:

* the main 64-bit AXI-4 crossbar connecting the Ariane core to all
  peripherals, and
* the additional crossbar inserted between the RV-CAP DMA and the DDR
  controller so the DMA can fetch bitstream data without traversing the
  main bus.

Arbitration is modelled per *downstream region*: each region keeps a
``busy_until`` watermark, and a transaction arriving while the slave
port is busy waits for the previous one to drain.  That is exactly the
effect that makes the CPU's DMA-status polling reads slightly perturb —
but not stall — an in-flight DMA stream, and it serializes concurrent
MM2S/S2MM traffic to the single DDR port in acceleration mode.

That arbitration is written once, as one closure per region and
direction (read, write, timing-only fill), built on the region's first
access.  :meth:`AxiCrossbar.resolve_read`, ``resolve_write`` and
``resolve_fill_port`` hand a master the region's closure when its
window lies in one region and a decoding port otherwise; the plain
:meth:`AxiCrossbar.read`/``write`` go through the decoding port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional, Tuple, TypeVar

import numpy as np

from repro.axi.interface import AxiSlave, BulkRead, DataPort
from repro.axi.memory_map import MemoryMap, Region
from repro.axi.types import AxiResp, AxiResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter

_P = TypeVar("_P")


class _RegionPorts(NamedTuple):
    """A region's arbitration closures, one per direction."""

    read: DataPort[int]
    write: DataPort[bytes]
    fill: DataPort[int]


class AxiCrossbar(AxiSlave):
    """An N-master/N-slave crossbar exposed as a single slave interface.

    ``request_latency`` / ``response_latency`` model the register slices
    on the address and response paths (one pipeline stage each in the
    open-source AXI components the SoC uses [22]).
    """

    def __init__(
        self,
        name: str,
        *,
        request_latency: int = 1,
        response_latency: int = 1,
    ) -> None:
        self.name = name
        self.request_latency = request_latency
        self.response_latency = response_latency
        self.memory_map = MemoryMap()
        self._busy_until: Dict[int, int] = {}
        self._region_ports: Dict[int, _RegionPorts] = {}
        self._bulk_reads: Dict[int, Optional[BulkRead]] = {}
        self._last_region: Region | None = None  # MRU decode fast path
        self._decoders = _RegionPorts(self._decoding(lambda ports: ports.read),
                                      self._decoding(lambda ports: ports.write),
                                      self._decoding(lambda ports: ports.fill))
        self.transactions = 0
        self.decode_errors = 0
        self.obs: Optional["Observability"] = None
        self._wait_counters: Dict[int, "Counter"] = {}

    def attach_obs(self, obs: "Observability") -> None:
        self.obs = obs
        self._wait_counters = {}
        obs.metrics.observed_counter(
            "axi_transactions_total",
            "transactions routed through the crossbar",
            self, "transactions", labels={"xbar": self.name})

    def _wait_counter(self, region: Region) -> "Counter":
        counter = self._wait_counters.get(id(region))
        if counter is None:
            counter = self.obs.metrics.counter(  # type: ignore[union-attr]
                "axi_wait_cycles_total",
                "arbitration wait at the downstream port (contention)",
                labels={"xbar": self.name, "region": region.name})
            self._wait_counters[id(region)] = counter
        return counter

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    def attach(self, name: str, base: int, size: int, slave: AxiSlave) -> Region:
        """Map ``slave`` into [base, base+size) on this crossbar."""
        return self.memory_map.add(name, base, size, slave)

    def region_for(self, addr: int) -> Region | None:
        return self.memory_map.decode(addr)

    # ------------------------------------------------------------------
    # transaction routing: one arbitration closure per region and
    # direction; plain calls and resolved ports share it
    # ------------------------------------------------------------------
    def _ports(self, region: Region) -> _RegionPorts:
        """``region``'s arbitration closures, built on first use (most
        regions of a platform are never reached through a port)."""
        ports = self._region_ports.get(id(region))
        if ports is None:
            slave, size = region.slave, region.size
            ports = self._region_ports[id(region)] = _RegionPorts(
                self._arbitrate(region, slave.resolve_read(0, size)),
                self._arbitrate(region, slave.resolve_write(0, size)),
                self._arbitrate(region, slave.resolve_fill_port(0, size)))
        return ports

    def _arbitrate(self, region: Region, inner: DataPort[_P]) -> DataPort[_P]:
        """``region``'s arbitration around its slave's port ``inner``:
        the request slice, the wait for the region's watermark, the
        counters and the response slice."""
        busy = self._busy_until
        key = id(region)
        base = region.base
        request = self.request_latency
        response = self.response_latency

        def port(addr: int, payload: _P, now: int) -> Tuple[bytes, int, AxiResp]:
            self.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if start > arrive and self.obs is not None:
                self._wait_counter(region).value += start - arrive
            data, complete, resp = inner(addr - base, payload, start)
            # the slave port is occupied until its response is produced
            busy[key] = complete
            return data, complete + response, resp

        return port

    def _decoding(self, pick: Callable[[_RegionPorts], DataPort[Any]]
                  ) -> DataPort[Any]:
        """A port that decodes each access and takes ``pick`` of its
        region's ports: DECERR after the request slice in a hole."""
        request = self.request_latency

        def port(addr: int, payload: Any, now: int) -> Tuple[bytes, int, AxiResp]:
            # most traffic streams to one slave (DMA bursts, polling
            # loops): re-check the most recently decoded region first
            region = self._last_region
            if region is None or not (region.base <= addr < region.end):
                region = self.memory_map.decode(addr)
                if region is None:
                    self.decode_errors += 1
                    return b"", now + request, AxiResp.DECERR
                self._last_region = region
            return pick(self._ports(region))(addr, payload, now)

        return port

    def _window(self, lo: int, hi: int) -> _RegionPorts:
        """The ports for accesses inside [lo, hi): the region's own when
        the window lies in one region, else the decoding ports."""
        region = self.memory_map.decode(lo)
        if region is None or not lo < hi <= region.end:
            return self._decoders
        return self._ports(region)

    def resolve_read(self, lo: int, hi: int) -> DataPort[int]:
        return self._window(lo, hi).read

    def resolve_write(self, lo: int, hi: int) -> DataPort[bytes]:
        return self._window(lo, hi).write

    def resolve_fill_port(self, lo: int, hi: int) -> DataPort[int]:
        return self._window(lo, hi).fill

    def resolve_bulk_read(self, lo: int, hi: int) -> Optional[BulkRead]:
        """Bulk sibling of :meth:`resolve_read` (see ``BulkRead``): the
        region's bulk read when [lo, hi) lies in one region, built on
        the region's first bulk access from its slave's bulk read over
        the whole region.

        Only the run's first burst can wait for the region: each later
        one arrives ``response + gap + request`` cycles after the
        previous one left the slave, when the region is free again, so
        the slave sees that as its own gap.
        """
        region = self.memory_map.decode(lo)
        if region is None or hi > region.end or lo >= hi:
            return None
        key = id(region)
        if key not in self._bulk_reads:
            self._bulk_reads[key] = self._bulk_read(region)
        return self._bulk_reads[key]

    def _bulk_read(self, region: Region) -> Optional[BulkRead]:
        resolve = getattr(region.slave, "resolve_bulk_read", None)
        if resolve is None:
            return None
        inner: Optional[BulkRead] = resolve(0, region.size)
        if inner is None:
            return None
        busy = self._busy_until
        key = id(region)
        base = region.base
        request = self.request_latency
        response = self.response_latency

        def plan(addr: int, nbytes: int, count: int, now: int, gap: int
                 ) -> Optional[Tuple[np.ndarray, Callable[[int], bytes]]]:
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            planned = inner(addr - base, nbytes, count, start,
                            response + gap + request)
            if planned is None:
                return None
            done, inner_commit = planned

            def commit(n: int) -> bytes:
                self.transactions += n
                if start > arrive and self.obs is not None:
                    self._wait_counter(region).value += start - arrive
                busy[key] = int(done[n - 1])
                return inner_commit(n)

            return done + response, commit

        return plan

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return AxiResult(*self._decoders.read(addr, nbytes, now))

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return AxiResult(*self._decoders.write(addr, data, now))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AxiCrossbar {self.name} regions={len(self.memory_map)}>"
