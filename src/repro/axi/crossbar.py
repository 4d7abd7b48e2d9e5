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
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

import numpy as np

from repro.axi.interface import AxiSlave, BulkRead
from repro.axi.memory_map import MemoryMap, Region
from repro.axi.types import AxiResp, AxiResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter


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
        self._last_region: Region | None = None  # MRU decode fast path
        self.transactions = 0
        self.decode_errors = 0
        self.obs: Optional["Observability"] = None
        self._wait_counters: Dict[int, "Counter"] = {}
        self._c_txn: Optional["Counter"] = None

    def attach_obs(self, obs: "Observability") -> None:
        self.obs = obs
        self._wait_counters = {}
        self._c_txn = obs.metrics.counter(
            "axi_transactions_total",
            "transactions routed through the crossbar",
            labels={"xbar": self.name})

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
    # transaction routing
    # ------------------------------------------------------------------
    def _route(
        self, addr: int, now: int, burst: bool, is_read: bool,
        nbytes: int, data: bytes,
    ) -> AxiResult:
        # most traffic streams to one slave (DMA bursts, polling loops):
        # re-check the most recently decoded region before searching
        region = self._last_region
        if region is None or not (region.base <= addr < region.end):
            region = self.memory_map.decode(addr)
            if region is None:
                self.decode_errors += 1
                return AxiResult(b"", now + self.request_latency, AxiResp.DECERR)
            self._last_region = region
        self.transactions += 1
        key = id(region)
        arrive = now + self.request_latency
        start = max(arrive, self._busy_until.get(key, 0))
        if self.obs is not None:
            self._c_txn.value += 1  # type: ignore[union-attr]
            if start > arrive:
                self._wait_counter(region).value += start - arrive
        local = addr - region.base
        slave = region.slave
        if is_read:
            fn = slave.read_burst if burst else slave.read
            result = fn(local, nbytes, start)
        else:
            fn = slave.write_burst if burst else slave.write
            result = fn(local, data, start)
        # the slave port is occupied until its response is produced
        self._busy_until[key] = result.complete_at
        return AxiResult(
            result.data, result.complete_at + self.response_latency, result.resp
        )

    def resolve_burst_read(self, lo: int, hi: int) -> Optional[
        "Callable[[int, int, int], Tuple[bytes, int]]"
    ]:
        """A fused data burst-read port over one region window.

        Returns ``f(addr, nbytes, now) -> (data, complete_at)``
        reproducing :meth:`read_burst` exactly (arbitration watermark,
        counters, slave row/port state) for bursts wholly inside
        [lo, hi).  The DMA descriptor engine resolves one per transfer,
        replacing the per-burst crossbar walk with a single closure.
        Requires the window to decode to one region whose slave itself
        resolves (``None`` otherwise — callers fall back to
        :meth:`read_burst`, which also covers fault-injection proxies).
        """
        region = self.memory_map.decode(lo)
        if region is None or hi > region.end or lo >= hi:
            return None
        resolve = getattr(region.slave, "resolve_burst_read", None)
        if resolve is None:
            return None
        inner = resolve(lo - region.base, hi - region.base)
        if inner is None:
            return None
        busy = self._busy_until
        key = id(region)
        base = region.base
        request = self.request_latency
        response = self.response_latency

        def port(addr: int, nbytes: int, now: int) -> Tuple[bytes, int]:
            self.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if self.obs is not None:
                self._c_txn.value += 1  # type: ignore[union-attr]
                if start > arrive:
                    self._wait_counter(region).value += start - arrive
            data, complete = inner(addr - base, nbytes, start)
            busy[key] = complete
            return data, complete + response

        return port

    def resolve_bulk_read(self, lo: int, hi: int) -> Optional[BulkRead]:
        """Bulk sibling of :meth:`resolve_burst_read` (see ``BulkRead``).

        Only the run's first burst can wait for the region: each later
        one arrives ``response + gap + request`` cycles after the
        previous one left the slave, when the region is free again, so
        the slave sees that as its own gap.
        """
        region = self.memory_map.decode(lo)
        if region is None or hi > region.end or lo >= hi:
            return None
        resolve = getattr(region.slave, "resolve_bulk_read", None)
        if resolve is None:
            return None
        inner: Optional[BulkRead] = resolve(lo - region.base, hi - region.base)
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
                if self.obs is not None:
                    self._c_txn.value += n  # type: ignore[union-attr]
                    if start > arrive:
                        self._wait_counter(region).value += start - arrive
                busy[key] = int(done[n - 1])
                return inner_commit(n)

            return done + response, commit

        return plan

    def resolve_burst_write(self, lo: int, hi: int) -> Optional[
        "Callable[[int, bytes, int], int]"
    ]:
        """A fused data burst-write port over one region window.

        Mirror of :meth:`resolve_burst_read` for
        ``f(addr, data, now) -> complete_at``.
        """
        region = self.memory_map.decode(lo)
        if region is None or hi > region.end or lo >= hi:
            return None
        resolve = getattr(region.slave, "resolve_burst_write", None)
        if resolve is None:
            return None
        inner = resolve(lo - region.base, hi - region.base)
        if inner is None:
            return None
        busy = self._busy_until
        key = id(region)
        base = region.base
        request = self.request_latency
        response = self.response_latency

        def port(addr: int, data: bytes, now: int) -> int:
            self.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if self.obs is not None:
                self._c_txn.value += 1  # type: ignore[union-attr]
                if start > arrive:
                    self._wait_counter(region).value += start - arrive
            complete = inner(addr - base, data, start)
            busy[key] = complete
            return complete + response

        return port

    def resolve_fill_port(self, lo: int, hi: int, nbytes: int) -> Optional[
        "Callable[[int, int], int]"
    ]:
        """A timing-only burst-read port over one region window.

        Returns ``f(addr, now) -> complete_at`` reproducing
        :meth:`read_burst` timing (arbitration watermark, counters) for
        an ``nbytes`` burst at any address inside [lo, hi), without
        materializing the data.  Cache line fills are timing-only —
        architectural data moves through the hart's zero-time backdoor
        — so this removes the per-fill payload copy and routing frames.
        Requires the whole window to decode to one region whose slave
        exposes ``burst_read_timing``; ``None`` otherwise.
        """
        region = self.memory_map.decode(lo)
        if region is None or hi > region.end or lo >= hi:
            return None
        timing_fn = getattr(region.slave, "burst_read_timing", None)
        if timing_fn is None:
            return None
        busy = self._busy_until
        key = id(region)
        base = region.base
        request = self.request_latency
        response = self.response_latency

        def port(addr: int, now: int) -> int:
            self.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if self.obs is not None:
                self._c_txn.value += 1  # type: ignore[union-attr]
                if start > arrive:
                    self._wait_counter(region).value += start - arrive
            complete = int(timing_fn(addr - base, nbytes, start))
            busy[key] = complete
            return complete + response

        return port

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self._route(addr, now, False, True, nbytes, b"")

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self._route(addr, now, False, False, 0, data)

    def read_burst(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self._route(addr, now, True, True, nbytes, b"")

    def write_burst(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self._route(addr, now, True, False, 0, data)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<AxiCrossbar {self.name} regions={len(self.memory_map)}>"
