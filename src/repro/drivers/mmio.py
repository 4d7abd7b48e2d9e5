"""Host-side MMIO port: utility modules to R/W across the address space.

"We also developed a set of utility modules to communicate with
memory-mapped peripherals to read and write data across the processor's
address space" (Sec. III-A).  ``HostPort`` is that utility layer for
host-driver mode: every access is a real AXI transaction issued at the
current simulation time with the CPU-side issue overhead charged, and
simulation time advances to the response.

A 32-bit register access goes through the register's fused port
(:mod:`repro.axi.fastpath`), one cached closure per address that
reproduces the exact timing, arbitration watermarks and counters of
the plain crossbar transaction.  Everything the fuser refuses takes
that plain transaction: 64-bit accesses, SPI writes, memories and
unmapped addresses (which raise :class:`~repro.errors.BusError`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.axi.fastpath import fuse_read_port, fuse_write_port
from repro.axi.interface import ReadPort, WritePort
from repro.axi.types import AxiResult
from repro.errors import BusError
from repro.soc.soc import Soc

_UNRESOLVED = object()


class HostPort:
    """Timed CPU-equivalent access to the SoC bus."""

    def __init__(self, soc: Soc) -> None:
        self.soc = soc
        self.sim = soc.sim
        self.cpu_timing = soc.config.timing.cpu
        self.accesses = 0
        # per-address fused port caches; value None = "the fuser
        # refused, use the plain path" (resolved once, then cached)
        self._read_ports: Dict[int, Optional[ReadPort]] = {}
        self._write_ports: Dict[int, Optional[WritePort]] = {}

    # ------------------------------------------------------------------
    # time bookkeeping
    # ------------------------------------------------------------------
    def elapse(self, cycles: int) -> None:
        """Charge software execution time (function bodies, loops)."""
        if cycles > 0:
            self.sim.advance_to(self.sim.now + cycles)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _issue_read(self, addr: int, nbytes: int) -> AxiResult:
        self.accesses += 1
        issue = self.sim.now + self.cpu_timing.mmio_issue_overhead
        result = self.soc.xbar.read(addr, nbytes, issue)
        if not result.ok:
            raise BusError(f"read {addr:#x} failed: {result.resp.name}")
        self.sim.advance_to(result.complete_at)
        return result

    def _issue_write(self, addr: int, data: bytes) -> None:
        self.accesses += 1
        issue = (self.sim.now + self.cpu_timing.mmio_issue_overhead
                 + self.cpu_timing.noncacheable_store_cost)
        result = self.soc.xbar.write(addr, data, issue)
        if not result.ok:
            raise BusError(f"write {addr:#x} failed: {result.resp.name}")
        self.sim.advance_to(result.complete_at)

    def read32(self, addr: int) -> int:
        port = self._read_ports.get(addr, _UNRESOLVED)
        if port is _UNRESOLVED:
            port = fuse_read_port(self.soc.xbar, addr, 4)
            self._read_ports[addr] = port
        if port is None:
            return self._issue_read(addr, 4).value()
        self.accesses += 1
        value, complete = port(self.sim.now + self.cpu_timing.mmio_issue_overhead)
        self.sim.advance_to(complete)
        return value

    def write32(self, addr: int, value: int) -> None:
        port = self._write_ports.get(addr, _UNRESOLVED)
        if port is _UNRESOLVED:
            port = fuse_write_port(self.soc.xbar, addr, 4)
            self._write_ports[addr] = port
        if port is None:
            self._issue_write(addr, (value & 0xFFFF_FFFF).to_bytes(4, "little"))
            return
        self.accesses += 1
        issue = (self.sim.now + self.cpu_timing.mmio_issue_overhead
                 + self.cpu_timing.noncacheable_store_cost)
        complete = port(value & 0xFFFF_FFFF, issue)
        self.sim.advance_to(complete)

    def read64(self, addr: int) -> int:
        return self._issue_read(addr, 8).value()

    def write64(self, addr: int, value: int) -> None:
        self._issue_write(addr, (value & (2**64 - 1)).to_bytes(8, "little"))

    # ------------------------------------------------------------------
    # interrupt waiting (wfi equivalent for host mode)
    # ------------------------------------------------------------------
    def wait_for(self, predicate, *, poll_cycles: int = 50,
                 timeout_cycles: int = 500_000_000) -> None:
        """Advance time until ``predicate()`` holds.

        Prefers jumping to the next scheduled event (like a core in
        wfi); falls back to bounded polling when the queue is idle.

        The advance carries the timeout deadline as its observation
        horizon: the predicate only reads event-gated state (status
        registers and interrupt-pending bits are latched by event
        callbacks at their own event times), so batching engines may
        run ahead inside the window without the CPU ever seeing
        intermediate state.
        """
        sim = self.sim
        deadline = sim.now + timeout_cycles
        while not predicate():
            nxt = sim.peek_next_time()
            if nxt is not None:
                target = nxt if nxt > sim.now else sim.now
                sim.advance_to(target,
                               horizon=deadline if deadline > target else target)
            else:
                sim.advance_to(sim.now + poll_cycles)
            if sim.now > deadline:
                raise BusError("wait_for timed out")
