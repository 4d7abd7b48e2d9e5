"""DDR memory controller with a multi-port, row-aware timing model.

Timing model
------------
The Genesys2 board pairs the Kintex-7 with DDR3 behind a Xilinx MIG
controller.  Each 100 MHz AXI port sustains one 64-bit beat per cycle
once a burst is streaming; the MIG core itself runs the memory at a
multiple of that, so two ports (the CPU/main-bus port and the RV-CAP
crossbar port of Sec. III-B) can stream concurrently.  Costs visible at
an AXI port boundary:

* ``first_access_latency`` — full request latency for a random access
  (activate + CAS + controller pipeline), paid by CPU cache-line fills
  and by the first burst of a DMA transfer;
* ``row_miss_penalty`` — precharge/activate when a *sequential* stream
  crosses an open-row boundary (``row_bytes``);
* one cycle per 64-bit beat of payload, per port;
* the shared device: ``device_beats_per_cycle`` (default 2) caps the
  summed throughput of all ports.

With the defaults a single sequential DMA stream sustains 8 B/cycle
less a 0.05 % row-crossing tax — which lets RV-CAP feed the ICAP at
its 400 MB/s ceiling — while the concurrent MM2S+S2MM streams of
acceleration mode each get a full port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.axi.interface import AxiSlave, BulkRead
from repro.axi.types import AxiResp, AxiResult
from repro.mem.sparse_memory import SparseMemory


@dataclass(frozen=True)
class DdrTiming:
    """Calibratable DDR controller timing parameters (cycles)."""

    first_access_latency: int = 24
    row_miss_penalty: int = 4
    row_bytes: int = 8192
    bytes_per_beat: int = 8
    #: internal MIG bandwidth in 64-bit beats per AXI-clock cycle.
    #: DDR3-1600 x 32 bit on the Genesys2 gives ~6.4 GB/s = 8 beats per
    #: 100 MHz cycle — four times what the two 800 MB/s AXI ports can
    #: demand together, so by default (0 = uncapped) the device core is
    #: never the bottleneck.  Set a positive value to model
    #: bandwidth-starved configurations (ablation).
    device_beats_per_cycle: int = 0

    def __post_init__(self) -> None:
        if self.bytes_per_beat <= 0 or self.row_bytes <= 0:
            raise ValueError("DDR geometry must be positive")
        if self.device_beats_per_cycle < 0:
            raise ValueError("device bandwidth must be >= 0 (0 = uncapped)")


class _PortState:
    __slots__ = ("busy_until", "next_seq_addr", "open_row")

    def __init__(self) -> None:
        self.busy_until = 0
        self.next_seq_addr: int | None = None
        self.open_row: int | None = None


class DdrController(AxiSlave):
    """The SoC's external memory, fronted by MIG-like timing.

    The controller object itself acts as port ``"default"``; additional
    independent ports are created with :meth:`port`.
    """

    def __init__(
        self,
        size: int,
        timing: DdrTiming | None = None,
        name: str = "ddr",
    ) -> None:
        self.name = name
        self.timing = timing or DdrTiming()
        # timing scalars unpacked once — _service runs per burst and the
        # frozen-dataclass attribute reads add up (timing is fixed at
        # construction; nothing reassigns it)
        t = self.timing
        self._bytes_per_beat = t.bytes_per_beat
        self._row_bytes = t.row_bytes
        self._first_access_latency = t.first_access_latency
        self._row_miss_penalty = t.row_miss_penalty
        self._device_beats_per_cycle = t.device_beats_per_cycle
        self.memory = SparseMemory(size)
        self._ports: Dict[str, _PortState] = {"default": _PortState()}
        self._device_free = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: precharge/activate command pairs issued (power-model input)
        self.row_activates = 0

    @property
    def size(self) -> int:
        return self.memory.size

    def port(self, name: str) -> "DdrPort":
        """An independent AXI port into this controller."""
        if name not in self._ports:
            self._ports[name] = _PortState()
        return DdrPort(self, name)

    # ------------------------------------------------------------------
    # timing core
    # ------------------------------------------------------------------
    def _service(self, port_name: str, addr: int, nbytes: int, now: int) -> int:
        port = self._ports[port_name]
        beats = -(-nbytes // self._bytes_per_beat) if nbytes else 1
        start = port.busy_until
        if now > start:
            start = now
        device_bw = self._device_beats_per_cycle
        if device_bw and self._device_free > start:
            start = self._device_free
        cost = beats
        row_bytes = self._row_bytes
        first_row = addr // row_bytes
        last_row = (addr + nbytes - 1) // row_bytes if nbytes else first_row
        if addr != port.next_seq_addr:
            cost += self._first_access_latency
            self.row_activates += 1 + (last_row - first_row)
        else:
            # a sequential stream pays precharge/activate once per row
            # it enters (relative to the port's open row)
            new_rows = last_row - first_row
            if port.open_row is not None and first_row != port.open_row:
                new_rows += 1
            cost += new_rows * self._row_miss_penalty
            self.row_activates += new_rows
        port.open_row = last_row
        port.next_seq_addr = addr + nbytes
        port.busy_until = start + cost
        if device_bw:
            self._device_free = start + -(-beats // device_bw)
        return port.busy_until

    # ------------------------------------------------------------------
    # AxiSlave implementation (the "default" port)
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self._read(("default"), addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self._write("default", addr, data, now)

    def read_burst(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self._read("default", addr, nbytes, now)

    def write_burst(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self._write("default", addr, data, now)

    def burst_read_timing(self, addr: int, nbytes: int, now: int) -> int:
        """Timing of a default-port read burst without the payload.

        Exactly :meth:`read_burst`'s completion time and side effects
        (row/port state, ``bytes_read``) minus the data copy; used by
        the crossbar's resolved fill port for timing-only cache line
        fills.
        """
        if addr + nbytes > self.size:
            return now + 1
        complete = self._service("default", addr, nbytes, now)
        self.bytes_read += nbytes
        return complete

    def _read(self, port: str, addr: int, nbytes: int, now: int) -> AxiResult:
        if addr + nbytes > self.size:
            return AxiResult(b"", now + 1, AxiResp.SLVERR)
        complete = self._service(port, addr, nbytes, now)
        self.bytes_read += nbytes
        return AxiResult(self.memory.load(addr, nbytes), complete)

    def _write(self, port: str, addr: int, data: bytes, now: int) -> AxiResult:
        if addr + len(data) > self.size:
            return AxiResult(b"", now + 1, AxiResp.SLVERR)
        complete = self._service(port, addr, len(data), now)
        self.memory.store(addr, data)
        self.bytes_written += len(data)
        return AxiResult(b"", complete)

    # ------------------------------------------------------------------
    # zero-time backdoor for loaders and checkers
    # ------------------------------------------------------------------
    def load_image(self, addr: int, data: bytes) -> None:
        """Deposit data without consuming simulation time."""
        self.memory.store(addr, data)

    def dump(self, addr: int, nbytes: int) -> bytes:
        """Inspect memory without consuming simulation time."""
        return self.memory.load(addr, nbytes)


class DdrPort(AxiSlave):
    """A named, independently arbitrated port of a :class:`DdrController`."""

    def __init__(self, controller: DdrController, name: str) -> None:
        self.controller = controller
        self.port_name = name

    def resolve_burst_read(self, lo: int, hi: int) -> Optional[Callable[[int, int, int], Tuple[bytes, int]]]:
        """A fused burst-read closure for bursts inside [lo, hi).

        ``f(addr, nbytes, now) -> (data, complete_at)`` with exactly
        :meth:`read_burst`'s timing and side effects, minus the
        ``AxiResult`` wrapper; ``None`` when the window exceeds the
        memory (those accesses must surface SLVERR on the slow path).
        """
        ctrl = self.controller
        if lo >= hi or hi > ctrl.size:
            return None
        service = ctrl._service
        load = ctrl.memory.load
        port_name = self.port_name

        def read(addr: int, nbytes: int, now: int):
            complete = service(port_name, addr, nbytes, now)
            ctrl.bytes_read += nbytes
            return load(addr, nbytes), complete

        return read

    def resolve_bulk_read(self, lo: int, hi: int) -> Optional[BulkRead]:
        """Bulk sibling of :meth:`resolve_burst_read` (see ``BulkRead``).

        Schedules a run that continues this port's sequential stream:
        every burst after the first is issued ``gap`` cycles after the
        previous one completes, when the port is idle again, so burst
        ``i`` completes at ``start + (i + 1) * beats + i * gap``, plus
        ``row_miss_penalty`` per row the stream has entered since the
        open row: the row of burst ``i``'s last byte minus the open row.
        The plan refuses a non-sequential first burst and bursts longer
        than a row, so each burst enters at most one row; the resolve
        refuses a capped device bandwidth (``device_beats_per_cycle``),
        whose shared watermark has no such closed form.
        """
        ctrl = self.controller
        if lo >= hi or hi > ctrl.size or ctrl._device_beats_per_cycle:
            return None
        state = ctrl._ports[self.port_name]
        row_bytes = ctrl._row_bytes
        penalty = ctrl._row_miss_penalty
        per_beat = ctrl._bytes_per_beat
        load = ctrl.memory.load

        def plan(addr: int, nbytes: int, count: int, now: int, gap: int
                 ) -> Optional[Tuple[np.ndarray, Callable[[int], bytes]]]:
            open_row = state.open_row
            if (addr != state.next_seq_addr or open_row is None
                    or nbytes > row_bytes):
                return None
            beats = -(-nbytes // per_beat)
            start = state.busy_until if state.busy_until > now else now
            step = beats + gap
            first = start + beats
            done = np.arange(first, first + count * step, step,
                             dtype=np.int64)
            last_byte = np.arange(addr + nbytes - 1, addr + count * nbytes,
                                  nbytes, dtype=np.int64)
            done += (last_byte // row_bytes - open_row) * penalty

            def commit(n: int) -> bytes:
                last_row = (addr + n * nbytes - 1) // row_bytes
                ctrl.row_activates += last_row - open_row
                ctrl.bytes_read += n * nbytes
                state.busy_until = int(done[n - 1])
                state.next_seq_addr = addr + n * nbytes
                state.open_row = last_row
                return load(addr, n * nbytes)

            return done, commit

        return plan

    def resolve_burst_write(self, lo: int, hi: int) -> Optional[Callable[[int, bytes, int], int]]:
        """Mirror of :meth:`resolve_burst_read` for writes."""
        ctrl = self.controller
        if lo >= hi or hi > ctrl.size:
            return None
        service = ctrl._service
        store = ctrl.memory.store
        port_name = self.port_name

        def write(addr: int, data: bytes, now: int) -> int:
            complete = service(port_name, addr, len(data), now)
            store(addr, data)
            ctrl.bytes_written += len(data)
            return complete

        return write

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self.controller._read(self.port_name, addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self.controller._write(self.port_name, addr, data, now)

    def read_burst(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self.controller._read(self.port_name, addr, nbytes, now)

    def write_burst(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self.controller._write(self.port_name, addr, data, now)
