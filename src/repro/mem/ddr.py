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

Every access is timed by a :class:`DdrPort`, the controller's
``"default"`` port or a named one, in its resolved read, write or
timing-only body (see :data:`~repro.axi.interface.DataPort`); the plain
``read``/``write`` wrap those bodies, and the bulk plan
(:meth:`DdrPort.resolve_bulk_read`) is the one other form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.axi.interface import AxiSlave, BulkRead, DataPort
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


class DdrController(AxiSlave):
    """The SoC's external memory, fronted by MIG-like timing.

    The controller itself acts as its port ``"default"``; additional
    independent ports come from :meth:`port`.
    """

    def __init__(
        self,
        size: int,
        timing: DdrTiming | None = None,
        name: str = "ddr",
    ) -> None:
        self.name = name
        self.timing = timing or DdrTiming()
        self.memory = SparseMemory(size)
        self._ports: Dict[str, DdrPort] = {}
        self._device_free = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: precharge/activate command pairs issued (power-model input)
        self.row_activates = 0
        self._default = self.port("default")

    @property
    def size(self) -> int:
        return self.memory.size

    def port(self, name: str) -> "DdrPort":
        """The independent AXI port ``name`` into this controller, made
        on first use."""
        port = self._ports.get(name)
        if port is None:
            port = self._ports[name] = DdrPort(self, name)
        return port

    # ------------------------------------------------------------------
    # AxiSlave implementation: the "default" port
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return self._default.read(addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return self._default.write(addr, data, now)

    def resolve_read(self, lo: int, hi: int) -> DataPort[int]:
        return self._default.resolve_read(lo, hi)

    def resolve_write(self, lo: int, hi: int) -> DataPort[bytes]:
        return self._default.resolve_write(lo, hi)

    def resolve_fill_port(self, lo: int, hi: int) -> DataPort[int]:
        return self._default.resolve_fill_port(lo, hi)

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
    """A named, independently arbitrated port of a :class:`DdrController`.

    The port keeps its own state (``busy_until``, the sequential-stream
    address ``next_seq_addr`` and the ``open_row``) and times every
    access in one of three bodies over one timing core: read, write and
    timing-only read (a cache line fill, without the payload copy).
    Each bounds-checks its access and answers past the end of memory
    with SLVERR a cycle later, so the port resolves for any window, and
    the plain :meth:`read`/:meth:`write` wrap the bodies.
    """

    def __init__(self, controller: DdrController, name: str) -> None:
        self.controller = controller
        self.port_name = name
        self.busy_until = 0
        self.next_seq_addr: int | None = None
        self.open_row: int | None = None
        self._read, self._write, self._fill = self._bodies()

    def _bodies(self) -> Tuple[DataPort[int], DataPort[bytes], DataPort[int]]:
        ctrl = self.controller
        timing = ctrl.timing
        per_beat = timing.bytes_per_beat
        row_bytes = timing.row_bytes
        first_access = timing.first_access_latency
        row_miss = timing.row_miss_penalty
        device_bw = timing.device_beats_per_cycle
        size = ctrl.size
        load = ctrl.memory.load
        store = ctrl.memory.store
        okay, slverr = AxiResp.OKAY, AxiResp.SLVERR
        port = self

        def service(addr: int, nbytes: int, now: int) -> int:
            beats = -(-nbytes // per_beat) if nbytes else 1
            start = port.busy_until
            if now > start:
                start = now
            if device_bw and ctrl._device_free > start:
                start = ctrl._device_free
            cost = beats
            first_row = addr // row_bytes
            last_row = (addr + nbytes - 1) // row_bytes if nbytes else first_row
            if addr != port.next_seq_addr:
                cost += first_access
                ctrl.row_activates += 1 + (last_row - first_row)
            else:
                # a sequential stream pays precharge/activate once per
                # row it enters (relative to the port's open row)
                new_rows = last_row - first_row
                if port.open_row is not None and first_row != port.open_row:
                    new_rows += 1
                cost += new_rows * row_miss
                ctrl.row_activates += new_rows
            port.open_row = last_row
            port.next_seq_addr = addr + nbytes
            port.busy_until = done = start + cost
            if device_bw:
                ctrl._device_free = start + -(-beats // device_bw)
            return done

        def read(addr: int, nbytes: int, now: int) -> Tuple[bytes, int, AxiResp]:
            if addr + nbytes > size:
                return b"", now + 1, slverr
            complete = service(addr, nbytes, now)
            ctrl.bytes_read += nbytes
            return load(addr, nbytes), complete, okay

        def write(addr: int, data: bytes, now: int) -> Tuple[bytes, int, AxiResp]:
            nbytes = len(data)
            if addr + nbytes > size:
                return b"", now + 1, slverr
            complete = service(addr, nbytes, now)
            store(addr, data)
            ctrl.bytes_written += nbytes
            return b"", complete, okay

        def fill(addr: int, nbytes: int, now: int) -> Tuple[bytes, int, AxiResp]:
            if addr + nbytes > size:
                return b"", now + 1, slverr
            complete = service(addr, nbytes, now)
            ctrl.bytes_read += nbytes
            return b"", complete, okay

        return read, write, fill

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        return AxiResult(*self._read(addr, nbytes, now))

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        return AxiResult(*self._write(addr, data, now))

    def resolve_read(self, lo: int, hi: int) -> DataPort[int]:
        return self._read

    def resolve_write(self, lo: int, hi: int) -> DataPort[bytes]:
        return self._write

    def resolve_fill_port(self, lo: int, hi: int) -> DataPort[int]:
        return self._fill

    def resolve_bulk_read(self, lo: int, hi: int) -> Optional[BulkRead]:
        """Bulk sibling of :meth:`resolve_read` (see ``BulkRead``).

        Schedules a run that continues this port's sequential stream:
        every burst after the first is issued ``gap`` cycles after the
        previous one completes, when the port is idle again, so burst
        ``i`` completes at ``start + (i + 1) * beats + i * gap``, plus
        ``row_miss_penalty`` per row the stream has entered since the
        open row: the row of burst ``i``'s last byte minus the open row.
        The plan refuses a non-sequential first burst and bursts longer
        than a row, so each burst enters at most one row; the resolve
        refuses a window past the end of memory and a capped device
        bandwidth (``device_beats_per_cycle``), whose shared watermark
        has no such closed form.
        """
        ctrl = self.controller
        timing = ctrl.timing
        if lo >= hi or hi > ctrl.size or timing.device_beats_per_cycle:
            return None
        row_bytes = timing.row_bytes
        penalty = timing.row_miss_penalty
        per_beat = timing.bytes_per_beat
        load = ctrl.memory.load

        def plan(addr: int, nbytes: int, count: int, now: int, gap: int
                 ) -> Optional[Tuple[np.ndarray, Callable[[int], bytes]]]:
            open_row = self.open_row
            if (addr != self.next_seq_addr or open_row is None
                    or nbytes > row_bytes):
                return None
            beats = -(-nbytes // per_beat)
            start = self.busy_until if self.busy_until > now else now
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
                self.busy_until = int(done[n - 1])
                self.next_seq_addr = addr + n * nbytes
                self.open_row = last_row
                return load(addr, n * nbytes)

            return done, commit

        return plan
