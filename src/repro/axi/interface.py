"""Abstract AXI slave interface and a register-bank helper.

Every memory-mapped component implements :class:`AxiSlave`.  Addresses
passed to a slave are *local* (offset from the slave's base); the
crossbar performs the translation.

A data transfer is timed in one place per layer, the layer's *resolved
port* (:data:`DataPort`): a master resolves it once per route with
:meth:`AxiSlave.resolve_read`/:meth:`~AxiSlave.resolve_write` and calls
it once per burst.  A layer with timing of its own (the crossbar, the
DDR) builds its port and makes its plain :meth:`AxiSlave.read`/
:meth:`~AxiSlave.write` thin wrappers over it; every other slave gets a
default port over its plain methods.  A failed burst comes back in the
port's result (DECERR, SLVERR, an injected fault), like a plain
transaction's.

A :class:`RegisterBank` also hands its storage, hook and latency for
one register to :mod:`repro.axi.fastpath` (``read_port_parts`` /
``write_port_parts``), which fuses the whole interconnect chain in
front of it into one closure; any access the fuser refuses takes the
plain :meth:`AxiSlave.read`/:meth:`AxiSlave.write` transaction.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple, TypeVar

import numpy as np

from repro.axi.types import AxiResp, AxiResult, encode_word
from repro.errors import AlignmentError

#: fused read port: ``f(now) -> (value, complete_at)``
ReadPort = Callable[[int], Tuple[int, int]]
#: fused write port: ``f(value, now) -> complete_at`` (``value`` is
#: already masked to the access width)
WritePort = Callable[[int, int], int]
_P = TypeVar("_P")
#: resolved data port: ``f(addr, payload, now) -> (data, complete_at,
#: resp)`` for one burst at ``addr``, issued at ``now``.  The payload is
#: the byte count of a read (``DataPort[int]``) or the bytes of a write
#: (``DataPort[bytes]``, whose ``data`` is ``b""``), and
#: ``AxiResult(*port(addr, payload, now))`` is the plain transaction.
DataPort = Callable[[int, _P, int], Tuple[bytes, int, AxiResp]]
#: resolved bulk burst reader: ``plan(addr, nbytes, count, now, gap)``
#: schedules ``count`` back-to-back ``nbytes`` bursts from ``addr``, the
#: first issued at ``now`` and each later one ``gap`` cycles after the
#: previous one completes.  It returns ``(complete_at, commit)`` without
#: touching any state; ``commit(n)`` then applies exactly the side
#: effects of the first ``n`` per-burst reads and returns their data.
#: ``None`` when the layer cannot schedule the run in closed form.
BulkRead = Callable[
    [int, int, int, int, int],
    Optional[Tuple[np.ndarray, Callable[[int], bytes]]],
]


class AxiSlave(abc.ABC):
    """A memory-mapped AXI slave with transaction-level timing.

    ``read_latency`` / ``write_latency`` are the slave-internal service
    times in cycles (address accepted -> response valid); path latency
    is added by the interconnect components in front of the slave.
    """

    #: slave-internal service time for reads, in cycles
    read_latency: int = 1
    #: slave-internal service time for writes, in cycles
    write_latency: int = 1

    @abc.abstractmethod
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        """Service a read of ``nbytes`` at local address ``addr``."""

    @abc.abstractmethod
    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        """Service a write of ``data`` at local address ``addr``."""

    # Resolved ports (see ``DataPort``).  These defaults wrap the plain
    # methods, looked up per call; a layer with timing of its own
    # overrides them and wraps its plain methods around its ports.
    def resolve_read(self, lo: int, hi: int) -> DataPort[int]:
        """The read port for bursts inside the local window [lo, hi)."""

        def port(addr: int, nbytes: int, now: int) -> Tuple[bytes, int, AxiResp]:
            result = self.read(addr, nbytes, now)
            return result.data, result.complete_at, result.resp

        return port

    def resolve_write(self, lo: int, hi: int) -> DataPort[bytes]:
        """The write port for bursts inside the local window [lo, hi)."""

        def port(addr: int, data: bytes, now: int) -> Tuple[bytes, int, AxiResp]:
            result = self.write(addr, data, now)
            return result.data, result.complete_at, result.resp

        return port

    def resolve_fill_port(self, lo: int, hi: int) -> DataPort[int]:
        """A timing-only read port for bursts inside [lo, hi): a read's
        completion and side effects, its data possibly left out (cache
        line fills move data through a backdoor).  Default: the read
        port."""
        return self.resolve_read(lo, hi)


ReadHook = Callable[[int], int]
WriteHook = Callable[[int], None]


class RegisterBank(AxiSlave):
    """A 32-bit register file with per-register read/write hooks.

    This is the workhorse behind every control interface in the design
    (DMA register file, HWICAP registers, RP control interface, SPI,
    UART...).  Registers are 32 bits wide and word-aligned, matching the
    AXI4-Lite interfaces of the corresponding Xilinx IP cores.
    """

    #: declared width contract: True means this register file models a
    #: 32-bit AXI4-Lite IP port and must sit behind an AXI4->Lite
    #: protocol converter on the 64-bit interconnect (the DRC enforces
    #: this); platform blocks like the CLINT/PLIC accept native 64-bit
    #: accesses and leave it False
    lite_only: bool = False

    def __init__(self, name: str, size: int = 0x1000) -> None:
        self.name = name
        self.size = size
        self._storage: Dict[int, int] = {}
        self._read_hooks: Dict[int, ReadHook] = {}
        self._write_hooks: Dict[int, WriteHook] = {}
        self._write_masks: Dict[int, int] = {}
        self._read_only: set[int] = set()

    # ------------------------------------------------------------------
    # configuration API used by subclasses
    # ------------------------------------------------------------------
    def define_register(
        self,
        offset: int,
        *,
        reset: int = 0,
        on_read: ReadHook | None = None,
        on_write: WriteHook | None = None,
        write_mask: int | None = None,
        read_only: bool = False,
    ) -> None:
        """Declare a register at byte ``offset`` with optional hooks.

        ``on_read`` replaces the stored value entirely (status
        registers); ``on_write`` observes the stored value after update
        (command registers).

        ``write_mask`` and ``read_only`` are *declarative* metadata for
        the static firmware verifier (:mod:`repro.verify`): bits outside
        ``write_mask`` are reserved (software must write them as zero),
        and ``read_only`` marks status registers whose writes the IP
        ignores entirely.  Neither changes runtime behaviour — the model
        keeps the permissive semantics of the RTL it mirrors, where the
        hook decides what a write means.
        """
        if offset % 4:
            raise AlignmentError(f"{self.name}: register offset {offset:#x} unaligned")
        self._storage[offset] = reset & 0xFFFF_FFFF
        if on_read is not None:
            self._read_hooks[offset] = on_read
        if on_write is not None:
            self._write_hooks[offset] = on_write
        if read_only:
            self._read_only.add(offset)
            self._write_masks[offset] = 0
        elif write_mask is not None:
            self._write_masks[offset] = write_mask & 0xFFFF_FFFF

    # ------------------------------------------------------------------
    # declarative introspection (consumed by repro.verify / repro.lint)
    # ------------------------------------------------------------------
    def register_offsets(self) -> Tuple[int, ...]:
        """Declared register offsets, ascending."""
        return tuple(sorted(self._storage))

    def has_register(self, offset: int) -> bool:
        return offset in self._storage

    def register_write_mask(self, offset: int) -> int:
        """Writable-bit mask for the register at ``offset``.

        Registers declared without ``write_mask`` are fully writable;
        ``read_only`` registers report mask 0.
        """
        return self._write_masks.get(offset, 0xFFFF_FFFF)

    def register_is_read_only(self, offset: int) -> bool:
        return offset in self._read_only

    def peek(self, offset: int) -> int:
        """Read stored value without invoking hooks (for tests/models)."""
        return self._storage.get(offset, 0)

    def poke(self, offset: int, value: int) -> None:
        """Set stored value without invoking hooks (for tests/models)."""
        self._storage[offset] = value & 0xFFFF_FFFF

    # Port *parts* let the fuser (repro.axi.fastpath) inline the
    # register access into its closure.  Returns (storage, hook,
    # service_latency, capture_now): ``capture_now`` is True when the
    # slave wants its ``_now`` attribute stamped with the access time
    # before the storage/hook side effects run (AxiHwIcap).  Only when
    # read()/write() are not overridden: a subclass override may add
    # behaviour the closure would bypass (SpiController.write).
    def read_port_parts(self, addr: int, nbytes: int) -> Optional[
        Tuple[Dict[int, int], Optional[ReadHook], int, bool]
    ]:
        if type(self).read is not RegisterBank.read:
            return None
        if nbytes != 4 or addr % 4 or addr >= self.size:
            return None
        return self._storage, self._read_hooks.get(addr), self.read_latency, False

    def write_port_parts(self, addr: int, nbytes: int) -> Optional[
        Tuple[Dict[int, int], Optional[WriteHook], int, bool]
    ]:
        if type(self).write is not RegisterBank.write:
            return None
        if nbytes != 4 or addr % 4 or addr >= self.size:
            return None
        return self._storage, self._write_hooks.get(addr), self.write_latency, False

    # ------------------------------------------------------------------
    # AxiSlave implementation
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        complete = now + self.read_latency
        if nbytes == 4 and not addr % 4:
            # AXI4-Lite single-word fast path (the dominant access)
            if addr >= self.size:
                return AxiResult(b"", complete, AxiResp.SLVERR)
            hook = self._read_hooks.get(addr)
            value = hook(addr) if hook else self._storage.get(addr, 0)
            value &= 0xFFFF_FFFF
            self._storage[addr] = value
            return AxiResult(value.to_bytes(4, "little"), complete)
        if nbytes not in (4, 8) or addr % 4:
            return AxiResult(b"", complete, AxiResp.SLVERR)
        words = []
        for off in range(addr, addr + nbytes, 4):
            if off >= self.size:
                return AxiResult(b"", complete, AxiResp.SLVERR)
            hook = self._read_hooks.get(off)
            value = hook(off) if hook else self._storage.get(off, 0)
            self._storage[off] = value & 0xFFFF_FFFF
            words.append(encode_word(value, 4))
        return AxiResult(b"".join(words), complete)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        complete = now + self.write_latency
        if len(data) == 4 and not addr % 4:
            if addr >= self.size:
                return AxiResult(b"", complete, AxiResp.SLVERR)
            value = int.from_bytes(data, "little")
            self._storage[addr] = value
            hook = self._write_hooks.get(addr)
            if hook:
                hook(value)
            return AxiResult(b"", complete)
        if len(data) not in (4, 8) or addr % 4:
            return AxiResult(b"", complete, AxiResp.SLVERR)
        for i, off in enumerate(range(addr, addr + len(data), 4)):
            if off >= self.size:
                return AxiResult(b"", complete, AxiResp.SLVERR)
            value = int.from_bytes(data[4 * i : 4 * i + 4], "little")
            self._storage[off] = value
            hook = self._write_hooks.get(off)
            if hook:
                hook(value)
        return AxiResult(b"", complete)
