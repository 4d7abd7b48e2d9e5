"""One fused closure per 32-bit MMIO register access.

A hart or host-driver access to a register bank crosses up to three
interconnect layers: the crossbar region (request and response
register slices plus an arbitration watermark), the 64->32 width
converter (a pure request delay) and the AXI4->AXI4-Lite protocol
converter (one stage each way, one transaction at a time).  Issued as a
plain :meth:`AxiCrossbar.read`/:meth:`~AxiCrossbar.write`, that is one
Python call frame and one ``AxiResult`` per layer; the hot MMIO paths
(the HWICAP write-FIFO stream is ~1 store per bitstream word, the CLINT
``mtime`` halves are read around every transfer) pay it per access.

This module walks the topology once per register and emits one closure
that reproduces the plain transaction exactly: timing, the region and
converter watermarks, the crossbar's counters (bumped inline) and the
register's storage and hook.  A chain fuses when it runs from a
crossbar region through any number of width converters and at most one
AXI4-Lite converter to a terminal that exposes ``read_port_parts`` /
``write_port_parts`` (see :class:`~repro.axi.interface.RegisterBank`).
Everything else is refused (``None``) and the caller issues the plain
transaction, the only other path: 64-bit, sub-word, unaligned and
unmapped accesses, the isolated RM port, memories, and SPI writes
(``SpiController.write`` adds the shift time).

Batched pushes
--------------
When the terminal register is a *pure push* register (its slave's
``push_register`` returns a push routine: the write schedules no event,
raises no interrupt and reads no time, like the HWICAP write FIFO),
:func:`fuse_push_batch` gives the same fused chain a closed-form commit
of ``n`` stores.  The hart waits for every non-posted store's response
before it issues the next, so the stores of one run never contend for
the crossbar region or the serializing converter: each costs the same
constant ``cost`` cycles from issue to response, and after the run the
watermarks, counters and register state are those the last store
leaves.  ``clear(now)`` checks that the run's first store meets no
contention either; only then may a caller batch.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.axi.crossbar import AxiCrossbar
from repro.axi.interface import AxiSlave, ReadPort, WritePort
from repro.axi.memory_map import Region
from repro.axi.protocol_converter import Axi4ToLiteConverter
from repro.axi.width_converter import AxiWidthConverter


def _chain(bus: object, addr: int, nbytes: int) -> Optional[
    Tuple[AxiCrossbar, Region, AxiSlave, int, int,
          Optional[Axi4ToLiteConverter]]
]:
    """Walk a fusible chain: ``(xbar, region, terminal, local, entry,
    proto)``, else ``None``.

    ``entry`` is the request-side delay from the region to the terminal
    (every converter's stage); ``proto`` is the AXI4-Lite converter, or
    ``None`` when the chain has none (the CLINT and the PLIC).  A layer
    below the AXI4-Lite converter refuses the chain.
    """
    if not isinstance(bus, AxiCrossbar):
        return None
    region = bus.memory_map.decode(addr)
    if region is None:
        return None
    local = addr - region.base
    entry = 0
    proto: Optional[Axi4ToLiteConverter] = None
    slave = region.slave
    while isinstance(slave, (AxiWidthConverter, Axi4ToLiteConverter)):
        if proto is not None:
            return None
        if isinstance(slave, AxiWidthConverter):
            if nbytes + local % slave.narrow_bytes > slave.narrow_bytes:
                return None
        elif nbytes > slave.lite_width:
            return None
        else:
            proto = slave
        entry += slave.stage_latency
        slave = slave.inner
    return bus, region, slave, local, entry, proto


class PushBatch(NamedTuple):
    """Closed-form commit of a run of stores to one pure push register.

    ``cost`` is the cycles from a store's issue to its response when it
    meets no contention.  ``clear(now)`` is True when a store issued at
    ``now`` meets none.  ``commit(values, last)`` applies the side
    effects of ``len(values)`` back-to-back stores, the last one issued
    at ``last``; the caller has charged each store its ``cost``.
    """

    cost: int
    clear: Callable[[int], bool]
    commit: Callable[[List[int], int], None]


def fuse_write_port(bus: object, addr: int,
                    nbytes: int) -> Optional[WritePort]:
    """The fused write port of a register, else ``None``."""
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, entry, proto = chain
    parts_fn = getattr(terminal, "write_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if parts is None:
        return None
    storage, hook, latency, capture = parts
    p_exit = proto.stage_latency if proto is not None else 0
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    response = xbar.response_latency

    def port(value: int, now: int) -> int:
        xbar.transactions += 1
        arrive = now + request
        start = busy.get(key, 0)
        if start < arrive:
            start = arrive
        if xbar.obs is not None:
            xbar._c_txn.value += 1  # type: ignore[union-attr]
            if start > arrive:
                xbar._wait_counter(region).value += start - arrive
        time = start + entry
        if proto is not None and proto._busy_until > time:
            time = proto._busy_until
        if capture:
            terminal._now = time  # type: ignore[attr-defined]
        storage[local] = value
        if hook is not None:
            hook(value)
        complete = time + latency
        if proto is not None:
            proto._busy_until = complete
            complete += p_exit
        busy[key] = complete
        return complete + response

    return port


def fuse_push_batch(bus: object, addr: int,
                    nbytes: int) -> Optional[PushBatch]:
    """The batch commit of a fusible store to a pure push register.

    ``None`` unless the store fuses (see :func:`fuse_write_port`) and
    the terminal declares the register a pure push register.
    """
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, entry, proto = chain
    push_fn = getattr(terminal, "push_register", None)
    push: Optional[Callable[[Sequence[int]], None]] = (
        push_fn(local, nbytes) if push_fn is not None else None)
    parts_fn = getattr(terminal, "write_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if push is None or parts is None:
        return None
    storage, _hook, latency, capture = parts
    p_exit = proto.stage_latency if proto is not None else 0
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    bound_push = push

    def clear(now: int) -> bool:
        arrive = now + request
        return (busy.get(key, 0) <= arrive
                and (proto is None or proto._busy_until <= arrive + entry))

    def commit(values: List[int], last: int) -> None:
        count = len(values)
        xbar.transactions += count
        if xbar.obs is not None:
            xbar._c_txn.value += count  # type: ignore[union-attr]
        time = last + request + entry
        if capture:
            terminal._now = time  # type: ignore[attr-defined]
        storage[local] = values[-1]
        bound_push(values)
        complete = time + latency
        if proto is not None:
            proto._busy_until = complete
            complete += p_exit
        busy[key] = complete

    cost = request + entry + latency + p_exit + xbar.response_latency
    return PushBatch(cost, clear, commit)


def fuse_read_port(bus: object, addr: int,
                   nbytes: int) -> Optional[ReadPort]:
    """The fused read port of a register, else ``None``."""
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, entry, proto = chain
    parts_fn = getattr(terminal, "read_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if parts is None:
        return None
    storage, hook, latency, capture = parts
    p_exit = proto.stage_latency if proto is not None else 0
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    response = xbar.response_latency

    def port(now: int) -> Tuple[int, int]:
        xbar.transactions += 1
        arrive = now + request
        start = busy.get(key, 0)
        if start < arrive:
            start = arrive
        if xbar.obs is not None:
            xbar._c_txn.value += 1  # type: ignore[union-attr]
            if start > arrive:
                xbar._wait_counter(region).value += start - arrive
        time = start + entry
        if proto is not None and proto._busy_until > time:
            time = proto._busy_until
        if capture:
            terminal._now = time  # type: ignore[attr-defined]
        if hook is not None:
            value = hook(local) & 0xFFFF_FFFF
        else:
            value = storage.get(local, 0) & 0xFFFF_FFFF
        storage[local] = value
        complete = time + latency
        if proto is not None:
            proto._busy_until = complete
            complete += p_exit
        busy[key] = complete
        return value, complete + response

    return port
