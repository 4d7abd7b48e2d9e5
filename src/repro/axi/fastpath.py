"""Cross-layer fusion of resolved MMIO ports.

The resolved-port protocol (:mod:`repro.axi.interface`) lets each
interconnect layer wrap its inner layer's port in one closure, so a
hart-to-register access still pays one Python call frame per layer:
crossbar -> protocol converter -> register bank.  For the hot MMIO
paths (the HWICAP write-FIFO stream is ~1 store per bitstream word)
those frames dominate the simulation cost.

This module flattens the *interconnect* layers of a chain into a single
closure.  It structurally walks the topology from a crossbar region
down through pure-delay width converters (which already fold into
``lead``) and serializing AXI4-Lite converters, then resolves the
terminal slave's own port and emits one closure that reproduces the
exact timing, arbitration-watermark, and counter side effects of the
nested chain.  Unknown layers or shapes refuse fusion (``None``) and
the caller falls back to the plain nested resolution, which itself
falls back to the fully timed path.

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
from repro.axi.protocol_converter import Axi4ToLiteConverter
from repro.axi.width_converter import AxiWidthConverter


def _walk(xbar: AxiCrossbar, addr: int, nbytes: int) -> Optional[
    Tuple[object, AxiSlave, int, int, List[Tuple[Axi4ToLiteConverter, int]]]
]:
    """Descend from a crossbar region to the terminal slave.

    Returns ``(region, terminal, local_addr, lead, stages)`` where
    ``stages`` is the list of serializing converters passed through,
    each with the entry delay accumulated from the pure-delay layers
    directly above it.  ``None`` when the address does not decode or a
    layer/shape is not fusible.
    """
    region = xbar.memory_map.decode(addr)
    if region is None:
        return None
    local = addr - region.base
    lead = 0
    slave: AxiSlave = region.slave
    stages: List[Tuple[Axi4ToLiteConverter, int]] = []
    while True:
        if isinstance(slave, AxiWidthConverter):
            if nbytes + local % slave.narrow_bytes > slave.narrow_bytes:
                return None
            lead += slave.stage_latency
            slave = slave.inner
        elif isinstance(slave, Axi4ToLiteConverter):
            if nbytes > slave.lite_width:
                return None
            stages.append((slave, lead + slave.stage_latency))
            lead = 0
            slave = slave.inner
        else:
            return region, slave, local, lead, stages


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


def _chain(bus: object, addr: int, nbytes: int) -> Optional[
    Tuple[AxiCrossbar, object, AxiSlave, int, int, Axi4ToLiteConverter, int]
]:
    """Walk a fusible chain: ``(xbar, region, terminal, local, lead,
    proto, p_entry)``, or ``None`` unless it has exactly one
    serializing stage."""
    if not isinstance(bus, AxiCrossbar):
        return None
    walked = _walk(bus, addr, nbytes)
    if walked is None:
        return None
    region, terminal, local, lead, stages = walked
    if len(stages) != 1:
        # 0 stages: the plain chain is already minimal; >1: rare shape,
        # not worth a specialized emitter — use the nested resolution
        return None
    proto, p_entry = stages[0]
    return bus, region, terminal, local, lead, proto, p_entry


def fuse_write_port(bus: object, addr: int,
                    nbytes: int) -> Optional[WritePort]:
    """A single-closure write port for a fusible chain, else ``None``."""
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, lead, proto, p_entry = chain
    p_exit = proto.stage_latency
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    response = xbar.response_latency

    parts_fn = getattr(terminal, "write_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if parts is not None:
        # fully fused: the terminal register action is inlined too
        storage, hook, t_lat, capture = parts
        delay = lead + t_lat

        def port(value: int, now: int) -> int:
            xbar.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if xbar.obs is not None:
                xbar._c_txn.inc()  # type: ignore[union-attr]
                if start > arrive:
                    xbar._wait_counter(region).inc(start - arrive)
            time = start + p_entry
            if proto._busy_until > time:
                time = proto._busy_until
            if capture:
                terminal._now = time  # type: ignore[attr-defined]
            storage[local] = value
            if hook is not None:
                hook(value)
            complete = time + delay
            proto._busy_until = complete
            complete += p_exit
            busy[key] = complete
            return complete + response

        return port

    inner = terminal.resolve_write_port(local, nbytes, lead)
    if inner is None:
        return None

    def nested_port(value: int, now: int) -> int:
        xbar.transactions += 1
        arrive = now + request
        start = busy.get(key, 0)
        if start < arrive:
            start = arrive
        if xbar.obs is not None:
            xbar._c_txn.inc()  # type: ignore[union-attr]
            if start > arrive:
                xbar._wait_counter(region).inc(start - arrive)
        time = start + p_entry
        if proto._busy_until > time:
            time = proto._busy_until
        complete = inner(value, time)
        proto._busy_until = complete
        complete += p_exit
        busy[key] = complete
        return complete + response

    return nested_port


def fuse_push_batch(bus: object, addr: int,
                    nbytes: int) -> Optional[PushBatch]:
    """The batch commit of a fusible store to a pure push register.

    ``None`` unless the chain fuses fully (see :func:`fuse_write_port`)
    and the terminal declares the register a pure push register.
    """
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, lead, proto, p_entry = chain
    push_fn = getattr(terminal, "push_register", None)
    push: Optional[Callable[[Sequence[int]], None]] = (
        push_fn(local, nbytes) if push_fn is not None else None)
    parts_fn = getattr(terminal, "write_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if push is None or parts is None:
        return None
    storage, _hook, t_lat, capture = parts
    p_exit = proto.stage_latency
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    delay = lead + t_lat
    bound_push = push

    def clear(now: int) -> bool:
        arrive = now + request
        return (busy.get(key, 0) <= arrive
                and proto._busy_until <= arrive + p_entry)

    def commit(values: List[int], last: int) -> None:
        count = len(values)
        xbar.transactions += count
        if xbar.obs is not None:
            xbar._c_txn.inc(count)  # type: ignore[union-attr]
        time = last + request + p_entry
        if capture:
            terminal._now = time  # type: ignore[attr-defined]
        storage[local] = values[-1]
        bound_push(values)
        complete = time + delay
        proto._busy_until = complete
        busy[key] = complete + p_exit

    cost = request + p_entry + delay + p_exit + xbar.response_latency
    return PushBatch(cost, clear, commit)


def fuse_read_port(bus: object, addr: int,
                   nbytes: int) -> Optional[ReadPort]:
    """A single-closure read port for a fusible chain, else ``None``."""
    chain = _chain(bus, addr, nbytes)
    if chain is None:
        return None
    xbar, region, terminal, local, lead, proto, p_entry = chain
    p_exit = proto.stage_latency
    busy = xbar._busy_until
    key = id(region)
    request = xbar.request_latency
    response = xbar.response_latency

    parts_fn = getattr(terminal, "read_port_parts", None)
    parts = parts_fn(local, nbytes) if parts_fn is not None else None
    if parts is not None:
        # fully fused: the terminal register action is inlined too
        storage, hook, t_lat, capture = parts
        delay = lead + t_lat

        def port(now: int) -> Tuple[int, int]:
            xbar.transactions += 1
            arrive = now + request
            start = busy.get(key, 0)
            if start < arrive:
                start = arrive
            if xbar.obs is not None:
                xbar._c_txn.inc()  # type: ignore[union-attr]
                if start > arrive:
                    xbar._wait_counter(region).inc(start - arrive)
            time = start + p_entry
            if proto._busy_until > time:
                time = proto._busy_until
            if capture:
                terminal._now = time  # type: ignore[attr-defined]
            if hook is not None:
                value = hook(local) & 0xFFFF_FFFF
            else:
                value = storage.get(local, 0) & 0xFFFF_FFFF
            storage[local] = value
            complete = time + delay
            proto._busy_until = complete
            complete += p_exit
            busy[key] = complete
            return value, complete + response

        return port

    inner = terminal.resolve_read_port(local, nbytes, lead)
    if inner is None:
        return None

    def nested_port(now: int) -> Tuple[int, int]:
        xbar.transactions += 1
        arrive = now + request
        start = busy.get(key, 0)
        if start < arrive:
            start = arrive
        if xbar.obs is not None:
            xbar._c_txn.inc()  # type: ignore[union-attr]
            if start > arrive:
                xbar._wait_counter(region).inc(start - arrive)
        time = start + p_entry
        if proto._busy_until > time:
            time = proto._busy_until
        value, complete = inner(time)
        proto._busy_until = complete
        complete += p_exit
        busy[key] = complete
        return value, complete + response

    return nested_port
