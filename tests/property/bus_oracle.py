"""The plain data-path bodies: the bus layers' oracle.

Each data-path layer times a burst in one place, its resolved port: the
crossbar's arbitration closure per region and direction, a DDR port's
read, write and timing-only bodies, the stream switch's accept and
produce ports.  The plain methods are thin wrappers over those ports.
This module keeps the per-call bodies the ports replaced, as the
reference ``test_bus_port_equiv.py`` compares against:

* :func:`route` — the crossbar's decode and arbitration, per call;
* :func:`ddr_read`, :func:`ddr_write` and :func:`ddr_fill_timing` —
  the DDR's bounds check and bookkeeping around :func:`ddr_service`,
  the row-aware timing core, on a port's state;
* :func:`switch_accept` and :func:`switch_produce` — the stream
  switch's stage and per-port byte counter, per call.

:func:`install` binds them over one fabric's objects (instance
attributes shadow the class methods), so a twin fabric built from the
same production classes runs the oracle while the other runs the
ports.  Every oracle call records the object it ran on in :data:`RAN_ON`
for the liveness check.  The module imports only ``repro``.
"""

from __future__ import annotations

import types
from collections import Counter
from typing import Iterable, Tuple

from repro.axi.crossbar import AxiCrossbar
from repro.axi.stream_switch import AxiStreamSwitch
from repro.axi.types import AxiResp, AxiResult
from repro.errors import BusError
from repro.mem.ddr import DdrController, DdrPort

#: oracle calls per ``(body, id(object))``; the caller clears it
RAN_ON: Counter = Counter()


def route(xbar: AxiCrossbar, addr: int, now: int, is_read: bool,
          nbytes: int, data: bytes) -> AxiResult:
    """One crossbar transaction: decode, arbitrate, call the slave."""
    RAN_ON["route", id(xbar)] += 1
    # most traffic streams to one slave (DMA bursts, polling loops):
    # re-check the most recently decoded region before searching
    region = xbar._last_region
    if region is None or not (region.base <= addr < region.end):
        region = xbar.memory_map.decode(addr)
        if region is None:
            xbar.decode_errors += 1
            return AxiResult(b"", now + xbar.request_latency, AxiResp.DECERR)
        xbar._last_region = region
    xbar.transactions += 1
    key = id(region)
    arrive = now + xbar.request_latency
    start = max(arrive, xbar._busy_until.get(key, 0))
    if start > arrive and xbar.obs is not None:
        xbar._wait_counter(region).value += start - arrive
    local = addr - region.base
    slave = region.slave
    if is_read:
        result = slave.read(local, nbytes, start)
    else:
        result = slave.write(local, data, start)
    # the slave port is occupied until its response is produced
    xbar._busy_until[key] = result.complete_at
    return AxiResult(
        result.data, result.complete_at + xbar.response_latency, result.resp
    )


def ddr_service(port: DdrPort, addr: int, nbytes: int, now: int) -> int:
    """The DDR timing core on ``port``'s state: first-access latency,
    row misses, one cycle per beat, the shared device watermark."""
    ctrl = port.controller
    timing = ctrl.timing
    beats = -(-nbytes // timing.bytes_per_beat) if nbytes else 1
    start = port.busy_until
    if now > start:
        start = now
    device_bw = timing.device_beats_per_cycle
    if device_bw and ctrl._device_free > start:
        start = ctrl._device_free
    cost = beats
    row_bytes = timing.row_bytes
    first_row = addr // row_bytes
    last_row = (addr + nbytes - 1) // row_bytes if nbytes else first_row
    if addr != port.next_seq_addr:
        cost += timing.first_access_latency
        ctrl.row_activates += 1 + (last_row - first_row)
    else:
        # a sequential stream pays precharge/activate once per row
        # it enters (relative to the port's open row)
        new_rows = last_row - first_row
        if port.open_row is not None and first_row != port.open_row:
            new_rows += 1
        cost += new_rows * timing.row_miss_penalty
        ctrl.row_activates += new_rows
    port.open_row = last_row
    port.next_seq_addr = addr + nbytes
    port.busy_until = start + cost
    if device_bw:
        ctrl._device_free = start + -(-beats // device_bw)
    return port.busy_until


def ddr_read(port: DdrPort, addr: int, nbytes: int, now: int) -> AxiResult:
    RAN_ON["ddr_read", id(port)] += 1
    ctrl = port.controller
    if addr + nbytes > ctrl.size:
        return AxiResult(b"", now + 1, AxiResp.SLVERR)
    complete = ddr_service(port, addr, nbytes, now)
    ctrl.bytes_read += nbytes
    return AxiResult(ctrl.memory.load(addr, nbytes), complete)


def ddr_write(port: DdrPort, addr: int, data: bytes, now: int) -> AxiResult:
    RAN_ON["ddr_write", id(port)] += 1
    ctrl = port.controller
    if addr + len(data) > ctrl.size:
        return AxiResult(b"", now + 1, AxiResp.SLVERR)
    complete = ddr_service(port, addr, len(data), now)
    ctrl.memory.store(addr, data)
    ctrl.bytes_written += len(data)
    return AxiResult(b"", complete)


def ddr_fill_timing(port: DdrPort, addr: int, nbytes: int, now: int) -> int:
    """Completion of a read burst with its side effects, minus the data
    copy (a cache line fill)."""
    RAN_ON["ddr_fill_timing", id(port)] += 1
    ctrl = port.controller
    if addr + nbytes > ctrl.size:
        return now + 1
    complete = ddr_service(port, addr, nbytes, now)
    ctrl.bytes_read += nbytes
    return complete


def switch_accept(switch: AxiStreamSwitch, data: bytes, now: int) -> int:
    """Forward a burst to the selected sink (adds one stage)."""
    RAN_ON["switch_accept", id(switch)] += 1
    if switch._selected is None:
        raise BusError(f"switch {switch.name!r}: no port selected")
    sink = switch._sinks.get(switch._selected)
    if sink is None:
        raise BusError(
            f"switch {switch.name!r}: port {switch._selected!r} has no sink"
        )
    if switch.obs is not None:
        switch._port_counter(switch._selected).inc(len(data))
    return sink.accept(data, now + switch.stage_latency)


def switch_produce(switch: AxiStreamSwitch, nbytes: int,
                   now: int) -> Tuple[bytes, int]:
    """Pull a burst from the selected source (adds one stage).

    The per-port byte counter is registered before the source is asked,
    so an empty produce leaves it at 0.  The resolved port, which every
    DMA transfer used, always registered it that way; the plain body
    used to register it with the first bytes only, and that difference
    is gone with the plain body.
    """
    RAN_ON["switch_produce", id(switch)] += 1
    if switch._selected is None:
        raise BusError(f"switch {switch.name!r}: no port selected")
    source = switch._sources.get(switch._selected)
    if source is None:
        raise BusError(
            f"switch {switch.name!r}: port {switch._selected!r} has no source"
        )
    counter = (switch._port_counter(switch._selected)
               if switch.obs is not None else None)
    data, done = source.produce(nbytes, now + switch.stage_latency)
    if counter is not None and data:
        counter.inc(len(data))
    return data, done


def _bind_ddr(owner: object, port: DdrPort) -> None:
    owner.read = (  # type: ignore[attr-defined]
        lambda addr, nbytes, now: ddr_read(port, addr, nbytes, now))
    owner.write = (  # type: ignore[attr-defined]
        lambda addr, data, now: ddr_write(port, addr, data, now))


def install(crossbars: Iterable[AxiCrossbar], ddr: DdrController,
            switch: AxiStreamSwitch) -> None:
    """Bind the oracle bodies over these objects' plain methods: the
    crossbars route every call, the controller and each of its ports
    read and write through the DDR bodies, the switch forwards per call.
    """
    for xbar in crossbars:
        xbar.read = (  # type: ignore[method-assign]
            lambda addr, nbytes, now, xbar=xbar:
            route(xbar, addr, now, True, nbytes, b""))
        xbar.write = (  # type: ignore[method-assign]
            lambda addr, data, now, xbar=xbar:
            route(xbar, addr, now, False, 0, data))
    _bind_ddr(ddr, ddr.port("default"))
    for port in ddr._ports.values():
        _bind_ddr(port, port)
    switch.accept = types.MethodType(  # type: ignore[method-assign]
        switch_accept, switch)
    switch.produce = types.MethodType(  # type: ignore[method-assign]
        switch_produce, switch)
