"""AXI-Stream channel models.

A stream *sink* accepts payload bytes with backpressure expressed in
time: :meth:`StreamSink.accept` returns the absolute cycle at which the
last byte was consumed.  A stream *source* produces bytes on demand.
The DMA moves data between memory-mapped space and these interfaces at
burst granularity, so a full 650 KB bitstream transfer costs thousands
— not hundreds of thousands — of simulation events.

The DMA calls a sink or source through its resolved port
(:meth:`StreamSink.resolve_accept`, :meth:`StreamSource.resolve_produce`),
resolved once per transfer.  By default that port is the plain method;
a layer that builds a port of its own (the stream switch) makes the
plain method a wrapper over it.

Two closed forms let the DMA engine skip per-burst calls that carry no
choice.  A sink chain may resolve a *bulk accept* (:data:`BulkAccept`):
it schedules a whole run of bursts and commits it in one call.  A
source may declare its *empty-poll law* (:meth:`StreamSource.poll_law`):
what every poll returns while it has no data, until foreign code runs.
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Callable, Optional, Tuple

import numpy as np

from repro.errors import BusError

#: resolved bulk accept, from ``resolve_bulk_accept(lead)`` for arrivals
#: delayed by ``lead`` cycles of pure pipeline stages in the layers
#: above: ``plan(arrivals, nbytes)`` schedules one ``nbytes`` burst per
#: arrival time and returns ``(accept_done, commit)`` without touching
#: any state, or ``None`` when the sink cannot take the run in closed
#: form.  ``commit(data, n)`` then applies exactly the side effects of
#: the first ``n`` per-burst ``accept`` calls (``data`` is their payload,
#: concatenated).
BulkAccept = Callable[
    [np.ndarray, int],
    Optional[Tuple[np.ndarray, Callable[[bytes, int], None]]],
]
#: empty-poll law ``(k, floor)`` of a source: until foreign code runs,
#: a ``produce`` at any cycle ``t`` returns ``(b"", max(t + k, floor))``
#: and changes no state; ``k`` is at least one cycle
PollLaw = Tuple[int, int]
#: resolved accept port: ``f(data, now) -> accept_done``, as ``accept``
AcceptPort = Callable[[bytes, int], int]
#: resolved produce port: ``f(nbytes, now) -> (data, complete_at)``, as
#: ``produce``
ProducePort = Callable[[int, int], Tuple[bytes, int]]


def counted_bulk(plan: BulkAccept, count: Callable[[int], None]) -> BulkAccept:
    """``plan`` whose commits first count the bytes they move, as a
    layer's ``accept`` counts each burst before passing it on."""

    def counted(arrivals: np.ndarray, nbytes: int
                ) -> Optional[Tuple[np.ndarray, Callable[[bytes, int], None]]]:
        planned = plan(arrivals, nbytes)
        if planned is None:
            return None
        done, commit = planned

        def counted_commit(data: bytes, n: int) -> None:
            count(n * nbytes)
            commit(data, n)

        return done, counted_commit

    return counted


class StreamSink(abc.ABC):
    """Consumer side of an AXI-Stream link."""

    @abc.abstractmethod
    def accept(self, data: bytes, now: int) -> int:
        """Consume ``data`` starting at cycle ``now``.

        Returns the absolute cycle at which the final byte has been
        accepted (i.e. when TREADY would have been seen for the last
        beat).  Implementations keep their own ``busy_until`` so that
        back-to-back calls pipeline correctly.
        """

    def resolve_accept(self) -> AcceptPort:
        """The accept port for the next transfer: :meth:`accept`."""
        return self.accept


class StreamSource(abc.ABC):
    """Producer side of an AXI-Stream link."""

    @abc.abstractmethod
    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        """Produce up to ``nbytes`` starting at cycle ``now``.

        Returns ``(data, complete_at)``.  ``data`` may be shorter than
        requested when the source ends its packet (TLAST).
        """

    def resolve_produce(self) -> ProducePort:
        """The produce port for the next transfer: :meth:`produce`."""
        return self.produce

    def poll_law(self) -> Optional[PollLaw]:
        """The source's empty-poll law now, or ``None`` (no closed form,
        or the next poll finds data or the end of the packet)."""
        return None


class NullSink(StreamSink):
    """Accepts and discards everything at full rate (open switch port)."""

    def __init__(self, bytes_per_cycle: int = 8) -> None:
        self.bytes_per_cycle = bytes_per_cycle
        self.consumed = 0

    def accept(self, data: bytes, now: int) -> int:
        self.consumed += len(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        return now + cycles


class StreamFifo(StreamSink, StreamSource):
    """A bounded FIFO usable as both sink and source.

    ``depth`` is in bytes; overruns raise :class:`BusError` because a
    hardware FIFO would drop data — models are expected to respect the
    returned completion times instead of overfilling.
    """

    def __init__(self, name: str, depth: int, bytes_per_cycle: int = 8) -> None:
        if depth <= 0:
            raise ValueError("FIFO depth must be positive")
        self.name = name
        self.depth = depth
        self.bytes_per_cycle = bytes_per_cycle
        self._buffer: deque[int] = deque()
        self._busy_until = 0

    @property
    def level(self) -> int:
        """Bytes currently stored."""
        return len(self._buffer)

    @property
    def space(self) -> int:
        """Bytes of free space."""
        return self.depth - len(self._buffer)

    def accept(self, data: bytes, now: int) -> int:
        if len(data) > self.space:
            raise BusError(
                f"FIFO {self.name!r} overrun: {len(data)} B offered, "
                f"{self.space} B free"
            )
        self._buffer.extend(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        self._busy_until = max(self._busy_until, now) + cycles
        return self._busy_until

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        take = min(nbytes, len(self._buffer))
        data = bytes(self._buffer.popleft() for _ in range(take))
        cycles = -(-take // self.bytes_per_cycle) if take else 0
        self._busy_until = max(self._busy_until, now) + cycles
        return data, self._busy_until

    def clear(self) -> None:
        self._buffer.clear()


class BufferSource(StreamSource):
    """A source that streams out a fixed byte buffer (test/model helper)."""

    def __init__(self, data: bytes, bytes_per_cycle: int = 8) -> None:
        self._data = memoryview(bytes(data))
        self._pos = 0
        self.bytes_per_cycle = bytes_per_cycle
        self._busy_until = 0

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        take = min(nbytes, self.remaining)
        data = bytes(self._data[self._pos : self._pos + take])
        self._pos += take
        cycles = -(-take // self.bytes_per_cycle) if take else 0
        self._busy_until = max(self._busy_until, now) + cycles
        return data, self._busy_until


class CaptureSink(StreamSink):
    """A sink that records everything it consumes (test/model helper)."""

    def __init__(self, bytes_per_cycle: int = 8) -> None:
        self.bytes_per_cycle = bytes_per_cycle
        self.data = bytearray()
        self._busy_until = 0

    def accept(self, data: bytes, now: int) -> int:
        self.data.extend(data)
        cycles = -(-len(data) // self.bytes_per_cycle)
        self._busy_until = max(self._busy_until, now) + cycles
        return self._busy_until
