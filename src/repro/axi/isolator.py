"""PR decoupling (isolation) components.

During partial reconfiguration the logic inside the reconfigurable
partition drives undefined values, so AXI isolators are inserted between
each RP and the static region (Sec. III-A).  While *decoupled*:

* memory-mapped reads return zeros with OKAY (the safe idle pattern),
* memory-mapped writes are silently dropped,
* stream traffic is discarded / returns empty.

The ``decouple_accel()`` driver API toggles these gates through the RP
control interface.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.interface import AxiSlave
from repro.axi.stream import PollLaw, StreamSink, StreamSource
from repro.axi.types import AxiResult


class AxiIsolator(AxiSlave):
    """Memory-mapped isolation gate in front of an RP's control port."""

    def __init__(self, inner: AxiSlave, name: str = "axi_isolator") -> None:
        self.inner = inner
        self.name = name
        self.decoupled = False
        self.blocked_accesses = 0

    def set_decouple(self, decoupled: bool) -> None:
        self.decoupled = bool(decoupled)

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        if self.decoupled:
            self.blocked_accesses += 1
            return AxiResult(bytes(nbytes), now + 1)
        return self.inner.read(addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        if self.decoupled:
            self.blocked_accesses += 1
            return AxiResult(b"", now + 1)
        return self.inner.write(addr, data, now)


class StreamIsolator(StreamSink, StreamSource):
    """Stream-side isolation gate between the DMA and the RM."""

    def __init__(
        self,
        sink: StreamSink | None = None,
        source: StreamSource | None = None,
        name: str = "stream_isolator",
    ) -> None:
        self.sink = sink
        self.source = source
        self.name = name
        self.decoupled = False
        self.dropped_bytes = 0

    def set_decouple(self, decoupled: bool) -> None:
        self.decoupled = bool(decoupled)

    def accept(self, data: bytes, now: int) -> int:
        if self.decoupled or self.sink is None:
            self.dropped_bytes += len(data)
            return now + 1
        return self.sink.accept(data, now)

    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        if self.decoupled or self.source is None:
            return b"", now + 1
        return self.source.produce(nbytes, now)

    def poll_law(self) -> Optional[PollLaw]:
        if self.decoupled or self.source is None:
            return 1, 0  # an idle gate retries one cycle later
        return self.source.poll_law()
