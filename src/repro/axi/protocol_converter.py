"""AXI4 to AXI4-Lite protocol converter.

AXI4-Lite has no bursts and a single outstanding transaction; the
converter serializes anything wider and adds one register stage in each
direction.  Together with the width converter this is the "AXI modules"
block that costs 420 LUT / 909 FF in the RV-CAP integration and
909 LUT / 964 FF in the HWICAP one (Table I, derived from Table II).
"""

from __future__ import annotations

from repro.axi.interface import AxiSlave
from repro.axi.types import AxiResult


class Axi4ToLiteConverter(AxiSlave):
    """Serializing AXI4 -> AXI4-Lite bridge."""

    def __init__(self, inner: AxiSlave, *, stage_latency: int = 1,
                 lite_width: int = 4) -> None:
        self.inner = inner
        self.stage_latency = stage_latency
        self.lite_width = lite_width
        self._busy_until = 0

    def _start(self, now: int) -> int:
        start = max(now + self.stage_latency, self._busy_until)
        return start

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        time = self._start(now)
        if nbytes <= self.lite_width:
            # single AXI4-Lite beat: no serialization loop needed
            result = self.inner.read(addr, nbytes, time)
            self._busy_until = result.complete_at
            return AxiResult(result.data,
                             result.complete_at + self.stage_latency,
                             result.resp)
        chunks: list[bytes] = []
        offset = 0
        while offset < nbytes:
            span = min(self.lite_width, nbytes - offset)
            result = self.inner.read(addr + offset, span, time)
            if not result.ok:
                self._busy_until = result.complete_at
                return AxiResult(b"", result.complete_at + self.stage_latency,
                                 result.resp)
            chunks.append(result.data)
            time = result.complete_at
            offset += span
        self._busy_until = time
        return AxiResult(b"".join(chunks), time + self.stage_latency)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        time = self._start(now)
        if len(data) <= self.lite_width:
            result = self.inner.write(addr, data, time)
            self._busy_until = result.complete_at
            return AxiResult(b"", result.complete_at + self.stage_latency,
                             result.resp)
        offset = 0
        while offset < len(data):
            span = min(self.lite_width, len(data) - offset)
            result = self.inner.write(addr + offset, data[offset:offset + span], time)
            if not result.ok:
                self._busy_until = result.complete_at
                return AxiResult(b"", result.complete_at + self.stage_latency,
                                 result.resp)
            time = result.complete_at
            offset += span
        self._busy_until = time
        return AxiResult(b"", time + self.stage_latency)
