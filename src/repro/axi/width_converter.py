"""AXI data-width converter (64-bit master side to 32-bit slave side).

The Ariane SoC bus is 64 bits wide while the Xilinx DMA control port,
the AXI_HWICAP and all RP control registers are 32-bit AXI4-Lite
slaves, so every controller integration in the paper inserts one of
these (Sec. III-B item 2 and Sec. III-C).  Functionally the converter
splits wide transfers into narrow beats; its timing cost is one extra
pipeline stage plus one additional cycle per extra narrow beat.
"""

from __future__ import annotations

from repro.axi.interface import AxiSlave
from repro.axi.types import AxiResp, AxiResult
from repro.errors import DrcError


class AxiWidthConverter(AxiSlave):
    """Down-converter from ``wide_bytes`` to ``narrow_bytes`` data width."""

    def __init__(
        self,
        inner: AxiSlave,
        *,
        wide_bytes: int = 8,
        narrow_bytes: int = 4,
        stage_latency: int = 1,
    ) -> None:
        if narrow_bytes <= 0 or wide_bytes <= narrow_bytes:
            raise DrcError(
                f"width converter must narrow: {wide_bytes} B -> "
                f"{narrow_bytes} B is not a down-conversion"
            )
        if wide_bytes % narrow_bytes:
            raise DrcError(
                f"wide width ({wide_bytes} B) must be a multiple of the "
                f"narrow width ({narrow_bytes} B)"
            )
        self.inner = inner
        self.wide_bytes = wide_bytes
        self.narrow_bytes = narrow_bytes
        self.stage_latency = stage_latency

    def _split(self, addr: int, nbytes: int) -> list[tuple[int, int]]:
        """Split an access into naturally aligned narrow beats."""
        beats: list[tuple[int, int]] = []
        offset = 0
        while offset < nbytes:
            beat_addr = addr + offset
            span = min(self.narrow_bytes - beat_addr % self.narrow_bytes,
                       nbytes - offset)
            beats.append((beat_addr, span))
            offset += span
        return beats

    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        time = now + self.stage_latency
        if nbytes + addr % self.narrow_bytes <= self.narrow_bytes:
            # single-beat fast path: the access already fits one
            # naturally aligned narrow beat, so forward it unsplit
            return self.inner.read(addr, nbytes, time)
        chunks: list[bytes] = []
        for beat_addr, span in self._split(addr, nbytes):
            result = self.inner.read(beat_addr, span, time)
            if not result.ok:
                return AxiResult(b"", result.complete_at, result.resp)
            chunks.append(result.data)
            time = result.complete_at
        return AxiResult(b"".join(chunks), time, AxiResp.OKAY)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        time = now + self.stage_latency
        if len(data) + addr % self.narrow_bytes <= self.narrow_bytes:
            return self.inner.write(addr, data, time)
        offset = 0
        for beat_addr, span in self._split(addr, len(data)):
            result = self.inner.write(beat_addr, data[offset : offset + span], time)
            if not result.ok:
                return AxiResult(b"", result.complete_at, result.resp)
            offset += span
            time = result.complete_at
        return AxiResult(b"", time, AxiResp.OKAY)
