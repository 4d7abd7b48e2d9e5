"""AXIS2ICAP: stream-to-ICAP width converter.

Component (5) of the RV-CAP architecture: "responsible for converting a
64-bit data word fetched from the DDR memory into two 32-bit data
words, which are written in order to the ICAP data port.  Besides, the
valid stream signal is inverted and connected to the ICAP [CE], [and]
the R/W select input port is permanently set to zero" (Sec. III-B).

As a timing element it is transparent beyond one register stage: the
ICAP's 4 B/cycle port remains the bottleneck.  Optionally an RLE
decompressor stage (RT-ICAP-style ablation) expands the stream before
it reaches the port.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.axi.stream import BulkAccept, StreamSink, counted_bulk
from repro.fpga.compression import rle_decompress

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability


class Axis2Icap(StreamSink):
    """64-bit AXI-Stream in, two 32-bit ICAP writes out."""

    def __init__(self, icap: StreamSink, *, stage_latency: int = 1,
                 decompress: bool = False) -> None:
        self.icap = icap
        self.stage_latency = stage_latency
        self.decompress = decompress
        self.bytes_in = 0
        self.bytes_out = 0
        self._carry = bytearray()  # sub-record residue in compressed mode

    def attach_obs(self, obs: "Observability") -> None:
        obs.metrics.observed_counter(
            "axis2icap_bytes_in_total",
            "bytes entering the 64b->32b width converter",
            self, "bytes_in")
        obs.metrics.observed_counter(
            "axis2icap_bytes_out_total",
            "bytes written to the ICAP data port (post-decompression)",
            self, "bytes_out")

    def resolve_bulk_accept(self, lead: int = 0) -> Optional[BulkAccept]:
        """Bulk form of :meth:`accept` (see ``BulkAccept``).

        Pass-through mode only, and only when the ICAP resolves a bulk
        path: the stage latency folds into the ICAP's ``lead`` and the
        byte counters advance by each committed run.  (The DMA streams
        a bitstream in bulk but for its first burst and its tail, so
        the per-burst path through :meth:`accept` needs no fused form.)
        """
        if self.decompress:
            return None
        resolve = getattr(self.icap, "resolve_bulk_accept", None)
        inner: Optional[BulkAccept] = (resolve(lead + self.stage_latency)
                                       if resolve is not None else None)
        if inner is None:
            return None

        def count(moved: int) -> None:
            self.bytes_in += moved
            self.bytes_out += moved

        return counted_bulk(inner, count)

    def accept(self, data: bytes, now: int) -> int:
        self.bytes_in += len(data)
        arrival = now + self.stage_latency
        if not self.decompress:
            self.bytes_out += len(data)
            return self.icap.accept(data, arrival)
        # decompression path: records are word-granular, so buffer any
        # partial words/records across bursts
        self._carry.extend(data)
        whole_words = len(self._carry) // 4
        if whole_words == 0:
            return arrival
        usable, remainder = self._take_complete_records(whole_words)
        if usable.size == 0:
            return arrival
        expanded = rle_decompress(usable)
        payload = expanded.astype(">u4").tobytes()
        self.bytes_out += len(payload)
        return self.icap.accept(payload, arrival)

    def _take_complete_records(self, whole_words: int) -> tuple[np.ndarray, int]:
        """Extract the longest prefix of complete RLE records."""
        words = np.frombuffer(bytes(self._carry[: whole_words * 4]),
                              dtype=">u4").astype(np.uint32)
        i = 0
        end = 0
        n = int(words.size)
        while i < n:
            header = int(words[i])
            kind = header >> 24
            count = header & 0xFF_FFFF
            record_len = 2 if kind == 0 else 1 + count
            if i + record_len > n:
                break
            i += record_len
            end = i
        del self._carry[: end * 4]
        return words[:end], end
