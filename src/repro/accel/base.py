"""Streaming accelerator base: an RM with AXI-Stream in/out.

Dataflow model (matches the HLS cores of Sec. IV-D): the filter
consumes the input image as a 64-bit AXI-Stream (8 pixels/beat),
buffers rows in line buffers, and emits each output row a fixed
pipeline delay after the corresponding input row was consumed.  The
initiation interval (II, in cycles per input beat) and pipeline startup
latency are per-filter parameters calibrated to the paper's measured
compute times (Table IV).

The *functional* output is computed on demand and is bit-exact against
the golden numpy filters: ``accept`` only counts the output rows whose
input has arrived, and ``produce`` reads through a byte cursor over the
filtered rows, running the golden filter once over every ready row not
yet filtered when the cursor first reaches one of them.  A row's pixels
depend only on its 3-row neighbourhood and its ready cycle only on its
index, so where the filter runs moves no cycle.  While no row is ready
to go, :meth:`StreamAccelerator.poll_law` declares what every poll
returns, so the DMA's S2MM spin can skip those polls in closed form.

Timing bookkeeping uses a fixed-point II (``ii_num / ii_den``) so the
cycle accounting stays integral and reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.axi.stream import PollLaw, StreamSink, StreamSource
from repro.errors import ControllerError

BYTES_PER_BEAT = 8

#: frames at or below this size memoize golden-filter slabs (bytes)
_GOLDEN_MEMO_MAX_IMAGE = 64 * 1024
#: memo entries kept before the table is recycled
_GOLDEN_MEMO_MAX_ENTRIES = 256
#: process-wide memo — accelerator instances are rebuilt on every
#: reconfiguration (the SoC re-derives the RM from configuration
#: memory), so the cache must outlive any single instance.  Keyed by
#: the golden callable itself plus the exact input slab, hence safe
#: for any pure filter.
_GOLDEN_MEMO: dict = {}


@dataclass(frozen=True)
class AcceleratorTiming:
    """Calibrated timing of one HLS filter core."""

    ii_num: int      # cycles per input beat, numerator
    ii_den: int      # ... denominator
    startup_cycles: int  # line-buffer fill + pipeline depth

    def cycles_for_beats(self, beats: int) -> int:
        return (beats * self.ii_num + self.ii_den - 1) // self.ii_den


class StreamAccelerator(StreamSink, StreamSource):
    """A 3x3-window streaming image filter RM."""

    def __init__(
        self,
        name: str,
        golden: Callable[[np.ndarray], np.ndarray],
        timing: AcceleratorTiming,
        *,
        width: int = 512,
        height: int = 512,
    ) -> None:
        if width % BYTES_PER_BEAT:
            raise ControllerError("image width must be a multiple of 8 pixels")
        self.name = name
        self.golden = golden
        self.timing = timing
        self.width = width
        self.height = height
        self._in_bytes = bytearray()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at: int | None = None
        #: output rows whose input has arrived
        self._rows_ready = 0
        #: filtered output rows, always a whole-row prefix of the frame
        self._out = bytearray()
        #: bytes of ``_out`` already produced
        self._out_pos = 0
        self.images_processed = 0
        # golden filters are pure functions of the pixel data, so for
        # small frames (the serving workload replays identical frames)
        # the per-slab filter results are memoized on the exact input
        # slab; content-keyed, hence observably identical to
        # recomputing.  Large frames skip the memo (keying cost and
        # retained output would not pay for themselves).
        self._memo_enabled = self.image_bytes <= _GOLDEN_MEMO_MAX_IMAGE

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    @property
    def image_bytes(self) -> int:
        return self.width * self.height

    @property
    def busy(self) -> bool:
        return bool(self._in_bytes) and self._rows_ready < self.height

    @property
    def busy_cycles(self) -> int:
        """Pipeline-busy cycles of the in-flight/last image.

        Derived on demand from the II-paced beat count plus the
        pipeline fill, so the streaming path pays nothing; the power
        model charges this window at ``accel_active_mw``.
        """
        if self._beats_consumed == 0:
            return 0
        return (self.timing.startup_cycles
                + self.timing.cycles_for_beats(self._beats_consumed))

    def reset(self) -> None:
        """Prepare for a new image (RM control start pulse)."""
        self._in_bytes.clear()
        self._beats_consumed = 0
        self._in_busy = 0
        self._started_at = None
        self._rows_ready = 0
        self._out.clear()
        self._out_pos = 0

    # ------------------------------------------------------------------
    # input stream (from DMA MM2S through the switch)
    # ------------------------------------------------------------------
    def accept(self, data: bytes, now: int) -> int:
        if self._started_at is None:
            self._started_at = now
        if len(self._in_bytes) + len(data) > self.image_bytes:
            raise ControllerError(
                f"RM {self.name!r}: input overruns the {self.width}x"
                f"{self.height} frame"
            )
        self._in_bytes.extend(data)
        self._beats_consumed += -(-len(data) // BYTES_PER_BEAT)
        consumed_cycles = self.timing.cycles_for_beats(self._beats_consumed)
        paced = self._started_at + consumed_cycles
        self._in_busy = paced if paced > now else now
        # a 3x3 window needs one row of lookahead; the final row becomes
        # ready only when the full frame has arrived
        received = len(self._in_bytes) // self.width
        ready = self.height if received >= self.height else received - 1
        if ready > self._rows_ready:
            self._rows_ready = ready
            if ready == self.height:
                self.images_processed += 1
        return self._in_busy

    def _filter_ready_rows(self) -> None:
        """Filter every ready row not yet filtered in one golden call.

        The slab carries one context row on each side; the golden
        filter edge-replicates the slab borders, but every extracted
        row has its true neighbours inside the slab, so the synthetic
        replication never leaks into the output.
        """
        width = self.width
        r0 = len(self._out) // width
        r1 = self._rows_ready
        lo = max(0, r0 - 1)
        hi = min(len(self._in_bytes) // width, r1 + 1)
        slab = bytes(self._in_bytes[lo * width : hi * width])
        rows: bytes | None = None
        if self._memo_enabled:
            memo_key = (self.golden, width, r0 - lo, r1 - lo, slab)
            rows = _GOLDEN_MEMO.get(memo_key)
        if rows is None:
            image_slab = np.frombuffer(slab, dtype=np.uint8).reshape(
                hi - lo, width)
            rows = self.golden(image_slab)[r0 - lo : r1 - lo].tobytes()
            if self._memo_enabled:
                if len(_GOLDEN_MEMO) >= _GOLDEN_MEMO_MAX_ENTRIES:
                    _GOLDEN_MEMO.clear()
                _GOLDEN_MEMO[memo_key] = rows
        self._out += rows

    # ------------------------------------------------------------------
    # output stream (to DMA S2MM through the switch)
    # ------------------------------------------------------------------
    def produce(self, nbytes: int, now: int) -> tuple[bytes, int]:
        pos = self._out_pos
        ready_bytes = self._rows_ready * self.width
        if pos >= ready_bytes:
            if self._rows_ready >= self.height:
                return b"", now  # end of frame
            # not ready: ask the DMA to retry once more input landed
            retry = now + 1
            if self._in_busy > retry:
                retry = self._in_busy
            return b"", retry
        end = min(pos + nbytes, ready_bytes)
        if end > len(self._out):
            self._filter_ready_rows()
        self._out_pos = end
        started = self._started_at
        assert started is not None  # a row is ready, so input arrived
        # row r leaves the pipeline startup_cycles after the II-paced
        # consumption of its last needed input beat; that never
        # decreases with r, so the burst is ready with its last row
        last_row = (end - 1) // self.width
        needed_beats = (min(last_row + 2, self.height)
                        * (self.width // BYTES_PER_BEAT))
        avail = (started + self.timing.startup_cycles
                 + self.timing.cycles_for_beats(needed_beats))
        return bytes(self._out[pos:end]), (avail if avail > now else now)

    def poll_law(self) -> Optional[PollLaw]:
        """``produce``'s not-ready retry, while no row is ready to go:
        one cycle later, or once the input landed so far is consumed."""
        if (self._out_pos < self._rows_ready * self.width
                or self._rows_ready >= self.height):
            return None
        return 1, self._in_busy
