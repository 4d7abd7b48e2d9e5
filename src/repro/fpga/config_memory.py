"""Configuration memory: the frame store behind the ICAP.

Frames are stored by block: each write of n consecutive frames is one
owned ``(n, words_per_frame)`` uint32 array, kept in a list of
disjoint blocks ordered by linear frame index.  A write or a read of a
range that one block covers costs O(1) Python calls whatever n is; a
1600-frame partial bitstream lands as one array copy.  A write inside
an existing block overwrites its rows in place; one that straddles
blocks trims them, copying the kept remainder so no view holds an
overwritten block alive.  Reads always return copies, and writes copy
their input, so every frame reads back independent of the caller's
arrays.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fpga.device import FpgaDevice
from repro.fpga.frames import FrameAddress


class ConfigMemory:
    """Frame-addressed configuration memory of one device."""

    def __init__(self, device: FpgaDevice) -> None:
        self.device = device
        self._wpf = device.words_per_frame
        #: first linear frame index of each block, ascending
        self._starts: List[int] = []
        #: the blocks, parallel to ``_starts``: one row per frame
        self._blocks: List[np.ndarray] = []
        self.frames_written = 0

    # ------------------------------------------------------------------
    # frame-address API
    # ------------------------------------------------------------------
    def write_frames(self, far: FrameAddress, words: np.ndarray) -> FrameAddress:
        """Write one or more consecutive frames starting at ``far``.

        ``words`` length must be a multiple of the device frame size.
        Returns the frame address following the last written frame.
        """
        return far.advance(self.write_at(far.linear_index(), words))

    def read_frame(self, far: FrameAddress) -> np.ndarray:
        """Read back one frame (zeros when never configured)."""
        return self.read_at(far.linear_index(), 1)

    def read_frames(self, far: FrameAddress, count: int) -> np.ndarray:
        """Read ``count`` consecutive frames starting at ``far``."""
        return self.read_at(far.linear_index(), count)

    # ------------------------------------------------------------------
    # linear-index API (the configuration port's own)
    # ------------------------------------------------------------------
    def write_at(self, index: int, words: np.ndarray) -> int:
        """Write whole frames from linear frame ``index``; the number of
        frames written."""
        wpf = self._wpf
        if len(words) % wpf:
            raise ConfigurationError(
                f"frame data of {len(words)} words is not a multiple of "
                f"{wpf}-word frames"
            )
        count = len(words) // wpf
        if not count:
            return 0
        stop = index + count
        starts, blocks = self._starts, self._blocks
        k = bisect_right(starts, index) - 1
        if k >= 0 and stop <= starts[k] + len(blocks[k]):
            # inside one block: overwrite its rows in place
            offset = index - starts[k]
            blocks[k][offset:offset + count] = np.asarray(
                words, dtype=np.uint32).reshape(count, wpf)
        else:
            self._splice(index, stop,
                         np.array(words, dtype=np.uint32).reshape(count, wpf))
        self.frames_written += count
        return count

    def _splice(self, index: int, stop: int, rows: np.ndarray) -> None:
        """Insert the block ``rows`` at [index, stop), trimming the blocks
        it overlaps (their kept ends are copied out of them)."""
        starts, blocks = self._starts, self._blocks
        lo = bisect_left(starts, index)
        if lo and starts[lo - 1] + len(blocks[lo - 1]) > index:
            lo -= 1
        hi = bisect_left(starts, stop)
        new_starts, new_blocks = [index], [rows]
        if lo < hi:
            first = starts[lo]
            if first < index:
                new_starts.insert(0, first)
                new_blocks.insert(0, blocks[lo][:index - first].copy())
            last, block = starts[hi - 1], blocks[hi - 1]
            if last + len(block) > stop:
                new_starts.append(stop)
                new_blocks.append(block[stop - last:].copy())
        starts[lo:hi] = new_starts
        blocks[lo:hi] = new_blocks

    def read_at(self, index: int, count: int) -> np.ndarray:
        """``count`` frames from linear frame ``index``, flat (zeros
        where never configured); always a copy, one when a single block
        holds them all."""
        starts, blocks = self._starts, self._blocks
        k = bisect_right(starts, index) - 1
        if k >= 0 and index + count <= starts[k] + len(blocks[k]):
            offset = index - starts[k]
            return blocks[k][offset:offset + count].flatten()
        stop = index + count
        out = np.zeros((count, self._wpf), dtype=np.uint32)
        for k in range(max(k, 0), bisect_left(starts, stop)):
            first, block = starts[k], blocks[k]
            lo, hi = max(first, index), min(first + len(block), stop)
            if lo < hi:
                out[lo - index:hi - index] = block[lo - first:hi - first]
        return out.reshape(-1)

    def frames(self) -> Iterator[Tuple[int, np.ndarray]]:
        """Every configured frame, ascending: ``(linear index, copy)``."""
        for first, block in zip(self._starts, self._blocks):
            for offset, row in enumerate(block):
                yield first + offset, row.copy()

    @property
    def configured_frames(self) -> int:
        return sum(len(block) for block in self._blocks)

    def clear(self) -> None:
        self._starts.clear()
        self._blocks.clear()
        self.frames_written = 0
