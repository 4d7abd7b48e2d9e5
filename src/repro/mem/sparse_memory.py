"""Page-granular sparse byte store.

Backing storage for DDR (256 MiB address window) without allocating the
full window.  Pages are ``bytearray`` blocks allocated on first touch;
bulk reads/writes are sliced per page so multi-kilobyte DMA bursts cost
O(pages), not O(bytes) of Python-level work.  Loads and stores that
stay inside one page — every cache-line fill and almost every DMA burst
— take a fast path that slices the page directly, and the word helpers
use pre-compiled :mod:`struct` codecs so aligned 2/4/8-byte accesses
never materialize an intermediate ``bytes`` object.
"""

from __future__ import annotations

import struct
from typing import Dict

_WORD_CODECS = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}


class SparseMemory:
    """A sparse, zero-initialized byte-addressable store."""

    def __init__(self, size: int, page_bits: int = 12) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self.size = size
        self.page_bits = page_bits
        self.page_size = 1 << page_bits
        self._pages: Dict[int, bytearray] = {}

    @property
    def allocated_pages(self) -> int:
        return len(self._pages)

    def _check_range(self, addr: int, nbytes: int) -> None:
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            raise IndexError(
                f"access [{addr:#x}, {addr + nbytes:#x}) outside memory of "
                f"size {self.size:#x}"
            )

    def load(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``addr``."""
        if addr < 0 or nbytes < 0 or addr + nbytes > self.size:
            self._check_range(addr, nbytes)
        offset = addr & (self.page_size - 1)
        if offset + nbytes <= self.page_size:
            # whole range inside one page: no zero-fill scratch buffer
            page = self._pages.get(addr >> self.page_bits)
            if page is None:
                return bytes(nbytes)
            return bytes(page[offset : offset + nbytes])
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            page_idx = (addr + pos) >> self.page_bits
            offset = (addr + pos) & (self.page_size - 1)
            span = min(self.page_size - offset, nbytes - pos)
            page = self._pages.get(page_idx)
            if page is not None:
                out[pos : pos + span] = page[offset : offset + span]
            pos += span
        return bytes(out)

    def store(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""
        nbytes = len(data)
        if addr < 0 or addr + nbytes > self.size:
            self._check_range(addr, nbytes)
        offset = addr & (self.page_size - 1)
        if nbytes and offset + nbytes <= self.page_size:
            # whole range inside one page: no per-page slicing
            page_idx = addr >> self.page_bits
            page = self._pages.get(page_idx)
            if page is None:
                page = self._pages[page_idx] = bytearray(self.page_size)
            page[offset : offset + nbytes] = data
            return
        pos = 0
        while pos < nbytes:
            page_idx = (addr + pos) >> self.page_bits
            offset = (addr + pos) & (self.page_size - 1)
            span = min(self.page_size - offset, nbytes - pos)
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(self.page_size)
                self._pages[page_idx] = page
            page[offset : offset + span] = data[pos : pos + span]
            pos += span

    # word-granular convenience helpers used by the ISS hot path ------
    def load_word(self, addr: int, nbytes: int) -> int:
        """Little-endian unsigned integer load."""
        codec = _WORD_CODECS.get(nbytes)
        offset = addr & (self.page_size - 1)
        if codec is not None and offset + nbytes <= self.page_size:
            if addr < 0 or addr + nbytes > self.size:
                self._check_range(addr, nbytes)
            page = self._pages.get(addr >> self.page_bits)
            if page is None:
                return 0
            value: int = codec.unpack_from(page, offset)[0]
            return value
        return int.from_bytes(self.load(addr, nbytes), "little")

    def store_word(self, addr: int, value: int, nbytes: int) -> None:
        """Little-endian unsigned integer store."""
        codec = _WORD_CODECS.get(nbytes)
        offset = addr & (self.page_size - 1)
        if codec is not None and offset + nbytes <= self.page_size:
            if addr < 0 or addr + nbytes > self.size:
                self._check_range(addr, nbytes)
            page_idx = addr >> self.page_bits
            page = self._pages.get(page_idx)
            if page is None:
                page = bytearray(self.page_size)
                self._pages[page_idx] = page
            codec.pack_into(page, offset, value & ((1 << (8 * nbytes)) - 1))
            return
        self.store(addr, (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little"))

    def fill(self, addr: int, nbytes: int, byte: int = 0) -> None:
        """Fill a range with a constant byte."""
        self.store(addr, bytes([byte]) * nbytes)
