"""Block device abstractions for the filesystem layer.

A device reads and writes one 512-byte block per call
(:meth:`BlockDevice.read_block`, :meth:`BlockDevice.write_block`) or a
run of consecutive blocks (:meth:`BlockDevice.read_blocks`,
:meth:`BlockDevice.write_blocks`).  The run calls default to the
per-block calls in block order, so a timed device (the SPI path) or a
fault proxy sees exactly the per-block sequence; only the zero-time
devices override them, moving a run as one slice.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from repro.errors import FilesystemError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.soc.sdcard import SdCard

BLOCK_SIZE = 512
_ZERO_BLOCK = bytes(BLOCK_SIZE)


class BlockDevice(abc.ABC):
    """A 512-byte-sector random-access device."""

    @property
    @abc.abstractmethod
    def num_blocks(self) -> int: ...

    @abc.abstractmethod
    def read_block(self, lba: int) -> bytes: ...

    @abc.abstractmethod
    def write_block(self, lba: int, data: bytes) -> None: ...

    def read_blocks(self, lba: int, count: int) -> bytes:
        """``count`` consecutive blocks from ``lba``, joined: one
        :meth:`read_block` per block, in order."""
        return b"".join([self.read_block(block)
                         for block in range(lba, lba + count)])

    def write_blocks(self, lba: int, data: bytes) -> None:
        """Write ``data`` to consecutive blocks from ``lba``: one
        :meth:`write_block` per 512 bytes, in order."""
        for offset in range(0, len(data), BLOCK_SIZE):
            self.write_block(lba + offset // BLOCK_SIZE,
                             data[offset : offset + BLOCK_SIZE])

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.num_blocks:
            raise FilesystemError(
                f"block {lba} out of range (device has {self.num_blocks})"
            )

    def _check_run(self, lba: int, count: int) -> None:
        """Raise what the per-block loop over the run raises at its
        first block outside the device, before any block moves."""
        if count > 0 and not 0 <= lba <= self.num_blocks - count:
            self._check(lba if not 0 <= lba < self.num_blocks
                        else self.num_blocks)

    def _whole_blocks(self, lba: int, data: bytes) -> int:
        """Check a run write of ``data`` from ``lba`` as the per-block
        loop would; returns its block count."""
        count, partial = divmod(len(data), BLOCK_SIZE)
        self._check_run(lba, count + (partial > 0))
        if partial:
            raise FilesystemError(f"write of {partial} bytes is not one block")
        return count


class RamBlockDevice(BlockDevice):
    """An in-memory disk image (sparse)."""

    def __init__(self, num_blocks: int = 65536) -> None:
        self._num_blocks = num_blocks
        self._blocks: dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def read_block(self, lba: int) -> bytes:
        self._check(lba)
        self.reads += 1
        return self._blocks.get(lba, _ZERO_BLOCK)

    def write_block(self, lba: int, data: bytes) -> None:
        self._check(lba)
        if len(data) != BLOCK_SIZE:
            raise FilesystemError(f"write of {len(data)} bytes is not one block")
        self.writes += 1
        self._blocks[lba] = bytes(data)

    def read_blocks(self, lba: int, count: int) -> bytes:
        self._check_run(lba, count)
        self.reads += count
        get = self._blocks.get
        return b"".join([get(block, _ZERO_BLOCK)
                         for block in range(lba, lba + count)])

    def write_blocks(self, lba: int, data: bytes) -> None:
        count = self._whole_blocks(lba, data)
        self.writes += count
        self._blocks.update(_split(lba, data, count))

    def populated_blocks(self) -> Mapping[int, bytes]:
        """The written blocks by LBA (sparse image transfer)."""
        return MappingProxyType(self._blocks)


class SdBackdoorBlockDevice(BlockDevice):
    """Zero-time access to a simulated SD card's storage.

    Used to *prepare* card contents before a simulation run and to
    verify them afterwards; the timed path goes through the SPI driver
    (:class:`repro.drivers.fileio.SpiSdBlockDevice`).
    """

    def __init__(self, sdcard: SdCard) -> None:
        self.sdcard = sdcard

    @property
    def num_blocks(self) -> int:
        return self.sdcard.blocks

    def read_block(self, lba: int) -> bytes:
        self._check(lba)
        return self.sdcard.read_block_backdoor(lba)

    def write_block(self, lba: int, data: bytes) -> None:
        self._check(lba)
        if len(data) != BLOCK_SIZE:
            raise FilesystemError(f"write of {len(data)} bytes is not one block")
        self.sdcard.load_block(lba, data)

    def read_blocks(self, lba: int, count: int) -> bytes:
        self._check_run(lba, count)
        return self.sdcard.read_blocks_backdoor(lba, count)


def _split(lba: int, data: bytes, count: int) -> dict[int, bytes]:
    """The blocks of a run of ``count`` whole blocks, by LBA."""
    data = bytes(data)
    return dict(zip(range(lba, lba + count),
                    [data[offset : offset + BLOCK_SIZE]
                     for offset in range(0, count * BLOCK_SIZE, BLOCK_SIZE)],
                    strict=True))
