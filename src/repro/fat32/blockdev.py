"""Block device abstractions for the filesystem layer."""

from __future__ import annotations

import abc
from collections.abc import Mapping
from types import MappingProxyType

from repro.errors import FilesystemError

BLOCK_SIZE = 512


class BlockDevice(abc.ABC):
    """A 512-byte-sector random-access device."""

    @property
    @abc.abstractmethod
    def num_blocks(self) -> int: ...

    @abc.abstractmethod
    def read_block(self, lba: int) -> bytes: ...

    @abc.abstractmethod
    def write_block(self, lba: int, data: bytes) -> None: ...

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self.num_blocks:
            raise FilesystemError(
                f"block {lba} out of range (device has {self.num_blocks})"
            )


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
        return self._blocks.get(lba, bytes(BLOCK_SIZE))

    def write_block(self, lba: int, data: bytes) -> None:
        self._check(lba)
        if len(data) != BLOCK_SIZE:
            raise FilesystemError(f"write of {len(data)} bytes is not one block")
        self.writes += 1
        self._blocks[lba] = bytes(data)

    def populated_blocks(self) -> Mapping[int, bytes]:
        """The written blocks by LBA (sparse image transfer)."""
        return MappingProxyType(self._blocks)


class SdBackdoorBlockDevice(BlockDevice):
    """Zero-time access to a simulated SD card's storage.

    Used to *prepare* card contents before a simulation run and to
    verify them afterwards; the timed path goes through the SPI driver
    (:class:`repro.drivers.fileio.SpiSdBlockDevice`).
    """

    def __init__(self, sdcard) -> None:
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
