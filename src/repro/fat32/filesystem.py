"""The FAT32 filesystem facade: mount, read, write, overwrite, delete.

Only the root directory is supported (the paper's driver keeps all
partial bitstreams in one directory); everything else — chains, 8.3
entries, multi-FAT mirroring, cluster allocation — is fully
implemented.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.errors import FilesystemError
from repro.fat32.blockdev import BlockDevice
from repro.fat32.directory import (
    ATTR_ARCHIVE,
    DirEntry,
    ENTRY_END,
    ENTRY_FREE,
    ENTRY_SIZE,
    encode_83,
)
from repro.fat32.fat import FatTable
from repro.fat32.layout import BiosParameterBlock
from repro.fat32.mbr import PARTITION_TYPE_FAT32_LBA, parse_mbr


class _PartitionView(BlockDevice):
    """A block device window over one partition.

    A run passes to the device as one run, so the device decides how
    it moves: a fault proxy or the SPI path still sees one block at a
    time, in order.
    """

    def __init__(self, device: BlockDevice, first_lba: int,
                 num_sectors: int) -> None:
        self.device = device
        self.first_lba = first_lba
        self._num = num_sectors

    @property
    def num_blocks(self) -> int:
        return self._num

    def read_block(self, lba: int) -> bytes:
        self._check(lba)
        return self.device.read_block(self.first_lba + lba)

    def write_block(self, lba: int, data: bytes) -> None:
        self._check(lba)
        self.device.write_block(self.first_lba + lba, data)

    def read_blocks(self, lba: int, count: int) -> bytes:
        self._check_run(lba, count)
        return self.device.read_blocks(self.first_lba + lba, count)

    def write_blocks(self, lba: int, data: bytes) -> None:
        self._whole_blocks(lba, data)
        self.device.write_blocks(self.first_lba + lba, data)


class Fat32FileSystem:
    """A mounted FAT32 volume."""

    def __init__(self, partition: BlockDevice, bpb: BiosParameterBlock) -> None:
        self.partition = partition
        self.bpb = bpb
        self.fat = FatTable(partition, bpb)

    # ------------------------------------------------------------------
    # mounting
    # ------------------------------------------------------------------
    @classmethod
    def mount(cls, device: BlockDevice,
              partition_index: int = 0) -> "Fat32FileSystem":
        """Mount the FAT32 partition found via the MBR."""
        partitions = parse_mbr(device)
        fat32 = [p for p in partitions
                 if p.partition_type == PARTITION_TYPE_FAT32_LBA]
        if partition_index >= len(fat32):
            raise FilesystemError(
                f"no FAT32 partition at index {partition_index} "
                f"({len(fat32)} found)"
            )
        entry = fat32[partition_index]
        view = _PartitionView(device, entry.first_lba, entry.num_sectors)
        bpb = BiosParameterBlock.unpack(view.read_block(0))
        return cls(view, bpb)

    @classmethod
    def mount_partitionless(cls, partition: BlockDevice) -> "Fat32FileSystem":
        """Mount a volume that starts at sector 0 (no MBR)."""
        bpb = BiosParameterBlock.unpack(partition.read_block(0))
        return cls(partition, bpb)

    # ------------------------------------------------------------------
    # cluster I/O
    # ------------------------------------------------------------------
    def _read_cluster(self, cluster: int) -> bytes:
        return self.partition.read_blocks(self.bpb.cluster_to_sector(cluster),
                                          self.bpb.sectors_per_cluster)

    def _write_cluster(self, cluster: int, data: bytes) -> None:
        self._write_clusters([cluster], data)

    def _write_clusters(self, clusters: List[int], data: bytes) -> None:
        """Write ``data`` over ``clusters`` in order, zero-padding the
        last one, one run per stretch of consecutive clusters."""
        size = self.bpb.cluster_bytes
        if len(data) > len(clusters) * size:
            raise FilesystemError("cluster write overflow")
        data = data.ljust(len(clusters) * size, b"\x00")
        start = 0
        for index in range(1, len(clusters) + 1):
            if (index == len(clusters)
                    or clusters[index] != clusters[index - 1] + 1):
                self.partition.write_blocks(
                    self.bpb.cluster_to_sector(clusters[start]),
                    data[start * size : index * size])
                start = index

    # ------------------------------------------------------------------
    # directories (root + subdirectories, "/"-separated paths)
    # ------------------------------------------------------------------
    def _iter_dir_slots(self, dir_cluster: int
                        ) -> Iterator[tuple[int, int, bytes]]:
        """Yield (cluster, offset, raw 32-byte record) for every slot."""
        for cluster in self.fat.chain(dir_cluster):
            data = self._read_cluster(cluster)
            for offset in range(0, self.bpb.cluster_bytes, ENTRY_SIZE):
                yield cluster, offset, data[offset : offset + ENTRY_SIZE]

    def _resolve_dir(self, path: str) -> int:
        """Walk a directory path; returns its first cluster."""
        cluster = self.bpb.root_cluster
        for part in [p for p in path.split("/") if p and p != "."]:
            found = self._find_slot_in(cluster, part)
            if found is None or not found[2].is_directory:
                raise FilesystemError(f"no such directory: {part!r} in {path!r}")
            cluster = found[2].first_cluster
        return cluster

    def _split_path(self, path: str) -> tuple[int, str]:
        """Split ``DIR/SUB/NAME.EXT`` into (dir_cluster, leaf name)."""
        path = path.strip("/")
        if "/" in path:
            parent, _, leaf = path.rpartition("/")
            return self._resolve_dir(parent), leaf
        return self.bpb.root_cluster, path

    def list_dir(self, path: str = "") -> List[DirEntry]:
        """Live file entries in ``path`` (default: the root directory)."""
        entries = []
        for _cluster, _offset, raw in self._iter_dir_slots(
                self._resolve_dir(path)):
            first = raw[0]
            if first == ENTRY_END:
                return entries
            if first == ENTRY_FREE:
                continue
            entry = DirEntry.unpack(raw)
            if not entry.is_directory:
                entries.append(entry)
        return entries

    def list_subdirs(self, path: str = "") -> List[DirEntry]:
        """Subdirectory entries in ``path`` (excluding '.' and '..')."""
        entries = []
        for _cluster, _offset, raw in self._iter_dir_slots(
                self._resolve_dir(path)):
            first = raw[0]
            if first == ENTRY_END:
                return entries
            if first == ENTRY_FREE:
                continue
            entry = DirEntry.unpack(raw)
            if entry.is_directory and entry.name not in (".", ".."):
                entries.append(entry)
        return entries

    def _find_slot_in(self, dir_cluster: int,
                      name: str) -> Optional[tuple[int, int, DirEntry]]:
        target = encode_83(name)
        for cluster, offset, raw in self._iter_dir_slots(dir_cluster):
            first = raw[0]
            if first == ENTRY_END:
                return None
            if first == ENTRY_FREE:
                continue
            if raw[:11] == target:
                return cluster, offset, DirEntry.unpack(raw)
        return None

    def _find_slot(self, path: str) -> Optional[tuple[int, int, DirEntry]]:
        dir_cluster, leaf = self._split_path(path)
        return self._find_slot_in(dir_cluster, leaf)

    def _find_free_slot(self, dir_cluster: int) -> tuple[int, int]:
        last_cluster = dir_cluster
        for cluster, offset, raw in self._iter_dir_slots(dir_cluster):
            last_cluster = cluster
            if raw[0] in (ENTRY_END, ENTRY_FREE):
                return cluster, offset
        # directory full: extend it by one cluster
        new_cluster = self.fat.allocate(1, link_after=last_cluster)[0]
        self._write_cluster(new_cluster, b"")
        return new_cluster, 0

    def mkdir(self, path: str) -> None:
        """Create a subdirectory (parents must exist)."""
        dir_cluster, leaf = self._split_path(path)
        if self._find_slot_in(dir_cluster, leaf) is not None:
            raise FilesystemError(f"{path!r} already exists")
        new_cluster = self.fat.allocate(1)[0]
        # seed '.' and '..' entries, then terminate
        from repro.fat32.directory import ATTR_DIRECTORY
        dot = DirEntry(".", attributes=ATTR_DIRECTORY,
                       first_cluster=new_cluster)
        dotdot_cluster = (0 if dir_cluster == self.bpb.root_cluster
                          else dir_cluster)
        dotdot = DirEntry("..", attributes=ATTR_DIRECTORY,
                          first_cluster=dotdot_cluster)
        payload = dot.pack() + dotdot.pack()
        self._write_cluster(new_cluster, payload)
        cluster, offset = self._find_free_slot(dir_cluster)
        self._store_entry(cluster, offset, DirEntry(
            leaf, attributes=ATTR_DIRECTORY, first_cluster=new_cluster))

    def _store_entry(self, cluster: int, offset: int, entry: DirEntry) -> None:
        data = bytearray(self._read_cluster(cluster))
        data[offset : offset + ENTRY_SIZE] = entry.pack()
        self._write_cluster(cluster, bytes(data))

    # ------------------------------------------------------------------
    # file operations
    # ------------------------------------------------------------------
    def exists(self, name: str) -> bool:
        try:
            return self._find_slot(name) is not None
        except FilesystemError:
            return False

    def file_size(self, name: str) -> int:
        found = self._find_slot(name)
        if found is None:
            raise FilesystemError(f"no such file: {name}")
        return found[2].size

    def read_file(self, name: str) -> bytes:
        """Read a whole file."""
        found = self._find_slot(name)
        if found is None:
            raise FilesystemError(f"no such file: {name}")
        entry = found[2]
        if entry.size == 0:
            return b""
        chunks = []
        remaining = entry.size
        for cluster in self.fat.chain(entry.first_cluster):
            take = min(remaining, self.bpb.cluster_bytes)
            chunks.append(self._read_cluster(cluster)[:take])
            remaining -= take
            if remaining == 0:
                break
        if remaining:
            raise FilesystemError(
                f"file {name}: chain ended {remaining} bytes early"
            )
        return b"".join(chunks)

    def write_file(self, name: str, data: bytes) -> None:
        """Create or overwrite a file with ``data``."""
        found = self._find_slot(name)
        if found is not None:
            # overwrite: free the old chain, reuse the slot
            cluster, offset, entry = found
            if entry.first_cluster >= 2:
                self.fat.free_chain(entry.first_cluster)
        else:
            dir_cluster, _leaf = self._split_path(name)
            cluster, offset = self._find_free_slot(dir_cluster)
        first_cluster = 0
        if data:
            clusters = self.fat.allocate(-(-len(data) // self.bpb.cluster_bytes))
            self._write_clusters(clusters, data)
            first_cluster = clusters[0]
        leaf = name.strip("/").rpartition("/")[2]
        entry = DirEntry(name=leaf, attributes=ATTR_ARCHIVE,
                         first_cluster=first_cluster, size=len(data))
        self._store_entry(cluster, offset, entry)

    def delete_file(self, name: str) -> None:
        """Remove a file and free its clusters."""
        found = self._find_slot(name)
        if found is None:
            raise FilesystemError(f"no such file: {name}")
        cluster, offset, entry = found
        if entry.first_cluster >= 2:
            self.fat.free_chain(entry.first_cluster)
        data = bytearray(self._read_cluster(cluster))
        data[offset] = ENTRY_FREE
        self._write_cluster(cluster, bytes(data))

    # ------------------------------------------------------------------
    # info
    # ------------------------------------------------------------------
    def free_bytes(self) -> int:
        return self.fat.count_free() * self.bpb.cluster_bytes
