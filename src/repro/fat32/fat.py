"""FAT chain management."""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, Mapping

from repro.errors import FilesystemError
from repro.fat32.blockdev import BLOCK_SIZE, BlockDevice
from repro.fat32.layout import (
    BAD_CLUSTER,
    BiosParameterBlock,
    CLUSTER_MASK,
    END_OF_CHAIN,
    FREE_CLUSTER,
)

_ENTRIES_PER_SECTOR = BLOCK_SIZE // 4
#: one FAT sector as its 128 little-endian entries
_SECTOR = struct.Struct(f"<{_ENTRIES_PER_SECTOR}I")


class FatTable:
    """The file allocation table of one mounted volume.

    All sector addresses are relative to the partition start; the
    filesystem facade supplies a partition-relative device view.
    A chain is read one entry at a time, in chain order, so a device
    sees each FAT sector when a reader moves on to the next cluster;
    writes and the free-cluster scan go by whole sectors.
    """

    def __init__(self, device: BlockDevice, bpb: BiosParameterBlock) -> None:
        self.device = device
        self.bpb = bpb
        self._next_free_hint = 3
        #: one past the last data cluster (the BPB is frozen)
        self._limit = bpb.num_clusters + 2

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def _locate(self, cluster: int) -> tuple[int, int]:
        if cluster >= self._limit:
            raise FilesystemError(f"cluster {cluster} beyond volume end")
        sector = self.bpb.fat_start_sector + cluster // _ENTRIES_PER_SECTOR
        return sector, (cluster % _ENTRIES_PER_SECTOR) * 4

    def read_entry(self, cluster: int) -> int:
        sector, offset = self._locate(cluster)
        raw = self.device.read_block(sector)
        return int.from_bytes(raw[offset : offset + 4], "little") & CLUSTER_MASK

    def write_entry(self, cluster: int, value: int) -> None:
        self.write_entries({cluster: value})

    def write_entries(self, values: Mapping[int, int]) -> None:
        """Set each cluster's entry to its value in every FAT copy, one
        read and one write per sector and copy; the top 4 bits of each
        entry are reserved and kept."""
        by_sector: Dict[int, List[tuple[int, int]]] = {}
        for cluster, value in values.items():
            sector, offset = self._locate(cluster)
            by_sector.setdefault(sector, []).append(
                (offset >> 2, value & CLUSTER_MASK))
        for sector, updates in by_sector.items():
            for fat_index in range(self.bpb.num_fats):
                target = sector + fat_index * self.bpb.sectors_per_fat
                entries = list(_SECTOR.unpack(self.device.read_block(target)))
                for slot, value in updates:
                    entries[slot] = (entries[slot] & ~CLUSTER_MASK) | value
                self.device.write_block(target, _SECTOR.pack(*entries))

    # ------------------------------------------------------------------
    # chains
    # ------------------------------------------------------------------
    def chain(self, first_cluster: int) -> Iterator[int]:
        """Iterate the cluster chain starting at ``first_cluster``."""
        cluster = first_cluster
        seen = 0
        limit = self._limit
        while 2 <= cluster < END_OF_CHAIN and cluster != BAD_CLUSTER:
            yield cluster
            cluster = self.read_entry(cluster)
            seen += 1
            if seen > limit:
                raise FilesystemError("FAT chain loop detected")

    def chain_list(self, first_cluster: int) -> List[int]:
        return list(self.chain(first_cluster))

    def allocate(self, count: int, *, link_after: int | None = None) -> List[int]:
        """Allocate ``count`` clusters as a chain; returns its clusters.

        The scan takes the first free clusters in one lap of the data
        clusters from the hint, one FAT sector at a time.  When
        ``link_after`` is given, the new chain is appended to it.
        """
        if count <= 0:
            raise FilesystemError("cannot allocate zero clusters")
        bpb = self.bpb
        allocated: List[int] = []
        cluster = self._next_free_hint
        limit = self._limit
        scanned = 0
        # one lap of the data clusters 2 .. limit-1, from the hint
        while len(allocated) < count and scanned < bpb.num_clusters:
            if cluster >= limit:
                cluster = 2
            sector, first = divmod(cluster, _ENTRIES_PER_SECTOR)
            span = min(_ENTRIES_PER_SECTOR - first, limit - cluster,
                       bpb.num_clusters - scanned)
            entries = _SECTOR.unpack(
                self.device.read_block(bpb.fat_start_sector + sector))
            for slot in range(first, first + span):
                if entries[slot] & CLUSTER_MASK == FREE_CLUSTER:
                    allocated.append(cluster + slot - first)
                    if len(allocated) == count:
                        span = slot - first + 1
                        break
            cluster += span
            scanned += span
        if len(allocated) < count:
            raise FilesystemError("volume full")
        self._next_free_hint = cluster
        # pairwise chain links: the second iterable is one short by design
        links = dict(zip(allocated, allocated[1:], strict=False))
        links[allocated[-1]] = END_OF_CHAIN
        if link_after is not None:
            links[link_after] = allocated[0]
        self.write_entries(links)
        return allocated

    def free_chain(self, first_cluster: int) -> int:
        """Free a chain; returns the number of clusters released."""
        clusters = self.chain_list(first_cluster)
        self.write_entries(dict.fromkeys(clusters, FREE_CLUSTER))
        return len(clusters)

    def count_free(self) -> int:
        """Free-cluster census (linear scan; used by tests and df)."""
        free = 0
        for cluster in range(2, self.bpb.num_clusters + 2):
            if self.read_entry(cluster) == FREE_CLUSTER:
                free += 1
        return free
