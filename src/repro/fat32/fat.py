"""FAT chain management."""

from __future__ import annotations

from typing import Iterator, List

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


class FatTable:
    """The file allocation table of one mounted volume.

    All sector addresses are relative to the partition start; the
    filesystem facade supplies a partition-relative device view.
    """

    def __init__(self, device: BlockDevice, bpb: BiosParameterBlock) -> None:
        self.device = device
        self.bpb = bpb
        self._next_free_hint = 3

    # ------------------------------------------------------------------
    # entry access
    # ------------------------------------------------------------------
    def _locate(self, cluster: int) -> tuple[int, int]:
        if cluster >= self.bpb.num_clusters + 2:
            raise FilesystemError(f"cluster {cluster} beyond volume end")
        sector = self.bpb.fat_start_sector + cluster // _ENTRIES_PER_SECTOR
        return sector, (cluster % _ENTRIES_PER_SECTOR) * 4

    def read_entry(self, cluster: int) -> int:
        sector, offset = self._locate(cluster)
        raw = self.device.read_block(sector)
        return int.from_bytes(raw[offset : offset + 4], "little") & CLUSTER_MASK

    def write_entry(self, cluster: int, value: int) -> None:
        sector, offset = self._locate(cluster)
        for fat_index in range(self.bpb.num_fats):
            target = sector + fat_index * self.bpb.sectors_per_fat
            raw = bytearray(self.device.read_block(target))
            # top 4 bits are reserved and must be preserved
            old = int.from_bytes(raw[offset : offset + 4], "little")
            new = (old & ~CLUSTER_MASK) | (value & CLUSTER_MASK)
            raw[offset : offset + 4] = new.to_bytes(4, "little")
            self.device.write_block(target, bytes(raw))

    # ------------------------------------------------------------------
    # chains
    # ------------------------------------------------------------------
    def chain(self, first_cluster: int) -> Iterator[int]:
        """Iterate the cluster chain starting at ``first_cluster``."""
        cluster = first_cluster
        seen = 0
        limit = self.bpb.num_clusters + 2
        while 2 <= cluster < END_OF_CHAIN and cluster != BAD_CLUSTER:
            yield cluster
            cluster = self.read_entry(cluster)
            seen += 1
            if seen > limit:
                raise FilesystemError("FAT chain loop detected")

    def chain_list(self, first_cluster: int) -> List[int]:
        return list(self.chain(first_cluster))

    def allocate(self, count: int, *, link_after: int | None = None) -> int:
        """Allocate ``count`` clusters as a chain; returns the first.

        When ``link_after`` is given, the new chain is appended to it.
        """
        if count <= 0:
            raise FilesystemError("cannot allocate zero clusters")
        allocated: List[int] = []
        cluster = self._next_free_hint
        limit = self.bpb.num_clusters + 2
        scanned = 0
        # one lap of the data clusters 2 .. limit-1, from the hint
        while len(allocated) < count and scanned < self.bpb.num_clusters:
            if cluster >= limit:
                cluster = 2
            if self.read_entry(cluster) == FREE_CLUSTER:
                allocated.append(cluster)
            cluster += 1
            scanned += 1
        if len(allocated) < count:
            raise FilesystemError("volume full")
        self._next_free_hint = cluster
        # pairwise chain links: the second iterable is one short by design
        for a, b in zip(allocated, allocated[1:], strict=False):
            self.write_entry(a, b)
        self.write_entry(allocated[-1], END_OF_CHAIN)
        if link_after is not None:
            self.write_entry(link_after, allocated[0])
        return allocated[0]

    def free_chain(self, first_cluster: int) -> int:
        """Free a chain; returns the number of clusters released."""
        clusters = self.chain_list(first_cluster)
        for cluster in clusters:
            self.write_entry(cluster, FREE_CLUSTER)
        return len(clusters)

    def count_free(self) -> int:
        """Free-cluster census (linear scan; used by tests and df)."""
        free = 0
        for cluster in range(2, self.bpb.num_clusters + 2):
            if self.read_entry(cluster) == FREE_CLUSTER:
                free += 1
        return free
