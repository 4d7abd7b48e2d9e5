"""Volume formatting: build FAT32 images for the simulated SD card."""

from __future__ import annotations

from typing import Mapping

from repro.errors import FilesystemError
from repro.fat32.blockdev import BLOCK_SIZE, BlockDevice, RamBlockDevice
from repro.fat32.filesystem import Fat32FileSystem, _PartitionView
from repro.fat32.layout import END_OF_CHAIN, BiosParameterBlock
from repro.fat32.mbr import (
    PARTITION_TYPE_FAT32_LBA,
    PartitionEntry,
    write_mbr,
)


def format_volume(device: BlockDevice, *, first_lba: int = 2048,
                  sectors_per_cluster: int = 8) -> Fat32FileSystem:
    """Partition ``device`` (single FAT32 partition) and format it."""
    total = device.num_blocks
    if total <= first_lba + 1024:
        raise FilesystemError("device too small for a FAT32 volume")
    part_sectors = total - first_lba

    # size the FAT: clusters ~= data_sectors / spc; each FAT sector
    # maps 128 clusters.  One fixed-point refinement is plenty.
    reserved = 32
    spc = sectors_per_cluster
    sectors_per_fat = 1
    for _ in range(3):
        data_sectors = part_sectors - reserved - 2 * sectors_per_fat
        clusters = data_sectors // spc
        sectors_per_fat = -(-(clusters + 2) // 128)
    bpb = BiosParameterBlock(
        sectors_per_cluster=spc,
        reserved_sectors=reserved,
        total_sectors=part_sectors,
        sectors_per_fat=sectors_per_fat,
    )

    write_mbr(device, [
        PartitionEntry(boot_flag=0x80,
                       partition_type=PARTITION_TYPE_FAT32_LBA,
                       first_lba=first_lba, num_sectors=part_sectors)
    ])
    view = _PartitionView(device, first_lba, part_sectors)
    view.write_block(0, bpb.pack())

    # zero both FATs, then seed the three reserved entries
    zero = bytes(sectors_per_fat * BLOCK_SIZE)
    for fat_index in range(bpb.num_fats):
        view.write_blocks(bpb.fat_start_sector + fat_index * sectors_per_fat,
                          zero)
    fs = Fat32FileSystem(view, bpb)
    fs.fat.write_entries({
        0: 0x0FFF_FFF8,                       # media descriptor entry
        1: END_OF_CHAIN,
        bpb.root_cluster: END_OF_CHAIN,
    })
    fs._write_cluster(bpb.root_cluster, b"")  # empty root directory
    return fs


def make_disk_image(files: Mapping[str, bytes], *,
                    num_blocks: int = 262144) -> RamBlockDevice:
    """Build a RAM disk image holding ``files`` in the root directory.

    262144 blocks = 128 MiB, comfortably holding the full set of
    partial bitstreams for every benchmark sweep.
    """
    device = RamBlockDevice(num_blocks)
    fs = format_volume(device)
    for name, data in files.items():
        fs.write_file(name, data)
    return device
