import pytest

from repro.errors import FilesystemError
from repro.fat32.blockdev import RamBlockDevice
from repro.fat32.layout import END_OF_CHAIN
from repro.fat32.mkfs import format_volume


@pytest.fixture()
def fs():
    return format_volume(RamBlockDevice(65536))


class TestEntries:
    def test_reserved_entries_after_format(self, fs):
        assert fs.fat.read_entry(0) == 0x0FFF_FFF8
        assert fs.fat.read_entry(1) >= END_OF_CHAIN
        assert fs.fat.read_entry(2) >= END_OF_CHAIN  # root dir

    def test_write_read_entry(self, fs):
        fs.fat.write_entry(10, 11)
        assert fs.fat.read_entry(10) == 11

    def test_entry_mirrored_to_second_fat(self, fs):
        fs.fat.write_entry(10, 0xABC)
        bpb = fs.bpb
        sector2 = bpb.fat_start_sector + bpb.sectors_per_fat + 10 // 128
        raw = fs.partition.read_block(sector2)
        offset = (10 % 128) * 4
        assert int.from_bytes(raw[offset:offset + 4], "little") == 0xABC

    def test_out_of_range_rejected(self, fs):
        with pytest.raises(FilesystemError):
            fs.fat.read_entry(fs.bpb.num_clusters + 2)


class TestChains:
    def test_allocate_links_chain(self, fs):
        chain = fs.fat.allocate(4)
        assert fs.fat.chain_list(chain[0]) == chain
        assert len(chain) == 4
        assert fs.fat.read_entry(chain[-1]) >= END_OF_CHAIN
        for a, b in zip(chain, chain[1:]):
            assert fs.fat.read_entry(a) == b

    def test_allocate_appends_to_existing(self, fs):
        first = fs.fat.allocate(2)[0]
        tail = fs.fat.chain_list(first)[-1]
        fs.fat.allocate(2, link_after=tail)
        assert len(fs.fat.chain_list(first)) == 4

    def test_free_chain_releases(self, fs):
        free_before = fs.fat.count_free()
        first = fs.fat.allocate(8)[0]
        assert fs.fat.count_free() == free_before - 8
        assert fs.fat.free_chain(first) == 8
        assert fs.fat.count_free() == free_before

    def test_loop_detection(self, fs):
        fs.fat.write_entry(10, 11)
        fs.fat.write_entry(11, 10)
        with pytest.raises(FilesystemError):
            fs.fat.chain_list(10)

    def test_zero_allocation_rejected(self, fs):
        with pytest.raises(FilesystemError):
            fs.fat.allocate(0)

    def test_volume_full(self):
        fs = format_volume(RamBlockDevice(4096))
        with pytest.raises(FilesystemError):
            fs.fat.allocate(10**6)


class TestNearlyFullVolume:
    """The free-cluster scan visits each data cluster once, so a request
    for more clusters than are free cannot take one twice."""

    @pytest.fixture()
    def small(self):
        # 1,565 free one-sector clusters
        return format_volume(RamBlockDevice(3672), sectors_per_cluster=1)

    @pytest.mark.parametrize("extra", [1, 2])
    @pytest.mark.parametrize("hint_moved", [False, True])
    def test_more_than_free_is_volume_full(self, small, extra, hint_moved):
        if hint_moved:
            small.fat.allocate(1)
        free = small.fat.count_free()
        with pytest.raises(FilesystemError, match="volume full"):
            small.fat.allocate(free + extra)
        assert small.fat.count_free() == free

    def test_exactly_free_takes_distinct_clusters(self, small):
        free = small.fat.count_free()
        chain = small.fat.allocate(free)
        assert small.fat.chain_list(chain[0]) == chain
        assert len(chain) == len(set(chain)) == free
        assert small.fat.count_free() == 0

    def test_oversized_file_is_refused(self, small):
        too_big = (small.fat.count_free() + 1) * small.bpb.cluster_bytes
        with pytest.raises(FilesystemError, match="volume full"):
            small.write_file("BIG.BIN", bytes(too_big))
