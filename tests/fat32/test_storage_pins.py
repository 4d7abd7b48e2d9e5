"""What the storage layer must not change.

The card images that provisioning writes, the order in which
``init_rmodules`` reads blocks (a fault proxy numbers its reads, and
the fault campaign reports which block a read ordinal hits) and the
messages of the campaign's SD read faults are pinned here; the SPI
path's simulated time is pinned in
``tests/integration/test_end_to_end.py``.
"""

import hashlib

import pytest

from repro.errors import FilesystemError
from repro.eval.scenarios import reference_setup
from repro.fat32 import SdBackdoorBlockDevice
from repro.faults import FaultyBlockDevice
from repro.sched import build_sched_soc


def _card_digest(card) -> str:
    digest = hashlib.sha256()
    for lba in sorted(card.storage):
        digest.update(lba.to_bytes(8, "little"))
        digest.update(card.storage[lba])
    return digest.hexdigest()


class _RecordingBlockDevice(FaultyBlockDevice):
    """A fault proxy that never fires and records each read's LBA."""

    def __init__(self, inner):
        super().__init__(inner)
        self.lbas = []

    def read_block(self, lba):
        self.lbas.append(lba)
        return super().read_block(lba)


@pytest.fixture(scope="module")
def reference():
    return reference_setup()


class TestCardImages:
    def test_reference_setup_image(self, reference):
        soc, _manager = reference
        assert len(soc.sdcard.storage) == 4334
        assert _card_digest(soc.sdcard) == (
            "473b18cfc8d1f0c78cb3551317473d276899ee2435853dc01ccdf2498569e9c2")

    def test_sched_soc_image(self):
        card = build_sched_soc(32, frame=32).soc.sdcard
        assert len(card.storage) == 1542
        assert _card_digest(card) == (
            "88fd1a6a4503502b056f8c4a58d37d6a7caeddd5773e93b3c9ea7928b69d4e77")


class TestInitRmodulesReads:
    def test_read_sequence(self, reference):
        soc, manager = reference
        device = _RecordingBlockDevice(SdBackdoorBlockDevice(soc.sdcard))
        manager.init_rmodules(block_device=device)
        assert len(device.lbas) == 4316
        # the MBR, the BPB, the root directory's cluster, then the first
        # file cluster by cluster, each cluster's FAT entry read only
        # when the chain moves on
        assert device.lbas[:28] == [0, 2048, *range(2588, 2604), 2080,
                                    *range(2604, 2612), 2080]
        assert hashlib.sha256(repr(device.lbas).encode()).hexdigest() == (
            "6ef389953e1870491a75be749d41da7486b5108dadcd403d01f666d3fc7b52d8")

    def test_fault_messages(self, reference):
        soc, manager = reference
        messages = []
        for ordinal in range(1, 40):
            device = FaultyBlockDevice(SdBackdoorBlockDevice(soc.sdcard),
                                       fail_at_read=ordinal)
            with pytest.raises(FilesystemError) as excinfo:
                manager.init_rmodules(block_device=device)
            messages.append(str(excinfo.value))
        lbas = [2048, *range(2588, 2604), 2080, *range(2604, 2612), 2080,
                *range(2612, 2620), 2080, *range(2620, 2623)]
        assert messages == [
            f"injected SD read failure at block {lba} (read #{ordinal})"
            for ordinal, lba in enumerate(lbas, start=1)]
