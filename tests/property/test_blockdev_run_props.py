"""Block runs on the zero-time devices against the per-block loop.

``BlockDevice.read_blocks``/``write_blocks`` default to one
``read_block``/``write_block`` per block, in order; the RAM image and
the partition view override both to move a run as one slice, the SD
backdoor overrides the read.  On random runs each override must return
the same bytes, leave the same blocks and counters, and refuse a run
that leaves the device with the same error as the loop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilesystemError
from repro.fat32.blockdev import BLOCK_SIZE, BlockDevice, RamBlockDevice, SdBackdoorBlockDevice
from repro.fat32.filesystem import _PartitionView
from repro.soc.sdcard import SdCard

NUM_BLOCKS = 48

kinds = st.sampled_from(["ram", "sd", "partition"])
write_kinds = st.sampled_from(["ram", "partition"])
runs = st.tuples(st.integers(min_value=-2, max_value=NUM_BLOCKS + 2),
                 st.integers(min_value=0, max_value=12))


def _device(kind):
    """A device of ``kind`` holding every third block, and a reader of
    its state: the stored blocks and the read and write counters."""
    if kind == "ram":
        device = RamBlockDevice(NUM_BLOCKS)

        def state():
            return dict(device.populated_blocks()), device.reads, device.writes
    elif kind == "sd":
        card = SdCard(NUM_BLOCKS)
        device = SdBackdoorBlockDevice(card)

        def state():
            return ({lba: bytes(block) for lba, block in card.storage.items()},
                    card.reads, card.writes)
    else:
        inner = RamBlockDevice(NUM_BLOCKS + 16)
        device = _PartitionView(inner, 8, NUM_BLOCKS)

        def state():
            return dict(inner.populated_blocks()), inner.reads, inner.writes
    for lba in range(0, NUM_BLOCKS, 3):
        device.write_block(lba, bytes([lba]) * BLOCK_SIZE)
    return device, state


def _outcome(call):
    try:
        return "ok", call()
    except FilesystemError as exc:
        return "error", str(exc)


@settings(max_examples=120, deadline=None)
@given(kinds, runs)
def test_read_run_joins_read_block(kind, run):
    lba, count = run
    device, state = _device(kind)
    reference, reference_state = _device(kind)
    got = _outcome(lambda: device.read_blocks(lba, count))
    assert got == _outcome(lambda: BlockDevice.read_blocks(reference, lba, count))
    if got[0] == "ok":
        assert state() == reference_state()


@settings(max_examples=120, deadline=None)
@given(write_kinds, runs, st.sampled_from([0, 0, 0, 1, 511]), st.randoms())
def test_write_run_matches_write_block(kind, run, partial, rng):
    lba, count = run
    data = rng.randbytes(count * BLOCK_SIZE + partial)
    device, state = _device(kind)
    reference, reference_state = _device(kind)
    got = _outcome(lambda: device.write_blocks(lba, data))
    assert got == _outcome(lambda: BlockDevice.write_blocks(reference, lba, data))
    if got[0] == "ok":
        assert state() == reference_state()
