import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.frames import FrameAddress


@pytest.fixture()
def cm():
    return ConfigMemory(KINTEX7_325T)


class TestConfigMemory:
    def test_unwritten_frames_read_zero(self, cm):
        frame = cm.read_frame(FrameAddress(row=2, column=5))
        assert frame.shape == (101,)
        assert not frame.any()

    def test_write_read_roundtrip(self, cm):
        far = FrameAddress(row=1, column=3)
        data = np.arange(101, dtype=np.uint32)
        cm.write_frames(far, data)
        assert np.array_equal(cm.read_frame(far), data)

    def test_multi_frame_write_advances_far(self, cm):
        far = FrameAddress(row=0, column=0)
        data = np.arange(3 * 101, dtype=np.uint32)
        next_far = cm.write_frames(far, data)
        assert next_far.linear_index() == far.linear_index() + 3
        assert np.array_equal(cm.read_frames(far, 3), data)

    def test_partial_frame_rejected(self, cm):
        with pytest.raises(ConfigurationError):
            cm.write_frames(FrameAddress(), np.zeros(100, dtype=np.uint32))

    def test_overwrite_replaces(self, cm):
        far = FrameAddress()
        cm.write_frames(far, np.ones(101, dtype=np.uint32))
        cm.write_frames(far, np.full(101, 7, dtype=np.uint32))
        assert cm.read_frame(far)[0] == 7
        assert cm.configured_frames == 1
        assert cm.frames_written == 2

    def test_clear(self, cm):
        cm.write_frames(FrameAddress(), np.zeros(101, dtype=np.uint32))
        cm.clear()
        assert cm.configured_frames == 0

    def test_read_frames_mixed_configured(self, cm):
        far = FrameAddress()
        cm.write_frames(far, np.ones(101, dtype=np.uint32))
        out = cm.read_frames(far, 2)  # second frame never written
        assert out[:101].all() and not out[101:].any()


WPF = KINTEX7_325T.words_per_frame


def _frames(first: int, count: int) -> np.ndarray:
    """``count`` frames whose words name their frame: frame k holds
    ``first + k`` in every word."""
    return np.repeat(np.arange(first, first + count, dtype=np.uint32), WPF)


class TestOwnership:
    """Every frame reads back independent of the caller's arrays."""

    def test_mutating_the_written_array_leaves_memory(self, cm):
        data = _frames(1, 4)
        cm.write_frames(FrameAddress(), data)
        data[:] = 99
        assert np.array_equal(cm.read_frames(FrameAddress(), 4), _frames(1, 4))

    def test_mutating_an_array_written_inside_a_block_leaves_memory(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 4))
        patch = _frames(50, 1)
        cm.write_frames(FrameAddress(minor=2), patch)
        patch[:] = 99
        assert np.array_equal(cm.read_frame(FrameAddress(minor=2)),
                              _frames(50, 1))

    def test_mutating_a_read_leaves_memory(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 4))
        many = cm.read_frames(FrameAddress(), 4)
        one = cm.read_frame(FrameAddress(minor=1))
        many[:] = 99
        one[:] = 99
        assert np.array_equal(cm.read_frames(FrameAddress(), 4), _frames(1, 4))

    def test_mutating_a_read_across_blocks_leaves_memory(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 2))
        cm.write_frames(FrameAddress(minor=3), _frames(4, 2))
        out = cm.read_frames(FrameAddress(), 5)
        out[:] = 99
        expected = np.concatenate(
            [_frames(1, 2), np.zeros(WPF, dtype=np.uint32), _frames(4, 2)])
        assert np.array_equal(cm.read_frames(FrameAddress(), 5), expected)


class TestOverlappingWrites:
    def test_partial_overwrite_reads_back_the_mix(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 6))
        cm.write_frames(FrameAddress(minor=2), _frames(20, 2))
        expected = np.concatenate([_frames(1, 2), _frames(20, 2),
                                   _frames(5, 2)])
        assert np.array_equal(cm.read_frames(FrameAddress(), 6), expected)

    def test_write_straddling_two_blocks(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 4))
        cm.write_frames(FrameAddress(minor=6), _frames(7, 4))
        cm.write_frames(FrameAddress(minor=2), _frames(30, 6))
        expected = np.concatenate([_frames(1, 2), _frames(30, 6),
                                   _frames(9, 2)])
        assert np.array_equal(cm.read_frames(FrameAddress(), 10), expected)
        assert cm.configured_frames == 10
        assert cm.frames_written == 14

    def test_counts_after_overlapping_writes(self, cm):
        cm.write_frames(FrameAddress(), _frames(1, 4))        # 0..3
        cm.write_frames(FrameAddress(minor=2), _frames(9, 4))  # 2..5
        cm.write_frames(FrameAddress(minor=8), _frames(9, 1))  # 8
        cm.write_frames(FrameAddress(minor=1), _frames(9, 1))  # 1
        assert cm.configured_frames == 7
        assert cm.frames_written == 10

    def test_covering_write_replaces_every_block_under_it(self, cm):
        cm.write_frames(FrameAddress(minor=1), _frames(1, 1))
        cm.write_frames(FrameAddress(minor=3), _frames(3, 1))
        cm.write_frames(FrameAddress(), _frames(40, 5))
        assert np.array_equal(cm.read_frames(FrameAddress(), 5),
                              _frames(40, 5))
        assert cm.configured_frames == 5

    def test_frames_lists_every_configured_frame(self, cm):
        cm.write_frames(FrameAddress(minor=4), _frames(4, 2))
        cm.write_frames(FrameAddress(minor=1), _frames(1, 2))
        listed = [(index, frame.tolist()) for index, frame in cm.frames()]
        assert listed == [(k, [k] * WPF) for k in (1, 2, 4, 5)]
