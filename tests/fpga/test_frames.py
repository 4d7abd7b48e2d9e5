import pytest

from repro.errors import BitstreamError
from repro.fpga.frames import LINEAR_MASK, FrameAddress, advance_far


class TestFrameAddress:
    def test_encode_decode_roundtrip(self):
        far = FrameAddress(block_type=1, top=1, row=5, column=300, minor=77)
        assert FrameAddress.decode(far.encode()) == far

    def test_field_packing(self):
        far = FrameAddress(block_type=0, top=0, row=1, column=10, minor=0)
        encoded = far.encode()
        assert (encoded >> 17) & 0x1F == 1
        assert (encoded >> 7) & 0x3FF == 10

    def test_linear_ordering_monotone(self):
        a = FrameAddress(row=0, column=0, minor=0)
        b = FrameAddress(row=0, column=0, minor=1)
        c = FrameAddress(row=0, column=1, minor=0)
        d = FrameAddress(row=1, column=0, minor=0)
        assert a.linear_index() < b.linear_index() < c.linear_index() < d.linear_index()

    def test_advance_steps_minor_then_column(self):
        far = FrameAddress(column=3, minor=126)
        assert far.advance(1).minor == 127
        bumped = far.advance(2)
        assert bumped.minor == 0 and bumped.column == 4

    def test_advance_many(self):
        far = FrameAddress(row=1, column=10, minor=0)
        hop = far.advance(1608)
        assert hop.linear_index() - far.linear_index() == 1608

    def test_from_linear_roundtrip(self):
        far = FrameAddress(row=3, column=99, minor=55)
        assert FrameAddress.from_linear(far.linear_index()) == far

    @pytest.mark.parametrize("kwargs", [
        dict(block_type=8), dict(row=32), dict(column=1024), dict(minor=128),
    ])
    def test_field_ranges_enforced(self, kwargs):
        with pytest.raises(BitstreamError):
            FrameAddress(**kwargs)


class TestFarWords:
    """``advance_far`` is ``FrameAddress.advance`` on register words."""

    @pytest.mark.parametrize("far, count", [
        (FrameAddress(), 0),
        (FrameAddress(column=3, minor=126), 2),
        (FrameAddress(block_type=1, top=1, row=5, column=300, minor=77), 1608),
        (FrameAddress(block_type=7, top=1, row=31, column=1023, minor=0), 127),
    ])
    def test_matches_frame_address_advance(self, far, count):
        word = advance_far(far.encode(), count)
        assert FrameAddress.decode(word) == far.advance(count)
        assert word & LINEAR_MASK == far.advance(count).linear_index()

    def test_high_bits_drop_like_decode(self):
        far = FrameAddress(block_type=2, row=1, column=10)
        word = advance_far(far.encode() | 0xFC00_0000, 3)
        assert word == far.advance(3).encode()

    @pytest.mark.parametrize("count", [1, 200])
    def test_leaving_the_grid_raises_like_advance(self, count):
        far = FrameAddress(top=1, row=31, column=1023, minor=127)
        with pytest.raises(BitstreamError) as ours:
            advance_far(far.encode(), count)
        with pytest.raises(BitstreamError) as theirs:
            far.advance(count)
        assert str(ours.value) == str(theirs.value)
