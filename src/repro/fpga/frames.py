"""Frame addressing (FAR register layout, UG470 table 5-24).

7-series FAR fields: block type [25:23], top/bottom [22], row [21:17],
column [16:7], minor [6:0].  The models only need linear ordering and
round-trip encode/decode, both provided here.

The low 22 bits of a FAR word (row, column, minor) are the frame's
linear index, so the configuration port keeps its frame address as
the register word and steps it with :func:`advance_far`; a
:class:`FrameAddress` is built only where one is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BitstreamError


#: FAR word bits holding the linear frame index: row, column, minor
LINEAR_MASK = (1 << 22) - 1
#: FAR word bits a decode keeps: block type, top/bottom and the index
FAR_MASK = (1 << 26) - 1


def advance_far(word: int, count: int) -> int:
    """The FAR word ``count`` frames after FAR word ``word``.

    :meth:`FrameAddress.advance` on register words: the block type and
    top bit stay, the linear index steps, and leaving the 32-row grid
    raises the same :class:`BitstreamError`.
    """
    linear = (word & LINEAR_MASK) + count
    if not 0 <= linear <= LINEAR_MASK:
        raise BitstreamError(f"row {linear >> 17} out of range")
    return (word & (FAR_MASK ^ LINEAR_MASK)) | linear


@dataclass(frozen=True, order=True)
class FrameAddress:
    """A decoded 7-series frame address."""

    block_type: int = 0   # 0=CLB/IO/CLK, 1=BRAM content, 2=CFG_CLB
    top: int = 0
    row: int = 0
    column: int = 0
    minor: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.block_type < 8:
            raise BitstreamError(f"block type {self.block_type} out of range")
        if not 0 <= self.row < 32:
            raise BitstreamError(f"row {self.row} out of range")
        if not 0 <= self.column < 1024:
            raise BitstreamError(f"column {self.column} out of range")
        if not 0 <= self.minor < 128:
            raise BitstreamError(f"minor {self.minor} out of range")

    def encode(self) -> int:
        return (
            (self.block_type << 23)
            | (self.top << 22)
            | (self.row << 17)
            | (self.column << 7)
            | self.minor
        )

    @classmethod
    def decode(cls, value: int) -> "FrameAddress":
        return cls(
            block_type=(value >> 23) & 0x7,
            top=(value >> 22) & 0x1,
            row=(value >> 17) & 0x1F,
            column=(value >> 7) & 0x3FF,
            minor=value & 0x7F,
        )

    def advance(self, count: int = 1) -> "FrameAddress":
        """Next frame address in configuration order.

        The real device has irregular column heights; for the model we
        use a regular grid of 128 minors per column and 1024 columns per
        row, which preserves ordering and uniqueness.
        """
        linear = self.linear_index() + count
        return self.from_linear(linear, self.block_type, self.top)

    def linear_index(self) -> int:
        return (self.row * 1024 + self.column) * 128 + self.minor

    @classmethod
    def from_linear(cls, linear: int, block_type: int = 0,
                    top: int = 0) -> "FrameAddress":
        minor = linear % 128
        column = (linear // 128) % 1024
        row = linear // (128 * 1024)
        return cls(block_type=block_type, top=top, row=row,
                   column=column, minor=minor)
