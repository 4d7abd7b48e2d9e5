"""Bitstream container.

A bitstream is a sequence of 32-bit configuration words.  On disk / SD
card / DDR it is serialized big-endian per word (the Xilinx ``.bin``
convention); the AXIS2ICAP hardware re-assembles 32-bit words from the
byte stream in that same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import BitstreamError


@dataclass
class Bitstream:
    """A (partial) bitstream as an array of configuration words."""

    words: np.ndarray

    def __post_init__(self) -> None:
        self.words = np.asarray(self.words, dtype=np.uint32)

    @property
    def nbytes(self) -> int:
        return int(self.words.size) * 4

    def to_bytes(self) -> bytes:
        """Serialize big-endian per 32-bit word (.bin convention)."""
        return self.words.astype(">u4").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bitstream":
        if len(data) % 4:
            raise BitstreamError("bitstream length must be a multiple of 4")
        return cls(np.frombuffer(data, dtype=">u4").astype(np.uint32))

    def __len__(self) -> int:
        return int(self.words.size)
