"""SD card model speaking the SPI-mode subset of the SD protocol.

The paper loads partial bitstreams "from an external SD card into the
SoC's DDR memory" over SPI with a minimalist FAT32 layer (Sec. III-A).
This model implements the command subset a bare-metal FAT32 driver
needs: reset/identify (CMD0/CMD8/CMD55+ACMD41/CMD58), block length
(CMD16), single-block read (CMD17) and single-block write (CMD24),
with realistic framing (R1/R3/R7 responses, start tokens, CRC16 on
data, busy signalling after writes).
"""

from __future__ import annotations

import enum
from collections import deque
from collections.abc import Mapping

BLOCK_SIZE = 512

R1_IDLE = 0x01
R1_READY = 0x00
R1_ILLEGAL = 0x04
DATA_START_TOKEN = 0xFE
DATA_ACCEPTED = 0x05


def crc16_ccitt(data: bytes) -> int:
    """CRC16-CCITT used on SD data blocks."""
    crc = 0
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class _State(enum.Enum):
    IDLE = enum.auto()
    COMMAND = enum.auto()
    WRITE_WAIT_TOKEN = enum.auto()
    WRITE_DATA = enum.auto()


class SdCard:
    """A byte-exchange SD card in SPI mode (SDHC, block addressed)."""

    def __init__(self, capacity_blocks: int = 65536, *,
                 acmd41_retries: int = 2) -> None:
        self.blocks = capacity_blocks
        self.storage: dict[int, bytearray] = {}
        self.cs_asserted = False
        self.initialized = False
        self.block_len = BLOCK_SIZE
        self.acmd41_retries = acmd41_retries
        self._acmd41_seen = 0
        self._expect_acmd = False
        self._state = _State.IDLE
        self._cmd_buffer: list[int] = []
        self._out_queue: deque[int] = deque()
        self._write_lba = 0
        self._write_buffer: list[int] = []
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # host-side backdoor (image preparation)
    # ------------------------------------------------------------------
    def load_block(self, lba: int, data: bytes) -> None:
        self.load_blocks({lba: data})

    def load_blocks(self, blocks: Mapping[int, bytes]) -> None:
        """Store a copy of every block, after checking them all."""
        for lba, data in blocks.items():
            if not 0 <= lba < self.blocks:
                raise ValueError(
                    f"block {lba} out of range (card has {self.blocks})")
            if len(data) != BLOCK_SIZE:
                raise ValueError("block must be exactly 512 bytes")
        self.storage.update(
            {lba: bytearray(data) for lba, data in blocks.items()})

    def read_block_backdoor(self, lba: int) -> bytes:
        return bytes(self.storage.get(lba, bytearray(BLOCK_SIZE)))

    # ------------------------------------------------------------------
    # SPI wire interface
    # ------------------------------------------------------------------
    def set_cs(self, asserted: bool) -> None:
        self.cs_asserted = asserted
        if not asserted:
            self._state = _State.IDLE
            self._cmd_buffer.clear()

    def exchange(self, mosi: int) -> int:
        """Full-duplex byte exchange: host sends ``mosi``, gets MISO."""
        if not self.cs_asserted:
            return 0xFF
        miso = self._out_queue.popleft() if self._out_queue else 0xFF

        if self._state is _State.WRITE_WAIT_TOKEN:
            if mosi == DATA_START_TOKEN:
                self._state = _State.WRITE_DATA
                self._write_buffer = []
            return miso
        if self._state is _State.WRITE_DATA:
            self._write_buffer.append(mosi)
            if len(self._write_buffer) == BLOCK_SIZE + 2:  # data + CRC16
                data = bytes(self._write_buffer[:BLOCK_SIZE])
                self.storage[self._write_lba] = bytearray(data)
                self.writes += 1
                self._out_queue.append(DATA_ACCEPTED)
                self._out_queue.extend([0x00] * 2)  # busy
                self._state = _State.IDLE
            return miso

        if self._state is _State.IDLE:
            if mosi & 0xC0 == 0x40:
                self._cmd_buffer = [mosi]
                self._state = _State.COMMAND
            return miso
        # accumulating a command frame
        self._cmd_buffer.append(mosi)
        if len(self._cmd_buffer) == 6:
            self._state = _State.IDLE  # _handle_command may override (writes)
            self._handle_command()
        return miso

    # ------------------------------------------------------------------
    # command handling
    # ------------------------------------------------------------------
    def _r1(self) -> int:
        return R1_READY if self.initialized else R1_IDLE

    def _handle_command(self) -> None:
        cmd = self._cmd_buffer[0] & 0x3F
        arg = int.from_bytes(bytes(self._cmd_buffer[1:5]), "big")
        out = self._out_queue
        out.append(0xFF)  # Ncr: one byte of response delay
        is_acmd = self._expect_acmd
        self._expect_acmd = False

        if cmd == 0:  # GO_IDLE_STATE
            self.initialized = False
            self._acmd41_seen = 0
            out.append(R1_IDLE)
        elif cmd == 8:  # SEND_IF_COND -> R7
            out.append(self._r1())
            out.extend((arg & 0xFFFF_FFFF).to_bytes(4, "big"))
        elif cmd == 55:  # APP_CMD
            self._expect_acmd = True
            out.append(self._r1())
        elif cmd == 41 and is_acmd:  # ACMD41 SD_SEND_OP_COND
            self._acmd41_seen += 1
            if self._acmd41_seen >= self.acmd41_retries:
                self.initialized = True
            out.append(self._r1())
        elif cmd == 58:  # READ_OCR -> R3
            out.append(self._r1())
            out.extend((0xC0FF_8000).to_bytes(4, "big"))  # powered, CCS=1
        elif cmd == 16:  # SET_BLOCKLEN
            out.append(R1_READY if arg == BLOCK_SIZE else R1_ILLEGAL)
        elif cmd == 17:  # READ_SINGLE_BLOCK
            if arg >= self.blocks:
                out.append(R1_ILLEGAL)
                return
            self.reads += 1
            out.append(R1_READY)
            out.append(0xFF)  # access delay before the data token
            out.append(DATA_START_TOKEN)
            data = self.read_block_backdoor(arg)
            out.extend(data)
            out.extend(crc16_ccitt(data).to_bytes(2, "big"))
        elif cmd == 24:  # WRITE_BLOCK
            if arg >= self.blocks:
                out.append(R1_ILLEGAL)
                return
            self._write_lba = arg
            out.append(R1_READY)
            self._state = _State.WRITE_WAIT_TOKEN
        else:
            out.append(R1_ILLEGAL | self._r1())
