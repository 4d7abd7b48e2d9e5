"""SPI controller + SD card protocol tests."""

import pytest

from repro.errors import FilesystemError
from repro.fat32 import SdBackdoorBlockDevice
from repro.soc.sdcard import (
    BLOCK_SIZE,
    DATA_START_TOKEN,
    R1_IDLE,
    R1_READY,
    SdCard,
    crc16_ccitt,
)
from repro.soc.spi import (
    CR_CS_ASSERT,
    CR_ENABLE,
    CR_OFFSET,
    RXDATA_OFFSET,
    TXDATA_OFFSET,
    SpiController,
)


class SdHost:
    """Tiny host-side helper driving the SPI registers directly."""

    def __init__(self) -> None:
        self.spi = SpiController()
        self.card = SdCard(capacity_blocks=256)
        self.spi.attach_device(self.card)
        self.now = 0

    def _write(self, offset, value):
        self.now = self.spi.write(offset, value.to_bytes(4, "little"),
                                  self.now).complete_at

    def _read(self, offset):
        result = self.spi.read(offset, 4, self.now)
        self.now = result.complete_at
        return result.value()

    def select(self, asserted=True):
        self._write(CR_OFFSET, CR_ENABLE | (CR_CS_ASSERT if asserted else 0))

    def xfer(self, byte):
        self._write(TXDATA_OFFSET, byte)
        return self._read(RXDATA_OFFSET)

    def command(self, cmd, arg):
        for b in bytes([0x40 | cmd]) + arg.to_bytes(4, "big") + b"\x95":
            self.xfer(b)
        for _ in range(8):
            r = self.xfer(0xFF)
            if r != 0xFF:
                return r
        raise AssertionError("no response")

    def full_init(self):
        self.select(False)
        for _ in range(10):
            self.xfer(0xFF)
        self.select(True)
        assert self.command(0, 0) == R1_IDLE
        self.command(8, 0x1AA)
        for _ in range(4):
            self.xfer(0xFF)
        for _ in range(10):
            self.command(55, 0)
            if self.command(41, 1 << 30) == R1_READY:
                return
        raise AssertionError("init failed")


class TestCrc16:
    def test_known_vector(self):
        # CRC16-CCITT (init 0) of ASCII '123456789' is 0x31C3
        assert crc16_ccitt(b"123456789") == 0x31C3

    def test_zero_block(self):
        assert crc16_ccitt(bytes(512)) == 0


class TestInitSequence:
    def test_cmd0_enters_idle(self):
        host = SdHost()
        host.select(True)
        assert host.command(0, 0) == R1_IDLE

    def test_acmd41_requires_retries(self):
        host = SdHost()
        host.select(True)
        host.command(0, 0)
        host.command(55, 0)
        first = host.command(41, 1 << 30)
        assert first == R1_IDLE  # not ready on the first attempt
        host.command(55, 0)
        assert host.command(41, 1 << 30) == R1_READY

    def test_cmd8_echoes_pattern(self):
        host = SdHost()
        host.select(True)
        host.command(0, 0)
        host.command(8, 0x1AA)
        echo = [host.xfer(0xFF) for _ in range(4)]
        assert echo == [0x00, 0x00, 0x01, 0xAA]

    def test_deselected_card_ignores_traffic(self):
        host = SdHost()
        host.select(False)
        assert host.xfer(0x40) == 0xFF


class TestBlockIo:
    def test_read_block_with_token_and_crc(self):
        host = SdHost()
        payload = bytes((i * 7) & 0xFF for i in range(BLOCK_SIZE))
        host.card.load_block(5, payload)
        host.full_init()
        assert host.command(17, 5) == R1_READY
        # find the data token
        for _ in range(16):
            if host.xfer(0xFF) == DATA_START_TOKEN:
                break
        else:
            raise AssertionError("no token")
        data = bytes(host.xfer(0xFF) for _ in range(BLOCK_SIZE))
        crc = (host.xfer(0xFF) << 8) | host.xfer(0xFF)
        assert data == payload
        assert crc == crc16_ccitt(payload)

    def test_write_block_roundtrip(self):
        host = SdHost()
        host.full_init()
        payload = bytes(range(256)) * 2
        assert host.command(24, 9) == R1_READY
        host.xfer(DATA_START_TOKEN)
        for b in payload:
            host.xfer(b)
        host.xfer(0)
        host.xfer(0)  # CRC
        response = host.xfer(0xFF)
        assert response & 0x1F == 0x05
        while host.xfer(0xFF) == 0x00:
            pass  # busy
        assert host.card.read_block_backdoor(9) == payload

    def test_out_of_range_read_rejected(self):
        host = SdHost()
        host.full_init()
        assert host.command(17, 100000) & 0x04  # illegal command bit

    def test_spi_transfer_consumes_shift_time(self):
        host = SdHost()
        t0 = host.now
        host.xfer(0xFF)
        # 8 bits at divider 4 = 32 cycles, plus register latencies
        assert host.now - t0 >= 32


class TestBackdoorLoad:
    def test_load_blocks_stores_copies(self):
        card = SdCard(capacity_blocks=16)
        source = {3: bytearray(BLOCK_SIZE), 0: bytearray(b"\x5a" * BLOCK_SIZE)}
        card.load_blocks(source)
        source[3][0] = 0xFF
        card.storage[0][0] = 0x00
        assert card.read_block_backdoor(3) == bytes(BLOCK_SIZE)
        assert source[0] == b"\x5a" * BLOCK_SIZE
        assert sorted(card.storage) == [0, 3]

    @pytest.mark.parametrize("lba, data", [
        (0, bytes(BLOCK_SIZE - 1)),         # short block
        (16, bytes(BLOCK_SIZE)),            # LBA == capacity
        (-1, bytes(BLOCK_SIZE)),
    ], ids=["short", "past_end", "negative"])
    def test_bad_blocks_rejected_like_the_per_block_path(self, lba, data):
        card = SdCard(capacity_blocks=16)
        with pytest.raises(FilesystemError):
            SdBackdoorBlockDevice(card).write_block(lba, data)
        with pytest.raises(ValueError):
            card.load_blocks({1: bytes(BLOCK_SIZE), lba: data})
        with pytest.raises(ValueError):
            card.load_block(lba, data)
        assert card.storage == {}  # checked before anything is stored
