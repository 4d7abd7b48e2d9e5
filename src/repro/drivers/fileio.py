"""File I/O drivers: SD card over SPI, and the partial-bitstream store.

Implements the first step of the paper's reconfiguration flow: reading
``.pbit`` files from the FAT32 partition of the SD card and placing
them at destination addresses in DDR (``init_RModules``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import FilesystemError
from repro.fat32.blockdev import BLOCK_SIZE, BlockDevice
from repro.fat32.filesystem import Fat32FileSystem
from repro.drivers.mmio import HostPort
from repro.soc import spi as spi_regs
from repro.soc.sdcard import DATA_START_TOKEN, R1_READY


class SpiSdBlockDevice(BlockDevice):
    """Block device over the SPI controller: the *timed* SD path.

    Every byte moves through real TX/RX register transactions, so block
    reads cost what the SPI link costs (8 bus cycles per bit-time at
    divider 4 plus polling overhead), matching the bare-metal driver's
    behaviour.
    """

    def __init__(self, port: HostPort) -> None:
        self.port = port
        self.base = port.soc.config.layout.spi_base
        self._initialized = False

    @property
    def num_blocks(self) -> int:
        return self.port.soc.sdcard.blocks

    # ------------------------------------------------------------------
    # SPI primitives
    # ------------------------------------------------------------------
    def _xfer(self, mosi: int) -> int:
        self.port.write32(self.base + spi_regs.TXDATA_OFFSET, mosi)
        return self.port.read32(self.base + spi_regs.RXDATA_OFFSET)

    def _select(self, asserted: bool) -> None:
        value = spi_regs.CR_ENABLE | (spi_regs.CR_CS_ASSERT if asserted else 0)
        self.port.write32(self.base + spi_regs.CR_OFFSET, value)

    def _command(self, cmd: int, arg: int) -> int:
        """Send a 6-byte command frame; return the R1 response."""
        frame = bytes([0x40 | cmd]) + arg.to_bytes(4, "big") + b"\x95"
        for byte in frame:
            self._xfer(byte)
        for _ in range(8):  # response within Ncr
            r1 = self._xfer(0xFF)
            if r1 != 0xFF:
                return r1
        raise FilesystemError(f"SD CMD{cmd}: no response")

    def initialize(self) -> None:
        """SPI-mode init sequence: CMD0 / CMD8 / ACMD41 / CMD58 / CMD16."""
        self._select(False)
        for _ in range(10):  # 80 clocks with CS high
            self._xfer(0xFF)
        self._select(True)
        if self._command(0, 0) != 0x01:
            raise FilesystemError("SD card did not enter idle state")
        self._command(8, 0x1AA)
        for _ in range(4):
            self._xfer(0xFF)  # drain the R7 payload
        for _ in range(100):
            self._command(55, 0)
            if self._command(41, 1 << 30) == R1_READY:
                break
        else:
            raise FilesystemError("SD card initialization timed out")
        self._command(58, 0)
        for _ in range(4):
            self._xfer(0xFF)  # drain the OCR
        if self._command(16, BLOCK_SIZE) != R1_READY:
            raise FilesystemError("SET_BLOCKLEN rejected")
        self._initialized = True

    # ------------------------------------------------------------------
    # BlockDevice implementation
    # ------------------------------------------------------------------
    def _ensure_init(self) -> None:
        if not self._initialized:
            self.initialize()

    def read_block(self, lba: int) -> bytes:
        self._ensure_init()
        self._check(lba)
        if self._command(17, lba) != R1_READY:
            raise FilesystemError(f"READ_SINGLE_BLOCK({lba}) rejected")
        for _ in range(16):
            token = self._xfer(0xFF)
            if token == DATA_START_TOKEN:
                break
        else:
            raise FilesystemError(f"no data token for block {lba}")
        data = bytes(self._xfer(0xFF) for _ in range(BLOCK_SIZE))
        self._xfer(0xFF)  # CRC16 high
        self._xfer(0xFF)  # CRC16 low
        return data

    def write_block(self, lba: int, data: bytes) -> None:
        self._ensure_init()
        self._check(lba)
        if len(data) != BLOCK_SIZE:
            raise FilesystemError("SD writes are whole blocks")
        if self._command(24, lba) != R1_READY:
            raise FilesystemError(f"WRITE_BLOCK({lba}) rejected")
        self._xfer(DATA_START_TOKEN)
        for byte in data:
            self._xfer(byte)
        self._xfer(0xFF)
        self._xfer(0xFF)  # CRC16
        response = self._xfer(0xFF)
        if response & 0x1F != 0x05:
            raise FilesystemError(f"block {lba} write rejected: {response:#x}")
        while self._xfer(0xFF) == 0x00:
            pass  # busy


@dataclass
class RmDescriptor:
    """The paper's ``reconfig_module`` struct (Sec. III-C)."""

    name: str
    file_name: str
    start_address: int
    pbit_size: int
    functionality: str | None = None


class PbitStore:
    """init_RModules: load partial bitstreams from SD/FAT32 into DDR."""

    def __init__(self, port: HostPort, filesystem: Fat32FileSystem) -> None:
        self.port = port
        self.fs = filesystem
        self.descriptors: Dict[str, RmDescriptor] = {}

    def init_rmodules(self, names: List[str], *,
                      base_address: int | None = None,
                      functionality: Dict[str, str] | None = None
                      ) -> Dict[str, RmDescriptor]:
        """Load each RM's ``.pbit`` file into DDR; returns descriptors.

        ``names`` are RM names; the file on the FAT32 partition is
        ``<NAME>.PBI``.  Files are packed contiguously (64-byte aligned)
        from ``base_address`` (default: 16 MiB into DDR).
        """
        from repro.fpga.bitfile import is_bit_file, parse_bit_file

        layout = self.port.soc.config.layout
        soc = self.port.soc
        obs = getattr(soc, "obs", None)
        loaded = None  # the SD byte counter, once a load registers it
        address = base_address if base_address is not None \
            else layout.ddr_base + (16 << 20)
        for name in names:
            file_name = f"{name.upper()}.PBI"
            span = None
            if obs is not None:
                span = obs.tracer.begin("driver", "sd_load", soc.sim.now,
                                        module=name, file=file_name)
            data = self.fs.read_file(file_name)
            if is_bit_file(data):
                # .bit container: strip the header, keep the raw words
                _header, bitstream = parse_bit_file(data)
                data = bitstream.to_bytes()
            self.port.soc.ddr_write(address, data)
            if obs is not None:
                obs.tracer.end(span, soc.sim.now, bytes=len(data))
                if loaded is None:
                    loaded = obs.metrics.counter(
                        "sd_pbit_bytes_total",
                        "partial-bitstream bytes loaded from the SD card")
                loaded.value += len(data)
            self.descriptors[name] = RmDescriptor(
                name=name,
                file_name=file_name,
                start_address=address,
                pbit_size=len(data),
                functionality=(functionality or {}).get(name, name),
            )
            address += (len(data) + 63) & ~63
        return self.descriptors

    def descriptor(self, name: str) -> RmDescriptor:
        try:
            return self.descriptors[name]
        except KeyError:
            raise FilesystemError(
                f"module {name!r} was not loaded; call init_rmodules first"
            ) from None
