"""FPGA configuration fabric model (7-series style).

Implements the pieces of a Xilinx 7-series device that partial
reconfiguration touches: frame-addressed configuration memory, the
configuration packet protocol (sync word, type-1/type-2 packets,
FAR/FDRI/CMD/CRC registers), the ICAP primitive (32-bit port, one word
per cycle at 100 MHz -> the 400 MB/s ceiling every DPR controller in
Table II is measured against), a bitstream generator standing in for
Vivado's write_bitstream, and reconfigurable partition/module
descriptors.
"""

from repro.fpga.device import FpgaDevice, KINTEX7_325T
from repro.fpga.frames import FrameAddress
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.packets import ConfigPacket, ConfigRegister, Command
from repro.fpga.bitstream import Bitstream
from repro.fpga.bitgen import Bitgen, BitgenOptions
from repro.fpga.partition import (
    ReconfigurableModule,
    ReconfigurablePartition,
    RpGeometry,
)
from repro.fpga.icap import Icap
from repro.fpga.compression import rle_compress, rle_decompress
from repro.fpga.bitfile import (
    BitFileHeader,
    extract_bitstream,
    parse_bit_file,
    write_bit_file,
)
from repro.fpga.scrubber import FrameScrubber, ScrubReport, inject_seu

__all__ = [
    "FpgaDevice",
    "KINTEX7_325T",
    "FrameAddress",
    "ConfigMemory",
    "ConfigPacket",
    "ConfigRegister",
    "Command",
    "Bitstream",
    "Bitgen",
    "BitgenOptions",
    "ReconfigurableModule",
    "ReconfigurablePartition",
    "RpGeometry",
    "Icap",
    "rle_compress",
    "rle_decompress",
    "BitFileHeader",
    "extract_bitstream",
    "parse_bit_file",
    "write_bit_file",
    "FrameScrubber",
    "ScrubReport",
    "inject_seu",
]
