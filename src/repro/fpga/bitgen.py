"""Partial bitstream generation (stand-in for Vivado write_bitstream).

Produces structurally valid 7-series partial bitstreams: preamble +
sync, RCRC, IDCODE check, FAR, WCFG, a type-1/type-2 FDRI write
carrying the frame payload, a CRC check word, DGHIGH and DESYNC, padded
with trailing NOPs.  Frame payloads are synthesized deterministically
from the module identity so distinct RMs produce distinct (but
reproducible) configuration data.

With the default options the paper's reference RP (1608 frames,
101 words/frame, 315 words of protocol overhead) serializes to exactly
650 892 bytes — the partial bitstream size reported in Sec. IV-A.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import BitstreamError
from repro.fpga.bitstream import Bitstream
from repro.fpga.device import FpgaDevice, KINTEX7_325T
from repro.fpga.packets import (
    BUS_WIDTH_DETECT,
    BUS_WIDTH_SYNC,
    Command,
    ConfigRegister,
    DUMMY_WORD,
    NOOP_WORD,
    SYNC_WORD,
    type1_write,
    type2_write,
)
from repro.fpga.partition import ReconfigurableModule, ReconfigurablePartition
from repro.utils.crc import crc32_config_word, crc32_config_words


@dataclass(frozen=True)
class BitgenOptions:
    """Generation knobs (defaults reproduce the paper's reference PB)."""

    #: dummy words before the bus-width sequence
    preamble_dummies: int = 16
    #: trailing NOP padding after DESYNC (Vivado pads generously; the
    #: default makes the reference RP's PB exactly 650 892 bytes)
    pad_nops: int = 272
    #: include the CRC check word (disable to test the ICAP's error path)
    emit_crc: bool = True
    #: deliberately corrupt the CRC (fault-injection testing)
    corrupt_crc: bool = False


class Bitgen:
    """Generates partial bitstreams for reconfigurable modules."""

    def __init__(self, device: FpgaDevice = KINTEX7_325T,
                 options: BitgenOptions | None = None) -> None:
        self.device = device
        self.options = options or BitgenOptions()

    # ------------------------------------------------------------------
    # frame payload synthesis
    # ------------------------------------------------------------------
    def frame_payload(self, rp: ReconfigurablePartition,
                      module: ReconfigurableModule) -> np.ndarray:
        """Deterministic pseudo-configuration data for (rp, module).

        Real frame contents are opaque LUT equations and routing bits;
        what matters to every consumer in this project is that the data
        is (a) deterministic per module, (b) different across modules
        and (c) the right size.  A seeded Generator provides all three.
        """
        seed_material = f"{self.device.name}:{rp.name}:{module.name}".encode()
        seed = int.from_bytes(hashlib.sha256(seed_material).digest()[:8], "big")
        rng = np.random.default_rng(seed)
        words = rp.frame_words
        return rng.integers(0, 1 << 32, size=words, dtype=np.uint32)

    # ------------------------------------------------------------------
    # bitstream assembly
    # ------------------------------------------------------------------
    def generate(self, rp: ReconfigurablePartition,
                 module: ReconfigurableModule) -> Bitstream:
        """Generate the partial bitstream loading ``module`` into ``rp``."""
        rp.check_fits(module)
        payload = self.frame_payload(rp, module)
        return self._assemble(rp, payload)

    def _assemble(self, rp: ReconfigurablePartition,
                  payload: np.ndarray) -> Bitstream:
        """Wrap ``payload`` in the header and trailer words.

        The header and trailer are short word lists; the payload array
        is concatenated between them, never copied through a list.
        """
        opts = self.options
        if len(payload) != rp.frame_words:
            raise BitstreamError(
                f"payload of {len(payload)} words does not match RP "
                f"footprint of {rp.frame_words} words"
            )
        head = [DUMMY_WORD] * opts.preamble_dummies
        head += [BUS_WIDTH_SYNC, BUS_WIDTH_DETECT, DUMMY_WORD, DUMMY_WORD,
                 SYNC_WORD, NOOP_WORD,
                 type1_write(ConfigRegister.CMD, 1), Command.RCRC,
                 NOOP_WORD, NOOP_WORD]
        crc = 0  # RCRC resets the running CRC
        for register, value in ((ConfigRegister.IDCODE, self.device.idcode),
                                (ConfigRegister.FAR, rp.base_far.encode()),
                                (ConfigRegister.CMD, Command.WCFG)):
            head += [type1_write(register, 1), value]
            crc = crc32_config_word(crc, value, register)
        head += [NOOP_WORD, type1_write(ConfigRegister.FDRI, 0),
                 type2_write(len(payload))]
        crc = crc32_config_words(crc, payload, ConfigRegister.FDRI)

        tail: list[int] = []
        if opts.emit_crc:
            crc_value = crc ^ 0xDEAD_BEEF if opts.corrupt_crc else crc
            tail += [type1_write(ConfigRegister.CRC, 1), crc_value]
        tail += [type1_write(ConfigRegister.CMD, 1), Command.DGHIGH,
                 NOOP_WORD, NOOP_WORD,
                 type1_write(ConfigRegister.CMD, 1), Command.DESYNC]
        tail += [NOOP_WORD] * opts.pad_nops
        return Bitstream(np.concatenate((
            np.array(head, dtype=np.uint32), payload,
            np.array(tail, dtype=np.uint32))))

    def expected_size_bytes(self, rp: ReconfigurablePartition) -> int:
        """Size of a PB for ``rp`` without generating the payload."""
        opts = self.options
        overhead = (
            opts.preamble_dummies + 2 + 2 + 1  # preamble + sync
            + 1                                 # NOP after sync
            + 2 + 2 + 2 + 2 + 2                 # RCRC, IDCODE, FAR, WCFG (+2 NOPs)
            + 1                                 # NOP after WCFG
            + 2                                 # FDRI type1 + type2 headers
            + (2 if opts.emit_crc else 0)
            + 2 + 2                             # DGHIGH + 2 NOPs
            + 2                                 # DESYNC
            + opts.pad_nops
        )
        return (overhead + rp.frame_words) * 4
