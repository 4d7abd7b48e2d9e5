"""AXI_HWICAP driver (Listing 2): CPU-driven reconfiguration baseline.

The CPU itself copies the partial bitstream from DDR into the HWICAP
write FIFO, 4 bytes per store, through the 64->32 width and AXI4->Lite
protocol converters.  Each FIFO fill is followed by a CR.Write flush
and an SR poll ("the filling and flushing of the internal write FIFO
are repeated until the complete partial bitstream has been
transferred", Sec. III-C).

Host-driver mode charges the software cost of the copy loop from the
same :class:`~repro.riscv.timing.CpuTiming` constants the ISS uses:

* per word: one cached DDR load (amortized line-miss share) plus loop
  bookkeeping, on top of the real MMIO store transaction;
* per loop iteration (every ``unroll`` words): the conditional-branch
  penalty plus the non-speculative-MMIO pipeline block that Sec. IV-B
  identifies as Ariane's bottleneck — which is why throughput rises
  from 4.16 to 8.23 MB/s as the loop is unrolled 16x.

For instruction-exact numbers use :mod:`repro.firmware.hwicap_fw`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core import hwicap as hw
from repro.core import rp_control as rp_regs
from repro.drivers.fileio import RmDescriptor
from repro.drivers.mmio import HostPort
from repro.drivers.rvcap_driver import ReconfigResult
from repro.drivers.timer import ClintTimer
from repro.errors import ControllerError
from repro.fpga import packets as pk
from repro.fpga.frames import FrameAddress
from repro.fpga.packets import Command, ConfigRegister


def readback_request(far: FrameAddress, total_words: int) -> List[int]:
    """The UG470 readback request: sync, RCFG, FAR and an FDRO read of
    ``total_words`` words (the device's pad frame included)."""
    return [
        pk.DUMMY_WORD, pk.SYNC_WORD, pk.NOOP_WORD,
        pk.type1_write(ConfigRegister.CMD, 1), int(Command.RCFG),
        pk.NOOP_WORD,
        pk.type1_write(ConfigRegister.FAR, 1), far.encode(),
        pk.type1_read(ConfigRegister.FDRO, 0),
        pk.type2_read(total_words),
        pk.NOOP_WORD,
    ]


@dataclass(frozen=True)
class _LoopCost:
    """Software cycles charged around each real MMIO store."""

    per_word: int
    per_iteration: int


class HwIcapDriver:
    """Driver for the AXI_HWICAP baseline (host-driver mode)."""

    def __init__(self, port: HostPort, *, unroll: int = 16) -> None:
        if unroll < 1:
            raise ControllerError("unroll factor must be >= 1")
        self.port = port
        self.unroll = unroll
        layout = port.soc.config.layout
        self.base = layout.hwicap_base
        self.rp_ctrl_base = layout.rp_ctrl_base
        self.timer = ClintTimer(port)
        self._cost = self._derive_cost()

    def _derive_cost(self) -> _LoopCost:
        cpu = self.port.soc.config.timing.cpu
        ddr = self.port.soc.config.timing.ddr
        # cached load of the next word: 1 cycle + the line fill
        # amortized over the 16 words of a 64-byte line (the unrolled
        # body uses immediate offsets, so no per-word pointer update)
        line_words = cpu.dcache_line_bytes // 4
        miss_cycles = ddr.first_access_latency + cpu.dcache_line_bytes // 8 + 4
        per_word = 1 + miss_cycles // line_words
        per_iteration = (2 + cpu.branch_taken_penalty
                         + cpu.mmio_after_branch_block)
        return _LoopCost(per_word=per_word, per_iteration=per_iteration)

    # ------------------------------------------------------------------
    # Listing-2 primitives
    # ------------------------------------------------------------------
    def decouple_accel(self, value: int) -> None:
        self.port.write32(self.rp_ctrl_base + rp_regs.DECOUPLE_OFFSET, value)

    def reset_icap(self) -> None:
        """Reset the ICAP packet parser through the RP-control register."""
        self.port.write32(self.rp_ctrl_base + rp_regs.ICAP_RESET_OFFSET, 1)

    def init_icap(self) -> None:
        """Reset the core and disable the global interrupt (Listing 2)."""
        self.port.write32(self.base + hw.CR_OFFSET, hw.CR_SW_RESET)
        self.port.write32(self.base + hw.GIER_OFFSET, 0)

    def read_fifo_vacancy(self) -> int:
        return self.port.read32(self.base + hw.WFV_OFFSET)

    def write_to_icap(self) -> None:
        """Flush the write FIFO into the ICAP primitive."""
        self.port.write32(self.base + hw.CR_OFFSET, hw.CR_WRITE)

    def icap_done(self) -> None:
        """Poll SR until the transfer into the ICAP has finished."""
        def done() -> bool:
            return bool(self.port.read32(self.base + hw.SR_OFFSET) & hw.SR_DONE)
        self.port.wait_for(done, poll_cycles=20)

    # ------------------------------------------------------------------
    # the transfer loop
    # ------------------------------------------------------------------
    def reconfigure_rp(self, start_address: int, pbit_size: int) -> None:
        """Copy the bitstream from DDR into the ICAP via the FIFO."""
        soc = self.port.soc
        words_left = pbit_size // 4
        offset = start_address
        data = soc.ddr_read(start_address, words_left * 4)
        cursor = 0
        while words_left:
            vacancy = self.read_fifo_vacancy()
            chunk = min(vacancy, words_left)
            if chunk == 0:
                self.icap_done()
                continue
            transferred = 0
            while transferred < chunk:
                batch = min(self.unroll, chunk - transferred)
                for _ in range(batch):
                    # lw semantics: little-endian load of 4 memory bytes
                    word = int.from_bytes(data[cursor : cursor + 4], "little")
                    self.port.elapse(self._cost.per_word)
                    self.port.write32(self.base + hw.WF_OFFSET, word)
                    cursor += 4
                transferred += batch
                self.port.elapse(self._cost.per_iteration)
            self.write_to_icap()
            self.icap_done()
            words_left -= chunk
            offset += chunk * 4

    # ------------------------------------------------------------------
    # configuration readback (the "R/W the configuration memory" half
    # of Sec. III-C; used for post-DPR verification)
    # ------------------------------------------------------------------
    def read_frames(self, far, frames: int):
        """Read ``frames`` configuration frames back starting at ``far``.

        Issues the UG470 readback sequence through the write FIFO
        (sync, RCFG, FAR, FDRO read request), then drains the read FIFO
        chunk by chunk.  The device emits one pad frame first, which is
        skipped here exactly as a real driver must.
        """
        import numpy as np

        soc = self.port.soc
        wpf = soc.config_memory.device.words_per_frame
        total_words = (frames + 1) * wpf  # + pad frame
        command_words = readback_request(far, total_words)

        def swap(word: int) -> int:
            # the WF register carries bitstream *bytes* as an LE load
            # would present them; hand-built config words must be
            # byte-swapped exactly as Xilinx's XHwIcap driver does
            return int.from_bytes(word.to_bytes(4, "big"), "little")

        for word in command_words:
            self.port.write32(self.base + hw.WF_OFFSET, swap(word))
        self.write_to_icap()
        self.icap_done()

        words: list[int] = []
        while len(words) < total_words:
            chunk = min(total_words - len(words), 256)
            self.port.write32(self.base + hw.SZ_OFFSET, chunk)
            self.port.write32(self.base + hw.CR_OFFSET, hw.CR_READ)
            occupancy = self.port.read32(self.base + hw.RFO_OFFSET)
            for _ in range(occupancy):
                words.append(self.port.read32(self.base + hw.RF_OFFSET))
            if occupancy == 0:
                raise ControllerError("readback produced no data")
        # desync the port so a later reconfiguration starts clean
        for word in (pk.type1_write(ConfigRegister.CMD, 1),
                     int(Command.DESYNC), pk.NOOP_WORD):
            self.port.write32(self.base + hw.WF_OFFSET, swap(word))
        self.write_to_icap()
        self.icap_done()
        return np.array(words[wpf:], dtype=np.uint32)  # drop the pad frame

    def init_reconfig_process(self, descriptor: RmDescriptor) -> ReconfigResult:
        """The full Listing-2 flow with the paper's measurement points.

        The reconfiguration overhead is 'measured as the time required
        from decoupling the RP till it is coupled again' (Sec. IV-B).
        A failure (any ending but ``configured`` for this transfer's ICAP
        session) resets the ICAP parser and re-couples before it raises.
        """
        soc = self.port.soc
        icap = soc.icap
        session = icap.sessions_opened + 1  # the session this load opens
        t_entry = self.timer.read_ticks()
        self.port.elapse(soc.config.timing.decision_cycles)
        self.decouple_accel(1 << soc.module_rp_index(descriptor.name))
        try:
            self.init_icap()
            t_start = self.timer.read_ticks()
            self.reconfigure_rp(descriptor.start_address, descriptor.pbit_size)
            fault = icap.session_fault(session)
            if fault is not None:
                raise ControllerError(
                    f"reconfiguration of {descriptor.name!r} failed: {fault}")
        except Exception:
            self.reset_icap()
            self.decouple_accel(0)
            raise
        t_done = self.timer.read_ticks()
        self.decouple_accel(0)
        return ReconfigResult(
            module=descriptor.name,
            pbit_size=descriptor.pbit_size,
            td_us=self.timer.ticks_to_us(t_start - t_entry),
            tr_us=self.timer.ticks_to_us(t_done - t_start),
        )
