"""Firmware execution harness: load, run, collect mailbox results."""

from __future__ import annotations

from dataclasses import dataclass

from repro.firmware.runtime import MAILBOX_OFFSET
from repro.riscv.assembler import Program
from repro.soc.soc import Soc


@dataclass(frozen=True)
class FirmwareResult:
    """Outcome of one firmware run."""

    instructions: int
    cycles: int
    done: bool
    t0_ticks: int
    t1_ticks: int
    extra: int
    #: the SoC's timer: core cycles per CLINT tick and the core clock
    tick_cycles: int
    freq_hz: float

    def elapsed_us(self) -> float:
        """T1 - T0 in microseconds (CLINT-tick quantized), converted as
        the SoC's own ``Clint.ticks_to_us`` does."""
        return ((self.t1_ticks - self.t0_ticks) * self.tick_cycles
                / self.freq_hz * 1e6)


def run_firmware(soc: Soc, program: Program, *,
                 max_instructions: int = 400_000_000) -> FirmwareResult:
    """Run ``program`` on the SoC's hart until it halts (ebreak)."""
    hart = soc.load_firmware(program)
    retired = hart.run(max_instructions=max_instructions)
    mailbox = soc.config.layout.ddr_base + MAILBOX_OFFSET
    read = lambda slot: int.from_bytes(soc.ddr_read(mailbox + 8 * slot, 8), "little")
    return FirmwareResult(
        instructions=retired,
        cycles=hart.cycles,
        done=read(0) == 1,
        t0_ticks=read(1),
        t1_ticks=read(2),
        extra=read(3),
        tick_cycles=soc.clint.divider,
        freq_hz=soc.sim.freq_hz,
    )
