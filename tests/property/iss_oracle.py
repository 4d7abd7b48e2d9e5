"""The one-step-per-instruction ISS run loop: the block engine's oracle.

:meth:`repro.riscv.hart.Hart.run_until` runs compiled basic blocks.
This module keeps the loop they replaced, which retires every
instruction through one :meth:`Hart.step` call, as the reference the
block-engine property suites compare against.  Bind it over a twin
hart's ``run_until`` (``Hart.run`` goes through it too)::

    hart.run_until = types.MethodType(run_until, hart)

or patch it over the class with ``mock.patch.object(Hart, "run_until",
run_until)``.  It imports only ``repro``, so scripts that have neither
pytest nor hypothesis (the perf gate) can use it as well.
"""

from __future__ import annotations

from repro.errors import CpuError
from repro.riscv.hart import Hart


def run_until(hart: Hart, deadline: int | None, *,
              max_instructions: int = 200_000_000,
              until_halted: bool = True) -> int:
    """:meth:`Hart.run_until`, one :meth:`Hart.step` per instruction."""
    start_instret = hart.instret
    budget = max_instructions
    sim = hart.sim
    step = hart.step
    peek = sim.peek_next_time
    advance = sim.advance_to
    while not hart.halted:
        if deadline is not None and hart.cycles >= deadline:
            break
        if hart.in_wfi:
            nxt = peek()
            if nxt is None:
                raise CpuError("hart is in wfi with no pending events: deadlock")
            advance(max(nxt, hart.cycles))
            hart.cycles = max(hart.cycles, sim.now)
            if hart.pending_interrupt() is not None or (
                hart.csr.mip & hart.csr.mie
            ):
                # wfi wakes on pending-and-enabled regardless of MIE
                hart.in_wfi = False
                continue
            if peek() is None:
                raise CpuError("wfi wake condition unreachable: deadlock")
            continue
        nxt = peek()
        if nxt is not None and hart.cycles >= nxt:
            advance(hart.cycles)
        step()
        budget -= 1
        if budget <= 0:
            raise CpuError(f"instruction budget exceeded ({max_instructions})")
        if not until_halted and peek() is None:
            break
    # fold the hart's final time into the kernel
    if hart.cycles > sim.now:
        advance(hart.cycles)
    return hart.instret - start_instret
