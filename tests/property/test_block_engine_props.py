"""Block-compiled execution is observationally identical to interp.

The basic-block engine (:mod:`repro.riscv.blocks`) promises exact
architectural *and* timing equivalence with the single-step
interpreter: same registers, same pc, same CSR state, same cycle and
retired-instruction counts, for any program — including compressed
encodings, traps raised mid-block, interrupts delivered inside a
block's window, and self-modifying code.  These tests pin that
contract with randomized programs run on identical twin systems: the
"block" twin runs ``Hart.run_until``, the "interp" twin has the
one-step-per-instruction oracle (:mod:`tests.property.iss_oracle`)
bound over it.
"""

from __future__ import annotations

import random
import types
from typing import List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.axi.crossbar import AxiCrossbar
from repro.errors import CpuError
from repro.mem.bootrom import BootRom
from repro.mem.ddr import DdrController
from repro.riscv import hart as hart_module
from repro.riscv import isa
from repro.riscv.assembler import assemble
from repro.riscv.hart import Hart
from repro.sim.kernel import Simulator
from tests.property import iss_oracle

ROM_BASE = 0x1_0000
DDR_BASE = 0x8000_0000
DDR_SIZE = 1 << 22

#: every architectural CSR the trap/interrupt paths touch
_CSRS = (isa.CSR_MSTATUS, isa.CSR_MIE, isa.CSR_MTVEC, isa.CSR_MSCRATCH,
         isa.CSR_MEPC, isa.CSR_MCAUSE, isa.CSR_MTVAL, isa.CSR_MIP)


def _run(body: str, engine: str, *, compress: bool = False,
         code_in_ddr: bool = False, max_instructions: int = 500_000) -> Hart:
    """Assemble and run ``body`` on a fresh mini system with ``engine``."""
    hart = _build(body, engine, compress=compress, code_in_ddr=code_in_ddr)
    hart.run(max_instructions=max_instructions)
    return hart


def _build(body: str, engine: str, *, compress: bool = False,
           code_in_ddr: bool = False) -> Hart:
    """Assemble ``body`` into a fresh mini system with an ``engine`` hart
    ("block": the production run loop, "interp": the oracle's)."""
    sim = Simulator()
    rom = BootRom(64 * 1024)
    ddr = DdrController(DDR_SIZE)
    xbar = AxiCrossbar("mini")
    xbar.attach("ddr", DDR_BASE, DDR_SIZE, ddr)
    base = DDR_BASE if code_in_ddr else ROM_BASE
    program = assemble(f"_start:\n{body}\n", base=base, compress=compress)
    if code_in_ddr:
        # code and data share the DDR: fetches see stores (SMC)
        ddr.memory.store(0, program.text)
        fetch = lambda a, n: ddr.memory.load(a - DDR_BASE, n)  # noqa: E731
    else:
        rom.load_image(program.text)
        fetch = lambda a, n: rom.fetch(a - ROM_BASE, n)  # noqa: E731
    hart = Hart(
        sim,
        xbar,
        fetch_backdoor=fetch,
        data_load=lambda a, n: ddr.memory.load_word(a - DDR_BASE, n),
        data_store=lambda a, v, n: ddr.memory.store_word(a - DDR_BASE, v, n),
        is_cacheable=lambda a: a >= DDR_BASE,
        reset_pc=program.entry,
    )
    if engine == "interp":
        hart.run_until = types.MethodType(iss_oracle.run_until, hart)
    return hart


def _state(hart: Hart) -> dict:
    return {
        "regs": tuple(hart.regs),
        "pc": hart.pc,
        "cycles": hart.cycles,
        "instret": hart.instret,
        "halted": hart.halted,
        "trap_count": hart.trap_count,
        "mmio_accesses": hart.mmio_accesses,
        "csrs": tuple(hart.csr.read(addr) for addr in _CSRS),
    }


def _assert_equiv(body: str, **kwargs: object) -> Hart:
    interp = _run(body, "interp", **kwargs)  # type: ignore[arg-type]
    block = _run(body, "block", **kwargs)  # type: ignore[arg-type]
    assert _state(interp) == _state(block)
    return block


# ----------------------------------------------------------------------
# randomized program generator
# ----------------------------------------------------------------------
_REGS = ("t0", "t1", "t2", "s2", "s3", "s4", "a1", "a2", "a3", "a4")
_ALU3 = ("add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt",
         "sltu", "mul", "mulh", "mulhu", "addw", "subw", "sllw", "srlw",
         "sraw", "div", "divu", "rem", "remu")
_LOADS = (("lb", 1), ("lbu", 1), ("lh", 2), ("lhu", 2),
          ("lw", 4), ("lwu", 4), ("ld", 8))
_STORES = (("sb", 1), ("sh", 2), ("sw", 4), ("sd", 8))


def _random_program(rng: random.Random, *, length: int = 48) -> str:
    lines = [f"li {reg}, {rng.getrandbits(64)}" for reg in _REGS]
    lines.append(f"li s0, {DDR_BASE + 0x1000}")
    label = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.55:
            op = rng.choice(_ALU3)
            rd, rs1, rs2 = (rng.choice(_REGS) for _ in range(3))
            lines.append(f"{op} {rd}, {rs1}, {rs2}")
        elif roll < 0.70:
            op, nb = rng.choice(_STORES)
            offset = rng.randrange(0, 256 // nb) * nb
            lines.append(f"{op} {rng.choice(_REGS)}, {offset}(s0)")
        elif roll < 0.85:
            op, nb = rng.choice(_LOADS)
            offset = rng.randrange(0, 256 // nb) * nb
            lines.append(f"{op} {rng.choice(_REGS)}, {offset}(s0)")
        else:
            label += 1
            cond = rng.choice(("beq", "bne", "blt", "bge", "bltu", "bgeu"))
            lines.append(f"{cond} {rng.choice(_REGS)}, {rng.choice(_REGS)}, "
                         f"skip{label}")
            rd, rs1, rs2 = (rng.choice(_REGS) for _ in range(3))
            lines.append(f"{rng.choice(_ALU3)} {rd}, {rs1}, {rs2}")
            lines.append(f"skip{label}:")
    lines.append("ebreak")
    return "\n".join(lines)


seeds = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=15, deadline=None)
@given(seeds)
def test_random_programs_engines_agree(seed):
    _assert_equiv(_random_program(random.Random(seed)))


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_random_programs_compressed_encodings(seed):
    """The RVC relaxation changes pcs and fetch widths, nothing else."""
    _assert_equiv(_random_program(random.Random(seed)), compress=True)


@settings(max_examples=10, deadline=None)
@given(seeds)
def test_random_programs_in_looping_harness(seed):
    """Blocks re-entered from a loop replay identically every iteration."""
    inner = _random_program(random.Random(seed), length=12)
    # indent the payload into a counted loop so the same blocks run 8x
    payload = "\n".join(line for line in inner.splitlines()
                        if line != "ebreak")
    body = f"""
        li s1, 8
    loop:
        {payload}
        addi s1, s1, -1
        bnez s1, loop
        ebreak
    """
    _assert_equiv(body)


def _self_loop(rng: random.Random, iters: int) -> str:
    """A counted loop whose body is one basic block (random ALU ops,
    loads and stores, no inner branch): the block's branch targets its
    own entry, so the block engine takes that back-edge in place."""
    lines = [f"li {reg}, {rng.randrange(-2048, 2048)}" for reg in _REGS]
    lines += [f"li s0, {DDR_BASE + 0x1000}", f"li s1, {iters}", "loop:"]
    for _ in range(rng.randrange(1, 24)):
        roll = rng.random()
        if roll < 0.6:
            rd, rs1, rs2 = (rng.choice(_REGS) for _ in range(3))
            lines.append(f"{rng.choice(_ALU3)} {rd}, {rs1}, {rs2}")
        elif roll < 0.8:
            op, nb = rng.choice(_STORES)
            offset = rng.randrange(0, 256 // nb) * nb
            lines.append(f"{op} {rng.choice(_REGS)}, {offset}(s0)")
        else:
            op, nb = rng.choice(_LOADS)
            offset = rng.randrange(0, 256 // nb) * nb
            lines.append(f"{op} {rng.choice(_REGS)}, {offset}(s0)")
    lines += ["addi s1, s1, -1", "bnez s1, loop", "ebreak"]
    return "\n".join(lines)


def _count_in_place_passes() -> Tuple[List[int], object]:
    """Spy on compiled blocks: record every call that retired more than
    one pass of its block (a back-edge taken inside the closure)."""
    passes: List[int] = []
    compile_block = hart_module.compile_block

    def spy(hart: Hart, pc: int) -> object:
        block = compile_block(hart, pc)
        if block is not None:
            fn, n_instr = block.fn, block.n_instr

            def run(*args: object) -> int:
                retired = fn(*args)
                if retired > n_instr:
                    passes.append(retired)
                return retired

            block.fn = run
        return block

    return passes, mock.patch.object(hart_module, "compile_block", spy)


@settings(max_examples=10, deadline=None)
@given(seeds, st.booleans())
def test_self_loop_back_edge_in_place(seed, compress):
    """A one-block loop runs its back-edge inside the closure and still
    replays the interpreter exactly."""
    body = _self_loop(random.Random(seed), iters=12)
    passes, spy = _count_in_place_passes()
    with spy:
        _assert_equiv(body, compress=compress)
    assert passes


@settings(max_examples=10, deadline=None)
@given(seeds, st.integers(40, 400))
def test_self_loop_stops_at_the_budget(seed, budget):
    """The in-place loop leaves before a pass the budget would not
    cover: both engines exhaust the same budget at the same state."""
    body = _self_loop(random.Random(seed), iters=1000)
    states = []
    for engine in ("interp", "block"):
        hart = _build(body, engine)
        with pytest.raises(CpuError, match="budget exceeded"):
            hart.run(max_instructions=budget)
        states.append(_state(hart))
    assert states[0] == states[1]


# ----------------------------------------------------------------------
# traps raised from the middle of a compiled block
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(seeds)
def test_trap_mid_block_state_identical(seed):
    """A store access fault mid-sequence: both engines commit the same
    partial progress (instret, cycles, regs) before vectoring."""
    rng = random.Random(seed)
    pre = "\n".join(f"addi {rng.choice(_REGS)}, {rng.choice(_REGS)}, "
                    f"{rng.randrange(-2048, 2048)}"
                    for _ in range(rng.randrange(1, 12)))
    body = f"""
        la t5, handler
        csrw mtvec, t5
        li t6, 0x40000000
        {pre}
        sw zero, 0(t6)            # unmapped MMIO: store access fault
        ebreak
    handler:
        csrr s5, mcause
        csrr s6, mepc
        csrr s7, mtval
        ebreak
    """
    block = _assert_equiv(body)
    assert block.trap_count == 1
    assert block.csr.read(isa.CSR_MCAUSE) == isa.EXC_STORE_ACCESS


def test_trap_resume_after_mid_block_fault():
    """mret back into the faulted block continues at the right pc."""
    body = """
        la t5, handler
        csrw mtvec, t5
        li t6, 0x40000000
        li a1, 1
        li a2, 2
        lw a3, 0(t6)              # load access fault mid-block
        add a4, a1, a2
        ebreak
    handler:
        csrr s5, mcause
        csrr t0, mepc
        addi t0, t0, 4
        csrw mepc, t0
        mret
    """
    block = _assert_equiv(body)
    assert block.reg(isa.register_number("a4")) == 3
    assert block.csr.read(isa.CSR_MCAUSE) == isa.EXC_LOAD_ACCESS


def test_ecall_between_blocks():
    body = """
        la t0, handler
        csrw mtvec, t0
        li a0, 0
        ecall
        j end
    handler:
        csrr a1, mcause
        csrr t1, mepc
        addi t1, t1, 4
        csrw mepc, t1
        li a0, 1
        mret
    end:
        ebreak
    """
    block = _assert_equiv(body)
    assert block.reg(isa.register_number("a0")) == 1


# ----------------------------------------------------------------------
# interrupts delivered inside a block's window
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(seeds)
def test_interrupt_window_mid_block(seed):
    """A pending MSI must preempt a long straight-line block at the
    same instruction boundary (same instret/cycles) in both engines."""
    rng = random.Random(seed)
    filler = "\n".join(f"add {rng.choice(_REGS)}, {rng.choice(_REGS)}, "
                       f"{rng.choice(_REGS)}"
                       for _ in range(rng.randrange(4, 40)))
    body = f"""
        la t5, handler
        csrw mtvec, t5
        li t6, 8                  # MSIE / MSIP (machine software irq)
        csrw mie, t6
        csrw mip, t6              # post the interrupt while masked...
        csrsi mstatus, 8          # ...then enable MIE: now deliverable
        {filler}
        ebreak
    handler:
        csrw mip, zero
        csrr s5, mcause
        ebreak
    """
    block = _assert_equiv(body)
    assert block.trap_count == 1
    assert block.csr.read(isa.CSR_MCAUSE) >> 63 == 1  # interrupt bit


# ----------------------------------------------------------------------
# self-modifying code: stores must invalidate spanning blocks
# ----------------------------------------------------------------------
def test_self_modifying_code_invalidation():
    """Patch an executed instruction in place; after fence.i both
    engines execute the new encoding (satellite: pc-cache staleness)."""
    body = f"""
        li a0, 0
        la t0, patchme
        la t1, newinsn
        lw t2, 0(t1)
        jal ra, target            # execute (and cache) the old encoding
        sw t2, 0(t0)              # overwrite: addi a0,a0,1 -> addi a0,a0,64
        fence.i
        jal ra, target            # must run the *new* encoding
        ebreak
    target:
    patchme:
        addi a0, a0, 1
        jalr zero, ra, 0
    newinsn:
        addi a0, a0, 64
        jalr zero, ra, 0
        ebreak
    """
    block = _assert_equiv(body, code_in_ddr=True)
    # first call adds 1 (old), second adds 64 (patched)
    assert block.reg(isa.register_number("a0")) == 65


def test_self_modifying_code_without_fence_i():
    """Even without fence.i, stores *through the hart* into a cached
    range invalidate the spanning blocks — the engines stay identical
    and observe the patched instruction."""
    body = """
        li a0, 0
        la t0, patchme
        la t1, newinsn
        lw t2, 0(t1)
        jal ra, target
        sw t2, 0(t0)              # no fence.i: store-side invalidation
        jal ra, target
        ebreak
    target:
    patchme:
        addi a0, a0, 1
        jalr zero, ra, 0
    newinsn:
        addi a0, a0, 64
        jalr zero, ra, 0
        ebreak
    """
    block = _assert_equiv(body, code_in_ddr=True)
    assert block.reg(isa.register_number("a0")) == 65


# ----------------------------------------------------------------------
# the oracle binding is live
# ----------------------------------------------------------------------
def test_oracle_twin_steps_every_instruction():
    """The interp twin retires every instruction through ``Hart.step``;
    the block twin steps only the ``ebreak`` no block covers.  Without
    the binding both twins would run the block loop and every property
    above would compare it with itself."""
    body = """
        li s1, 100
    loop:
        addi a0, a0, 1
        addi s1, s1, -1
        bnez s1, loop
        ebreak
    """
    step = Hart.step
    harts, stepped = {}, {}
    for engine in ("interp", "block"):
        pcs: List[int] = []

        def spy(hart: Hart, pcs: List[int] = pcs) -> None:
            pcs.append(hart.pc)
            step(hart)

        hart = _build(body, engine)
        with mock.patch.object(Hart, "step", spy):
            hart.run(max_instructions=10_000)
        harts[engine], stepped[engine] = hart, pcs
    assert _state(harts["interp"]) == _state(harts["block"])
    assert len(stepped["interp"]) == harts["interp"].instret == 302
    assert not harts["interp"]._block_cache
    assert len(stepped["block"]) == 1
    assert set(stepped["block"]) <= harts["block"]._block_refused
    assert harts["block"]._block_cache
