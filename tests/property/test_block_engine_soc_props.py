"""Block and interpreter engines agree on the real SoC, MMIO included.

``test_block_engine_props`` compares the engines on a mini system with
no cacheable windows or fast memory, so it never runs the block
engine's inline D-cache path or its batched MMIO pushes.  These
properties run random HWICAP-style copy firmware (Sec. IV-B) on twin
:class:`~repro.soc.soc.Soc` instances, the "interp" twin with the
one-step-per-instruction oracle (:mod:`tests.property.iss_oracle`)
bound over its hart's ``run_until``, and compare everything the
firmware can observe or leave behind: registers, pc, cycles, instret,
MMIO and trap counts, kernel time, the HWICAP write FIFO, the
crossbar, the ICAP, the configuration memory and, with observability
attached, every metric and span.

The random firmware varies the unroll factor (1-16) and the encoding
(plain or RVC), overflows the 1024-word FIFO, mixes WFV/SR loads and
CR stores into the blocks that push to WF, takes CLINT timer
interrupts re-armed every 3-400 ticks, and runs under
``Hart.run_until`` with deadlines and ``until_halted=False``.  A
liveness test pins that the block engine really batches pushes and
takes back-edges inside its closures, so the properties cannot pass by
comparing the per-store path with itself.
"""

from __future__ import annotations

import random
import types
from typing import Dict, List, Optional, Tuple
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.scenarios import rp_for_geometry
from repro.fpga.bitgen import Bitgen
from repro.fpga.partition import ReconfigurableModule, ResourceBudget, RpGeometry
from repro.firmware.runtime import FirmwareBuilder
from repro.riscv import hart as hart_module
from repro.riscv import isa
from repro.riscv.assembler import assemble
from repro.riscv.hart import Hart
from repro.soc.builder import build_soc
from repro.soc.soc import Soc
from tests.property import iss_oracle

#: a small but complete partial bitstream (3,143 words, 28 frames)
_PBIT = Bitgen().generate(
    rp_for_geometry("prop_rp", RpGeometry(0, 0, 1, 1)),
    ReconfigurableModule("prop_mod", ResourceBudget(1, 1, 0, 0)),
).to_bytes()
_WORDS = len(_PBIT) // 4
_SRC_OFFSET = 16 << 20
#: DDR log of the pc every timer interrupt was taken at (one dword each)
_LOG_OFFSET = 15 << 20

#: timer traps after which the handler stops re-arming the timer
_MAX_TIMER_TRAPS = 64

_CSRS = (isa.CSR_MSTATUS, isa.CSR_MIE, isa.CSR_MEPC, isa.CSR_MCAUSE,
         isa.CSR_MIP)

#: the in-body extras: an MMIO load or store beside the WF pushes
_EXTRAS = (
    ("lw t2, WFV(s0)", "add s8, s8, t2"),   # sum of FIFO vacancies
    ("lw t2, SR(s0)", "add s9, s9, t2"),    # sum of status words
    ("sw s7, CR(s0)",),                     # CR store (s7: 0 or Write)
)


def _firmware(*, unroll: int, inner: int, chunks: int, extras: Dict[int, int],
              cr_value: int, period: Optional[int], compress: bool):
    """Copy ``chunks * inner * unroll`` words into WF, flushing (CR
    Write) after every ``inner`` iterations of the unrolled loop.

    ``extras`` maps a pair index of the body to an ``_EXTRAS`` entry
    placed after that pair.  With ``period``, a CLINT timer interrupt
    fires every ``period`` ticks: its handler logs ``mepc`` to DDR (so
    every interrupt boundary is compared), counts itself in s10 and
    re-arms the timer (an mtime read and an mtimecmp write).  A handler
    can outlast a short period, so after ``_MAX_TIMER_TRAPS`` traps it
    parks mtimecmp instead and the copy loop runs to the end.
    """
    builder = FirmwareBuilder()
    body = []
    for i in range(unroll):
        body += [f"lw t1, {4 * i}(s3)", "sw t1, WF(s0)"]
        if i in extras:
            body += list(_EXTRAS[extras[i]])
    body_src = "\n".join(body)
    src = builder.layout.ddr_base + _SRC_OFFSET
    timer = ""
    if period is not None:
        timer = f"""
        li a6, MTIMECMP
        li a7, MTIME_LO
        lwu s11, 0(a7)
        addi s11, s11, {period}
        sw s11, 0(a6)
        sw zero, 4(a6)
        li t0, 1 << 7
        csrs mie, t0
        csrsi mstatus, 8
        """
    builder.add(f"""
    .equ WF, 0x100
    .equ CR, 0x10C
    .equ SR, 0x110
    .equ WFV, 0x114
    .equ MTIMECMP, CLINT_BASE + 0x4000
    _start:
        la t0, trap_handler
        csrw mtvec, t0
        li s0, HWICAP_BASE
        li s3, {src:#x}
        li s4, {chunks}
        li s7, {cr_value}
        li a5, {builder.layout.ddr_base + _LOG_OFFSET:#x}
        li t1, 8
        sw t1, CR(s0)
        {timer}
    chunk_loop:
        li s6, {inner}
    inner:
        {body_src}
        addi s3, s3, {4 * unroll}
        addi s6, s6, -1
        bnez s6, inner
        li t1, 1
        sw t1, CR(s0)
        addi s4, s4, -1
        bnez s4, chunk_loop
        ebreak
    trap_handler:
        csrr s11, mepc
        sd s11, 0(a5)
        addi a5, a5, 8
        addi s10, s10, 1
        li s11, {_MAX_TIMER_TRAPS}
        bgeu s10, s11, timer_off
        lwu s11, 0(a7)
        addi s11, s11, {period or 1}
        sw s11, 0(a6)
        mret
    timer_off:
        li s11, -1
        sw s11, 4(a6)
        mret
    """)
    return assemble(builder.source(), base=builder.layout.bootrom_base,
                    compress=compress)


def _load(soc: Soc, program, engine: str) -> Hart:
    """Load ``program`` on ``soc``: the production run loop ("block")
    or the oracle bound over it ("interp")."""
    hart = soc.load_firmware(program)
    if engine == "interp":
        hart.run_until = types.MethodType(iss_oracle.run_until, hart)
    return hart


def _twin(program, engine: str) -> Soc:
    soc = build_soc(with_case_study_modules=False)
    soc.ddr_write(soc.config.layout.ddr_base + _SRC_OFFSET, _PBIT)
    _load(soc, program, engine)
    return soc


def _state(soc: Soc) -> dict:
    hart = soc.hart
    return {
        "regs": tuple(hart.regs),
        "pc": hart.pc,
        "cycles": hart.cycles,
        "instret": hart.instret,
        "halted": hart.halted,
        "mmio_accesses": hart.mmio_accesses,
        "trap_count": hart.trap_count,
        "csrs": tuple(hart.csr.read(addr) for addr in _CSRS),
        "now": soc.sim.now,
        "fifo": tuple(soc.hwicap._fifo),
        "words_transferred": soc.hwicap.words_transferred,
        "xbar_transactions": soc.xbar.transactions,
        "xbar_busy": tuple(sorted(soc.xbar._busy_until.values())),
        "icap_words": soc.icap.words_consumed,
        "icap_error": soc.icap.error,
        "frames": soc.config_memory.frames_written,
        "trap_pcs": soc.ddr_read(soc.config.layout.ddr_base + _LOG_OFFSET,
                                 8 * _MAX_TIMER_TRAPS),
    }


def _run_twins(program, deadlines: List[int]) -> Tuple[Soc, Soc]:
    """Run both engines in lockstep: one ``run_until(d,
    until_halted=False)`` per deadline, then to the halt."""
    interp, block = _twin(program, "interp"), _twin(program, "block")
    for deadline in deadlines:
        for soc in (interp, block):
            soc.hart.run_until(deadline, until_halted=False)
        assert _state(interp) == _state(block)
    for soc in (interp, block):
        soc.hart.run(max_instructions=2_000_000)
    assert _state(interp) == _state(block)
    assert block.hart.halted
    return interp, block


@st.composite
def _params(draw):
    unroll = draw(st.integers(1, 16))
    # words per chunk up to ~1.4x the FIFO: the larger ones overflow it
    inner = draw(st.integers(1, max(1, 1400 // unroll)))
    chunks = draw(st.integers(1, min(4, _WORDS // (inner * unroll))))
    extras = draw(st.dictionaries(st.integers(0, unroll - 1),
                                  st.integers(0, len(_EXTRAS) - 1),
                                  max_size=3))
    return dict(
        unroll=unroll, inner=inner, chunks=chunks, extras=extras,
        cr_value=draw(st.sampled_from((0, 1))),
        period=draw(st.one_of(st.none(), st.integers(3, 400))),
        compress=draw(st.booleans()),
    )


@settings(max_examples=20, deadline=None)
@given(_params(), st.integers(0, 2**32 - 1))
def test_random_hwicap_firmware_engines_agree(params, seed):
    rng = random.Random(seed)
    deadlines: List[int] = []
    if rng.random() < 0.5:
        at = 0
        for _ in range(rng.randrange(1, 30)):
            at += rng.randrange(20, 20_000)
            deadlines.append(at)
    _run_twins(_firmware(**params), deadlines)


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 16), st.booleans(), st.integers(3, 400))
def test_timer_interrupts_mid_loop(unroll, compress, period):
    """A timer handler that runs between the WF pushes of the loop."""
    _interp, block = _run_twins(
        _firmware(unroll=unroll, inner=max(1, 640 // unroll), chunks=2,
                  extras={}, cr_value=0, period=period, compress=compress),
        [])
    assert block.hart.trap_count > 0


def test_fifo_overflow_drops_the_same_words():
    """1,400 words into the 1024-word FIFO before the first flush."""
    _interp, block = _run_twins(
        _firmware(unroll=8, inner=175, chunks=1, extras={}, cr_value=0,
                  period=None, compress=False),
        [])
    assert block.hwicap.words_transferred == 1024


def test_full_bitstream_configures_the_fabric():
    """All 3,143 words (7 x 449) in FIFO-sized chunks, under a timer."""
    _interp, block = _run_twins(
        _firmware(unroll=1, inner=449, chunks=7, extras={}, cr_value=0,
                  period=97, compress=False),
        [])
    assert not block.icap.error
    assert block.config_memory.frames_written == 28
    assert block.hart.trap_count > 0


def test_interrupt_at_idle_stop_ends_the_run():
    """Delivering an interrupt with the event queue empty ends an
    ``until_halted=False`` run, as an interpreter step does.  The block
    run loop used to go on and retire one more instruction."""
    program = _firmware(unroll=1, inner=136, chunks=1, extras={},
                        cr_value=0, period=400, compress=False)
    interp, block = _twin(program, "interp"), _twin(program, "block")
    for _ in range(40):
        for soc in (interp, block):
            soc.hart.run_until(None, until_halted=False)
        assert _state(interp) == _state(block)
    assert block.hart.trap_count > 0


def test_observed_counters_match_the_interpreter():
    """With observability attached, a batch commit bumps the crossbar's
    transaction counter by its store count: every metric and span the
    block twin exports equals the interpreter's."""
    program = _firmware(unroll=4, inner=200, chunks=3, extras={2: 0},
                        cr_value=0, period=120, compress=False)
    twins = []
    for engine in ("interp", "block"):
        soc = build_soc(with_case_study_modules=False)
        soc.attach_observability()
        soc.ddr_write(soc.config.layout.ddr_base + _SRC_OFFSET, _PBIT)
        _load(soc, program, engine).run(max_instructions=2_000_000)
        twins.append(soc)
    interp, block = twins
    assert _state(interp) == _state(block)
    assert interp.obs.metrics.snapshot() == block.obs.metrics.snapshot()
    spans = [[(s.track, s.name, s.start_cycle, s.end_cycle, s.args)
              for s in soc.obs.tracer.spans] for soc in twins]
    assert spans[0] == spans[1]
    counter = block.obs.metrics.get("axi_transactions_total",
                                    {"xbar": block.xbar.name})
    assert counter.value == block.xbar.transactions > 2400


def test_batches_and_back_edges_are_live():
    """The block twin commits multi-store batches and re-enters its
    copy loop inside the closure — the paths the properties compare."""
    commits: List[int] = []
    looped: List[int] = []
    flush = Hart._flush_batch
    compile_block = hart_module.compile_block

    def spy_flush(hart, values, batch, issue):
        commits.append(len(values))
        return flush(hart, values, batch, issue)

    def spy_compile(hart, pc):
        block = compile_block(hart, pc)
        if block is not None:
            fn, n_instr = block.fn, block.n_instr

            def run(*args):
                retired = fn(*args)
                if retired > n_instr:
                    looped.append(retired)
                return retired

            block.fn = run
        return block

    with mock.patch.object(Hart, "_flush_batch", spy_flush), \
            mock.patch.object(hart_module, "compile_block", spy_compile):
        _interp, block = _run_twins(
            _firmware(unroll=4, inner=_WORDS // 4, chunks=1,
                      extras={1: 0, 3: 1}, cr_value=0, period=150,
                      compress=True),
            [5_000, 60_000])
    assert block.icap.words_consumed > 0
    assert max(commits) >= 2
    assert looped


def test_oracle_twin_steps_every_instruction():
    """On the SoC firmware too, the interp twin retires every
    instruction through ``Hart.step`` and the block twin single-steps
    only pcs where block compilation refused (csr ops, ``ebreak``)."""
    program = _firmware(unroll=4, inner=50, chunks=2, extras={0: 1},
                        cr_value=0, period=None, compress=False)
    step = Hart.step
    twins, stepped = {}, {}
    for engine in ("interp", "block"):
        pcs: List[int] = []

        def spy(hart: Hart, pcs: List[int] = pcs) -> None:
            pcs.append(hart.pc)
            step(hart)

        soc = _twin(program, engine)
        with mock.patch.object(Hart, "step", spy):
            soc.hart.run(max_instructions=2_000_000)
        twins[engine], stepped[engine] = soc, pcs
    assert _state(twins["interp"]) == _state(twins["block"])
    interp, block = twins["interp"].hart, twins["block"].hart
    assert len(stepped["interp"]) == interp.instret > 1_000
    assert not interp._block_cache
    assert 0 < len(stepped["block"]) < 10
    assert set(stepped["block"]) <= block._block_refused
