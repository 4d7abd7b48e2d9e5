"""Block and interpreter engines agree on the real SoC, MMIO included.

``test_block_engine_props`` compares the engines on a mini system with
no cacheable windows or fast memory, so it never runs the block
engine's inline D-cache path or its copy-loop step.  These properties
run random HWICAP-style copy firmware (Sec. IV-B) on twin
:class:`~repro.soc.soc.Soc` instances, the "interp" twin with the
one-step-per-instruction oracle (:mod:`tests.property.iss_oracle`)
bound over its hart's ``run_until``, and compare everything the
firmware can observe or leave behind: registers, pc, cycles, instret,
MMIO and trap counts, kernel time, the HWICAP write FIFO, the
crossbar, the ICAP, the configuration memory and, with observability
attached, every metric and span.

The random firmware varies the unroll factor (1-32), the encoding
(plain or RVC), the source's word offset into a D-cache line (0-60
bytes, so line boundaries fall mid-pass) and the CPU timing, reads on
past the bitstream into DDR pages never written, overflows the
1024-word FIFO, mixes WFV/SR loads and CR stores into the loops that
push to WF (which are then no copy-loop idiom), and takes CLINT timer
interrupts re-armed every 3-400 ticks.  It runs under ``Hart.run_until`` with
deadlines in every example, some of them at cycles where the oracle
stands at the loop head, then until the event queue drains
(``until_halted=False``), then under an instruction budget that may
raise ``CpuError`` mid-loop, comparing both twins after each run.  A
liveness test pins that the block engine really runs the copy-loop
step and takes back-edges inside its closures, so the properties
cannot pass by comparing the per-store path with itself.
"""

from __future__ import annotations

import random
import types
from typing import Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CpuError
from repro.eval.scenarios import rp_for_geometry
from repro.fpga.bitgen import Bitgen
from repro.fpga.partition import ReconfigurableModule, ResourceBudget, RpGeometry
from repro.firmware import build_hwicap_firmware
from repro.firmware.runtime import FirmwareBuilder
from repro.riscv import hart as hart_module
from repro.riscv import isa
from repro.riscv.assembler import assemble
from repro.riscv.hart import Hart
from repro.riscv.timing import CpuTiming
from repro.soc.builder import build_soc
from repro.soc.config import SocConfig, TimingParams
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
              cr_value: int, period: Optional[int], compress: bool,
              offset: int = 0):
    """Copy ``chunks * inner * unroll`` words into WF, flushing (CR
    Write) after every ``inner`` iterations of the unrolled loop (its
    head is the label ``inner``), from ``offset`` words past
    ``_SRC_OFFSET``.

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
    src = builder.layout.ddr_base + _SRC_OFFSET + 4 * offset
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


def _twin(program, engine: str, offset: int = 0,
          cpu: Optional[CpuTiming] = None) -> Soc:
    """A SoC (with ``cpu`` timing) holding the bitstream ``offset``
    words past ``_SRC_OFFSET`` and running ``program`` on ``engine``."""
    config = SocConfig(timing=TimingParams(cpu=cpu)) if cpu else None
    soc = build_soc(config, with_case_study_modules=False)
    soc.ddr_write(soc.config.layout.ddr_base + _SRC_OFFSET + 4 * offset,
                  _PBIT)
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
        "dcache": (hart.dcache.hits, hart.dcache.misses,
                   hart.dcache.writebacks),
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


def _run_twins(program, deadlines: List[int], *, offset: int = 0,
               cpu: Optional[CpuTiming] = None, until_halted: bool = False,
               idle_runs: int = 0, budget: Optional[int] = None
               ) -> Tuple[Soc, Soc]:
    """Run both engines in lockstep: one ``run_until(d, until_halted)``
    per deadline, ``idle_runs`` runs that stop where the event queue
    drains, one run of at most ``budget`` instructions, then to the
    halt.  After each run both twins raised the same ``CpuError`` or
    none, and their states are equal."""
    interp = _twin(program, "interp", offset, cpu)
    block = _twin(program, "block", offset, cpu)

    def lockstep(run: str, *args, **kwargs) -> None:
        raised = []
        for soc in (interp, block):
            try:
                getattr(soc.hart, run)(*args, **kwargs)
                raised.append(None)
            except CpuError as err:
                raised.append(str(err))
        assert raised[0] == raised[1]
        assert _state(interp) == _state(block)

    for deadline in deadlines:
        lockstep("run_until", deadline, until_halted=until_halted)
    for _ in range(idle_runs):
        lockstep("run_until", None, until_halted=False)
    if budget is not None:
        lockstep("run", max_instructions=budget)
    lockstep("run", max_instructions=2_000_000)
    assert block.hart.halted
    return interp, block


def _loop_cycles(program, offset: int = 0, cpu: Optional[CpuTiming] = None,
                 pcs: Optional[Tuple[int, int]] = None) -> List[int]:
    """The cycles at which the oracle's hart stands at a pc in ``pcs``
    (``[lo, hi)``; default the copy loop's head alone): deadlines
    there cut a run at that instruction."""
    hart = _twin(program, "interp", offset, cpu).hart
    head = program.symbols["inner"]
    lo, hi = pcs or (head, head + 1)
    step = hart.step
    seen: List[int] = []

    def spy() -> None:
        if lo <= hart.pc < hi:
            seen.append(hart.cycles)
        step()

    hart.step = spy
    hart.run(max_instructions=2_000_000)
    return seen


@st.composite
def _params(draw):
    unroll = draw(st.integers(1, 32))
    # words per chunk up to ~1.4x the FIFO: the larger ones overflow it
    inner = draw(st.integers(1, max(1, 1400 // unroll)))
    # up to 2,048 words past the bitstream: DDR pages never written
    chunks = draw(st.integers(1, min(4, (_WORDS + 2048) // (inner * unroll))))
    extras = draw(st.one_of(
        st.just({}),
        st.dictionaries(st.integers(0, unroll - 1),
                        st.integers(0, len(_EXTRAS) - 1), max_size=3)))
    return dict(
        unroll=unroll, inner=inner, chunks=chunks, extras=extras,
        cr_value=draw(st.sampled_from((0, 1))),
        period=draw(st.one_of(st.none(), st.integers(3, 400))),
        compress=draw(st.booleans()),
        offset=draw(st.integers(0, 15)),
    )


#: CPU timings beside the calibrated one: issue costs, shadow stall and
#: branch penalty down to 0 (a push's round trip then outlasts the
#: next store's issue) and other D-cache line sizes
_CPUS = st.one_of(st.none(), st.builds(
    CpuTiming,
    base_cpi=st.integers(1, 2),
    branch_taken_penalty=st.integers(0, 6),
    mmio_after_branch_block=st.integers(0, 50),
    mmio_issue_overhead=st.integers(0, 12),
    noncacheable_store_cost=st.integers(0, 24),
    dcache_line_bytes=st.sampled_from((16, 32, 64, 128)),
))


@settings(max_examples=30, deadline=None)
@given(_params(), _CPUS, st.integers(0, 2**32 - 1))
def test_random_hwicap_firmware_engines_agree(params, cpu, seed):
    rng = random.Random(seed)
    program = _firmware(**params)
    setup = dict(offset=params["offset"], cpu=cpu)
    heads = _loop_cycles(program, **setup)
    deadlines = rng.sample(heads, min(len(heads), rng.randrange(1, 8)))
    at = 0
    for _ in range(rng.randrange(1, 20)):
        at += rng.randrange(20, 20_000)
        deadlines.append(at)
    _run_twins(program, sorted(deadlines), until_halted=rng.random() < 0.7,
               idle_runs=rng.randrange(0, 4), budget=rng.randrange(1, 4_000),
               **setup)


def test_deadlines_at_every_instruction_of_two_lines():
    """A deadline at each instruction of the copy loop's first two
    D-cache lines, and one cycle later.  From 5 words into a line at
    unroll 3, the first line ends mid-pass and the second ends a pass,
    so each kind of step meets a deadline at its last check."""
    program = _firmware(unroll=3, inner=12, chunks=1, extras={},
                        cr_value=0, period=None, compress=False, offset=5)
    head = program.symbols["inner"]
    # 27 words: 9 passes of 9 instructions, 4 bytes each
    cycles = _loop_cycles(program, offset=5, pcs=(head, head + 36))[:81]
    for deadline in sorted({c + d for c in cycles for d in (0, 1)}):
        _run_twins(program, [deadline], offset=5, until_halted=True)


@settings(max_examples=6, deadline=None)
@given(st.integers(1, 32), st.booleans(), st.integers(3, 400),
       st.integers(0, 15))
def test_timer_interrupts_mid_loop(unroll, compress, period, offset):
    """A timer handler that runs between the WF pushes of the loop."""
    _interp, block = _run_twins(
        _firmware(unroll=unroll, inner=max(1, 640 // unroll), chunks=2,
                  extras={}, cr_value=0, period=period, compress=compress,
                  offset=offset),
        [], offset=offset)
    assert block.hart.trap_count > 0


def test_copy_off_the_end_of_ddr_traps_alike():
    """A copy loop that reads on past the end of DDR, where the load
    faults: the step refuses a loop whose loads leave the fast-memory
    window, so the trap is taken at the faulting ``lw`` with the pushes
    before it committed, as the oracle takes it."""
    layout = SocConfig().layout
    # the last 40 words of DDR, then 40 past its end
    offset = (layout.ddr_size - _SRC_OFFSET) // 4 - 40
    program = _firmware(unroll=4, inner=20, chunks=1, extras={},
                        cr_value=0, period=None, compress=False,
                        offset=offset)
    twins = []
    for engine in ("interp", "block"):
        soc = build_soc(with_case_study_modules=False)
        hart = _load(soc, program, engine)
        with pytest.raises(CpuError):
            hart.run(max_instructions=5_000)
        twins.append(soc)
    assert _state(twins[0]) == _state(twins[1])
    assert twins[1].hart.trap_count > 0
    assert twins[1].hwicap.words_transferred == 0
    assert len(twins[1].hwicap._fifo) == 40


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


def test_observed_counters_match_on_the_copy_loop():
    """The copy-loop step's batch commits leave every metric and span
    the interpreter's per-store path leaves, under timer interrupts."""
    program = _firmware(unroll=16, inner=40, chunks=3, extras={},
                        cr_value=0, period=120, compress=False, offset=5)
    twins = []
    for engine in ("interp", "block"):
        soc = _twin(program, engine, offset=5)
        soc.attach_observability()
        soc.hart.run(max_instructions=2_000_000)
        twins.append(soc)
    interp, block = twins
    assert _state(interp) == _state(block)
    assert interp.obs.metrics.snapshot() == block.obs.metrics.snapshot()
    spans = [[(s.track, s.name, s.start_cycle, s.end_cycle, s.args)
              for s in soc.obs.tracer.spans] for soc in twins]
    assert spans[0] == spans[1]
    assert block.hart.trap_count > 0


def test_budget_ends_inside_the_copy_loop():
    """A budget that runs out at each instruction of one pass of the
    copy loop raises ``CpuError`` at the same instruction on both
    engines, and the run resumes alike."""
    for unroll in (1, 3, 16, 32):
        span = 2 * unroll + 3
        # 320 words: the loop runs from instruction 16 to past 680
        program = _firmware(unroll=unroll, inner=320 // unroll, chunks=1,
                            extras={}, cr_value=0, period=None,
                            compress=False)
        for budget in range(400, 401 + span):
            _run_twins(program, [], budget=budget)


def test_batches_and_back_edges_are_live():
    """The block twin re-enters its loops inside the closure, and on the
    copy-loop idiom its step commits whole D-cache lines of words to WF,
    with no ``Hart.store`` to WF: the paths the properties compare."""
    looped: List[int] = []
    commits: List[int] = []
    wf_stores: List[int] = []
    compile_block = hart_module.compile_block
    flush = Hart._flush_batch
    store = Hart.store

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

    def spy_flush(hart, values, batch, issue):
        commits.append(len(values))
        return flush(hart, values, batch, issue)

    with mock.patch.object(hart_module, "compile_block", spy_compile):
        # WFV and SR loads in the body: no idiom, the generated code
        # takes the back-edge
        _interp, block = _run_twins(
            _firmware(unroll=4, inner=_WORDS // 4, chunks=1,
                      extras={1: 0, 3: 1}, cr_value=0, period=150,
                      compress=True),
            [5_000, 60_000])
    assert block.icap.words_consumed > 0
    assert looped

    # the Listing 2 firmware: 3 chunks of 1,024 words, then 64 words
    # and a 7-word tail loop (an idiom of one pair)
    twins = [build_soc(with_case_study_modules=False) for _ in range(2)]
    src = twins[0].config.layout.ddr_base + _SRC_OFFSET
    program = build_hwicap_firmware(src, len(_PBIT), unroll=8)
    wf = twins[0].config.layout.hwicap_base + 0x100

    def spy_store(hart, addr, value, nbytes):
        if addr == wf and hart is twins[1].hart:
            wf_stores.append(value)
        return store(hart, addr, value, nbytes)

    with mock.patch.object(Hart, "_flush_batch", spy_flush), \
            mock.patch.object(Hart, "store", spy_store):
        for soc, engine in zip(twins, ("interp", "block"), strict=True):
            soc.ddr_write(src, _PBIT)
            _load(soc, program, engine).run(max_instructions=2_000_000)
    assert _state(twins[0]) == _state(twins[1])
    assert twins[1].hart.halted and not twins[1].icap.error
    assert commits == [16] * (_WORDS // 16) + [_WORDS % 16]
    assert not wf_stores


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
