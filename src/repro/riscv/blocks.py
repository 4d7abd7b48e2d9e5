"""Basic-block compiler for the ISS run loop (:meth:`Hart.run_until`).

:meth:`Hart.step` retires one instruction and pays the full dispatch
cost — pc-cache lookup, handler call, ``Decoded`` field access,
per-retire bookkeeping — for every instruction.  This module removes
that cost for straight-line code: decoded instructions are grouped
into *basic blocks* (up to the next branch / jump / system-class
instruction) and each block is compiled, via Python source generation
+ ``exec``, into one specialized closure that executes the whole block
with plain local-variable arithmetic.  The run loop single-steps only
what no block covers.

Equivalence contract
--------------------
A compiled block is *observationally identical* to retiring the same
instructions one :meth:`Hart.step` at a time (the one-step loop the
property suites keep as their oracle, ``tests/property/iss_oracle.py``):

* registers, pc, csr state, ``cycles``, ``instret`` and the D-cache /
  MMIO side effects match exactly;
* the per-instruction co-sim quantum check is preserved: before every
  instruction the block compares ``cycles`` against the earliest
  pending event time (``limit``) and returns to the dispatcher when
  reached, so device events fire and interrupts are taken at exactly
  the same instruction boundary as under single-stepping;
* after every memory access other than a D-cache hit the block
  re-checks the interrupt-window (``mstatus.MIE`` is
  hoisted per block — only CSR writes and traps can change it, and
  neither occurs inside a block; ``mip`` is re-read because device
  events raise it), the code-cache epoch (the access may have
  invalidated the very block that is running), and the event queue
  head (the access may have scheduled or drained events);
* traps inside a block (load/store access faults) commit the partial
  block — pc of the faulting instruction, retired count, cycles — and
  re-raise for the dispatcher, which applies :meth:`Hart.step`'s exact
  trap accounting.

Hot and cold paths
------------------
A load or store that hits the D-cache in the fast-memory window runs
inline.  Every other access — a miss, ROM, MMIO — goes out of line to
:meth:`Hart.load` / :meth:`Hart.store`, :meth:`Hart.step`'s own
access path, and is followed by the re-checks above.  Every exit — the
quantum check, a re-check, the terminator, the fall-through — is one
call of the exit helper ``_exit``, which commits pc, cycles and the
retired count.

Back-edges
----------
A block whose terminator is a conditional branch to its own entry runs
that back-edge inside its closure: the run loop passes the remaining
instruction budget, and the block leaves only where the dispatcher
would do something other than re-enter it — ``cycles >= limit`` (an
event or the deadline is due), a budget that would not cover another
pass, or ``idle_stop`` with an empty event queue.  Interrupts need no
check there: only the re-checked accesses can raise one.

The copy loop
-------------
The HWICAP copy loop of the paper's Listing 2 — ``m`` pairs ``lw T,
off+4j(S); sw T, D(B)``, ``addi S, S, 4m`` and ``addi C, C, -1`` in
either order, ``bnez C`` back to the entry (``_copy_loop``) — calls a
*step* at every pass head, which runs the loop in closed form, one
D-cache line per iteration.  Its unit is the rest of the line from the
next load, cut at the loop's exit and at the back-edge where the
budget would not cover another pass; it may cross pass boundaries.
The step reads the unit's words with one ``unpack_from`` (a DDR page
never written reads 0), extends its batch of pushes with them, and
advances cycles, the retired count, S, C, T, ``dcache.hits`` and the
batch's last issue by arithmetic: each push costs ``base + ex +
PushBatch.cost``, ``ex`` being the MMIO issue cost with the
branch-shadow stall on the first push after a back-edge.

The arithmetic is exact because the stores go to a *pure push*
register, whose write only appends to a FIFO, schedules no event,
raises no interrupt and reads no time (the HWICAP write FIFO; see
:func:`repro.axi.fastpath.fuse_push_batch`), and the hart waits for
each non-posted store's response before it issues the next, so no
store of a batch contends for the crossbar region or the AXI4-Lite
converter.  ``Hart._batch_port`` checks a batch's first store for
contention and for an event due by its issue.  A unit runs in bulk
only if its last check passes: the quantum check before its ``bnez``
when it ends a pass, else its last push's ``issue < limit``; every
check before it reads an earlier cycle.  A line fill commits the batch
(``Hart._flush_batch``), takes :meth:`Hart.load` and the cold path's
re-checks.  Where a unit meets the limit or a store the batch cannot
take, the step leaves through the exit helper at the instruction
where the unit starts, and the dispatcher does what the one-step loop
does; at a pass head with nothing retired it returns -1 and the
block's own code runs the pass.  It is entered only while every load
of the remaining passes lies word-aligned in the fast-memory window,
whose fills raise no ``Trap``, and it commits its batch before it
leaves, so device state, the kernel clock and the counters are those
the per-store path leaves wherever anything else can observe them.
Any other store to a push register takes :meth:`Hart.store`.

Block boundaries
----------------
``beq/bne/blt/bge/bltu/bgeu/jal/jalr`` terminate a block and are
compiled into it.  Anything with system-level side effects — csr ops,
``ecall``/``ebreak``/``mret``/``wfi``/``fence.i``, AMOs, ``lr``/``sc``
— ends the block *before* itself and is single-stepped by
:meth:`Hart.step`, which keeps the rare/complex semantics in exactly
one place.  A block holds at most ``MAX_BLOCK_INSTRUCTIONS`` (128), so
the 32x copy loop (67) is one block and loops in place.

Invalidation
------------
Blocks cache decoded instruction bytes, so they go stale when those
bytes change: ``Hart.store`` drops any block whose [start, end) byte
range overlaps a written range (via a 256-byte page index), ``fence.i``
and :meth:`Hart.invalidate_code_cache` flush everything, and every
invalidation bumps ``Hart._code_epoch`` so an in-flight block exits at
its next epoch check.
"""

from __future__ import annotations

import struct
from types import CodeType
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.axi.fastpath import PushBatch
from repro.riscv.decoder import Decoded
from repro.riscv.execute import EXEC
from repro.riscv.trap import Trap

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.riscv.hart import Hart

#: longest block, in instructions (bounds compile time and the page
#: span a single block can cover; the 32x copy loop is 67)
MAX_BLOCK_INSTRUCTIONS = 128

#: invalidation-page granularity (bytes) for the block page index
BLOCK_PAGE_SHIFT = 8

_M64 = "0xFFFFFFFFFFFFFFFF"
_HI32 = 0xFFFF_FFFF_0000_0000

#: control transfers: compiled as block terminators
_TERMINATORS = frozenset(
    {"beq", "bne", "blt", "bge", "bltu", "bgeu", "jal", "jalr"}
)

#: pure register-file ops without a specialized emitter; executed via
#: their EXEC handler from inside the block (handlers only touch
#: regs through reg()/set_reg(), never pc/cycles/memory)
_HANDLER_OPS = frozenset({
    "slliw", "srliw", "sraiw", "sllw", "srlw", "sraw", "subw",
    "mulh", "mulhsu", "mulhu", "mulw",
    "div", "divu", "rem", "remu", "divw", "divuw", "remw", "remuw",
    "fence",
})

_LOADS = {"lb": (1, True), "lh": (2, True), "lw": (4, True),
          "ld": (8, True), "lbu": (1, False), "lhu": (2, False),
          "lwu": (4, False)}
_STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

_MUL_OPS = frozenset({"mul", "mulh", "mulhsu", "mulhu", "mulw"})

#: little-endian word codecs matching SparseMemory's, for the in-page
#: access fast path compiled into blocks
_CODECS = {
    1: struct.Struct("<B"),
    2: struct.Struct("<H"),
    4: struct.Struct("<I"),
    8: struct.Struct("<Q"),
}

#: compiled-code cache keyed by generated source.  Blocks are
#: re-compiled per SoC instance (benchmarks and sweeps build hundreds),
#: but identical firmware + identical timing parameters generate
#: byte-identical source, so the expensive ``compile()`` is shared; the
#: per-hart bindings live in the exec namespace, not the code object.
_CODE_CACHE: Dict[str, CodeType] = {}
_CODE_CACHE_MAX = 4096


class CompiledBlock:
    """One compiled basic block: entry pc, byte span, and the closure.

    ``fn(hart, limit, deadline, idle_stop, budget)`` executes the block
    and returns the number of instructions retired.  ``limit`` is the
    cycle bound (earliest pending event or the deadline) at entry;
    ``deadline`` the run bound; ``idle_stop`` mirrors the run loop's
    ``until_halted=False`` early-exit when the event queue drains;
    ``budget`` is the run's remaining instruction budget, which bounds
    the passes a self-looping block takes inside its closure.
    """

    __slots__ = ("fn", "start", "end", "n_instr")

    def __init__(self, fn: Callable[["Hart", int, int, bool, int], int],
                 start: int, end: int, n_instr: int) -> None:
        self.fn = fn
        self.start = start
        self.end = end
        self.n_instr = n_instr


def _u(reg: int) -> str:
    """Unsigned value of register ``reg`` (local list ``r``)."""
    return "0" if reg == 0 else f"r[{reg}]"


def _sx(reg: int) -> str:
    """Signed (two's-complement) value of register ``reg``."""
    if reg == 0:
        return "0"
    return f"(r[{reg}] - ((r[{reg}] >> 63) << 64))"


def _sext_load(var: str, nbytes: int) -> str:
    """Sign-extend an ``nbytes`` little-endian load result in ``var``."""
    sign = 1 << (8 * nbytes - 1)
    high = 0xFFFF_FFFF_FFFF_FFFF ^ ((1 << (8 * nbytes)) - 1)
    return f"{var} = {var} | {high:#x} if {var} & {sign:#x} else {var}"


def _emit_alu(d: Decoded, pc: int) -> Optional[List[str]]:
    """Specialized straight-line emitters; None -> no specialization."""
    name, rd, rs1, rs2, imm = d.name, d.rd, d.rs1, d.rs2, d.imm
    a, b = _u(rs1), _u(rs2)
    expr: Optional[str] = None
    if name == "addi":
        if imm == 0:
            expr = a if rs1 != 0 else "0"
        elif rs1 == 0:
            expr = f"{imm & 0xFFFF_FFFF_FFFF_FFFF:#x}"
        else:
            expr = f"({a} + {imm}) & {_M64}"
    elif name == "lui":
        expr = f"{imm & 0xFFFF_FFFF_FFFF_FFFF:#x}"
    elif name == "auipc":
        expr = f"{(pc + imm) & 0xFFFF_FFFF_FFFF_FFFF:#x}"
    elif name == "andi":
        expr = f"{a} & {imm}"
    elif name == "ori":
        expr = f"({a} | {imm}) & {_M64}" if imm < 0 else f"{a} | {imm}"
    elif name == "xori":
        expr = f"({a} ^ {imm}) & {_M64}" if imm < 0 else f"{a} ^ {imm}"
    elif name == "slti":
        expr = f"1 if {_sx(rs1)} < {imm} else 0"
    elif name == "sltiu":
        expr = f"1 if {a} < {imm & 0xFFFF_FFFF_FFFF_FFFF:#x} else 0"
    elif name == "slli":
        expr = f"({a} << {imm}) & {_M64}"
    elif name == "srli":
        expr = f"{a} >> {imm}"
    elif name == "srai":
        expr = f"({_sx(rs1)} >> {imm}) & {_M64}"
    elif name == "add":
        expr = f"({a} + {b}) & {_M64}"
    elif name == "sub":
        expr = f"({a} - {b}) & {_M64}"
    elif name == "mul":
        expr = f"({a} * {b}) & {_M64}"
    elif name == "and":
        expr = f"{a} & {b}"
    elif name == "or":
        expr = f"{a} | {b}"
    elif name == "xor":
        expr = f"{a} ^ {b}"
    elif name == "sll":
        expr = f"({a} << ({b} & 63)) & {_M64}"
    elif name == "srl":
        expr = f"{a} >> ({b} & 63)"
    elif name == "sra":
        expr = f"({_sx(rs1)} >> ({b} & 63)) & {_M64}"
    elif name == "slt":
        expr = f"1 if {_sx(rs1)} < {_sx(rs2)} else 0"
    elif name == "sltu":
        expr = f"1 if {a} < {b} else 0"
    elif name in ("addiw", "addw"):
        rhs = str(imm) if name == "addiw" else b
        if rd == 0:
            return []
        return [
            f"t = ({a} + {rhs}) & 0xFFFFFFFF",
            f"r[{rd}] = t | {_HI32:#x} if t & 0x80000000 else t",
        ]
    if expr is None:
        return None
    if rd == 0:
        return []  # architectural no-op; cycle cost charged by caller
    return [f"r[{rd}] = {expr}"]


_BRANCH_CONDS: Dict[str, Callable[[int, int], str]] = {
    "beq": lambda a, b: f"{_u(a)} == {_u(b)}",
    "bne": lambda a, b: f"{_u(a)} != {_u(b)}",
    "blt": lambda a, b: f"{_sx(a)} < {_sx(b)}",
    "bge": lambda a, b: f"{_sx(a)} >= {_sx(b)}",
    "bltu": lambda a, b: f"{_u(a)} < {_u(b)}",
    "bgeu": lambda a, b: f"{_u(a)} >= {_u(b)}",
}


def _drop_aliases(addr_alias: Dict[Tuple[int, int], str], rd: int) -> None:
    """Invalidate address aliases whose base register was written."""
    for k in [k for k in addr_alias if k[0] == rd]:
        del addr_alias[k]


def _load_result(d: Decoded, indent: str) -> List[str]:
    """Sign-extend and write back a load's value ``t``."""
    nbytes, signed = _LOADS[d.name]
    out = []
    if signed and nbytes < 8:
        out.append(f"{indent}{_sext_load('t', nbytes)}")
    if d.rd != 0:
        out.append(f"{indent}r[{d.rd}] = t")
    return out


def _exit(h: "Hart", pc: int, cycles: int, retired: int) -> int:
    """Leave a compiled block: commit the architectural state and the
    retired count, which it returns."""
    h.pc = pc
    h.cycles = cycles
    h.instret += retired
    return retired


def _discover(hart: "Hart", entry_pc: int) -> List[Tuple[int, Decoded]]:
    """Collect the decoded instructions of the block starting at pc."""
    instrs: List[Tuple[int, Decoded]] = []
    pc = entry_pc
    for _ in range(MAX_BLOCK_INSTRUCTIONS):
        try:
            d = hart.decode_at(pc)
        except Exception:
            # discovery is speculative: it fetches *ahead* of execution
            # and may run past the program into unmapped space.  Any
            # failure (trap, illegal encoding, backend fetch error)
            # just ends the block; if the pc is actually reached, the
            # run loop single-steps it and raises architecturally.
            break
        name = d.name
        if name in _TERMINATORS:
            instrs.append((pc, d))
            break
        if (name not in _HANDLER_OPS and name not in _LOADS
                and name not in _STORES and _emit_alu(d, pc) is None):
            break  # system-class op: single-stepped by the run loop
        instrs.append((pc, d))
        pc += d.size
    return instrs


def _copy_loop(instrs: List[Tuple[int, Decoded]]
               ) -> Optional[Tuple[int, int, int, int, int, int, int]]:
    """``(m, T, S, C, B, off, D)`` of a copy loop's body, else None.

    The idiom, whose branch the caller has checked targets the entry:
    ``m`` pairs ``lw T, off+4j(S); sw T, D(B)`` (j = 0..m-1), then
    ``addi S, S, 4m`` and ``addi C, C, -1`` in either order, then
    ``bnez C``.  T, S and C are distinct nonzero registers and B is none
    of them, so every pass loads the 4m bytes after the last pass's and
    stores each word to one address.
    """
    m, odd = divmod(len(instrs) - 3, 2)
    if m < 1 or odd:
        return None
    first, store = instrs[0][1], instrs[1][1]
    t, s, off, b, d = first.rd, first.rs1, first.imm, store.rs1, store.imm
    for j in range(m):
        ld, st = instrs[2 * j][1], instrs[2 * j + 1][1]
        if ((ld.name, ld.rd, ld.rs1, ld.imm) != ("lw", t, s, off + 4 * j)
                or (st.name, st.rs2, st.rs1, st.imm) != ("sw", t, b, d)):
            return None
    branch = instrs[-1][1]
    c = branch.rs1 | branch.rs2
    steps = {(x.name, x.rd, x.rs1, x.imm) for _, x in instrs[-3:-1]}
    if (branch.name != "bne" or 0 not in (branch.rs1, branch.rs2)
            or steps != {("addi", s, s, 4 * m), ("addi", c, c, -1)}
            or 0 in (t, s, c) or len({t, s, c, b}) < 4):
        return None
    return m, t, s, c, b, off, d


def _copy_step(hart: "Hart", instrs: List[Tuple[int, Decoded]], m: int,
               t: int, s: int, c: int, b: int, off: int, d: int
               ) -> Callable[..., int]:
    """The copy loop's step (see "The copy loop" in the module docstring).

    ``step(h, cycles, limit, deadline, idle_stop, budget, n)`` takes the
    block's locals at a pass head, ``n`` instructions into the call.  It
    leaves the block through the exit helper and returns the retired
    count, or returns -1 having changed nothing.
    """
    timing = hart.timing
    base = timing.base_cpi
    tail = 3 * base + timing.branch_taken_penalty  # addi, addi, bnez taken
    mse = hart._mmio_store_extra
    msh = hart._mmio_shadow_extra
    ls = hart._dc_line_shift
    line = 1 << ls
    im = hart._dc_index_mask
    tag_shift = ls + hart._dc_tag_shift
    tags = hart._dc_tags
    dc = hart.dcache
    fm_lo, fm_hi = hart._fm_lo, hart._fm_hi
    pages = hart._fm_pages
    q = hart.sim._queue
    cr = hart.csr._regs
    pcs = [pc for pc, _ in instrs]
    span = len(instrs)
    last_pc, last_d = instrs[-1]
    out_pc = (last_pc + last_d.size) & 0xFFFF_FFFF_FFFF_FFFF
    stride = 4 * m
    runs = [struct.Struct(f"<{w}I").unpack_from for w in range(line // 4 + 1)]
    zeros = [(0,) * w for w in range(line // 4 + 1)]

    def step(h: "Hart", cycles: int, limit: int, deadline: int,
             idle_stop: bool, budget: int, n: int) -> int:
        r = h.regs
        count = r[c]
        dst = (r[b] + d) & 0xFFFF_FFFF_FFFF_FFFF
        a = lo = r[s] + off
        # every load of the remaining passes lies word-aligned in the
        # fast-memory window, whose fills raise no Trap (C = 0 would
        # loop 2**64 times)
        if (a & 3 or not count or a < fm_lo or a + stride * count > fm_hi
                or idle_stop and not q):
            return -1
        mie_en = cr[0x300] & 8
        mie_mask = cr[0x304]
        ep = h._code_epoch
        shadow = h._branch_shadow
        # passes to complete: to the loop's exit, or to the back-edge
        # where the budget would not cover another pass
        stop = (budget - n - 1) // span
        if stop > count:
            stop = count
        k = j = bi = bc = pair = word = 0
        bv: List[int] = []
        bp: Optional[PushBatch] = None
        while True:
            # at the lw of pair j: the instruction index ``at`` in the
            # pass is where an exit leaves
            at = 2 * j
            if cycles >= limit:
                break
            filled = 0
            if tags.get((a >> ls) & im) != a >> tag_shift:
                # a line fill: commit the batch, then the hart's own
                # load path and the cold path's re-checks
                if bv:
                    h._flush_batch(bv, bp, bi)  # type: ignore[arg-type]
                    bp = None
                h.cycles = cycles
                word = h.load(a, 4)
                cycles += base + h._extra_cycles
                h._extra_cycles = 0
                at += 1
                filled = 1
                if (mie_en and cr[0x344] & mie_mask
                        or h._code_epoch != ep or idle_stop and not q):
                    break
                limit = q[0][0] if q and q[0][0] < deadline else deadline
            # the unit: the line's remaining words, up to the stop
            w = (line - (a & (line - 1))) >> 2
            left = (stop - k) * m - j
            if w > left:
                w = left
            issue = (cycles + mse + (msh if shadow else 0)
                     + (0 if filled else base))
            if bp is None:
                bp = h._batch_port(dst, 4, issue)
                if bp is None:
                    break
                bc = bp.cost + base
                pair = base + mse + bc
            jw = j + w
            turns = (jw - 1) // m  # back-edges before the last pair
            passes = jw // m
            last = issue + (w - 1) * pair + turns * (tail + msh)
            # the unit's last check: its bnez's quantum check when it
            # ends a pass, else its last push's ``issue < limit``
            if (last + bc + 2 * base if passes > turns else last) >= limit:
                break
            o = a - fm_lo
            page = pages.get(o >> 12)  # type: ignore[union-attr]
            words = runs[w](page, o & 4095) if page is not None else zeros[w]
            bv += words
            word = words[-1]
            bi = last
            dc.hits += w - filled
            a += 4 * w
            k += passes
            j = jw - passes * m
            cycles = last + bc
            shadow = passes > turns
            if shadow:
                if k == count:  # the loop's exit: bnez falls through
                    cycles += 3 * base
                    at = -1
                    break
                cycles += tail
                if k == stop:  # the budget rule at the back-edge
                    at = 0
                    break
        if not k and not at:
            return -1
        if bv:
            h._flush_batch(bv, bp, bi)  # type: ignore[arg-type]
        r[s] = lo - off + stride * k
        r[c] = count - k
        r[t] = word | _HI32 if word & 0x8000_0000 else word
        h._branch_shadow = shadow
        return _exit(h, out_pc if at < 0 else pcs[at], cycles,
                     n + k * span + (at if at > 0 else 0))

    return step


def compile_block(hart: "Hart", entry_pc: int) -> Optional[CompiledBlock]:
    """Compile the basic block at ``entry_pc``; None when not compilable.

    The compiled block is registered in the hart's block cache and page
    index so stores into its byte range invalidate it.
    """
    instrs = _discover(hart, entry_pc)
    if not instrs:
        return None

    timing = hart.timing
    base = timing.base_cpi
    penalty = timing.branch_taken_penalty
    has_mem = any(d.name in _LOADS or d.name in _STORES
                  for _, d in instrs)
    last_pc, last_d = instrs[-1]
    # a conditional branch back to the entry: the block runs its own
    # back-edge inside the closure (see the module docstring)
    loop = (last_d.name in _BRANCH_CONDS
            and (last_pc + last_d.imm) & 0xFFFF_FFFF_FFFF_FFFF == entry_pc)
    # inline D-cache-hit fast path: valid only when the hart's windows
    # are exhaustive (so a fast-memory-window address is definitely
    # cacheable) and the inline tag-check geometry applies
    fast = (has_mem and hart._dc_inline and hart._cw_exact
            and hart._fm_load is not None)
    stores = fast and any(d.name in _STORES for _, d in instrs)
    # in-page word access compiled directly against the sparse-memory
    # page dict (missing page / page-crossing falls back to the word
    # helper, which returns 0 / splits exactly)
    inline_pages = fast and hart._fm_pages is not None
    load_widths = sorted({_LOADS[d.name][0] for _, d in instrs
                          if d.name in _LOADS})
    store_widths = sorted({_STORES[d.name] for _, d in instrs
                           if d.name in _STORES})
    fm_lo, fm_hi = hart._fm_lo, hart._fm_hi
    ls = hart._dc_line_shift
    im = hart._dc_index_mask
    ts = hart._dc_tag_shift
    # the copy loop runs in closed form, one D-cache line per step: a
    # line must lie in one page of the window's page dict
    copy = (_copy_loop(instrs) if loop and inline_pages and 2 <= ls <= 12
            and not fm_lo & ((1 << ls) - 1) else None)

    def retired(count: int) -> str:
        """Instructions retired by this call after ``count`` of the
        current pass (``n`` counts the passes already looped)."""
        if not loop:
            return str(count)
        return f"n + {count}" if count else "n"

    def leave(pc: int, cycles: str, count: int) -> str:
        """The exit call, which returns the retired count."""
        return f"return X(h, {pc:#x}, {cycles}, {retired(count)})"

    ns: Dict[str, object] = {
        "TrapExc": Trap,
        "CR": hart.csr._regs,
        "Q": hart.sim._queue,
        "X": _exit,
    }
    lines: List[str] = [
        "def _bb(h, limit, deadline, idle_stop, budget):",
        "    r = h.regs",
        "    cycles = h.cycles",
    ]
    ind = "    "
    if has_mem or loop:
        lines.append("    q = Q")
    if loop:
        lines.append("    n = 0")
    if has_mem:
        lines += [
            "    cr = CR",
            "    mie_en = cr[0x300] & 8",   # mstatus.MIE, hoisted
            "    mie_mask = cr[0x304]",     # mie, hoisted
            "    ep = h._code_epoch",
            "    i = 0",
            f"    fpc = {entry_pc:#x}",
        ]
        if fast:
            ns["DT"] = hart._dc_tags
            ns["DD"] = hart._dc_dirty
            ns["DC"] = hart.dcache
            ns["LW"] = hart._fm_load
            ns["SW"] = hart._fm_store
            lines += [
                "    dt = DT",
                "    lw = LW",
                "    dc = DC",
            ]
            if inline_pages:
                ns["PGS"] = hart._fm_pages
                lines.append("    pgs = PGS")
                for nb in load_widths:
                    ns[f"U{nb}"] = _CODECS[nb].unpack_from
                    lines.append(f"    u{nb} = U{nb}")
                for nb in store_widths:
                    ns[f"P{nb}"] = _CODECS[nb].pack_into
                    lines.append(f"    p{nb} = P{nb}")
            if stores:
                # code-range bounds for the self-modifying-code check;
                # hoisting is safe: only compile_block grows them and it
                # does not run while a block is executing
                lines += [
                    "    dd = DD",
                    "    sw = SW",
                    "    blo = h._block_lo",
                    "    bhi = h._block_hi",
                ]
        lines.append("    try:")
        ind = "        "
    if loop:
        lines.append(f"{ind}while True:")
        ind += "    "
    if copy is not None:
        # the pass head: the step runs whole lines from here and leaves
        # the block, or hands the pass to the code below (-1)
        ns["ST"] = _copy_step(hart, instrs, *copy)
        lines += [f"{ind}x = ST(h, cycles, limit, deadline, idle_stop, "
                  "budget, n)",
                  f"{ind}if x >= 0:",
                  f"{ind}    return x"]

    def cold(d: Decoded, idx: int, pc: int, next_pc: int, av: str,
             si: str) -> List[str]:
        """An access that is not a D-cache hit: the hart's own load or
        store path, the loaded value, and the re-checks after it."""
        out = [f"{si}i = {retired(idx)}",
               f"{si}fpc = {pc:#x}",
               f"{si}h.cycles = cycles"]
        if d.name in _LOADS:
            out.append(f"{si}t = h.load({av}, {_LOADS[d.name][0]})")
        else:
            out.append(f"{si}h.store({av}, {_u(d.rs2)}, {_STORES[d.name]})")
        out += [f"{si}cycles += {base} + h._extra_cycles",
                f"{si}h._extra_cycles = 0"]
        if d.name in _LOADS:
            out += _load_result(d, si)
        # device events during the access may have raised mip, the
        # access may have invalidated this very block, and it may have
        # scheduled or drained events: exit where the dispatcher would
        # act, else refresh the event bound
        out += [
            f"{si}if (mie_en and cr[0x344] & mie_mask "
            f"or h._code_epoch != ep or idle_stop and not q):",
            f"{si}    return X(h, {next_pc:#x}, cycles, "
            f"{retired(idx + 1)})",
            f"{si}limit = q[0][0] if q and q[0][0] < deadline "
            f"else deadline",
        ]
        return out

    # dataflow aliasing: a later access with the same (rs1, imm) — and
    # no intervening write to rs1 — provably computes the same address,
    # so the computed address variable is reused instead of recomputed
    addr_alias: Dict[Tuple[int, int], str] = {}

    terminated = False
    for idx, (pc, d) in enumerate(instrs):
        name = d.name
        next_pc = (pc + d.size) & 0xFFFF_FFFF_FFFF_FFFF
        if idx > 0:
            # co-sim quantum check: identical granularity to the
            # run loop's per-step event/deadline comparison
            lines += [f"{ind}if cycles >= limit:",
                      f"{ind}    {leave(pc, 'cycles', idx)}"]

        if name in _LOADS or name in _STORES:
            akey = (d.rs1, d.imm)
            av = addr_alias.get(akey)
            if av is None:
                av = f"a{idx}"
                addr = (f"({_u(d.rs1)} + {d.imm}) & {_M64}"
                        if d.imm else _u(d.rs1))
                if d.rs1 == 0:
                    addr = f"{d.imm & 0xFFFF_FFFF_FFFF_FFFF:#x}"
                lines.append(f"{ind}{av} = {addr}")
                addr_alias[akey] = av
            is_load = name in _LOADS
            nbytes = _LOADS[name][0] if is_load else _STORES[name]
            if not fast:
                lines += cold(d, idx, pc, next_pc, av, ind)
            else:
                # D-cache-hit fast path: a hit in the fast-memory
                # window advances no time, runs no events, and raises
                # no mip bit, so the interrupt-window / event-queue /
                # idle-stop re-checks are all provably no-ops and are
                # skipped; any other access leaves the hit path below.
                # The window test short-circuits before the shift
                # arithmetic, so MMIO accesses (out of window) skip it.
                fi = ind + "    "
                lines += [
                    f"{ind}if {fm_lo:#x} <= {av} < {fm_hi:#x} "
                    f"and dt.get(({av} >> {ls}) & {im}) "
                    f"== {av} >> {ls + ts}:",
                    f"{fi}dc.hits += 1",
                ]
                if is_load:
                    if inline_pages:
                        lines += [
                            f"{fi}o = {av} - {fm_lo:#x}",
                            f"{fi}of = o & 4095",
                            f"{fi}pg = pgs.get(o >> 12)",
                            f"{fi}t = u{nbytes}(pg, of)[0] "
                            f"if pg is not None "
                            f"and of <= {4096 - nbytes} "
                            f"else lw(o, {nbytes})",
                        ]
                    else:
                        lines.append(
                            f"{fi}t = lw({av} - {fm_lo:#x}, {nbytes})")
                    lines += _load_result(d, fi)
                    lines += [f"{fi}cycles += {base}", f"{ind}else:"]
                    lines += cold(d, idx, pc, next_pc, av, fi)
                else:
                    val = _u(d.rs2)
                    if nbytes < 8:
                        val = f"{val} & {(1 << (8 * nbytes)) - 1:#x}"
                    lines.append(f"{fi}dd[({av} >> {ls}) & {im}] = True")
                    if inline_pages:
                        lines += [
                            f"{fi}o = {av} - {fm_lo:#x}",
                            f"{fi}of = o & 4095",
                            f"{fi}pg = pgs.get(o >> 12)",
                            f"{fi}if pg is not None "
                            f"and of <= {4096 - nbytes}:",
                            f"{fi}    p{nbytes}(pg, of, {val})",
                            f"{fi}else:",
                            f"{fi}    sw(o, {_u(d.rs2)}, {nbytes})",
                        ]
                    else:
                        lines.append(
                            f"{fi}sw({av} - {fm_lo:#x}, "
                            f"{_u(d.rs2)}, {nbytes})")
                    lines += [
                        f"{fi}cycles += {base}",
                        # self-modifying code: invalidate overlapped
                        # blocks; exit if this block was hit
                        f"{fi}if bhi >= 0 and {av} + {nbytes} > blo "
                        f"and {av} < bhi:",
                        f"{fi}    h._code_store({av}, {nbytes})",
                        f"{fi}    if h._code_epoch != ep:",
                        f"{fi}        {leave(next_pc, 'cycles', idx + 1)}",
                        f"{ind}else:",
                    ]
                    lines += cold(d, idx, pc, next_pc, av, fi)
            if is_load and d.rd != 0:
                _drop_aliases(addr_alias, d.rd)
            continue

        if name in _BRANCH_CONDS:
            cond = _BRANCH_CONDS[name](d.rs1, d.rs2)
            target = (pc + d.imm) & 0xFFFF_FFFF_FFFF_FFFF
            lines.append(f"{ind}h._branch_shadow = True")
            if loop:
                # the back-edge: re-enter in place unless the
                # dispatcher would do anything else at the entry (an
                # event or the deadline is due, the budget would not
                # cover another pass, or an idle queue stops the run)
                lines += [
                    f"{ind}if not ({cond}):",
                    f"{ind}    {leave(next_pc, f'cycles + {base}', idx + 1)}",
                    f"{ind}cycles += {base + penalty}",
                    f"{ind}n += {idx + 1}",
                    f"{ind}if (cycles >= limit or n + {idx + 1} >= budget"
                    f" or idle_stop and not q):",
                    f"{ind}    {leave(entry_pc, 'cycles', 0)}",
                ]
            else:
                lines += [
                    f"{ind}if {cond}:",
                    f"{ind}    {leave(target, f'cycles + {base + penalty}', idx + 1)}",
                    f"{ind}{leave(next_pc, f'cycles + {base}', idx + 1)}",
                ]
            terminated = True
            break

        if name == "jal":
            target = (pc + d.imm) & 0xFFFF_FFFF_FFFF_FFFF
            if d.rd != 0:
                lines.append(f"{ind}r[{d.rd}] = {next_pc:#x}")
            lines.append(
                f"{ind}{leave(target, f'cycles + {base + penalty}', idx + 1)}")
            terminated = True
            break

        if name == "jalr":
            lines.append(
                f"{ind}t = ({_u(d.rs1)} + {d.imm}) & 0xFFFFFFFFFFFFFFFE"
            )
            if d.rd != 0:
                lines.append(f"{ind}r[{d.rd}] = {next_pc:#x}")
            lines.append(f"{ind}return X(h, t, cycles + {base + penalty}, "
                         f"{retired(idx + 1)})")
            terminated = True
            break

        body = _emit_alu(d, pc)
        if body is not None:
            lines += [ind + line for line in body]
        else:
            # pure register op via its Hart.step handler
            ns[f"E{idx}"] = EXEC[name]
            ns[f"D{idx}"] = d
            lines.append(f"{ind}E{idx}(h, D{idx})")
        if name in _MUL_OPS:
            cost = base + timing.mul_cycles - 1
        elif name.startswith(("div", "rem")):
            cost = base + timing.div_cycles - 1
        else:
            cost = base
        lines.append(f"{ind}cycles += {cost}")
        if d.rd != 0:
            _drop_aliases(addr_alias, d.rd)

    if not terminated:
        lines.append(
            f"{ind}{leave((last_pc + last_d.size) & 0xFFFF_FFFF_FFFF_FFFF, 'cycles', len(instrs))}")

    if has_mem:
        lines += [
            "    except TrapExc:",
            # h.cycles/_extra_cycles already hold the faulting access's
            # partial charges (the copy-loop step raises no trap); commit
            # pc + retired count and re-raise for the dispatcher's
            # step-exact trap accounting
            "        h.pc = fpc",
            "        h.instret += i",
            "        h._block_retired = i",
            "        raise",
        ]

    source = "\n".join(lines)
    code = _CODE_CACHE.get(source)
    if code is None:
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        code = compile(source, f"<block@{entry_pc:#x}>", "exec")
        _CODE_CACHE[source] = code
    exec(code, ns)  # noqa: S102
    fn = ns["_bb"]

    block = CompiledBlock(fn, entry_pc, last_pc + last_d.size,  # type: ignore[arg-type]
                          len(instrs))
    _register(hart, block)
    return block


def _register(hart: "Hart", block: CompiledBlock) -> None:
    """Enter a block into the hart's cache, page index, and bounds."""
    hart._block_cache[block.start] = block
    shift = BLOCK_PAGE_SHIFT
    for page in range(block.start >> shift, ((block.end - 1) >> shift) + 1):
        hart._block_pages.setdefault(page, set()).add(block.start)
    if block.start < hart._block_lo:
        hart._block_lo = block.start
    if block.end > hart._block_hi:
        hart._block_hi = block.end
