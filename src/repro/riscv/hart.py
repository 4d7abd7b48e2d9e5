"""The hart: architectural state, memory hierarchy, and co-sim loop.

Co-simulation scheme
--------------------
The hart keeps its own cycle counter and runs *ahead* of the event
queue in a quantum: plain ALU work costs only local bookkeeping, and
the hart re-synchronizes with the :class:`~repro.sim.kernel.Simulator`
whenever it (a) touches the bus, (b) crosses the next pending event's
timestamp, or (c) executes ``wfi``.  Device models therefore always
observe a consistent time order for MMIO traffic, and interrupts are
taken at worst one quantum late — bounded by the next event timestamp,
i.e. exact whenever a device has anything scheduled.

Execution
---------
:meth:`Hart.run_until` is the one run loop.  It executes compiled basic
blocks (:mod:`repro.riscv.blocks`) and single-steps (:meth:`Hart.step`)
only what no block covers: system-class instructions, a block the
remaining budget does not cover, an idle-queue early stop.  An MMIO access
goes through its register's fused port (:mod:`repro.axi.fastpath`), or
through the plain crossbar transaction where the fuser refuses it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.axi.fastpath import (
    PushBatch,
    fuse_push_batch,
    fuse_read_port,
    fuse_write_port,
)
from repro.errors import CpuError, IllegalInstructionError
from repro.riscv import isa
from repro.riscv.blocks import BLOCK_PAGE_SHIFT, CompiledBlock, compile_block
from repro.riscv.compressed import expand
from repro.riscv.csr import CsrFile
from repro.riscv.decoder import Decoded, decode
from repro.riscv.execute import EXEC
from repro.riscv.timing import CpuTiming, DCache
from repro.riscv.trap import Trap
from repro.sim.kernel import Simulator
from repro.utils.bits import MASK64

#: interrupt priority order per the privileged spec (MEI > MSI > MTI)
_IRQ_PRIORITY = (isa.IRQ_MEI, isa.IRQ_MSI, isa.IRQ_MTI)

#: sentinel distinguishing "not yet resolved" from "no fast path" in the
#: per-hart MMIO/fill port caches
_UNRESOLVED = object()

class Hart:
    """A single RV64IMAC machine-mode hart.

    Parameters
    ----------
    sim:
        Simulation kernel providing the shared time base.
    bus:
        The main AXI crossbar (timed path for MMIO and cache refills).
    fetch_backdoor:
        ``f(addr, nbytes) -> bytes`` zero-time instruction fetch
        (on-chip boot memory; assumed-perfect I-cache).
    data_backdoor:
        ``(load, store)`` pair for zero-time *data* access to cacheable
        memory; timing for that space is charged via the D-cache model.
    is_cacheable:
        Predicate classifying an address as cacheable main memory
        (DDR/boot) vs. non-cacheable MMIO.
    """

    def __init__(
        self,
        sim: Simulator,
        bus,
        *,
        fetch_backdoor: Callable[[int, int], bytes],
        data_load: Callable[[int, int], int],
        data_store: Callable[[int, int, int], None],
        is_cacheable: Callable[[int], bool],
        timing: CpuTiming | None = None,
        reset_pc: int = 0x1_0000,
        cacheable_windows: Optional[
            tuple[tuple[int, int], tuple[int, int]]
        ] = None,
        fast_memory: Optional[tuple[int, int, object]] = None,
    ) -> None:
        # cacheable_windows: when given, an *exhaustive* pair of
        # [lo, hi) windows equivalent to is_cacheable — lets the hot
        # load/store paths classify with inline compares instead of a
        # predicate call.  fast_memory: (lo, hi, memory) window whose
        # word loads/stores may bypass the generic data backdoor and
        # hit ``memory.load_word``/``store_word`` directly (the DDR).
        if cacheable_windows is not None:
            (self._cw0_lo, self._cw0_hi), (self._cw1_lo, self._cw1_hi) = (
                cacheable_windows
            )
            self._cw_exact = True
        else:
            self._cw0_lo = self._cw1_lo = 1
            self._cw0_hi = self._cw1_hi = 0
            self._cw_exact = False
        if fast_memory is not None:
            self._fm_lo, self._fm_hi, memory = fast_memory
            self._fm_load: Optional[Callable[[int, int], int]] = (
                memory.load_word  # type: ignore[attr-defined]
            )
            self._fm_store: Optional[Callable[[int, int, int], None]] = (
                memory.store_word  # type: ignore[attr-defined]
            )
            # page dict for block-compiled in-page word accesses; only
            # when the geometry lets a same-page access stay in bounds
            # (page-aligned window size) so the codegen's single bounds
            # check matches load_word/store_word exactly
            pages = getattr(memory, "_pages", None)
            self._fm_pages: Optional[Dict[int, bytearray]] = (
                pages if isinstance(pages, dict)
                and getattr(memory, "page_bits", 0) == 12
                and (self._fm_hi - self._fm_lo) % 4096 == 0
                else None
            )
        else:
            self._fm_lo, self._fm_hi = 1, 0
            self._fm_load = None
            self._fm_store = None
            self._fm_pages = None
        self.sim = sim
        self.bus = bus
        self._fetch = fetch_backdoor
        self._data_load = data_load
        self._data_store = data_store
        self._is_cacheable = is_cacheable
        self.timing = timing or CpuTiming()
        self.dcache = DCache(self.timing)
        # pre-computed D-cache geometry for the inline hit check in
        # load/store (only valid for power-of-two line size/count; other
        # geometries take the full DCache.access path)
        line_bytes = self.timing.dcache_line_bytes
        lines = self.timing.dcache_lines
        self._dc_inline = (
            line_bytes > 0 and not line_bytes & (line_bytes - 1)
            and lines > 0 and not lines & (lines - 1)
        )
        self._dc_line_shift = line_bytes.bit_length() - 1
        self._dc_index_mask = lines - 1
        self._dc_tag_shift = lines.bit_length() - 1
        self._dc_tags = self.dcache._tags
        self._dc_dirty = self.dcache._dirty
        self.csr = CsrFile()
        self.csr.cycle_source = lambda: self.cycles
        self.csr.instret_source = lambda: self.instret

        self.regs = [0] * 32
        self.pc = reset_pc
        self.cycles = 0
        self.instret = 0
        self.reservation: Optional[int] = None
        self.halted = False
        self.halt_reason = ""
        self.in_wfi = False
        self._branch_shadow = False  # a conditional branch has not yet "committed"
        self._decode_cache: dict[int, Decoded] = {}
        #: fused fetch/decode/execute cache: pc -> (handler, decoded,
        #: fixed extra cycles, is-unconditional-jump).  Valid while the
        #: instruction bytes at pc are unchanged; stores through the
        #: hart invalidate overlapping entries (see ``store``), other
        #: writers must call :meth:`invalidate_code_cache`.
        self._pc_cache: dict[int, tuple] = {}
        self._pc_cache_lo = 1 << 62  # lowest / highest cached pc bounds
        self._pc_cache_hi = -1
        #: compiled basic blocks: entry pc -> CompiledBlock, plus a
        #: page index (BLOCK_PAGE_SHIFT granularity) mapping pages to
        #: the entry pcs of blocks whose byte range touches them, and
        #: byte bounds for the cheap store-overlap pre-check
        self._block_cache: dict[int, CompiledBlock] = {}
        self._block_pages: dict[int, set[int]] = {}
        self._block_lo = 1 << 62
        self._block_hi = -1
        #: pcs where block compilation refused (first op not
        #: compilable); cleared on every code-cache flush
        self._block_refused: set[int] = set()
        #: bumped on every block invalidation; running blocks compare
        #: it after each memory access and exit when it moved
        self._code_epoch = 0
        #: instructions a trapping block retired before the fault
        #: (written by the generated except path, read by the run loop)
        self._block_retired = 0
        self._extra_cycles = 0  # charged by load/store during the current step
        self.mmio_accesses = 0
        self.trap_count = 0
        # pre-summed MMIO charge constants (avoid per-access attribute
        # chains through self.timing on the hot path)
        self._mmio_load_extra = self.timing.mmio_issue_overhead
        self._mmio_store_extra = (self.timing.mmio_issue_overhead
                                  + self.timing.noncacheable_store_cost)
        self._mmio_shadow_extra = self.timing.mmio_after_branch_block
        #: fused MMIO ports keyed by ``addr * 16 + nbytes`` (a single
        #: int hashes faster than a tuple); an entry of None means the
        #: fuser refused the access and the plain bus call is used.
        #: Valid while the bus topology is static (always, here).
        self._mmio_read_ports: dict[int, object] = {}
        self._mmio_write_ports: dict[int, object] = {}
        #: batch commits of pure push registers, same keys; None = the
        #: store is not batchable (see repro.axi.fastpath.PushBatch)
        self._mmio_batch_ports: dict[int, Optional[PushBatch]] = {}
        #: timing-only port for D-cache line fills in the fast memory
        #: window (see AxiSlave.resolve_fill_port)
        self._fill_port = bus.resolve_fill_port(self._fm_lo, self._fm_hi)

    # ------------------------------------------------------------------
    # register file
    # ------------------------------------------------------------------
    def reg(self, index: int) -> int:
        return self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & MASK64

    # ------------------------------------------------------------------
    # halting / wfi
    # ------------------------------------------------------------------
    def halt(self, reason: str) -> None:
        self.halted = True
        self.halt_reason = reason

    def enter_wfi(self) -> None:
        self.in_wfi = True

    def note_conditional_branch(self, taken: bool) -> None:
        """Called by branch semantics; arms the speculative-MMIO block."""
        self._branch_shadow = True
        if taken:
            self._extra_cycles += self.timing.branch_taken_penalty

    # ------------------------------------------------------------------
    # memory hierarchy (called by instruction semantics)
    # ------------------------------------------------------------------
    def _local_time(self) -> int:
        """The hart's time within the current step, synced to the kernel.

        Events scheduled before this instant are executed first so the
        access observes up-to-date device state.
        """
        local = self.cycles + self._extra_cycles
        if local > self.sim.now:
            self.sim.advance_to(local)
        return local

    def _line_fill(self, addr: int, is_store: bool) -> None:
        """Charge a D-cache miss: line fill (+ optional writeback).

        The bus transactions here are *timing-only*: architectural data
        moves through the zero-time backdoor, so the fill and the victim
        writeback both go through the bus's fill port, the writeback as
        a second line-sized read burst (a read, deliberately, to avoid
        mutating memory contents).
        """
        hit, writeback = self.dcache.access(addr, is_store)
        if hit:
            return
        line_bytes = self.timing.dcache_line_bytes
        line_addr = addr & ~(line_bytes - 1)
        local = self._local_time()
        if self._fm_lo <= line_addr and line_addr + line_bytes <= self._fm_hi:
            port = self._fill_port
        else:
            port = self.bus.resolve_fill_port(line_addr, line_addr + line_bytes)
        start = local
        if writeback:
            start = port(line_addr, line_bytes, start)[1]
        self._extra_cycles += port(line_addr, line_bytes, start)[1] - local

    def _resolve_mmio_port(self, addr: int, nbytes: int, is_read: bool) -> object:
        """Resolve (and memoize) the fused bus port for an MMIO access,
        or ``None`` when the fuser refuses it (the plain transaction)."""
        if is_read:
            port: object = fuse_read_port(self.bus, addr, nbytes)
        else:
            port = fuse_write_port(self.bus, addr, nbytes)
        cache = self._mmio_read_ports if is_read else self._mmio_write_ports
        cache[addr * 16 + nbytes] = port
        return port

    def _batch_port(self, addr: int, nbytes: int,
                    issue: int) -> Optional[PushBatch]:
        """The push batch a compiled block may open with an MMIO store.

        ``None`` unless the store (issued at ``issue``) goes to a pure
        push register, no event is due by ``issue`` and the store meets
        no contention on its path; the caller then takes :meth:`store`.
        """
        if (self._cw0_lo <= addr < self._cw0_hi
                or self._cw1_lo <= addr < self._cw1_hi):
            return None  # a cacheable miss, not MMIO
        key = addr * 16 + nbytes
        batch = self._mmio_batch_ports.get(key, _UNRESOLVED)
        if batch is _UNRESOLVED:
            batch = fuse_push_batch(self.bus, addr, nbytes)
            self._mmio_batch_ports[key] = batch
        if batch is None:
            return None
        queue = self.sim._queue
        if queue and queue[0][0] <= issue:
            return None
        return batch if batch.clear(issue) else None  # type: ignore[union-attr]

    def _flush_batch(self, values: List[int], batch: PushBatch,
                     issue: int) -> None:
        """Commit the stores a compiled block batched, the last issued at
        ``issue``: what :meth:`store` would have left, store by store."""
        self.mmio_accesses += len(values)
        sim = self.sim
        if issue > sim._now:
            sim._now = issue
        batch.commit(values, issue)
        values.clear()

    def _sync_time(self, issue: int) -> None:
        """Advance the kernel clock to ``issue`` (MMIO issue side).

        Inlines the no-pending-events case: with nothing scheduled
        before ``issue`` the advance is a plain clock assignment, which
        avoids the ``advance_to`` call on the dominant path.
        """
        sim = self.sim
        if issue > sim._now:
            queue = sim._queue
            if queue and queue[0][0] <= issue:
                sim.advance_to(issue)
            else:
                sim._now = issue

    def _code_store(self, addr: int, nbytes: int) -> None:
        """Invalidate fused pc entries and compiled blocks overlapping
        a store into [addr, addr+nbytes) (self-modifying code)."""
        if addr + nbytes > self._pc_cache_lo and addr - 3 <= self._pc_cache_hi:
            # drop any fused entries whose instruction bytes overlap
            cache = self._pc_cache
            for overlapped in range(addr - 3, addr + nbytes):
                cache.pop(overlapped, None)
        if (self._block_hi >= 0 and addr + nbytes > self._block_lo
                and addr < self._block_hi):
            # likewise for compiled blocks *spanning* the written bytes
            # (entry pc alone is not enough: the store may land
            # mid-block)
            self._invalidate_blocks(addr, nbytes)

    def load(self, addr: int, nbytes: int) -> int:
        addr &= MASK64
        if (self._cw0_lo <= addr < self._cw0_hi
                or self._cw1_lo <= addr < self._cw1_hi
                or (not self._cw_exact and self._is_cacheable(addr))):
            # inline D-cache *hit* check (the dominant path); any miss
            # falls through to the full line-fill model
            if self._dc_inline:
                line = addr >> self._dc_line_shift
                if (
                    self._dc_tags.get(line & self._dc_index_mask)
                    == line >> self._dc_tag_shift
                ):
                    self.dcache.hits += 1
                    if self._fm_lo <= addr < self._fm_hi:
                        return self._fm_load(addr - self._fm_lo, nbytes)  # type: ignore[misc]
                    return self._data_load(addr, nbytes)
            self._line_fill(addr, is_store=False)
            if self._fm_lo <= addr < self._fm_hi:
                return self._fm_load(addr - self._fm_lo, nbytes)  # type: ignore[misc]
            return self._data_load(addr, nbytes)
        # MMIO: charge issue-side cycles (issue overhead, plus the
        # branch-shadow block — non-cacheable accesses may not issue
        # speculatively, Sec. IV-B of the paper), sync with the kernel,
        # then use the fused port when the fuser takes the access.
        self.mmio_accesses += 1
        extra = self._extra_cycles + self._mmio_load_extra
        if self._branch_shadow:
            extra += self._mmio_shadow_extra
            self._branch_shadow = False
        issue = self.cycles + extra
        self._sync_time(issue)
        port = self._mmio_read_ports.get(addr * 16 + nbytes, _UNRESOLVED)
        if port is _UNRESOLVED:
            port = self._resolve_mmio_port(addr, nbytes, is_read=True)
        if port is not None:
            value, complete = port(issue)  # type: ignore[operator]
            self._extra_cycles = extra + (complete - issue)
            return value
        self._extra_cycles = extra
        result = self.bus.read(addr, nbytes, issue)
        if not result.ok:
            raise Trap(isa.EXC_LOAD_ACCESS, addr)
        self._extra_cycles += result.complete_at - issue
        return int.from_bytes(result.data, "little")

    def store(self, addr: int, value: int, nbytes: int) -> None:
        addr &= MASK64
        if (self._cw0_lo <= addr < self._cw0_hi
                or self._cw1_lo <= addr < self._cw1_hi
                or (not self._cw_exact and self._is_cacheable(addr))):
            if self._dc_inline:
                line = addr >> self._dc_line_shift
                index = line & self._dc_index_mask
                if self._dc_tags.get(index) == line >> self._dc_tag_shift:
                    self.dcache.hits += 1
                    self._dc_dirty[index] = True
                else:
                    self._line_fill(addr, is_store=True)
            else:
                self._line_fill(addr, is_store=True)
            if self._fm_lo <= addr < self._fm_hi:
                self._fm_store(addr - self._fm_lo, value, nbytes)  # type: ignore[misc]
            else:
                self._data_store(addr, value, nbytes)
            self._code_store(addr, nbytes)
            return
        self.mmio_accesses += 1
        extra = self._extra_cycles + self._mmio_store_extra
        if self._branch_shadow:
            extra += self._mmio_shadow_extra
            self._branch_shadow = False
        issue = self.cycles + extra
        self._sync_time(issue)
        port = self._mmio_write_ports.get(addr * 16 + nbytes, _UNRESOLVED)
        if port is _UNRESOLVED:
            port = self._resolve_mmio_port(addr, nbytes, is_read=False)
        if port is not None:
            complete = port(value & ((1 << (8 * nbytes)) - 1), issue)  # type: ignore[operator]
            self._extra_cycles = extra + (complete - issue)
            return
        self._extra_cycles = extra
        data = (value & ((1 << (8 * nbytes)) - 1)).to_bytes(nbytes, "little")
        result = self.bus.write(addr, data, issue)
        if not result.ok:
            raise Trap(isa.EXC_STORE_ACCESS, addr)
        self._extra_cycles += result.complete_at - issue

    # ------------------------------------------------------------------
    # traps and interrupts
    # ------------------------------------------------------------------
    def take_trap(self, cause: int, tval: int = 0, *, interrupt: bool = False) -> None:
        self.trap_count += 1
        csr = self.csr
        csr.write(isa.CSR_MEPC, self.pc)
        csr.write(isa.CSR_MCAUSE, (isa.INTERRUPT_BIT | cause) if interrupt else cause)
        csr.write(isa.CSR_MTVAL, tval)
        mstatus = csr.mstatus
        mie_bit = (mstatus >> 3) & 1
        mstatus &= ~(isa.MSTATUS_MIE | isa.MSTATUS_MPIE) & MASK64
        mstatus |= mie_bit << 7  # MPIE <- MIE
        csr.mstatus = mstatus
        mtvec = csr.read(isa.CSR_MTVEC)
        base = mtvec & ~3 & MASK64
        if interrupt and (mtvec & 3) == 1:  # vectored mode
            base += 4 * cause
        self.pc = base
        # trap entry flushes the frontend like any redirect
        self._extra_cycles += self.timing.branch_taken_penalty

    def do_mret(self) -> int:
        csr = self.csr
        mstatus = csr.mstatus
        mpie = (mstatus >> 7) & 1
        mstatus &= ~isa.MSTATUS_MIE & MASK64
        mstatus |= mpie << 3  # MIE <- MPIE
        mstatus |= isa.MSTATUS_MPIE
        csr.mstatus = mstatus
        self._extra_cycles += self.timing.branch_taken_penalty
        return csr.read(isa.CSR_MEPC)

    def pending_interrupt(self) -> Optional[int]:
        """Highest-priority enabled pending interrupt, if deliverable."""
        if not (self.csr.mstatus & isa.MSTATUS_MIE):
            return None
        enabled = self.csr.mip & self.csr.mie
        if not enabled:
            return None
        for irq in _IRQ_PRIORITY:
            if enabled & (1 << irq):
                return irq
        return None

    # ------------------------------------------------------------------
    # fetch/decode/execute
    # ------------------------------------------------------------------
    def _fetch_decoded(self) -> Decoded:
        return self.decode_at(self.pc)

    def decode_at(self, pc: int) -> Decoded:
        if pc & 1:
            raise Trap(isa.EXC_INSTR_MISALIGNED, pc)
        raw = self._fetch(pc, 4)
        if len(raw) < 2:
            raise CpuError(f"fetch past end of memory at pc={pc:#x}")
        low = int.from_bytes(raw[:2], "little")
        if low & 3 == 3:
            if len(raw) < 4:
                raise CpuError(f"truncated instruction at pc={pc:#x}")
            word = int.from_bytes(raw, "little")
            cached = self._decode_cache.get(word)
            if cached is None:
                cached = decode(word, pc)
                self._decode_cache[word] = cached
            return cached
        cached = self._decode_cache.get(low)
        if cached is None:
            cached = expand(low, pc)
            self._decode_cache[low] = cached
        return cached

    def power_activity(self) -> dict:
        """Activity counters feeding the power model (repro.power).

        ``instret`` prices per-instruction dynamic energy, ``cycles``
        the active-vs-idle split; both are already maintained by the
        run loop, so this costs nothing on the execution path.
        """
        return {"cycles": self.cycles, "instret": self.instret}

    def invalidate_code_cache(self) -> None:
        """Drop all fused/decoded/compiled entries (after rewriting
        code; also the ``fence.i`` semantics)."""
        self._pc_cache.clear()
        self._decode_cache.clear()
        self._pc_cache_lo = 1 << 62
        self._pc_cache_hi = -1
        self._block_cache.clear()
        self._block_pages.clear()
        self._block_refused.clear()
        self._block_lo = 1 << 62
        self._block_hi = -1
        self._code_epoch += 1

    def _invalidate_blocks(self, addr: int, nbytes: int) -> None:
        """Drop every compiled block whose byte range overlaps the
        written range [addr, addr+nbytes); bumps the epoch so a block
        currently executing notices at its next epoch check."""
        pages = self._block_pages
        cache = self._block_cache
        end = addr + nbytes
        shift = BLOCK_PAGE_SHIFT
        removed = False
        for page in range(addr >> shift, ((end - 1) >> shift) + 1):
            entries = pages.get(page)
            if not entries:
                continue
            for entry_pc in list(entries):
                block = cache.get(entry_pc)
                if block is None:
                    entries.discard(entry_pc)
                    continue
                if block.start < end and block.end > addr:
                    del cache[entry_pc]
                    for spanned in range(block.start >> shift,
                                         ((block.end - 1) >> shift) + 1):
                        owners = pages.get(spanned)
                        if owners is not None:
                            owners.discard(entry_pc)
                    removed = True
        if removed:
            self._code_epoch += 1

    def _build_pc_entry(self, pc: int) -> tuple:
        """Fuse fetch+decode+dispatch for ``pc`` into one cache entry.

        The entry pre-resolves everything ``step`` would otherwise
        recompute per retire: the EXEC handler, the fixed multi-cycle
        cost of mul/div, and the unconditional-jump flag that charges
        the frontend redirect penalty.
        """
        d = self._fetch_decoded()
        handler = EXEC.get(d.name)
        if handler is None:
            raise Trap(isa.EXC_ILLEGAL_INSTR)
        name = d.name
        if name in ("mul", "mulh", "mulhsu", "mulhu", "mulw"):
            fixed = self.timing.mul_cycles - 1
        elif name.startswith(("div", "rem")):
            fixed = self.timing.div_cycles - 1
        else:
            fixed = 0
        entry = (handler, d, fixed, name == "jal" or name == "jalr")
        self._pc_cache[pc] = entry
        if pc < self._pc_cache_lo:
            self._pc_cache_lo = pc
        if pc > self._pc_cache_hi:
            self._pc_cache_hi = pc
        return entry

    def step(self) -> None:
        """Fetch, execute and retire one instruction (or take a trap)."""
        if self.halted:
            return
        irq = self.pending_interrupt()
        if irq is not None:
            self.in_wfi = False
            self.take_trap(irq, interrupt=True)
            self.cycles += self._extra_cycles
            self._extra_cycles = 0
            return
        if self.in_wfi:
            # stay asleep; the run loop advances time to the next event
            return
        self._extra_cycles = 0
        try:
            entry = self._pc_cache.get(self.pc)
            if entry is None:
                try:
                    entry = self._build_pc_entry(self.pc)
                except IllegalInstructionError as err:
                    raise Trap(isa.EXC_ILLEGAL_INSTR, err.word) from None
            handler, d, fixed, is_jump = entry
            next_pc = handler(self, d)
            if fixed:
                self._extra_cycles += fixed
            if next_pc is None:
                self.pc = (self.pc + d.size) & MASK64
            else:
                if is_jump:
                    self._extra_cycles += self.timing.branch_taken_penalty
                self.pc = next_pc
            self.instret += 1
            self.cycles += self.timing.base_cpi + self._extra_cycles
        except Trap as trap:
            self.cycles += self.timing.base_cpi + self._extra_cycles
            self._extra_cycles = 0
            self.take_trap(trap.cause, trap.tval)
            self.cycles += self._extra_cycles
        finally:
            self._extra_cycles = 0

    # ------------------------------------------------------------------
    # co-simulation run loop
    # ------------------------------------------------------------------
    def run(self, *, max_instructions: int = 200_000_000,
            until_halted: bool = True) -> int:
        """Run the hart together with the event queue.

        Returns the number of instructions retired.  Stops when the hart
        halts (``ebreak``) or ``max_instructions`` is exceeded (raises).
        """
        return self.run_until(None, max_instructions=max_instructions,
                              until_halted=until_halted)

    def run_until(self, deadline: int | None, *,
                  max_instructions: int = 200_000_000,
                  until_halted: bool = True) -> int:
        """Run until ``deadline`` (a cycle count), halt, or budget.

        ``deadline=None`` runs with no time bound (the :meth:`run`
        behaviour).  Per iteration: handle wfi, the event quantum and
        pending interrupts, then execute one compiled basic block
        (:mod:`repro.riscv.blocks`), falling back to a single
        :meth:`step` at pcs that do not begin a compilable block, when
        the remaining budget is smaller than the block, or when an
        idle-queue early exit must stop at single-instruction
        granularity.  A block that branches back to its own entry takes
        that back-edge inside its closure for as long as this loop would
        re-enter it, so it is given the remaining budget.  The result is
        the one-``step``-per-instruction loop's, retire for retire.
        """
        start_instret = self.instret
        budget = max_instructions
        sim = self.sim
        step = self.step
        peek = sim.peek_next_time
        advance = sim.advance_to
        cache = self._block_cache
        refused = self._block_refused
        big = 1 << 62
        dl = big if deadline is None else deadline
        while not self.halted:
            if self.cycles >= dl:
                break
            if self.in_wfi:
                nxt = peek()
                if nxt is None:
                    raise CpuError(
                        "hart is in wfi with no pending events: deadlock"
                    )
                target = max(nxt, self.cycles)
                advance(target)
                self.cycles = max(self.cycles, sim.now)
                if self.pending_interrupt() is not None or (
                    self.csr.mip & self.csr.mie
                ):
                    # wfi wakes on pending-and-enabled regardless of MIE
                    self.in_wfi = False
                    continue
                if peek() is None:
                    raise CpuError("wfi wake condition unreachable: deadlock")
                continue
            nxt = peek()
            if nxt is not None and self.cycles >= nxt:
                advance(self.cycles)
                nxt = peek()
            irq = self.pending_interrupt()
            if irq is not None:
                # step()'s interrupt branch, retired like one step
                self.in_wfi = False
                self.take_trap(irq, interrupt=True)
                self.cycles += self._extra_cycles
                self._extra_cycles = 0
                budget -= 1
                if budget <= 0:
                    raise CpuError(
                        f"instruction budget exceeded ({max_instructions})"
                    )
                if not until_halted and peek() is None:
                    break  # a step stops the run here too
                continue
            block = cache.get(self.pc)
            if block is None and self.pc not in refused:
                block = compile_block(self, self.pc)
                if block is None:
                    refused.add(self.pc)
            if (block is None or block.n_instr >= budget
                    or (not until_halted and nxt is None)):
                step()
                budget -= 1
            else:
                try:
                    limit = nxt if nxt is not None and nxt < dl else dl
                    budget -= block.fn(self, limit, dl, not until_halted,
                                       budget)
                except Trap as trap:
                    budget -= self._block_retired + 1
                    self.cycles += self.timing.base_cpi + self._extra_cycles
                    self._extra_cycles = 0
                    self.take_trap(trap.cause, trap.tval)
                    self.cycles += self._extra_cycles
                    self._extra_cycles = 0
            if budget <= 0:
                raise CpuError(
                    f"instruction budget exceeded ({max_instructions})"
                )
            if not until_halted and peek() is None:
                break
        # fold the hart's final time into the kernel
        if self.cycles > sim.now:
            advance(self.cycles)
        return self.instret - start_instret
