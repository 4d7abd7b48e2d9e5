"""Xilinx-style AXI DMA model (direct register mode).

Component (1) of the RV-CAP architecture: "a Xilinx DMA controller
connected to the SoC DDR controller through an additional crossbar...
configured to transfer a 64-bit data word from the SoC DDR memory"
(Sec. III-B), with its completion interrupts wired to the PLIC for the
non-blocking reconfiguration mode.

The register map follows the real IP (PG021) closely enough that the
paper's driver pseudo-code maps one-to-one: DMACR.RS starts the
channel, writing LENGTH triggers the transfer, DMASR reports
Halted/Idle/IOC_Irq, and the IOC interrupt fires on completion.

Transfers proceed burst-by-burst (128 B per burst at the default
16-beat * 64-bit burst), so the DDR port, the stream switch and the
ICAP all see correctly interleaved traffic, and a CPU polling DMASR
mid-transfer observes the true in-flight state.

A burst goes through the route's resolved ports, resolved once per
descriptor: the memory port's ``resolve_read``/``resolve_write`` (see
:data:`~repro.axi.interface.DataPort`) and the stream's
``resolve_accept``/``resolve_produce``.  Every slave, sink and source
has them, so a fault proxy or a window that leaves its crossbar region
runs the same loop; a failed burst (an injected fault, DECERR, SLVERR)
comes back as the port's response and ends the transfer in error.

The engine runs each descriptor as a handful of bulk events.  The
burst loop executes eagerly inside one callback, tracking the virtual
pacing position through ``Simulator.batch_advance`` instead of yielding
a ``Delay`` per burst.  Every data-plane call takes explicit timestamps
(memory ports, stream sinks/sources maintain their own ``busy_until``
watermarks), so eager execution inside the kernel's batch window —
bounded by the next foreign event and the caller's observation horizon
— produces the same timing as one event per pacing step.  When the next
pacing target would reach the window the engine falls back to yielding
a real ``Delay`` (split-on-interrupt), which preserves exact
interleaving with fault injectors, concurrent channels and CPU
observation, and keeps ``CR_RESET`` aborts working unchanged (the
generator is always suspended at a yield when foreign code runs).  The
one-event-per-step generator the model started with is kept as the
oracle in ``tests/property/test_dma_engine_equiv.py``, which pins this
engine to it.

On the reconfiguration route (crossbar -> ``DdrPort`` -> stream switch
-> pass-through ``Axis2Icap`` -> ``Icap``) the engine moves the
descriptor in *bulk steps*: a run of at least ``_MIN_BULK_BURSTS`` whole
bursts is scheduled at once, each layer computing its part in closed
form behind a bulk sibling of its resolved port (``resolve_bulk_read``,
``resolve_bulk_accept``).  The step cuts the run after the first burst
whose pacing target reaches the batch window, commits that prefix with
exactly the per-burst calls' side effects and leaves the clock where the
per-burst loop would.  The DDR refuses a run whose first burst does not
continue its sequential stream, so a descriptor's first burst and its
partial tail go burst by burst, as does every other route (fault
proxies, RLE decompression, a capped DDR device bandwidth, bursts longer
than a DDR row, or an ICAP holding a partial word).

S2MM spins on a source with no data yet (the accelerator filling its
pipeline) in closed form when the source declares its empty-poll law
(:meth:`~repro.axi.stream.StreamSource.poll_law`): every later poll
returns ``k`` cycles after the one before, so the engine moves the
clock to the last poll the loop would make before the batch window or
the spin bound in one step and yields the ``Delay`` that poll returns —
where, and as long as, the poll loop would.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import (TYPE_CHECKING, Callable, DefaultDict, Generator, Optional,
                    Tuple)

import numpy as np

from repro.axi.interface import AxiSlave, BulkRead, RegisterBank
from repro.axi.stream import BulkAccept, StreamSink, StreamSource
from repro.axi.types import AxiResp
from repro.errors import ControllerError
from repro.sim.kernel import Delay, Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter, Histogram
    from repro.obs.tracer import Span

# register offsets (PG021 subset)
MM2S_DMACR = 0x00
MM2S_DMASR = 0x04
MM2S_SA = 0x18
MM2S_SA_MSB = 0x1C
MM2S_LENGTH = 0x28
S2MM_DMACR = 0x30
S2MM_DMASR = 0x34
S2MM_DA = 0x48
S2MM_DA_MSB = 0x4C
S2MM_LENGTH = 0x58

CR_RS = 1 << 0
CR_RESET = 1 << 2
CR_IOC_IRQ_EN = 1 << 12
CR_ERR_IRQ_EN = 1 << 14

SR_HALTED = 1 << 0
SR_IDLE = 1 << 1
SR_IOC_IRQ = 1 << 12
SR_ERR_IRQ = 1 << 14

#: shortest run of whole bursts the engine schedules as one bulk step;
#: shorter runs cost less burst by burst than planning them
_MIN_BULK_BURSTS = 8
#: empty S2MM polls batched back to back before the engine yields a
#: real event, so a source that never fills still shows as queue
#: traffic (and trips the kernel's runaway-event guard)
_MAX_SPINS = 4096


def _polls_to_yield(k: int, ready: int, window: float, spins: int) -> int:
    """Empty polls the S2MM spin makes after its ``spins``-th returned
    ``ready`` inside the window, up to and including the first whose
    result meets the batch window or the spin bound, when every poll
    returns ``k`` cycles after the one before."""
    polls = _MAX_SPINS - spins
    if window != math.inf:
        polls = min(polls, -(-int(window - ready) // k))
    return polls


class DmaChannel:
    """One DMA channel (MM2S: memory->stream, or S2MM: stream->memory)."""

    def __init__(
        self,
        name: str,
        sim: Simulator,
        mem_port: AxiSlave,
        *,
        is_mm2s: bool,
        burst_beats: int = 16,
        beat_bytes: int = 8,
        start_latency: int = 24,
    ) -> None:
        self.name = name
        self.sim = sim
        self.mem_port = mem_port
        self.is_mm2s = is_mm2s
        self.burst_bytes = burst_beats * beat_bytes
        self.start_latency = start_latency
        self.sink: Optional[StreamSink] = None
        self.source: Optional[StreamSource] = None
        self.irq_callback: Optional[Callable[[], None]] = None

        self.control = 0
        self.status = SR_HALTED
        self.address = 0
        self.length = 0
        self.bytes_done = 0
        self.busy = False
        #: activity counters, maintained unconditionally (plain int
        #: adds on the burst schedule)
        self.bursts_completed = 0
        self.transfers_completed = 0
        self.transfers_errored = 0
        self.transfers_aborted = 0
        self.last_start_cycle = 0
        self.last_complete_cycle = 0
        self._active_gen = None  # in-flight _run generator (for reset abort)
        #: the channel's trace track and simulator process name
        self._track = f"dma.{name}"
        # observability (attach_obs): tracer spans + metric instruments;
        # every emit below is guarded so the detached cost is one check
        self.obs: Optional["Observability"] = None
        self._span: Optional["Span"] = None
        self._h_burst: Optional["Histogram"] = None
        self._h_transfer: Optional["Histogram"] = None
        self._c_bytes: Optional["Counter"] = None
        self._c_stall: Optional["Counter"] = None

    def attach_obs(self, obs: "Observability") -> None:
        """Wire the channel into an :class:`~repro.obs.Observability`.

        The busy signal mirrors the channel's transfer spans.
        """
        self.obs = obs
        obs.tracer.mirror(f"dma_{self.name}_busy", self._track, "transfer")
        metrics = obs.metrics
        self._h_burst = metrics.histogram(
            f"dma_{self.name}_burst_latency_cycles",
            "per-burst memory-port latency of the DMA engine")
        self._h_transfer = metrics.histogram(
            f"dma_{self.name}_transfer_cycles",
            "end-to-end cycles per completed DMA transfer")
        self._c_bytes = metrics.counter(
            f"dma_{self.name}_bytes_total",
            "payload bytes moved by the channel")
        self._c_stall = metrics.counter(
            f"dma_{self.name}_stall_cycles_total",
            "cycles the engine paced itself behind memory or the sink")

    # ------------------------------------------------------------------
    # register behaviour (invoked by AxiDma)
    # ------------------------------------------------------------------
    def write_cr(self, value: int) -> None:
        if value & CR_RESET:
            if self._active_gen is not None:
                # a soft reset aborts the in-flight transfer engine: the
                # generator unwinds (GeneratorExit) and never reports
                # completion, so no stale data reaches the stream side
                self._active_gen.close()
                self._active_gen = None
                self.transfers_aborted += 1
                if self.obs is not None:
                    now = self.sim.now
                    tracer = self.obs.tracer
                    if self._span is not None:
                        tracer.end(self._span, now,
                                   status="aborted", bytes=self.bytes_done)
                        self._span = None
                    tracer.instant(self._track, "reset", now,
                                   bytes_done=self.bytes_done)
            self.control = 0
            self.status = SR_HALTED
            self.busy = False
            return
        self.control = value & 0xFFFF_FFFF
        if value & CR_RS:
            self.status &= ~SR_HALTED
        else:
            self.status |= SR_HALTED

    def read_sr(self) -> int:
        return self.status

    def write_sr(self, value: int) -> None:
        # interrupt bits are write-one-to-clear
        self.status &= ~(value & (SR_IOC_IRQ | SR_ERR_IRQ))

    def write_length(self, value: int) -> None:
        """Writing a non-zero LENGTH launches the transfer (PG021)."""
        self.length = value & 0x03FF_FFFF
        if not self.length:
            return
        if not self.control & CR_RS:
            raise ControllerError(
                f"DMA {self.name}: LENGTH written while channel stopped"
            )
        if self.busy:
            raise ControllerError(
                f"DMA {self.name}: LENGTH written while transfer in flight"
            )
        self.busy = True
        self.status &= ~SR_IDLE
        self.bytes_done = 0
        self.last_start_cycle = now = self.sim.now
        if self.obs is not None:
            self._span = self.obs.tracer.begin(
                self._track, "transfer", now,
                address=self.address, length=self.length)
        self._active_gen = self._run()
        self.sim.add_process(self._active_gen, name=self._track)

    # ------------------------------------------------------------------
    # the transfer engine
    # ------------------------------------------------------------------
    def _run(self) -> Generator[Delay, None, None]:
        yield Delay(self.start_latency)
        ok = yield from (self._run_mm2s() if self.is_mm2s
                         else self._run_s2mm())
        self.busy = False
        self._active_gen = None
        self.last_complete_cycle = now = self.sim.now
        if not ok:
            # PG021 error semantics: the channel halts, DMASR.Err_Irq
            # latches, and the run/stop bit drops.  The transfer is NOT
            # reported complete — no IDLE, no IOC, no completion count.
            self.status |= SR_ERR_IRQ | SR_HALTED
            self.control &= ~CR_RS
            self.transfers_errored += 1
            if self.obs is not None:
                tracer = self.obs.tracer
                if self._span is not None:
                    tracer.end(self._span, now, status="error",
                               bytes=self.bytes_done)
                    self._span = None
                tracer.instant(self._track, "error", now,
                               bytes_done=self.bytes_done)
            if self.control & CR_ERR_IRQ_EN and self.irq_callback is not None:
                self.irq_callback()
            return
        self.status |= SR_IDLE | SR_IOC_IRQ
        self.transfers_completed += 1
        if self.obs is not None:
            if self._span is not None:
                self.obs.tracer.end(self._span, now, status="ok",
                                    bytes=self.bytes_done)
                self._span = None
            self._h_transfer.record(  # type: ignore[union-attr]
                now - self.last_start_cycle)
            self._c_bytes.value += self.bytes_done  # type: ignore[union-attr]
        if self.control & CR_IOC_IRQ_EN and self.irq_callback is not None:
            self.irq_callback()

    # ------------------------------------------------------------------
    # the burst schedule, executed eagerly inside the kernel's batch
    # window (see module docstring).  The
    # invariant maintained throughout is ``sim.now == pacing position``:
    # every step either batch-advances the clock or yields a real Delay,
    # so error returns, CR_RESET aborts and side-effect callbacks (ICAP
    # completion, IRQs) all observe exactly the generator-model time.
    # ------------------------------------------------------------------
    def _flush_obs(self, latencies: DefaultDict[int, int]) -> None:
        """Fold the burst latencies counted since the last flush (a
        transfer's bursts take a handful of distinct values) into the
        histogram.

        Called, when any were counted, before every real yield (the
        only points where the generator can be unwound by
        ``CR_RESET``) and at every return, so the histogram never
        trails the burst schedule at any point foreign code can observe
        it.  The stall counter advances at every pacing step.
        """
        record_count = self._h_burst.record_count  # type: ignore[union-attr]
        for value, count in latencies.items():
            record_count(value, count)
        latencies.clear()

    def _resolve_bulk(self, addr: int, length: int
                      ) -> Optional[Tuple[BulkRead, BulkAccept]]:
        """The route's bulk read and bulk accept, or ``None`` unless
        every layer from the memory port to the sink resolves one."""
        resolve_read = getattr(self.mem_port, "resolve_bulk_read", None)
        resolve_accept = getattr(self.sink, "resolve_bulk_accept", None)
        if resolve_read is None or resolve_accept is None:
            return None
        accept = resolve_accept()
        read = resolve_read(addr, addr + length) if accept is not None else None
        return None if read is None else (read, accept)

    def _bulk_step(self, bulk: Tuple[BulkRead, BulkAccept], addr: int,
                   count: int, read_time: int
                   ) -> Optional[Tuple[int, int, int, int]]:
        """Run the next ``count`` whole bursts as one scheduled step.

        The step schedules the whole run, cuts it after the first burst
        whose pacing target reaches the batch window (where the
        per-burst loop would yield) and commits that prefix with the
        per-burst calls' side effects.  The clock ends at the pacing
        position before the prefix's last burst, which the caller paces
        like any other.  Returns ``(bytes, read_time, accept_done,
        advanced)`` for the prefix, ``advanced`` being the cycles the
        clock moved, or ``None`` when the window is shut or a layer
        refuses the run.
        """
        read, plan_accept = bulk
        burst = self.burst_bytes
        sim = self.sim
        now = sim.now
        window = sim.batch_window()
        if window <= now:
            return None
        planned = read(addr, burst, count, read_time, 0)
        if planned is None:
            return None
        read_done, commit_read = planned
        accepted = plan_accept(read_done, burst)
        if accepted is None:
            return None
        accept_done, commit_accept = accepted
        # the pacing target max(accept_done - burst, read_done) never
        # decreases, so the first burst whose target reaches the window
        # is the earlier of the two series' first crossings
        cut = min(int(accept_done.searchsorted(window + burst)),
                  int(read_done.searchsorted(window)))
        n = cut + 1 if cut < count else count
        commit_accept(commit_read(n), n)
        self.bytes_done += n * burst
        self.bursts_completed += n
        histogram = self._h_burst
        if histogram is not None:
            histogram.record(int(read_done[0]) - read_time)
            # every later burst issues when the previous one completes;
            # their latencies take one or two small values
            steady = read_done[1:n] - read_done[:n - 1]
            for value, repeat in enumerate(np.bincount(steady).tolist()):
                if repeat:
                    histogram.record_count(value, repeat)
        advanced = 0
        if n > 1:
            before = max(int(accept_done[n - 2]) - burst,
                         int(read_done[n - 2]))
            if before > now:
                sim.batch_advance(before)
                advanced = before - now
        return (n * burst, int(read_done[n - 1]), int(accept_done[n - 1]),
                advanced)

    def _run_mm2s(self) -> Generator[Delay, None, bool]:
        if self.sink is None:
            raise ControllerError(f"DMA {self.name}: no stream sink attached")
        sim = self.sim
        batch_window = sim.batch_window
        batch_advance = sim.batch_advance
        burst = self.burst_bytes
        addr = self.address
        remaining = self.length
        read_time = sim.now
        accept_done = sim.now
        observed = self.obs is not None
        latencies: DefaultDict[int, int] = defaultdict(int)
        stall_counter = self._c_stall
        okay = AxiResp.OKAY
        # the route's resolved ports, called once per burst (module
        # docstring); a failed burst comes back as the read's resp
        read = self.mem_port.resolve_read(addr, addr + remaining)
        accept = self.sink.resolve_accept()
        # bulk step: runs of whole bursts on a route that schedules
        # them in closed form (module docstring)
        bulk = self._resolve_bulk(addr, remaining)
        while remaining:
            count = remaining // burst
            step: Optional[Tuple[int, int, int, int]] = None
            if count >= _MIN_BULK_BURSTS and bulk is not None:
                step = self._bulk_step(bulk, addr, count, read_time)
            if step is not None:
                nbytes, read_time, accept_done, advanced = step
                if stall_counter is not None:
                    stall_counter.value += advanced
            else:
                nbytes = burst if burst < remaining else remaining
                issue_time = read_time
                data, read_time, resp = read(addr, nbytes, issue_time)
                if resp is not okay:
                    if latencies:
                        self._flush_obs(latencies)
                    return False
                accept_done = accept(data, read_time)
                self.bytes_done += nbytes
                self.bursts_completed += 1
                if observed:
                    latencies[read_time - issue_time] += 1
            addr += nbytes
            remaining -= nbytes
            # pace the engine: at most one burst ahead of the consumer
            target = accept_done - burst
            if read_time > target:
                target = read_time
            now = sim.now
            if target > now:
                if stall_counter is not None:
                    stall_counter.value += target - now
                if target < batch_window():
                    batch_advance(target)
                else:
                    if latencies:
                        self._flush_obs(latencies)
                    yield Delay(target - now)
        final = read_time if read_time > accept_done else accept_done
        if latencies:
            self._flush_obs(latencies)
        if final > sim.now:
            yield Delay(final - sim.now)
        return True

    def _run_s2mm(self) -> Generator[Delay, None, bool]:
        if self.source is None:
            raise ControllerError(f"DMA {self.name}: no stream source attached")
        sim = self.sim
        batch_window = sim.batch_window
        batch_advance = sim.batch_advance
        burst = self.burst_bytes
        addr = self.address
        remaining = self.length
        pull_time = sim.now
        write_time = sim.now
        observed = self.obs is not None
        latencies: DefaultDict[int, int] = defaultdict(int)
        stall_counter = self._c_stall
        spins = 0
        okay = AxiResp.OKAY
        write = self.mem_port.resolve_write(addr, addr + remaining)
        produce = self.source.resolve_produce()
        poll_law = self.source.poll_law
        while remaining:
            nbytes = burst if burst < remaining else remaining
            now = sim.now
            data, ready = produce(nbytes, pull_time if pull_time > now else now)
            if not data:
                if ready > now:
                    # source not ready: batch the retry when the window
                    # allows, with a spin bound so a perpetually stalled
                    # source still surfaces as queue traffic (and hits
                    # the kernel's runaway-event guard) instead of
                    # spinning eagerly forever
                    spins += 1
                    window = batch_window()
                    if spins < _MAX_SPINS and ready < window:
                        law = poll_law()
                        if law is None:
                            batch_advance(ready)
                            continue
                        # this poll met the law's floor, so every later
                        # one returns k cycles after the one before:
                        # land on the last poll the loop makes, the
                        # first whose result meets the window or the
                        # spin bound, and yield what it returns
                        k = law[0]
                        now = ready + (_polls_to_yield(k, ready, window,
                                                       spins) - 1) * k
                        batch_advance(now)
                        ready = now + k
                    spins = 0
                    if latencies:
                        self._flush_obs(latencies)
                    yield Delay(ready - now)
                    continue
                break
            spins = 0
            pull_time = ready
            issue_time = pull_time if pull_time > write_time else write_time
            _, write_time, resp = write(addr, data, issue_time)
            if resp is not okay:
                if latencies:
                    self._flush_obs(latencies)
                return False
            ndata = len(data)
            addr += ndata
            remaining -= ndata
            self.bytes_done += ndata
            self.bursts_completed += 1
            if observed:
                latencies[write_time - issue_time] += 1
            target = write_time - burst
            if pull_time > target:
                target = pull_time
            now = sim.now
            if target > now:
                if stall_counter is not None:
                    stall_counter.value += target - now
                if target < batch_window():
                    batch_advance(target)
                else:
                    if latencies:
                        self._flush_obs(latencies)
                    yield Delay(target - now)
        final = pull_time if pull_time > write_time else write_time
        if latencies:
            self._flush_obs(latencies)
        if final > sim.now:
            yield Delay(final - sim.now)
        return True


class AxiDma(RegisterBank):
    """The AXI DMA IP: AXI4-Lite control port + two channels."""

    lite_only = True  # 32-bit AXI4-Lite port: DRC requires a protocol converter

    def __init__(
        self,
        sim: Simulator,
        mem_port: AxiSlave,
        *,
        mem_port_s2mm: AxiSlave | None = None,
        burst_beats: int = 16,
        start_latency: int = 24,
    ) -> None:
        super().__init__("axi_dma", size=0x1000)
        self.sim = sim
        self.mm2s = DmaChannel("mm2s", sim, mem_port, is_mm2s=True,
                               burst_beats=burst_beats,
                               start_latency=start_latency)
        self.s2mm = DmaChannel("s2mm", sim, mem_port_s2mm or mem_port,
                               is_mm2s=False, burst_beats=burst_beats,
                               start_latency=start_latency)

        cr_mask = CR_RS | CR_RESET | CR_IOC_IRQ_EN | CR_ERR_IRQ_EN
        sr_w1c = SR_IOC_IRQ | SR_ERR_IRQ  # interrupt bits, write-1-to-clear
        self.define_register(MM2S_DMACR, on_write=self.mm2s.write_cr,
                             write_mask=cr_mask)
        self.define_register(MM2S_DMASR, on_read=lambda _o: self.mm2s.read_sr(),
                             on_write=self.mm2s.write_sr, write_mask=sr_w1c)
        self.define_register(MM2S_SA, on_write=self._set_mm2s_sa_lo)
        self.define_register(MM2S_SA_MSB, on_write=self._set_mm2s_sa_hi)
        self.define_register(MM2S_LENGTH, on_write=self.mm2s.write_length,
                             write_mask=0x03FF_FFFF)
        self.define_register(S2MM_DMACR, on_write=self.s2mm.write_cr,
                             write_mask=cr_mask)
        self.define_register(S2MM_DMASR, on_read=lambda _o: self.s2mm.read_sr(),
                             on_write=self.s2mm.write_sr, write_mask=sr_w1c)
        self.define_register(S2MM_DA, on_write=self._set_s2mm_da_lo)
        self.define_register(S2MM_DA_MSB, on_write=self._set_s2mm_da_hi)
        self.define_register(S2MM_LENGTH, on_write=self.s2mm.write_length,
                             write_mask=0x03FF_FFFF)

    def attach_obs(self, obs: "Observability") -> None:
        """Attach observability to both channels."""
        self.mm2s.attach_obs(obs)
        self.s2mm.attach_obs(obs)

    def _set_mm2s_sa_lo(self, value: int) -> None:
        self.mm2s.address = (self.mm2s.address & ~0xFFFF_FFFF) | value

    def _set_mm2s_sa_hi(self, value: int) -> None:
        self.mm2s.address = (self.mm2s.address & 0xFFFF_FFFF) | (value << 32)

    def _set_s2mm_da_lo(self, value: int) -> None:
        self.s2mm.address = (self.s2mm.address & ~0xFFFF_FFFF) | value

    def _set_s2mm_da_hi(self, value: int) -> None:
        self.s2mm.address = (self.s2mm.address & 0xFFFF_FFFF) | (value << 32)
