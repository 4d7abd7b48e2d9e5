"""The RV-CAP driver API (Listing 1 of the paper).

The reconfiguration flow::

    init_RModules(...)            # PbitStore.init_rmodules
    init_reconfig_process():
        decouple_accel(1)
        select_ICAP(1)
        reconfigure_RP(start_address, pbit_size, mode)
        decouple_accel(0)

``reconfigure_RP`` starts the DMA read channel and, in non-blocking
(interrupt) mode, the completion is signalled through the PLIC; the
driver's ISR claims the interrupt, clears the DMA status and re-couples
the partition.  Timing is measured with the CLINT exactly like the
paper: T_d from API entry to the DMA kick, T_r from the start of the
data transfer until the transfer-complete interrupt is handled.

Error handling: a failed DMA burst raises the same PLIC source with
DMASR.Err_Irq latched instead of IOC; the ISR distinguishes the two and
the driver never reports an errored transfer, or one whose ICAP session
ended other than ``configured``, as a completion.  Every wait is
timeout-bounded, every failure path resets the ICAP parser and restores
the RP coupling and switch routing, and :meth:`RvCapDriver.recover_and_retry`
runs the full recovery (abort, parser reset, re-couple, backoff, retry).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, cast

from repro.accel.base import StreamAccelerator
from repro.core import dma as dma_regs
from repro.core import rp_control as rp_regs
from repro.drivers.fileio import RmDescriptor
from repro.drivers.mmio import HostPort
from repro.drivers.timer import ClintTimer
from repro.errors import (
    BusError,
    ControllerError,
    ReconfigAbortError,
    ReconfigTimeoutError,
)
from repro.soc.config import IRQ_DMA_MM2S, IRQ_DMA_S2MM
from repro.soc.plic import CLAIM_OFFSET, ENABLE_OFFSET, PRIORITY_BASE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.tracer import Span, SpanTracer


@dataclass(frozen=True)
class ReconfigResult:
    """Timing record of one reconfiguration (paper Sec. IV-B units)."""

    module: str
    pbit_size: int
    td_us: float
    tr_us: float

    @property
    def throughput_mb_s(self) -> float:
        return self.pbit_size / (self.tr_us * 1e-6) / 1e6


class RvCapDriver:
    """Driver for the RV-CAP controller (host-driver mode)."""

    def __init__(self, port: HostPort) -> None:
        self.port = port
        layout = port.soc.config.layout
        self.rp_ctrl_base = layout.rp_ctrl_base
        self.dma_base = layout.dma_base
        self.plic_base = layout.plic_base
        self.timer = ClintTimer(port)
        self._plic_ready = False
        self._rm_selected = 0  # mirrors the RM_SELECT reset value
        #: instruments resolved per Observability, each group on the
        #: path that first updates it (so a run that never completes a
        #: reconfiguration exports no reconfiguration metrics)
        self._instruments_of: Optional["Observability"] = None
        self._instruments: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # observability plumbing
    # ------------------------------------------------------------------
    @property
    def obs(self) -> Optional["Observability"]:
        """The SoC's attached observability (None when detached)."""
        return getattr(self.port.soc, "obs", None)

    def _resolved(self, obs: "Observability") -> Dict[str, Any]:
        """This driver's instruments in ``obs``, by group."""
        if self._instruments_of is not obs:
            self._instruments_of = obs
            self._instruments = {}
        return self._instruments

    # ------------------------------------------------------------------
    # Listing-1 primitives
    # ------------------------------------------------------------------
    def decouple_accel(self, value: int) -> None:
        """Decouple each RP whose DECOUPLE bit is set (RP i is bit i);
        0 couples every RP to the static region again."""
        self.port.write32(self.rp_ctrl_base + rp_regs.DECOUPLE_OFFSET, value)

    def select_icap(self, value: int) -> None:
        """Route the AXIS switch to the ICAP (1) or the RM (0)."""
        self.port.write32(self.rp_ctrl_base + rp_regs.SELECT_ICAP_OFFSET, value)

    def select_rm(self, rp_index: int) -> None:
        """Pick which RP's module sits on the acceleration datapath.

        The register write is skipped when the selection is already
        current (the driver mirrors the register, like real drivers do).
        """
        if rp_index != self._rm_selected:
            self.port.write32(self.rp_ctrl_base + rp_regs.RM_SELECT_OFFSET,
                              rp_index)
            self._rm_selected = rp_index

    def dma_start(self, *, irq_enabled: bool) -> None:
        """Set the DMA CR run/stop bit (and the interrupt mode)."""
        control = dma_regs.CR_RS
        if irq_enabled:
            # both completion and error interrupts ride the same PLIC
            # source; the ISR reads DMASR to tell them apart
            control |= dma_regs.CR_IOC_IRQ_EN | dma_regs.CR_ERR_IRQ_EN
        self.port.write32(self.dma_base + dma_regs.MM2S_DMACR, control)

    def dma_reset(self) -> None:
        """Soft-reset both DMA channels, aborting any in-flight transfer.

        The AXIS switch refuses to re-route while either channel is
        busy, so every failure path stops both before it selects the
        acceleration path again.
        """
        self.port.write32(self.dma_base + dma_regs.MM2S_DMACR,
                          dma_regs.CR_RESET)
        self.port.write32(self.dma_base + dma_regs.S2MM_DMACR,
                          dma_regs.CR_RESET)

    def reset_icap(self) -> None:
        """Reset the ICAP packet parser through the RP-control register."""
        self.port.write32(self.rp_ctrl_base + rp_regs.ICAP_RESET_OFFSET, 1)

    def dma_write_stream(self, address: int, nbytes: int) -> None:
        """Program SA and LENGTH; the LENGTH write launches the DMA."""
        self.port.write32(self.dma_base + dma_regs.MM2S_SA, address & 0xFFFF_FFFF)
        self.port.write32(self.dma_base + dma_regs.MM2S_SA_MSB, address >> 32)
        self.port.write32(self.dma_base + dma_regs.MM2S_LENGTH, nbytes)

    # ------------------------------------------------------------------
    # PLIC plumbing for non-blocking mode
    # ------------------------------------------------------------------
    def setup_interrupts(self) -> None:
        if self._plic_ready:
            return
        for source in (IRQ_DMA_MM2S, IRQ_DMA_S2MM):
            self.port.write32(self.plic_base + PRIORITY_BASE + 4 * source, 7)
        self.port.write32(self.plic_base + ENABLE_OFFSET,
                          (1 << IRQ_DMA_MM2S) | (1 << IRQ_DMA_S2MM))
        self._plic_ready = True

    def _timeout_cycles(self, timeout_us: float | None) -> int:
        timing = self.port.soc.config.timing
        us = timing.reconfig_timeout_us if timeout_us is None else timeout_us
        return max(1, int(us * timing.soc_freq_hz / 1e6))

    def _handle_completion_irq(self, expected_source: int,
                               status_offset: int, *,
                               timeout_us: float | None = None,
                               tracer: "Optional[SpanTracer]" = None,
                               transfer: "Optional[Span]" = None) -> None:
        """The ISR: claim, read DMASR, clear the cause bit, complete.

        With a ``tracer`` the ISR is an ``isr`` span, and the open
        ``transfer`` span (a reconfiguration's) ends where it starts.
        Raises :class:`ReconfigTimeoutError` when no interrupt arrives
        within the deadline and :class:`ControllerError` when the DMA
        reports a transfer error instead of a completion.
        """
        plic = self.port.soc.plic
        try:
            self.port.wait_for(lambda: plic.pending & plic.enable,
                               timeout_cycles=self._timeout_cycles(timeout_us))
        except BusError as exc:
            raise ReconfigTimeoutError(
                "no DMA interrupt within the completion deadline "
                "(transfer stalled or externally aborted)"
            ) from exc
        isr_span = None
        if tracer is not None:
            now = self.port.soc.sim.now
            if transfer is not None:
                channel = (self.port.soc.rvcap.dma.mm2s
                           if expected_source == IRQ_DMA_MM2S
                           else self.port.soc.rvcap.dma.s2mm)
                tracer.end(transfer, now,
                           dma_done_cycle=channel.last_complete_cycle)
            isr_span = tracer.begin("driver", "isr", now)
        # trap entry, context save and handler dispatch before the body
        self.port.elapse(self.port.soc.config.timing.isr_latency_cycles)
        source = self.port.read32(self.plic_base + CLAIM_OFFSET)
        if source != expected_source:
            raise ControllerError(
                f"unexpected PLIC source {source}, wanted {expected_source}"
            )
        status = self.port.read32(self.dma_base + status_offset)
        if status & dma_regs.SR_ERR_IRQ:
            self.port.write32(self.dma_base + status_offset,
                              dma_regs.SR_ERR_IRQ)
            self.port.write32(self.plic_base + CLAIM_OFFSET, source)
            raise ControllerError(
                "DMA transfer error (DMASR.Err_Irq): the data stream "
                "stopped before the bitstream was delivered"
            )
        self.port.write32(self.dma_base + status_offset, dma_regs.SR_IOC_IRQ)
        self.port.write32(self.plic_base + CLAIM_OFFSET, source)
        if tracer is not None and isr_span is not None:
            tracer.end(isr_span, self.port.soc.sim.now, source=source)

    def _poll_completion(self, status_offset: int, *,
                         timeout_us: float | None = None,
                         tracer: "Optional[SpanTracer]" = None,
                         transfer: "Optional[Span]" = None) -> None:
        """Blocking mode: spin on DMASR until idle, errored or halted.

        ``tracer`` and ``transfer`` as for the ISR; the completion is a
        ``complete`` span.
        """
        def read_sr() -> int:
            return self.port.read32(self.dma_base + status_offset)

        def settled() -> bool:
            return bool(read_sr() & (dma_regs.SR_IDLE | dma_regs.SR_ERR_IRQ
                                     | dma_regs.SR_HALTED))
        try:
            self.port.wait_for(settled,
                               timeout_cycles=self._timeout_cycles(timeout_us))
        except BusError as exc:
            raise ReconfigTimeoutError(
                "DMASR never settled within the completion deadline"
            ) from exc
        complete_span = None
        if tracer is not None:
            now = self.port.soc.sim.now
            if transfer is not None:
                channel = (self.port.soc.rvcap.dma.mm2s
                           if status_offset == dma_regs.MM2S_DMASR
                           else self.port.soc.rvcap.dma.s2mm)
                tracer.end(transfer, now,
                           dma_done_cycle=channel.last_complete_cycle)
            complete_span = tracer.begin("driver", "complete", now)
        status = read_sr()
        if status & dma_regs.SR_ERR_IRQ:
            self.port.write32(self.dma_base + status_offset,
                              dma_regs.SR_ERR_IRQ)
            raise ControllerError(
                "DMA transfer error (DMASR.Err_Irq): the data stream "
                "stopped before the bitstream was delivered"
            )
        if not status & dma_regs.SR_IDLE:
            # halted without idle: the channel was reset mid-transfer
            raise ReconfigAbortError(
                "DMA halted mid-transfer (channel reset before completion)"
            )
        self.port.write32(self.dma_base + status_offset, dma_regs.SR_IOC_IRQ)
        if tracer is not None and complete_span is not None:
            tracer.end(complete_span, self.port.soc.sim.now)

    # ------------------------------------------------------------------
    # the reconfiguration process (Listing 1)
    # ------------------------------------------------------------------
    def init_reconfig_process(self, descriptor: RmDescriptor, *,
                              mode: str = "interrupt",
                              timeout_us: float | None = None) -> ReconfigResult:
        """Load the RM described by ``descriptor`` into the RP.

        Succeeds only when this transfer's ICAP session ends
        ``configured``.  On any failure the driver restores a safe
        state — DMA stopped, ICAP parser reset, AXIS switch back to the
        acceleration path, RP re-coupled — before the error propagates.
        """
        if mode not in ("interrupt", "polling"):
            raise ControllerError(f"unknown DMA mode {mode!r}")
        if mode == "interrupt":
            self.setup_interrupts()
        soc = self.port.soc
        sim = soc.sim
        icap = soc.icap
        session = icap.sessions_opened + 1  # the session this load opens
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        if tracer is not None:
            tracer.begin("driver", "reconfig", sim.now,
                         module=descriptor.name,
                         pbit_size=descriptor.pbit_size, mode=mode)
        t_entry = self.timer.read_ticks()
        if tracer is not None:
            decision = tracer.begin("driver", "decision", sim.now)
        # software decision time: select the requested RM, prepare the
        # descriptor, and decide between ICAP and accelerator paths
        self.port.elapse(soc.config.timing.decision_cycles)
        if tracer is not None:
            now = sim.now
            tracer.end(decision, now)
            decouple = tracer.begin("driver", "decouple", now)
        transfer = None
        try:
            self.decouple_accel(1 << soc.module_rp_index(descriptor.name))
            self.select_icap(1)
            if tracer is not None:
                tracer.end(decouple, sim.now)
            self.dma_start(irq_enabled=(mode == "interrupt"))
            t_start = self.timer.read_ticks()
            # the Tr window opens exactly where the CLINT measurement
            # does: at the cycle t_start was sampled.  Its children
            # (kick, transfer, isr/complete) are contiguous, so their
            # cycle sum equals the window duration by construction —
            # the breakdown report asserts that identity.
            if tracer is not None:
                c0 = sim.now
                tr_window = tracer.begin("driver", "tr_window", c0)
                kick = tracer.begin("driver", "kick", c0)
            self.dma_write_stream(descriptor.start_address,
                                  descriptor.pbit_size)
            if tracer is not None:
                now = sim.now
                tracer.end(kick, now)
                transfer = tracer.begin("driver", "transfer", now)
            if mode == "interrupt":
                self._handle_completion_irq(IRQ_DMA_MM2S, dma_regs.MM2S_DMASR,
                                            timeout_us=timeout_us,
                                            tracer=tracer, transfer=transfer)
            else:
                self._poll_completion(dma_regs.MM2S_DMASR,
                                      timeout_us=timeout_us,
                                      tracer=tracer, transfer=transfer)
            if tracer is not None:
                tr_end = sim.now
                tracer.end(tr_window, tr_end)
            fault = icap.session_fault(session)
            if fault is not None:
                raise ControllerError(
                    f"reconfiguration of {descriptor.name!r} failed: {fault}")
        except Exception:
            if obs is not None:
                obs.tracer.end_open("driver", sim.now, status="error")
                obs.metrics.counter(
                    "driver_reconfig_failures_total",
                    "init_reconfig_process calls that raised").inc()
            # a timed-out transfer is still streaming; stop it first,
            # the switch does not re-route under a busy channel
            self.dma_reset()
            self.reset_icap()
            self.select_icap(0)
            self.decouple_accel(0)
            raise
        t_done = self.timer.read_ticks()
        if tracer is not None:
            recouple = tracer.begin("driver", "recouple", sim.now)
        self.select_icap(0)
        self.decouple_accel(0)
        result = ReconfigResult(
            module=descriptor.name,
            pbit_size=descriptor.pbit_size,
            td_us=self.timer.ticks_to_us(t_start - t_entry),
            tr_us=self.timer.ticks_to_us(t_done - t_start),
        )
        if obs is not None:
            now = sim.now
            obs.tracer.end(recouple, now)
            obs.tracer.end_open("driver", now)  # close the reconfig root
            instruments = self._resolved(obs)
            reconfig = instruments.get("reconfig")
            if reconfig is None:
                metrics = obs.metrics
                reconfig = instruments["reconfig"] = (
                    metrics.counter(
                        "driver_reconfigurations_total",
                        "completed init_reconfig_process calls"),
                    metrics.histogram(
                        "driver_tr_cycles",
                        "Tr window duration per reconfiguration"),
                    metrics.gauge(
                        "driver_last_tr_us",
                        "CLINT-measured Tr of the most recent DPR"),
                    metrics.gauge(
                        "driver_last_td_us",
                        "CLINT-measured Td of the most recent DPR"))
            completed, tr_histogram, last_tr, last_td = reconfig
            completed.value += 1
            tr_histogram.record(tr_end - c0)
            last_tr.value = result.tr_us
            last_td.value = result.td_us
        return result

    # ------------------------------------------------------------------
    # fault recovery
    # ------------------------------------------------------------------
    def abort_reconfig(self) -> None:
        """Abort an in-flight reconfiguration and restore a safe state.

        Stops both DMA channels (aborting the transfer engines), clears
        any latched MM2S status bits, resets the ICAP packet parser so
        a half-delivered bitstream cannot poison the next session, and
        re-couples the RP with the switch on the acceleration path.
        """
        obs = self.obs
        if obs is not None:
            now = self.port.soc.sim.now
            obs.tracer.end_open("driver", now, status="aborted")
            obs.tracer.instant("driver", "abort", now)
            obs.metrics.counter(
                "driver_aborts_total",
                "abort_reconfig invocations (fault recovery)").inc()
        self.dma_reset()
        self.port.write32(self.dma_base + dma_regs.MM2S_DMASR,
                          dma_regs.SR_IOC_IRQ | dma_regs.SR_ERR_IRQ)
        self.reset_icap()
        self.select_icap(0)
        self.decouple_accel(0)

    def recover_and_retry(self, descriptor: RmDescriptor, *,
                          mode: str = "interrupt",
                          max_attempts: int = 3,
                          backoff_us: float | None = None,
                          timeout_us: float | None = None) -> ReconfigResult:
        """Recover from a failed reconfiguration and retry it.

        The sequence per attempt: abort (DMA reset + ICAP parser reset
        + re-couple), wait out a backoff that doubles per attempt, then
        rerun ``init_reconfig_process``.  Raises the last failure when
        every attempt is exhausted.
        """
        if max_attempts < 1:
            raise ControllerError("max_attempts must be >= 1")
        timing = self.port.soc.config.timing
        delay_us = timing.recovery_backoff_us if backoff_us is None \
            else backoff_us
        self.abort_reconfig()
        last_error: Exception | None = None
        for _attempt in range(max_attempts):
            self.port.elapse(max(1, int(delay_us * timing.soc_freq_hz / 1e6)))
            try:
                return self.init_reconfig_process(descriptor, mode=mode,
                                                  timeout_us=timeout_us)
            except ControllerError as exc:
                last_error = exc
                self.abort_reconfig()
                delay_us *= 2
        raise ControllerError(
            f"recovery of {descriptor.name!r} failed after "
            f"{max_attempts} attempts"
        ) from last_error

    # ------------------------------------------------------------------
    # acceleration mode (Sec. IV-D)
    # ------------------------------------------------------------------
    def run_accelerator(self, src_address: int, dst_address: int,
                        nbytes_in: int, nbytes_out: int, *,
                        mode: str = "interrupt", rp_index: int = 0) -> float:
        """Stream DDR data through the loaded RM; returns T_c in us.

        Programs both DMA channels (S2MM first so no output is lost)
        and waits for the write-back channel to complete.
        """
        if mode == "interrupt":
            self.setup_interrupts()
        self.select_icap(0)
        self.select_rm(rp_index)
        self.decouple_accel(0)
        # start pulse resets the RM's frame state; the SoC attaches the
        # loaded module's accelerator as its RP's stream sink
        rm = self.port.soc.rvcap.rm_stream_isolators[rp_index].sink
        if rm is None:
            raise ControllerError(
                f"no accelerator is loaded in RP {rp_index}")
        cast(StreamAccelerator, rm).reset()
        t0 = self.timer.read_ticks()
        sim = self.port.soc.sim
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        accel_span = None
        if tracer is not None:
            accel_span = tracer.begin(
                "driver", "accel_run", sim.now, rp_index=rp_index,
                bytes_in=nbytes_in, bytes_out=nbytes_out)
        irq = mode == "interrupt"
        try:
            self.port.write32(self.dma_base + dma_regs.S2MM_DMACR,
                              dma_regs.CR_RS
                              | (dma_regs.CR_IOC_IRQ_EN if irq else 0))
            self.port.write32(self.dma_base + dma_regs.S2MM_DA,
                              dst_address & 0xFFFF_FFFF)
            self.port.write32(self.dma_base + dma_regs.S2MM_DA_MSB,
                              dst_address >> 32)
            self.port.write32(self.dma_base + dma_regs.S2MM_LENGTH, nbytes_out)
            self.dma_start(irq_enabled=irq)
            self.dma_write_stream(src_address, nbytes_in)
            if irq:
                self._handle_completion_irq(IRQ_DMA_MM2S, dma_regs.MM2S_DMASR,
                                            tracer=tracer)
                self._handle_completion_irq(IRQ_DMA_S2MM, dma_regs.S2MM_DMASR,
                                            tracer=tracer)
            else:
                self._poll_completion(dma_regs.MM2S_DMASR, tracer=tracer)
                self._poll_completion(dma_regs.S2MM_DMASR, tracer=tracer)
        except Exception:
            if tracer is not None:
                tracer.end_open("driver", sim.now, status="error")
            # a channel starved by the failure would hold the switch
            self.dma_reset()
            raise
        t1 = self.timer.read_ticks()
        tc_us = self.timer.ticks_to_us(t1 - t0)
        if obs is not None and accel_span is not None:
            now = sim.now
            obs.tracer.end(accel_span, now)
            instruments = self._resolved(obs)
            tc_histogram = instruments.get("tc")
            if tc_histogram is None:
                tc_histogram = instruments["tc"] = obs.metrics.histogram(
                    "driver_tc_cycles",
                    "accelerator run duration (Tc window)")
            tc_histogram.record(now - accel_span.start_cycle)
        return tc_us
