"""The RV-CAP controller: composition of the Fig. 2 architecture.

The controller owns component instances and wires them together; the
SoC builder maps its two AXI-facing register files (DMA control and RP
control) into the processor's address space and connects the DMA
interrupts to the PLIC.  It supports the paper's two operation modes:

* **reconfiguration mode** — the DMA MM2S stream is routed through the
  AXIS switch into the AXIS2ICAP converter and on into the ICAP;
* **acceleration mode** — MM2S feeds the reconfigurable module's input
  stream and S2MM drains its output stream back to DDR.
"""

from __future__ import annotations

from typing import Optional

from repro.axi.interface import AxiSlave
from repro.axi.isolator import StreamIsolator
from repro.axi.stream import StreamSink, StreamSource
from repro.axi.stream_switch import AxiStreamSwitch
from repro.core.axis2icap import Axis2Icap
from repro.core.dma import AxiDma
from repro.core.rp_control import (
    PORT_ICAP,
    RpControlInterface,
    rm_port_name,
)
from repro.fpga.icap import Icap
from repro.sim.kernel import Simulator


class RvCapController:
    """RV-CAP: high-throughput DPR controller for RISC-V SoCs."""

    def __init__(
        self,
        sim: Simulator,
        ddr_port: AxiSlave,
        icap: Icap,
        *,
        ddr_port_s2mm: AxiSlave | None = None,
        burst_beats: int = 16,
        dma_start_latency: int = 24,
        decompress: bool = False,
    ) -> None:
        self.sim = sim
        self.icap = icap
        self.switch = AxiStreamSwitch("rvcap_axis_switch")
        self.axis2icap = Axis2Icap(icap, decompress=decompress)
        self.rp_control = RpControlInterface(self.switch)
        # the driver's recovery path resets the ICAP packet parser
        # through an RP-control register (no backdoor needed)
        self.rp_control.attach_icap_reset(icap.reset)
        self.dma = AxiDma(sim, ddr_port, mem_port_s2mm=ddr_port_s2mm,
                          burst_beats=burst_beats,
                          start_latency=dma_start_latency)
        # stream-side isolation between the DMA and each RP's module
        self.rm_stream_isolators: list[StreamIsolator] = []
        self.switch.attach_sink(PORT_ICAP, self.axis2icap)
        self.add_rm_port()  # RP 0 always exists
        self.switch.select(rm_port_name(0))  # acceleration mode at reset
        self.dma.mm2s.sink = self.switch
        self.dma.s2mm.source = self.switch
        self.switch.set_busy_source(
            lambda: self.dma.mm2s.busy or self.dma.s2mm.busy)

    # ------------------------------------------------------------------
    # RM ports (one per reconfigurable partition)
    # ------------------------------------------------------------------
    def add_rm_port(self) -> int:
        """Create the stream port + decoupler for one more RP."""
        index = len(self.rm_stream_isolators)
        isolator = StreamIsolator(name=f"rm{index}_stream_isolator")
        self.rm_stream_isolators.append(isolator)
        self.rp_control.attach_isolator(isolator, rp_index=index)
        port = rm_port_name(index)
        self.switch.attach_sink(port, isolator)
        self.switch.attach_source(port, isolator)
        return index

    @property
    def rm_stream_isolator(self) -> StreamIsolator:
        """Legacy single-RP accessor (RP 0's stream decoupler)."""
        return self.rm_stream_isolators[0]

    def attach_rm_streams(self, rm_in: Optional[StreamSink],
                          rm_out: Optional[StreamSource],
                          rp_index: int = 0) -> None:
        """Connect the loaded module's AXI-Stream endpoints."""
        isolator = self.rm_stream_isolators[rp_index]
        isolator.sink = rm_in
        isolator.source = rm_out

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def in_reconfiguration_mode(self) -> bool:
        return self.switch.selected == PORT_ICAP

    @property
    def reconfigurations_completed(self) -> int:
        return self.icap.reconfigurations_completed
