"""RP control interface: decoupling, mode select, RM run control.

Component (3) of the RV-CAP architecture (Fig. 2): a small register
file "to provide R/W control signals to the RMs including RP
coupling/decoupling".  The driver APIs ``decouple_accel()`` and
``select_ICAP()`` (Listing 1) write these registers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.axi.interface import RegisterBank
from repro.axi.isolator import AxiIsolator, StreamIsolator
from repro.axi.stream_switch import AxiStreamSwitch

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.tracer import Span

DECOUPLE_OFFSET = 0x00
SELECT_ICAP_OFFSET = 0x04
RM_CTRL_OFFSET = 0x08
RM_STATUS_OFFSET = 0x0C
VERSION_OFFSET = 0x10
RM_SELECT_OFFSET = 0x14
ICAP_RESET_OFFSET = 0x18

PORT_ICAP = "icap"
PORT_RM = "rm"


def rm_port_name(index: int) -> str:
    """Switch port name for RP ``index`` (RP 0 keeps the legacy name)."""
    return PORT_RM if index == 0 else f"{PORT_RM}{index}"


class RpControlInterface(RegisterBank):
    """Control registers for the reconfigurable partitions.

    ``DECOUPLE`` is a bitmask, one bit per RP (the single-RP reference
    design uses bit 0 only, preserving Listing 1's ``decouple_accel(1)``
    semantics).  ``RM_SELECT`` picks which partition's module is on the
    acceleration datapath when ``SELECT_ICAP`` is 0.
    """

    lite_only = True  # 32-bit AXI4-Lite port: DRC requires a protocol converter

    VERSION = 0x0001_0200  # v1.2: multi-RP + ICAP reset (fault recovery)

    def __init__(self, switch: AxiStreamSwitch) -> None:
        super().__init__("rp_ctrl", size=0x1000)
        self.switch = switch
        self._axi_isolators: dict[int, List[AxiIsolator]] = {}
        self._stream_isolators: dict[int, List[StreamIsolator]] = {}
        self._rm_start_hooks: List[Callable[[], None]] = []
        self._icap_reset_hooks: List[Callable[[], None]] = []
        self._rm_busy: Callable[[], bool] = lambda: False
        self.decouple_mask = 0
        self.icap_selected = False
        self.rm_selected = 0
        self.obs: Optional["Observability"] = None
        self._clock: Callable[[], int] = lambda: 0
        self._decouple_spans: Dict[int, "Span"] = {}

        self.define_register(DECOUPLE_OFFSET, on_write=self._write_decouple,
                             on_read=lambda _o: self.decouple_mask)
        self.define_register(SELECT_ICAP_OFFSET, on_write=self._write_select,
                             on_read=lambda _o: int(self.icap_selected),
                             write_mask=0x1)
        self.define_register(RM_CTRL_OFFSET, on_write=self._write_rm_ctrl,
                             write_mask=0x1)
        self.define_register(RM_STATUS_OFFSET, on_read=self._read_rm_status,
                             read_only=True)
        self.define_register(VERSION_OFFSET, reset=self.VERSION,
                             read_only=True)
        self.define_register(RM_SELECT_OFFSET, on_write=self._write_rm_select,
                             on_read=lambda _o: self.rm_selected,
                             write_mask=0xF)
        self.define_register(ICAP_RESET_OFFSET, on_write=self._write_icap_reset,
                             write_mask=0x1)

    @property
    def decoupled(self) -> bool:
        """Legacy single-RP view: is RP 0 decoupled?"""
        return bool(self.decouple_mask & 1)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_isolator(self, isolator: AxiIsolator | StreamIsolator,
                        rp_index: int = 0) -> None:
        if isinstance(isolator, AxiIsolator):
            self._axi_isolators.setdefault(rp_index, []).append(isolator)
        else:
            self._stream_isolators.setdefault(rp_index, []).append(isolator)

    def attach_rm_start(self, hook: Callable[[], None]) -> None:
        self._rm_start_hooks.append(hook)

    def attach_icap_reset(self, hook: Callable[[], None]) -> None:
        """Register the ICAP parser-reset action behind ICAP_RESET."""
        self._icap_reset_hooks.append(hook)

    def set_rm_busy_source(self, source: Callable[[], bool]) -> None:
        self._rm_busy = source

    def attach_obs(self, obs: "Observability",
                   clock: Callable[[], int]) -> None:
        """Attach observability; register writes stamp via ``clock``."""
        self.obs = obs
        self._clock = clock

    # ------------------------------------------------------------------
    # register behaviour
    # ------------------------------------------------------------------
    def _write_decouple(self, value: int) -> None:
        if self.obs is not None and value != self.decouple_mask:
            now = self._clock()
            self.obs.tracer.signal("rp_decouple", now, value)
            known = (set(self._axi_isolators) | set(self._stream_isolators)
                     | {0})
            for rp_index in sorted(known):
                was = bool(self.decouple_mask & (1 << rp_index))
                is_now = bool(value & (1 << rp_index))
                if is_now and not was:
                    self._decouple_spans[rp_index] = self.obs.tracer.begin(
                        "rp", f"rp{rp_index}_decoupled", now)
                elif was and not is_now:
                    span = self._decouple_spans.pop(rp_index, None)
                    if span is not None:
                        self.obs.tracer.end(span, now)
        self.decouple_mask = value & 0xFFFF_FFFF
        for rp_index, isolators in self._axi_isolators.items():
            state = bool(value & (1 << rp_index))
            for isolator in isolators:
                isolator.set_decouple(state)
        for rp_index, isolators in self._stream_isolators.items():
            state = bool(value & (1 << rp_index))
            for isolator in isolators:
                isolator.set_decouple(state)

    # a write the switch refuses (BusError) leaves the selection, and the
    # traced select signal, as they were
    def _write_select(self, value: int) -> None:
        icap_selected = bool(value & 1)
        self.switch.select(PORT_ICAP if icap_selected
                           else rm_port_name(self.rm_selected))
        self.icap_selected = icap_selected
        if self.obs is not None:
            self.obs.tracer.signal(
                "axis_icap_sel", self._clock(), int(icap_selected))

    def _write_rm_select(self, value: int) -> None:
        rm_selected = value & 0xF
        if not self.icap_selected:
            self.switch.select(rm_port_name(rm_selected))
        self.rm_selected = rm_selected

    def _write_icap_reset(self, value: int) -> None:
        if value & 1:
            if self.obs is not None:
                self.obs.tracer.instant("rp", "icap_reset", self._clock())
            for hook in self._icap_reset_hooks:
                hook()

    def _write_rm_ctrl(self, value: int) -> None:
        if value & 1:
            for hook in self._rm_start_hooks:
                hook()

    def _read_rm_status(self, _offset: int) -> int:
        return 1 if self._rm_busy() else 0
