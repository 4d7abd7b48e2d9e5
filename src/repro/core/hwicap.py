"""AXI_HWICAP: the Xilinx vendor DPR controller (baseline, Sec. III-C).

The IP exposes the ICAP behind an AXI4-Lite register file: software
fills a write FIFO through the keyhole ``WF`` register, triggers a
transfer with ``CR.Write``, and polls ``SR`` until the FIFO has drained
into the ICAP.  The paper integrates it into the Ariane SoC with a
64->32 width converter and an AXI4->AXI4-Lite protocol converter, and
resizes the write FIFO to 1024 words to improve transfer time.

Because every FIFO word must be carried by an individual CPU store
through the whole converter chain — and Ariane may not issue those
stores speculatively — this controller reaches only ~2 % of the ICAP
ceiling (8.23 MB/s at 16x loop unrolling, Table I).

``WF`` is declared a *pure push* register (:meth:`AxiHwIcap.push_register`):
its write action appends to the FIFO and does nothing else — it
schedules no event, raises no interrupt and reads no time.  That lets
the ISS block engine commit a run of stores to it in one call (see
:mod:`repro.axi.fastpath`) while each store still pays its full
simulated cost.  One routine, :meth:`AxiHwIcap._push`, holds the FIFO's
capacity and drop rule for the per-store hook and the batch alike.
"""

from __future__ import annotations

import struct
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, Tuple

from repro.axi.interface import ReadHook, RegisterBank, WriteHook
from repro.axi.stream import StreamSink
from repro.axi.types import AxiResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.metrics import Counter

GIER_OFFSET = 0x1C
ISR_OFFSET = 0x20
IER_OFFSET = 0x28
WF_OFFSET = 0x100   # keyhole write FIFO register
RF_OFFSET = 0x104
SZ_OFFSET = 0x108
CR_OFFSET = 0x10C
SR_OFFSET = 0x110
WFV_OFFSET = 0x114  # write FIFO vacancy
RFO_OFFSET = 0x118  # read FIFO occupancy

CR_READ = 1 << 1
CR_WRITE = 1 << 0
CR_FIFO_CLEAR = 1 << 2
CR_SW_RESET = 1 << 3

SR_DONE = 1 << 0
SR_EOS = 1 << 2    # end of startup: fabric configured and operational


class AxiHwIcap(RegisterBank):
    """AXI_HWICAP register model with a parametric write FIFO."""

    lite_only = True  # 32-bit AXI4-Lite port: DRC requires a protocol converter

    def __init__(self, icap: StreamSink, *, fifo_words: int = 1024,
                 read_fifo_words: int = 256) -> None:
        super().__init__("axi_hwicap", size=0x1000)
        self.icap = icap
        self.fifo_words = fifo_words
        self.read_fifo_words = read_fifo_words
        self._fifo: list[int] = []
        self._read_fifo: list[int] = []
        self._size_words = 0
        self._drain_done_at = 0
        self.words_transferred = 0
        self.transfers_started = 0
        self.words_read_back = 0

        self.define_register(GIER_OFFSET, write_mask=1 << 31)
        self.define_register(ISR_OFFSET, write_mask=0xF)   # toggle-on-write
        self.define_register(IER_OFFSET, write_mask=0xF)
        self.define_register(WF_OFFSET, on_write=self._write_wf)
        self.define_register(RF_OFFSET, on_read=self._read_rf,
                             read_only=True)
        self.define_register(SZ_OFFSET, on_write=self._write_sz,
                             write_mask=0x7FF_FFFF)
        self.define_register(CR_OFFSET, on_write=self._write_cr,
                             write_mask=CR_READ | CR_WRITE | CR_FIFO_CLEAR
                             | CR_SW_RESET)
        self.define_register(SR_OFFSET, on_read=self._read_sr,
                             read_only=True)
        self.define_register(WFV_OFFSET, on_read=self._read_wfv,
                             read_only=True)
        self.define_register(RFO_OFFSET, on_read=lambda _o: len(self._read_fifo),
                             read_only=True)
        self._now = 0  # updated on every access via read/write overrides
        self.obs = None
        self._c_words: Optional["Counter"] = None
        self._c_drains: Optional["Counter"] = None

    def attach_obs(self, obs: "Observability") -> None:
        self.obs = obs
        self._c_words = obs.metrics.counter(
            "hwicap_words_total",
            "words drained from the AXI_HWICAP write FIFO into the ICAP")
        self._c_drains = obs.metrics.counter(
            "hwicap_drains_total",
            "CR.Write-triggered FIFO drain operations")

    # ------------------------------------------------------------------
    # time plumbing: RegisterBank hooks have no time argument, so track
    # the access time around each AXI transaction
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int, now: int) -> AxiResult:
        self._now = now
        return super().read(addr, nbytes, now)

    def write(self, addr: int, data: bytes, now: int) -> AxiResult:
        self._now = now
        return super().write(addr, data, now)

    # Fusible port parts (see RegisterBank): opt in despite the
    # read()/write() overrides — those exist only for the ``_now``
    # capture, which the capture_now flag reproduces in the fused
    # closure.
    def read_port_parts(self, addr: int, nbytes: int) -> Optional[
        Tuple[Dict[int, int], Optional[ReadHook], int, bool]
    ]:
        if nbytes != 4 or addr % 4 or addr >= self.size:
            return None
        return self._storage, self._read_hooks.get(addr), self.read_latency, True

    def write_port_parts(self, addr: int, nbytes: int) -> Optional[
        Tuple[Dict[int, int], Optional[WriteHook], int, bool]
    ]:
        if nbytes != 4 or addr % 4 or addr >= self.size:
            return None
        return self._storage, self._write_hooks.get(addr), self.write_latency, True

    def push_register(self, addr: int, nbytes: int) -> Optional[
        Callable[[Sequence[int]], None]
    ]:
        """The push routine of a pure push register at ``addr``, else None.

        A store to such a register is equivalent to its write hook, and
        the hook is a one-word call of the returned routine, so ``n``
        stores may be applied as one call with their ``n`` values.
        """
        if addr == WF_OFFSET and nbytes == 4:
            return self._push
        return None

    # ------------------------------------------------------------------
    # register behaviour
    # ------------------------------------------------------------------
    def _push(self, words: Sequence[int]) -> None:
        """Append 32-bit words to the write FIFO in order.

        Words past the FIFO's capacity are silently dropped, as the
        hardware does on overflow; drivers poll WFV first.
        """
        room = self.fifo_words - len(self._fifo)
        if room > 0:
            self._fifo.extend(words[:room])

    def _write_wf(self, value: int) -> None:
        self._push((value & 0xFFFF_FFFF,))

    def _write_sz(self, value: int) -> None:
        self._size_words = value & 0x7FF_FFFF

    def _read_rf(self, _offset: int) -> int:
        if self._read_fifo:
            return self._read_fifo.pop(0)
        return 0

    def _write_cr(self, value: int) -> None:
        if value & (CR_SW_RESET | CR_FIFO_CLEAR):
            self._fifo.clear()
            self._read_fifo.clear()
            self._drain_done_at = self._now
            return
        if value & CR_READ:
            # pull SZ words from the ICAP's readback path into the read
            # FIFO (one word per cycle on the ICAP port)
            take = min(self._size_words,
                       self.read_fifo_words - len(self._read_fifo))
            pop = getattr(self.icap, "pop_readback", None)
            if pop is not None and take > 0:
                words = pop(take)
                self._read_fifo.extend(words)
                self.words_read_back += len(words)
                start = max(self._now, self._drain_done_at)
                self._drain_done_at = start + len(words)
            return
        if value & CR_WRITE and self._fifo:
            self.transfers_started += 1
            words = self._fifo
            self._fifo = []
            # each FIFO word was a little-endian CPU load of 4 bitstream
            # bytes; serializing little-endian recovers the byte stream
            # exactly as the DMA path would deliver it
            payload = struct.pack(f"<{len(words)}I", *words)
            start = max(self._now, self._drain_done_at)
            self._drain_done_at = self.icap.accept(payload, start)
            self.words_transferred += len(words)
            if self.obs is not None:
                self._c_words.inc(len(words))  # type: ignore[union-attr]
                self._c_drains.inc()  # type: ignore[union-attr]
                span = self.obs.tracer.begin(
                    "hwicap", "fifo_drain", start, words=len(words))
                self.obs.tracer.end(span, self._drain_done_at)

    def _read_sr(self, _offset: int) -> int:
        status = SR_EOS
        if self._now >= self._drain_done_at and not self._fifo:
            status |= SR_DONE
        return status

    def _read_wfv(self, _offset: int) -> int:
        return self.fifo_words - len(self._fifo)
