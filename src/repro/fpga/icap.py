"""The ICAP primitive (ICAPE2): configuration port of the fabric.

Timing: the 7-series ICAP accepts one 32-bit word per cycle at up to
100 MHz — the 400 MB/s theoretical ceiling the paper measures every
controller against.  The model is a :class:`StreamSink` consuming
4 bytes/cycle with ``busy_until`` pipelining, so a DMA that keeps bursts
back-to-back observes exactly that ceiling.

Function: an incremental packet parser mirrors the device's config
state machine — sync search, type-1/type-2 packets, FAR/FDRI/CMD/CRC
registers — and writes frame data into :class:`ConfigMemory`.  CRC
errors and protocol violations latch error flags exactly like the real
CFGERR behaviour: the port never raises on its input.  Frame data
commits only while the CMD register holds WCFG, and an FDRI write or
FDRO read that would step the frame address off the 32-row frame grid
latches ``protocol_error`` and is dropped.  Frame writes stage until the
bitstream proves itself (a CRC match, or a DESYNC with no error
latched), so a corrupted partial bitstream never half-applies (the
safe-DPR ablation exercises this path); a stream without a CRC word
configures at its DESYNC.  The static verifier
(:mod:`repro.verify.bitstream`) is a dry run of this parser.

Performance: an accept costs O(packets) Python work, not O(words).
One pass walks it packet by packet: the sync search is one
``bytes.find``; header, NOOP and register words are read as Python
ints a short window at a time (one ``struct`` unpack) and headers are
decoded with integer ops; FDRI payload is staged as raw byte slices
and materialized as one uint32 array per packet.  Its CRC contribution
is deferred into a backlog that is folded with the block-parallel
:func:`~repro.utils.crc.crc32_config_words` the moment a non-FDRI word
needs hashing or a CRC word is checked.  The frame address is kept as
the FAR register word (its low 22 bits are the linear frame index,
:mod:`repro.fpga.frames`), and staged frames land in
:class:`ConfigMemory` as one block per FDRI packet.  The
original word-at-a-time parser, which decodes every header through
:meth:`ConfigPacket.decode` and folds every FDRI word into the CRC as
it arrives, is kept as the oracle in
``tests/property/test_icap_vector_props.py``, which cross-checks the
two word-for-word.

The port also takes whole runs of DMA bursts in one step
(:meth:`Icap.resolve_bulk_accept`): the run is timed by one max-plus
scan over the port's busy chain, whatever its words are, and parsed in
one pass over the concatenated words.  Every side effect that depends
on where the bursts split is taken from the burst that carried the
word: a session span opens at the arrival of the burst carrying the
sync word and closes where the DESYNC burst drains (see
:mod:`repro.core.dma`).

Sessions: a configuration session runs from the sync word to DESYNC
or a port reset and ends with one outcome (:attr:`Icap.outcome`):
``configured`` (no error, a frame committed), ``readback`` (no error or
frame, an FDRO read served), ``empty``, ``error`` (a CRC, IDCODE or
protocol error latched) or ``aborted`` (:meth:`Icap.reset`).  Only
``configured`` counts in ``reconfigurations_completed``; ``on_complete``
runs after every session that changed configuration memory.  Traced,
each session is an ``icap/session`` span, status its outcome, whose
``words`` count its words from the sync word through the last one.
"""

from __future__ import annotations

import enum
import struct
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.axi.stream import BulkAccept, StreamSink
from repro.errors import BitstreamError
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.frames import FAR_MASK, LINEAR_MASK, FrameAddress, advance_far
from repro.fpga.packets import (
    Command,
    ConfigRegister,
    NOOP_WORD,
    SYNC_WORD,
)
from repro.utils.crc import crc32_config_word, crc32_config_words

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs import Observability
    from repro.obs.tracer import Span


class _ParseState(enum.Enum):
    UNSYNCED = enum.auto()
    IDLE = enum.auto()
    PAYLOAD = enum.auto()


_UNSYNCED = _ParseState.UNSYNCED
_IDLE = _ParseState.IDLE
_PAYLOAD = _ParseState.PAYLOAD

_CRC = int(ConfigRegister.CRC)
_FAR = int(ConfigRegister.FAR)
_FDRI = int(ConfigRegister.FDRI)
_FDRO = int(ConfigRegister.FDRO)
_CMD = int(ConfigRegister.CMD)
_STAT = int(ConfigRegister.STAT)
_IDCODE = int(ConfigRegister.IDCODE)
_WCFG = int(Command.WCFG)
_RCRC = int(Command.RCRC)
_DESYNC = int(Command.DESYNC)

_SYNC_BYTES = SYNC_WORD.to_bytes(4, "big")
#: header, NOOP and register words are read as Python ints this many
#: at a time
_WINDOW = 16
_UNPACK = tuple(struct.Struct(f">{k}I").unpack_from
                for k in range(_WINDOW + 1))


class Icap(StreamSink):
    """ICAPE2 model: 32-bit write port into the configuration logic."""

    BYTES_PER_CYCLE = 4

    def __init__(self, config_memory: ConfigMemory) -> None:
        self.config_memory = config_memory
        self._wpf = config_memory.device.words_per_frame
        self._idcode = config_memory.device.idcode
        self._busy_until = 0
        self._byte_buffer = bytearray()
        self._state = _UNSYNCED
        self._payload_reg: Optional[int] = None
        self._payload_remaining = 0
        self._fdri_words: List[np.ndarray] = []
        #: raw FDRI payload bytes staged by the word scan; materialized
        #: into one ndarray (appended to ``_fdri_words`` and the CRC
        #: backlog) the moment any other consumer of those lists runs —
        #: one numpy conversion per packet instead of one per accept
        self._fdri_raw: List[bytes] = []
        #: FDRI payload chunks whose CRC contribution has not been folded
        #: into ``_crc`` yet; flushed in one block-parallel pass before
        #: any other word is hashed
        self._crc_backlog: List[np.ndarray] = []
        #: frame writes staged while their bitstream is still unproven,
        #: as (linear frame index, words); applied on CRC match / clean
        #: DESYNC, dropped on error (the safe-DPR guarantee: a corrupted
        #: bitstream never half-applies)
        self._pending_commits: List[Tuple[int, np.ndarray]] = []
        self._crc = 0
        #: words produced by FDRO read requests, awaiting pickup by the
        #: configuration-port master (readback, UG470 ch. 6)
        self.readback_queue: List[int] = []
        #: the FAR register word (None until written); see :attr:`far`
        self._far: Optional[int] = None
        #: the CMD register: the code of the last command written
        self._command = 0
        self.words_consumed = 0
        #: cycles arriving bursts waited behind the 4 B/cycle port
        self.stall_cycles = 0
        self.crc_error = False
        self.protocol_error = False
        self.idcode_mismatch = False
        self.desynced_count = 0
        self.reconfigurations_completed = 0
        #: sessions opened so far, and how the last one ended (None
        #: while one is open)
        self.sessions_opened = 0
        self.outcome: Optional[str] = None
        #: invoked at the end of every session that changed
        #: configuration memory; the SoC re-derives each RP's module
        self.on_complete: Optional[Callable[[], None]] = None
        # observability (attach_obs): session spans + port metrics;
        # detached cost is a single ``is not None`` check per accept
        self.obs: Optional["Observability"] = None
        self._in_session = False
        self._read_served = False  # the open session served an FDRO read
        self._session_span: Optional["Span"] = None
        #: stream index (``words_consumed`` numbering) of the open
        #: session's sync word
        self._session_first = 0
        #: ``config_memory.frames_written`` when the open session began
        self._frames_at_sync = 0
        #: while a bulk commit parses its run: ``(first, words,
        #: arrivals, done)`` — the stream index of the run's first word,
        #: the words per burst and each burst's arrival and drain cycle
        self._bulk_run: Optional[Tuple[int, int, np.ndarray, np.ndarray]] = None

    def attach_obs(self, obs: "Observability") -> None:
        """Wire the port into an :class:`~repro.obs.Observability`; the
        ``icap_session`` signal mirrors the session spans."""
        self.obs = obs
        obs.tracer.mirror("icap_session", "icap", "session")
        metrics = obs.metrics
        metrics.observed_counter(
            "icap_words_total", "32-bit words consumed by the ICAP port",
            self, "words_consumed")
        metrics.observed_counter(
            "icap_stall_cycles_total",
            "cycles arriving data waited for the 4 B/cycle port to drain",
            self, "stall_cycles")
        metrics.observed_counter(
            "icap_sessions_total", "configuration sessions opened "
            "(sync word seen), however they ended", self, "sessions_opened")

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def error(self) -> bool:
        return self.crc_error or self.protocol_error or self.idcode_mismatch

    def session_fault(self, session: int) -> Optional[str]:
        """Why session ``session`` did not end ``configured`` (None when
        it did), naming the failed check while its flag is latched."""
        outcome = self.outcome
        if self.sessions_opened < session:
            return "no configuration session opened (sync word not found)"
        if outcome is None:
            return "the bitstream never desynced (truncated or malformed)"
        if outcome != "error":
            return None if outcome == "configured" else \
                f"the session ended {outcome}"
        checks = [check for check, failed in (
            ("CRC", self.crc_error), ("IDCODE", self.idcode_mismatch),
            ("protocol", self.protocol_error)) if failed]
        return f"{'/'.join(checks) or 'configuration'} check failed"

    @property
    def busy_until(self) -> int:
        return self._busy_until

    @property
    def far(self) -> Optional[FrameAddress]:
        """The frame address register (None until a FAR write)."""
        far = self._far
        return None if far is None else FrameAddress.decode(far)

    def reset(self) -> None:
        """Port-level reset: abort any partial packet, clear errors.

        Clears *all* session state — including the readback queue, the
        frame-address register and any staged frame writes — so an
        aborted session can never leak data or addressing into the
        next one.  An open session ends ``aborted``.
        """
        if self._in_session:
            self._end_session("aborted", self._busy_until,
                              self.words_consumed - 1)
        self._byte_buffer.clear()
        self._state = _UNSYNCED
        self._payload_reg = None
        self._payload_remaining = 0
        self._fdri_words.clear()
        self._fdri_raw.clear()
        self._crc_backlog.clear()
        self._pending_commits.clear()
        self._crc = 0
        self.readback_queue.clear()
        self._far = None
        self._command = 0
        self.crc_error = False
        self.protocol_error = False
        self.idcode_mismatch = False

    # ------------------------------------------------------------------
    # StreamSink: timing + byte intake
    # ------------------------------------------------------------------
    def accept(self, data: bytes, now: int) -> int:
        cycles = -(-len(data) // self.BYTES_PER_CYCLE)
        busy = self._busy_until
        if busy > now:
            self.stall_cycles += busy - now
        self._busy_until = (busy if busy > now else now) + cycles
        buffer = self._byte_buffer
        if buffer:
            buffer.extend(data)
            whole = len(buffer) // 4 * 4
            if not whole:
                return self._busy_until
            raw: bytes = bytes(buffer[:whole])
            del buffer[:whole]
        else:
            # common case: word-aligned burst onto an empty buffer —
            # parse straight from the payload, no bytearray round-trip
            whole = len(data) // 4 * 4
            if not whole:
                buffer.extend(data)
                return self._busy_until
            if whole == len(data):
                raw = data
            else:
                raw = data[:whole]
                buffer.extend(data[whole:])
        self._consume(raw, now)
        return self._busy_until

    def _consume(self, raw: bytes, now: int) -> None:
        """Parse ``raw``, whole words that arrived at ``now``, in one pass
        over its packets (see the module docstring)."""
        n = len(raw) >> 2
        base = self.words_consumed  # stream index of raw's first word
        self.words_consumed = base + n
        i = 0
        while i < n:
            state = self._state
            if state is _UNSYNCED:
                # a desynced device ignores everything except the sync
                # pattern (dummies, bus-width words, post-DESYNC padding)
                hit = raw.find(_SYNC_BYTES, i << 2)
                while hit >= 0 and hit & 3:
                    hit = raw.find(_SYNC_BYTES, hit + 1)
                if hit < 0:
                    return
                i = (hit >> 2) + 1
                self._state = _IDLE
                self._begin_session(now, base + i - 1)
                continue
            if state is _PAYLOAD and self._payload_reg == _FDRI:
                # frame data: stage the bytes, whatever the packet's size
                remaining = self._payload_remaining
                take = n - i if n - i < remaining else remaining
                self._fdri_raw.append(
                    raw if take == n else raw[i << 2:(i + take) << 2])
                i += take
                remaining -= take
                self._payload_remaining = remaining
                if not remaining:
                    self._state = _IDLE
                    self._commit_frames()
                continue
            # IDLE, or inside a register packet: walk a window of words
            k = n - i
            for value in _UNPACK[k if k < _WINDOW else _WINDOW](raw, i << 2):
                i += 1
                if self._state is _PAYLOAD:
                    reg = self._payload_reg
                    assert reg is not None  # set by the packet's header
                    self._write_register(reg, value, base + i - 1)
                    remaining = self._payload_remaining - 1
                    self._payload_remaining = remaining
                    if self._state is not _PAYLOAD:
                        # a DESYNC ends the packet with the session: the
                        # words after it go back to the sync search, so
                        # the outcome does not depend on the burst split
                        break
                    if not remaining:
                        self._state = _IDLE
                    continue
                if value == NOOP_WORD:
                    continue
                # a packet header (UG470 table 5-20): a reserved opcode
                # or packet type drops the parser to the sync search
                opcode = (value >> 27) & 0x3
                packet_type = value >> 29
                if opcode == 3 or (packet_type != 1 and packet_type != 2):
                    self.protocol_error = True
                    self._state = _UNSYNCED
                    break
                if packet_type == 1:
                    reg = self._payload_reg = (value >> 13) & 0x1F
                    count = value & 0x7FF
                else:
                    # type 2 continues the last type-1 packet's register
                    reg = self._payload_reg
                    if reg is None:
                        self.protocol_error = True
                        continue
                    count = value & 0x7FF_FFFF
                self._payload_remaining = count
                if not count or not opcode:
                    continue  # an empty packet, or a NOP header
                if opcode == 1:
                    self._serve_read(reg, count)
                    self._payload_remaining = 0
                    continue
                self._state = _PAYLOAD
                if reg == _FDRI:
                    break

    def resolve_bulk_accept(self, lead: int = 0) -> Optional[BulkAccept]:
        """Bulk form of :meth:`accept` for runs of whole-word bursts.

        ``None`` — and the plan refuses — while bytes of a partial word
        are buffered (the run's words would straddle its bursts).  The
        busy chain ``done[i] = max(done[i-1], t[i]) + words`` does not
        depend on the words, so it is one max-plus scan.  The commit
        parses the whole run in one pass, taking the timing of every
        session boundary from the burst that carried the word.
        """
        if self._byte_buffer:
            return None

        def plan(arrivals: np.ndarray, nbytes: int
                 ) -> Optional[Tuple[np.ndarray, Callable[[bytes, int], None]]]:
            if nbytes % 4 or self._byte_buffer:
                return None
            words = nbytes >> 2  # one word per cycle
            count = len(arrivals)
            # burst i arrives at t[i] = arrivals[i] + lead, so
            # done[i] - (i + 1) * words is the running max of the port's
            # busy_until and every t[j] - j * words, j <= i
            ramp = np.arange(-lead, count * words - lead, words,
                             dtype=np.int64)
            done = arrivals - ramp
            if done[0] < self._busy_until:
                done[0] = self._busy_until
            np.maximum.accumulate(done, out=done)
            done += ramp
            done += lead + words

            def commit(data: bytes, n: int) -> None:
                # each burst stalls max(done[i-1] - t[i], 0), which is
                # done[i] - t[i] - words
                taken = n * words
                stall = (int((done[:n] - arrivals[:n]).sum())
                         - taken - n * lead)
                self._busy_until = int(done[n - 1])
                self.stall_cycles += stall
                self._bulk_run = (self.words_consumed, words,
                                  arrivals + lead, done)
                try:
                    self._consume(data, int(arrivals[0]) + lead)
                finally:
                    self._bulk_run = None

            return done, commit

        return plan

    def _flush_fdri_raw(self) -> None:
        """Materialize the staged FDRI bytes into the word lists.

        Invoked before any consumer of ``_fdri_words`` / the CRC
        backlog runs, so list order (and hence concatenation and CRC
        folding order) is exactly the per-word reference behaviour.
        """
        chunks = self._fdri_raw
        blob = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        chunks.clear()
        staged = np.frombuffer(blob, dtype=">u4").astype(np.uint32)
        self._fdri_words.append(staged)
        self._crc_backlog.append(staged)

    # ------------------------------------------------------------------
    # register semantics
    # ------------------------------------------------------------------
    def _write_register(self, reg: int, value: int, pos: int) -> None:
        """Write ``value``, stream word ``pos``, to register ``reg``: every
        configuration-register write goes through here."""
        if reg == _CMD:
            # a reserved code (a corrupted word, or a header whose count
            # a bit flip grew) acts as NULL; the CRC check catches it
            command = self._command = value & 0x1F
            if command == _RCRC:
                # RCRC resets the running CRC; deferred FDRI
                # contributions would be zeroed anyway, so drop them
                self._crc_backlog.clear()
                self._crc = 0
                return  # the RCRC word itself is not hashed
            if command == _DESYNC:
                self._finish_desync(pos)
        elif reg == _CRC:
            if value != (self._running_crc() if self._crc_backlog
                         else self._crc):
                self.crc_error = True
                self._pending_commits.clear()
            else:
                self._apply_pending()
            self._crc = 0
            return
        elif reg == _IDCODE:
            if value != self._idcode:
                self.idcode_mismatch = True
        elif reg == _FAR:
            self._far = value & FAR_MASK
        self._crc = crc32_config_word(
            self._running_crc() if self._crc_backlog else self._crc,
            value, reg)

    def _running_crc(self) -> int:
        """The CRC over every word hashed so far (folds the backlog)."""
        if self._fdri_raw:
            self._flush_fdri_raw()
        backlog = self._crc_backlog
        if backlog:
            payload = (backlog[0] if len(backlog) == 1
                       else np.concatenate(backlog))
            backlog.clear()
            self._crc = crc32_config_words(self._crc, payload, _FDRI)
        return self._crc

    def _commit_frames(self) -> None:
        if self._fdri_raw:
            self._flush_fdri_raw()
        chunks = self._fdri_words
        if not chunks:
            return
        payload = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        chunks.clear()
        far = self._far
        if far is None:
            self.protocol_error = True
            return
        if self.crc_error or self.protocol_error or self.idcode_mismatch:
            return  # never half-apply after an error
        frames, partial = divmod(len(payload), self._wpf)
        # the device commits frame data only under CMD=WCFG, and only
        # inside the frame grid
        if partial or self._command != _WCFG:
            self.protocol_error = True
            return
        try:
            self._far = advance_far(far, frames)
        except BitstreamError:
            self.protocol_error = True
            return
        # safe-DPR: stage the write until the bitstream proves itself
        # (CRC match or clean DESYNC); FAR auto-increments exactly as if
        # the frames had been written
        self._pending_commits.append((far & LINEAR_MASK, payload))

    @property
    def pending_frames(self) -> int:
        """Frames staged but not yet applied to configuration memory."""
        return sum(len(payload) // self._wpf
                   for _index, payload in self._pending_commits)

    def _apply_pending(self) -> None:
        write_at = self.config_memory.write_at
        for index, payload in self._pending_commits:
            write_at(index, payload)
        self._pending_commits.clear()

    def _serve_read(self, reg: int, count: int) -> None:
        """Service a read packet: queue response words for the master.

        Only FDRO (frame data readback) and STAT are meaningful here.
        The real device requires a preceding RCFG command and FAR write
        and emits one pad frame before the data; we model the pad frame
        so driver code must skip it exactly as on hardware.
        """
        if reg == _FDRO:
            far = self._far
            if far is None:
                self.protocol_error = True
                return
            # readback observes prior writes: synchronize staged frames
            self._apply_pending()
            wpf = self._wpf
            # one pad frame of zeros precedes readback data (UG470)
            payload_words = count - wpf
            if payload_words < 0 or payload_words % wpf:
                self.protocol_error = True
                return
            frames = payload_words // wpf
            try:
                next_far = advance_far(far, frames)
            except BitstreamError:
                self.protocol_error = True
                return
            self._read_served = True
            data = self.config_memory.read_at(far & LINEAR_MASK, frames)
            self.readback_queue.extend([0] * wpf)
            self.readback_queue.extend(data.tolist())
            self._far = next_far
        elif reg == _STAT:
            status = (1 << 12) if not self.error else 0  # DONE-ish bit
            self.readback_queue.extend([status] * count)
        else:
            self.readback_queue.extend([0] * count)

    def pop_readback(self, max_words: int) -> List[int]:
        """Transfer up to ``max_words`` queued readback words out."""
        out = self.readback_queue[:max_words]
        del self.readback_queue[:max_words]
        return out

    # ------------------------------------------------------------------
    # session boundaries
    # ------------------------------------------------------------------
    def _begin_session(self, now: int, pos: int) -> None:
        """The parser left UNSYNCED at stream word ``pos``: open a
        session, its span at the arrival of the accept that carried it.
        A re-sync inside an open session (after a protocol error
        dropped the parser) continues it."""
        if self._in_session:
            return
        self._in_session, self._read_served = True, False
        self.sessions_opened += 1
        self.outcome = None
        self._frames_at_sync = self.config_memory.frames_written
        if self.obs is not None:
            run = self._bulk_run
            if run is not None:
                first, words, arrivals, _done = run
                now = int(arrivals[(pos - first) // words])
            self._session_span = self.obs.tracer.begin("icap", "session", now)
            self._session_first = pos

    def _end_session(self, outcome: str, done: int, last: int) -> None:
        """End the open session with ``outcome``: close its span at
        ``done``, where the port drains (``last`` is the session's last
        stream word), and run ``on_complete`` if it wrote frames."""
        self._in_session = False
        self.outcome = outcome
        if outcome == "configured":
            self.reconfigurations_completed += 1
        span = self._session_span
        if span is not None and self.obs is not None:
            self._session_span = None
            self.obs.tracer.end(span, done, status=outcome,
                                words=last + 1 - self._session_first)
        if (self.on_complete is not None
                and self.config_memory.frames_written > self._frames_at_sync):
            self.on_complete()

    def _finish_desync(self, pos: int) -> None:
        """DESYNC at stream word ``pos`` ends the session: staged frames
        apply unless an error latched, then the outcome is decided."""
        self.desynced_count += 1
        self._state = _UNSYNCED
        error = self.error
        if error:
            self._pending_commits.clear()
        else:
            self._apply_pending()
        wrote = self.config_memory.frames_written > self._frames_at_sync
        outcome = ("error" if error else "configured" if wrote
                   else "readback" if self._read_served else "empty")
        # the port drains where the accept carrying the DESYNC word
        # does: inside a bulk commit, that burst's own cycle
        done = self._busy_until
        run = self._bulk_run
        if run is not None:
            first, words, _arrivals, drained = run
            done = int(drained[(pos - first) // words])
        self._end_session(outcome, done, pos)
        if error and self.obs is not None:
            self.obs.tracer.instant(
                "icap", "config_error", done,
                crc=self.crc_error, protocol=self.protocol_error,
                idcode=self.idcode_mismatch)
