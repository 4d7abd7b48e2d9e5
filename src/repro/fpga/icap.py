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
CFGERR behaviour.  Frame writes stage until the bitstream proves itself
(a CRC match, or a DESYNC with no error latched), so a corrupted partial
bitstream never half-applies (the safe-DPR ablation exercises this
path); a stream without a CRC word configures at its DESYNC.

Performance: every whole-word accept goes through one numpy word scan.
It skips sync/NOOP runs in one step, stages FDRI payload bursts as
whole arrays and defers the running CRC into a backlog that is folded
with the block-parallel :func:`~repro.utils.crc.crc32_config_words` the
moment a non-FDRI word needs hashing or a CRC word is checked —
O(chunks) Python work per bitstream instead of O(words).  The original
word-at-a-time parser, which folds every FDRI word into the CRC as it
arrives, is kept as the oracle in
``tests/property/test_icap_vector_props.py``, which cross-checks the
two word-for-word.

The port also takes whole runs of DMA bursts in one step
(:meth:`Icap.resolve_bulk_accept`): the run is timed by one max-plus
scan over the port's busy chain, whatever its words are, and parsed in
one pass over the concatenated words — staged as one chunk when it lies
inside an FDRI payload.  Every side effect that depends on where the
bursts split is taken from the burst that carried the word: a session
span opens at the arrival of the burst carrying the sync word and
closes where the DESYNC burst drains (see :mod:`repro.core.dma`).

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
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.axi.stream import BulkAccept, StreamSink
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.frames import FrameAddress
from repro.fpga.packets import (
    Command,
    ConfigPacket,
    ConfigRegister,
    NOOP_WORD,
    Opcode,
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


class Icap(StreamSink):
    """ICAPE2 model: 32-bit write port into the configuration logic."""

    BYTES_PER_CYCLE = 4

    def __init__(self, config_memory: ConfigMemory) -> None:
        self.config_memory = config_memory
        self._busy_until = 0
        self._byte_buffer = bytearray()
        self._state = _ParseState.UNSYNCED
        self._payload_reg: Optional[int] = None
        self._payload_remaining = 0
        self._fdri_words: List[np.ndarray] = []
        #: raw FDRI payload bytes staged by the streaming fast path;
        #: materialized into one ndarray (appended to ``_fdri_words``
        #: and the CRC backlog) the moment any other consumer of those
        #: lists runs — one numpy conversion per transfer instead of
        #: one per burst
        self._fdri_raw: List[bytes] = []
        #: FDRI payload chunks whose CRC contribution has not been folded
        #: into ``_crc`` yet; flushed in one block-parallel pass before
        #: any other word is hashed
        self._crc_backlog: List[np.ndarray] = []
        #: frame writes staged while their bitstream is still unproven;
        #: applied on CRC match / clean DESYNC, dropped on error (the
        #: safe-DPR guarantee: a corrupted bitstream never half-applies)
        self._pending_commits: List[Tuple[FrameAddress, np.ndarray]] = []
        self._crc = 0
        #: words produced by FDRO read requests, awaiting pickup by the
        #: configuration-port master (readback, UG470 ch. 6)
        self.readback_queue: List[int] = []
        self.far: Optional[FrameAddress] = None
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
        self._state = _ParseState.UNSYNCED
        self._payload_reg = None
        self._payload_remaining = 0
        self._fdri_words.clear()
        self._fdri_raw.clear()
        self._crc_backlog.clear()
        self._pending_commits.clear()
        self._crc = 0
        self.readback_queue.clear()
        self.far = None
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
        """Parse ``raw``, whole words that arrived at ``now``."""
        whole = len(raw)
        n = whole >> 2
        if (self._state is _ParseState.PAYLOAD
                and self._payload_reg == ConfigRegister.FDRI
                and self._payload_remaining > n):
            # streaming fast path: the words sit wholly inside an FDRI
            # payload, so the word scan reduces to staging the raw
            # bytes — exactly its PAYLOAD arm with take == n and no
            # packet boundary reached (words_consumed and the remaining
            # count advance the same way; the staged bytes join
            # _fdri_words and the CRC backlog at the next flush, where
            # list order keeps concatenation and folding identical).
            # Applies to any size, so DMA bursts, bulk runs and keyhole
            # words skip the scan alike; the ndarray materialization is
            # deferred to the flush.
            self._fdri_raw.append(raw)
            self.words_consumed += n
            self._payload_remaining -= n
            return
        if self._fdri_raw:
            self._flush_fdri_raw()
        words = np.frombuffer(raw, dtype=">u4").astype(np.uint32)
        self._consume_words(words, now)

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
        """Materialize fast-path staged FDRI bytes into the word lists.

        Invoked before any consumer of ``_fdri_words`` / the CRC
        backlog runs, so list order (and hence concatenation and CRC
        folding order) is exactly the per-burst reference behaviour.
        """
        chunks = self._fdri_raw
        blob = chunks[0] if len(chunks) == 1 else b"".join(chunks)
        chunks.clear()
        staged = np.frombuffer(blob, dtype=">u4").astype(np.uint32)
        self._fdri_words.append(staged)
        self._crc_backlog.append(staged)

    # ------------------------------------------------------------------
    # configuration state machine: the word scan
    # ------------------------------------------------------------------
    def _consume_words(self, words: np.ndarray, now: int) -> None:
        n = int(words.size)
        base = self.words_consumed  # stream index of words[0]
        self.words_consumed = base + n
        i = 0
        while i < n:
            state = self._state
            if state is _ParseState.PAYLOAD:
                take = min(self._payload_remaining, n - i)
                i += self._payload(words[i : i + take], base + i)
                continue
            if state is _ParseState.UNSYNCED:
                # a desynced device ignores everything except the sync
                # pattern (dummies, bus-width words, post-DESYNC padding)
                hits = np.nonzero(words[i:] == SYNC_WORD)[0]
                if hits.size == 0:
                    return
                i += int(hits[0]) + 1
                self._state = _ParseState.IDLE
                self._begin_session(now, base + i - 1)
                continue
            # IDLE: expect NOP or a packet header
            word = int(words[i])
            if word == NOOP_WORD:
                # skip the whole NOP run in one scan: argmax finds the
                # first other word without listing every later one (a
                # bulk run's FDRI payload follows), and returns 0 only
                # when there is none, since words[i] is a NOP
                run = int(np.argmax(words[i:] != NOOP_WORD))
                if run == 0:
                    return
                i += run
                continue
            i += 1
            self._header(word)

    def _payload(self, chunk: np.ndarray, pos: int) -> int:
        reg = self._payload_reg
        assert reg is not None
        if reg == ConfigRegister.FDRI:
            taken = len(chunk)
            self._fdri_words.append(chunk)
            self._crc_backlog.append(chunk)
        else:
            taken = self._write_registers(reg, chunk.tolist(), pos)
        self._finish_payload_chunk(reg, taken)
        return taken

    # ------------------------------------------------------------------
    # packet/register semantics
    # ------------------------------------------------------------------
    def _header(self, word: int) -> None:
        try:
            header = ConfigPacket.decode(word)
        except Exception:
            self.protocol_error = True
            self._state = _ParseState.UNSYNCED
            return
        if header.packet_type == 1:
            self._payload_reg = header.register
            self._payload_remaining = header.word_count
        else:
            if self._payload_reg is None:
                self.protocol_error = True
                return
            self._payload_remaining = header.word_count
        if header.opcode == Opcode.WRITE and self._payload_remaining:
            self._state = _ParseState.PAYLOAD
        elif header.opcode == Opcode.READ and self._payload_remaining:
            self._serve_read(self._payload_reg, self._payload_remaining)
            self._payload_remaining = 0

    def _finish_payload_chunk(self, reg: int, taken: int) -> None:
        self._payload_remaining -= taken
        if self._payload_remaining == 0:
            # a DESYNC command inside the payload has already moved the
            # state to UNSYNCED; do not resurrect the packet parser
            if self._state is _ParseState.PAYLOAD:
                self._state = _ParseState.IDLE
            if reg == ConfigRegister.FDRI:
                self._commit_frames()

    def _write_registers(self, reg: int, values: List[int], pos: int) -> int:
        """Write ``values``, from stream word ``pos`` on, to ``reg``;
        the number of words taken.  A DESYNC ends the packet with the
        session: the words after it go back to the sync search, so the
        outcome does not depend on where the bursts split the packet."""
        for k, value in enumerate(values):
            self._write_register(reg, value, pos + k)
            if self._state is not _ParseState.PAYLOAD:
                return k + 1
        return len(values)

    def _write_register(self, reg: int, value: int, pos: int) -> None:
        """Write ``value``, stream word ``pos``, to register ``reg``."""
        if reg == ConfigRegister.CRC:
            if value != self._running_crc():
                self.crc_error = True
                self._pending_commits.clear()
            else:
                self._apply_pending()
            self._crc = 0
            return
        if reg == ConfigRegister.CMD:
            # a reserved code (a corrupted word, or a header whose count
            # a bit flip grew) acts as NULL; the CRC check catches it
            command = value & 0x1F
            if command == Command.RCRC:
                # RCRC resets the running CRC; deferred FDRI
                # contributions would be zeroed anyway, so drop them
                self._crc_backlog.clear()
                self._crc = 0
                return  # the RCRC word itself is not hashed
            if command == Command.DESYNC:
                self._finish_desync(pos)
            self._hash(value, reg)
            return
        if reg == ConfigRegister.IDCODE:
            if value != self.config_memory.device.idcode:
                self.idcode_mismatch = True
            self._hash(value, reg)
            return
        if reg == ConfigRegister.FAR:
            self.far = FrameAddress.decode(value)
            self._hash(value, reg)
            return
        self._hash(value, reg)

    def _running_crc(self) -> int:
        """The CRC over every word hashed so far (folds the backlog)."""
        if self._fdri_raw:
            self._flush_fdri_raw()
        backlog = self._crc_backlog
        if backlog:
            payload = (backlog[0] if len(backlog) == 1
                       else np.concatenate(backlog))
            backlog.clear()
            self._crc = crc32_config_words(self._crc, payload,
                                           ConfigRegister.FDRI)
        return self._crc

    def _hash(self, value: int, reg: int) -> None:
        self._crc = crc32_config_word(self._running_crc(), value, reg)

    def _commit_frames(self) -> None:
        if self._fdri_raw:
            self._flush_fdri_raw()
        if not self._fdri_words:
            return
        payload = (self._fdri_words[0] if len(self._fdri_words) == 1
                   else np.concatenate(self._fdri_words))
        self._fdri_words.clear()
        if self.far is None:
            self.protocol_error = True
            return
        if self.error:
            return  # never half-apply after an error
        wpf = self.config_memory.device.words_per_frame
        if len(payload) % wpf:
            self.protocol_error = True
            return
        # safe-DPR: stage the write until the bitstream proves itself
        # (CRC match or clean DESYNC); FAR auto-increments exactly as if
        # the frames had been written
        self._pending_commits.append((self.far, payload))
        self.far = self.far.advance(len(payload) // wpf)

    @property
    def pending_frames(self) -> int:
        """Frames staged but not yet applied to configuration memory."""
        wpf = self.config_memory.device.words_per_frame
        return sum(len(payload) // wpf for _f, payload in self._pending_commits)

    def _apply_pending(self) -> None:
        for far, payload in self._pending_commits:
            self.config_memory.write_frames(far, payload)
        self._pending_commits.clear()

    def _serve_read(self, reg: int, count: int) -> None:
        """Service a read packet: queue response words for the master.

        Only FDRO (frame data readback) and STAT are meaningful here.
        The real device requires a preceding RCFG command and FAR write
        and emits one pad frame before the data; we model the pad frame
        so driver code must skip it exactly as on hardware.
        """
        if reg == ConfigRegister.FDRO:
            if self.far is None:
                self.protocol_error = True
                return
            # readback observes prior writes: synchronize staged frames
            self._apply_pending()
            wpf = self.config_memory.device.words_per_frame
            # one pad frame of zeros precedes readback data (UG470)
            payload_words = count - wpf
            if payload_words < 0 or payload_words % wpf:
                self.protocol_error = True
                return
            frames = payload_words // wpf
            self._read_served = True
            data = self.config_memory.read_frames(self.far, frames)
            self.readback_queue.extend([0] * wpf)
            self.readback_queue.extend(int(w) for w in data)
            self.far = self.far.advance(frames)
        elif reg == ConfigRegister.STAT:
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
        self._state = _ParseState.UNSYNCED
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
