"""The ICAP primitive (ICAPE2): configuration port of the fabric.

Timing: the 7-series ICAP accepts one 32-bit word per cycle at up to
100 MHz — the 400 MB/s theoretical ceiling the paper measures every
controller against.  The model is a :class:`StreamSink` consuming
4 bytes/cycle with ``busy_until`` pipelining, so a DMA that keeps bursts
back-to-back observes exactly that ceiling.

Function: an incremental packet parser mirrors the device's config
state machine — sync search, type-1/type-2 packets, FAR/FDRI/CMD/CRC
registers — and commits frame data into :class:`ConfigMemory`.  CRC
errors and protocol violations latch error flags exactly like the real
CFGERR behaviour (a corrupted partial bitstream must never half-apply
silently; the safe-DPR ablation exercises this path).

Performance: the parser scans sync/NOOP runs with numpy, stages FDRI
payload bursts as whole arrays and defers the running CRC into a
backlog that is folded with the block-parallel
:func:`~repro.utils.crc.crc32_config_words` the moment a non-FDRI word
needs hashing or a CRC word is checked — O(chunks) Python work per
bitstream instead of O(words).  Accepts of at most
``_SMALL_ACCEPT_BYTES`` (HWICAP keyhole words) walk the same state
machine word by word.  The original word-at-a-time parser, which folds
every FDRI word into the CRC as it arrives, is kept as the oracle in
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

Observability: a configuration session runs from the sync word to
DESYNC or a port reset.  With a tracer attached each one is an
``icap/session`` span, opened at the ``now`` of the accept whose words
take the parser out of UNSYNCED and closed where the port drains:
status ``ok``/``error`` at DESYNC, ``aborted`` at :meth:`Icap.reset`.
The span's ``words`` counts that session's words, from the sync word
through the DESYNC command word (through the last word consumed
before the reset, for an aborted session).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

from repro.axi.stream import BulkAccept, StreamSink
from repro.errors import ConfigurationError
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
    from repro.obs.metrics import Counter
    from repro.obs.tracer import Span

#: byte payloads up to this size are parsed without numpy round-trips
#: (the HWICAP keyhole path feeds single words; ndarray setup would
#: dominate there)
_SMALL_ACCEPT_BYTES = 64


class _ParseState(enum.Enum):
    UNSYNCED = enum.auto()
    IDLE = enum.auto()
    PAYLOAD = enum.auto()


class Icap(StreamSink):
    """ICAPE2 model: 32-bit write port into the configuration logic."""

    BYTES_PER_CYCLE = 4

    def __init__(self, config_memory: ConfigMemory, *,
                 crc_check: bool = True) -> None:
        self.config_memory = config_memory
        self.crc_check = crc_check
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
        self.idcode_seen: Optional[int] = None
        self.words_consumed = 0
        #: cycles arriving bursts waited behind the 4 B/cycle port
        #: (maintained unconditionally — the power model integrates it)
        self.stall_cycles = 0
        self.crc_error = False
        self.protocol_error = False
        self.idcode_mismatch = False
        self.desynced_count = 0
        self.reconfigurations_completed = 0
        #: optional guard invoked before committing frames; raise or
        #: return False to block (used by the safe-DPR checks)
        self.commit_guard: Optional[Callable[[FrameAddress, int], bool]] = None
        #: invoked after every error-free DESYNC (reconfiguration done);
        #: the SoC uses this to activate the newly loaded module
        self.on_complete: Optional[Callable[[], None]] = None
        # observability (attach_obs): session spans + port metrics;
        # detached cost is a single ``is not None`` check per accept
        self.obs: Optional["Observability"] = None
        self._session_span: Optional["Span"] = None
        #: stream index (``words_consumed`` numbering) of the open
        #: session's sync word
        self._session_first = 0
        #: while a bulk commit parses its run: ``(first, words,
        #: arrivals, done)`` — the stream index of the run's first word,
        #: the words per burst and each burst's arrival and drain cycle
        self._bulk_run: Optional[Tuple[int, int, np.ndarray, np.ndarray]] = None
        self._c_words: Optional["Counter"] = None
        self._c_stall: Optional["Counter"] = None
        self._c_sessions: Optional["Counter"] = None

    def attach_obs(self, obs: "Observability") -> None:
        """Wire the port into an :class:`~repro.obs.Observability`."""
        self.obs = obs
        metrics = obs.metrics
        self._c_words = metrics.counter(
            "icap_words_total", "32-bit words consumed by the ICAP port")
        self._c_stall = metrics.counter(
            "icap_stall_cycles_total",
            "cycles arriving data waited for the 4 B/cycle port to drain")
        self._c_sessions = metrics.counter(
            "icap_sessions_total", "configuration sessions (sync..desync)")

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    @property
    def error(self) -> bool:
        return self.crc_error or self.protocol_error or self.idcode_mismatch

    @property
    def busy_until(self) -> int:
        return self._busy_until

    @property
    def busy_cycles(self) -> int:
        """Cycles the port spent actively consuming (1 word/cycle).

        The port drains exactly one 32-bit word per cycle, so the
        words-consumed count *is* the active-cycle count the power
        model charges at ``icap_active_mw``.
        """
        return self.words_consumed

    def reset(self) -> None:
        """Port-level reset: abort any partial packet, clear errors.

        Clears *all* session state — including the readback queue, the
        frame-address register and any staged frame writes — so an
        aborted session can never leak data or addressing into the
        next one.  An open session span closes as ``aborted``.
        """
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
        if self.obs is not None:
            if busy > now:
                self._c_stall.value += busy - now  # type: ignore[union-attr]
            self._c_words.value += len(data) // 4  # type: ignore[union-attr]
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
            # bytes — exactly the PAYLOAD arm of either word scan with
            # take == n and no packet boundary reached (words_consumed
            # and the remaining count advance the same way; the staged
            # bytes join _fdri_words and the CRC backlog at the next
            # flush, where list order keeps concatenation and folding
            # identical).  Applies to any size, so DMA bursts, bulk runs
            # and keyhole words skip the per-word state machine alike;
            # the ndarray materialization is deferred to the flush.
            self._fdri_raw.append(raw)
            self.words_consumed += n
            self._payload_remaining -= n
            return
        if self._fdri_raw:
            self._flush_fdri_raw()
        if whole <= _SMALL_ACCEPT_BYTES:
            self._consume_words_scalar(
                [int.from_bytes(raw[k:k + 4], "big")
                 for k in range(0, whole, 4)], now)
        else:
            self._consume_words_vec(
                np.frombuffer(raw, dtype=">u4").astype(np.uint32), now)

    def resolve_bulk_accept(self, lead: int = 0) -> Optional[BulkAccept]:
        """Bulk form of :meth:`accept` for runs of whole-word bursts.

        ``None`` — and the plan refuses — while bytes of a partial word
        are buffered (the run's words would straddle its bursts) or a
        ``commit_guard`` is installed (it may raise in the middle of a
        run).  The busy chain ``done[i] = max(done[i-1], t[i]) + words``
        does not depend on the words, so it is one max-plus scan.  The
        commit parses the whole run in one pass, taking the timing of
        every session boundary from the burst that carried the word.
        """
        if not self._takes_bulk_runs():
            return None

        def plan(arrivals: np.ndarray, nbytes: int
                 ) -> Optional[Tuple[np.ndarray, Callable[[bytes, int], None]]]:
            if nbytes % 4 or not self._takes_bulk_runs():
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
                if self.obs is not None:
                    self._c_stall.value += stall  # type: ignore[union-attr]
                    self._c_words.value += taken  # type: ignore[union-attr]
                self._bulk_run = (self.words_consumed, words,
                                  arrivals + lead, done)
                try:
                    self._consume(data, int(arrivals[0]) + lead)
                finally:
                    self._bulk_run = None

            return done, commit

        return plan

    def _takes_bulk_runs(self) -> bool:
        """A run's words start at its first burst and no guard can
        raise in the middle of it."""
        return not self._byte_buffer and self.commit_guard is None

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
        if self.crc_check:
            self._crc_backlog.append(staged)

    # ------------------------------------------------------------------
    # configuration state machine — numpy word scan
    # ------------------------------------------------------------------
    def _consume_words_vec(self, words: np.ndarray, now: int) -> None:
        n = int(words.size)
        base = self.words_consumed  # stream index of words[0]
        self.words_consumed = base + n
        i = 0
        while i < n:
            state = self._state
            if state is _ParseState.PAYLOAD:
                take = min(self._payload_remaining, n - i)
                i += self._payload_vec(words[i : i + take], base + i)
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

    def _payload_vec(self, chunk: np.ndarray, pos: int) -> int:
        reg = self._payload_reg
        assert reg is not None
        if reg == ConfigRegister.FDRI:
            taken = len(chunk)
            self._fdri_words.append(chunk)
            if self.crc_check:
                self._crc_backlog.append(chunk)
        else:
            taken = self._write_registers(reg, chunk.tolist(), pos)
        self._finish_payload_chunk(reg, taken)
        return taken

    # ------------------------------------------------------------------
    # configuration state machine — small accepts, word by word
    # ------------------------------------------------------------------
    def _consume_words_scalar(self, words: List[int], now: int) -> None:
        n = len(words)
        base = self.words_consumed  # stream index of words[0]
        self.words_consumed = base + n
        i = 0
        while i < n:
            if self._state is _ParseState.PAYLOAD:
                take = min(self._payload_remaining, n - i)
                i += self._payload_scalar(words[i : i + take], base + i)
                continue
            word = words[i]
            i += 1
            if self._state is _ParseState.UNSYNCED:
                if word == SYNC_WORD:
                    self._state = _ParseState.IDLE
                    self._begin_session(now, base + i - 1)
                continue
            if word == NOOP_WORD:
                continue
            self._header(word)

    def _payload_scalar(self, chunk: List[int], pos: int) -> int:
        reg = self._payload_reg
        assert reg is not None
        if reg == ConfigRegister.FDRI:
            taken = len(chunk)
            arr = np.array(chunk, dtype=np.uint32)
            self._fdri_words.append(arr)
            if self.crc_check:
                # keyhole-sized accepts still batch their CRC work
                self._crc_backlog.append(arr)
        else:
            taken = self._write_registers(reg, chunk, pos)
        self._finish_payload_chunk(reg, taken)
        return taken

    # ------------------------------------------------------------------
    # shared packet/register semantics
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
            if self.crc_check and value != self._running_crc():
                self.crc_error = True
                self._drop_pending()
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
            self.idcode_seen = value
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
        if self.crc_check:
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
        # the partial-frame protocol check comes first: a guard must
        # never be consulted with a truncated frame count
        if len(payload) % wpf:
            self.protocol_error = True
            return
        frames = len(payload) // wpf
        if self.commit_guard is not None:
            if not self.commit_guard(self.far, frames):
                raise ConfigurationError(
                    f"frame write at {self.far} blocked by commit guard"
                )
        if self.crc_check:
            # safe-DPR: stage the write until the bitstream proves
            # itself (CRC match or clean DESYNC); FAR auto-increments
            # exactly as if the frames had been written
            self._pending_commits.append((self.far, payload))
            self.far = self.far.advance(frames)
        else:
            self.far = self.config_memory.write_frames(self.far, payload)

    @property
    def pending_frames(self) -> int:
        """Frames staged but not yet applied to configuration memory."""
        wpf = self.config_memory.device.words_per_frame
        return sum(len(payload) // wpf for _f, payload in self._pending_commits)

    def _apply_pending(self) -> None:
        for far, payload in self._pending_commits:
            self.config_memory.write_frames(far, payload)
        self._pending_commits.clear()

    def _drop_pending(self) -> None:
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
        """The parser left UNSYNCED at stream word ``pos``: open the
        session span at the arrival of the accept that carried it.

        A re-sync inside an open session (after a protocol error
        dropped the parser) keeps the span it already has.
        """
        if self.obs is not None and self._session_span is None:
            run = self._bulk_run
            if run is not None:
                first, words, arrivals, _done = run
                now = int(arrivals[(pos - first) // words])
            tracer = self.obs.tracer
            self._session_span = tracer.begin("icap", "session", now)
            tracer.signal("icap_session", now, 1)
            self._session_first = pos

    def _end_session(self, status: str, done: int, last: int) -> None:
        """Close the open session span at ``done``, where the port
        drains; ``last`` is the session's last stream word."""
        span = self._session_span
        if span is None or self.obs is None:
            return
        self._session_span = None
        tracer = self.obs.tracer
        tracer.end(span, done, status=status,
                   words=last + 1 - self._session_first)
        tracer.signal("icap_session", done, 0)

    def _finish_desync(self, pos: int) -> None:
        """DESYNC at stream word ``pos`` ends the session."""
        self.desynced_count += 1
        self._state = _ParseState.UNSYNCED
        if self.obs is not None:
            # the port drains where the accept carrying the DESYNC
            # word does: inside a bulk commit, that burst's own cycle
            done = self._busy_until
            run = self._bulk_run
            if run is not None:
                first, words, _arrivals, drained = run
                done = int(drained[(pos - first) // words])
            self._c_sessions.inc()  # type: ignore[union-attr]
            self._end_session("error" if self.error else "ok", done, pos)
            if self.error:
                self.obs.tracer.instant(
                    "icap", "config_error", done,
                    crc=self.crc_error, protocol=self.protocol_error,
                    idcode=self.idcode_mismatch)
        if not self.error:
            self._apply_pending()
            self.reconfigurations_completed += 1
            if self.on_complete is not None:
                self.on_complete()
        else:
            self._drop_pending()
