"""Span-based tracing: hierarchical cycle-timestamped spans.

A :class:`SpanTracer` turns the simulator's instrumented components into
a causal timeline: every DMA transfer, ICAP session, interrupt delivery
and driver API phase is a *span* — a named interval with begin/end cycle
timestamps, a track (one per component), and a parent (the span that was
open on the same track when it began).  Alongside spans the tracer
records *instant* events (point-in-time markers), *counter samples*
(time series for Perfetto counter tracks) and *signal changes* (for the
VCD exporter).

Everything is recorded in cycles, never wall-clock, so two identical
simulations produce byte-identical exports.  Recording is opt-in: a
component's emit path is guarded by an ``obs is not None`` check and
costs nothing when no tracer is attached.

Recording is the hot path of an attached serving run, so each fact is
one call that stores one record: :meth:`SpanTracer.begin` fills a
slotted :class:`Span` (no ``__init__`` frame) and pushes it on its
track's stack, :meth:`SpanTracer.end` stamps it and pops it.  A signal
that only says whether a span is open (a DMA channel busy, an ICAP
session, a pending interrupt) is declared once with
:meth:`SpanTracer.mirror` and derived from those spans when
:attr:`SpanTracer.signals` is read, instead of being recorded beside
them.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, DefaultDict, Dict, List, Optional, Tuple


class Span:
    """One traced interval on a track; ``end_cycle`` None while open.

    Only :meth:`SpanTracer.begin` makes spans: it fills the slots
    directly, so recording one costs no constructor frame.
    """

    __slots__ = ("span_id", "track", "name", "start_cycle", "end_cycle",
                 "parent_id", "_args")

    span_id: int
    track: str
    name: str
    start_cycle: int
    end_cycle: Optional[int]
    parent_id: Optional[int]
    _args: Optional[Dict[str, Any]]

    @property
    def args(self) -> Dict[str, Any]:
        """Span attributes, materialized lazily.

        Argless spans (the vast majority on hot tracks) never allocate
        a dict until an exporter or query actually reads them.
        """
        args = self._args
        if args is None:
            args = self._args = {}
        return args

    @property
    def duration(self) -> int:
        if self.end_cycle is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_cycle - self.start_cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span {self.track}/{self.name} "
                f"[{self.start_cycle}, {self.end_cycle}]>")


class InstantEvent:
    """A point-in-time marker on a track (made by
    :meth:`SpanTracer.instant`, like :class:`Span`)."""

    __slots__ = ("cycle", "track", "name", "_args")

    cycle: int
    track: str
    name: str
    _args: Optional[Dict[str, Any]]

    @property
    def args(self) -> Dict[str, Any]:
        """Event attributes, materialized lazily (see :class:`Span`)."""
        args = self._args
        if args is None:
            args = self._args = {}
        return args


class SpanTracer:
    """Collects spans, instants, counter samples and signal changes.

    Each recording method is the one call its fact costs an emit site:
    it stores one record and calls no other Python function (``begin``
    pushes the span on its track's stack, ``end`` pops it).  Whatever
    is derived from the records (mirrored signals, ``find``,
    ``children``, an empty ``args`` dict) is paid for by its reader.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []
        #: (cycle, series name, value) samples for counter tracks
        self.counter_samples: List[Tuple[int, str, float]] = []
        #: recorded signal name -> [(cycle, value)] change lists
        self._signals: DefaultDict[str, List[Tuple[int, int]]] = \
            defaultdict(list)
        #: (track, span name) -> the signal mirroring those spans
        self._mirrors: Dict[Tuple[str, str], str] = {}
        #: per-track stack of open spans, innermost last
        self._open: DefaultDict[str, List[Span]] = defaultdict(list)
        self._next_id = 1

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(self, track: str, name: str, cycle: int, **args: Any) -> Span:
        """Open a span on ``track``; nests under the open span, if any."""
        span = Span()
        span.span_id = span_id = self._next_id
        self._next_id = span_id + 1
        span.track = track
        span.name = name
        span.start_cycle = cycle
        span.end_cycle = None
        stack = self._open[track]
        span.parent_id = stack[-1].span_id if stack else None
        span._args = args or None
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, span: Span, cycle: int, **args: Any) -> Span:
        """Close ``span`` at ``cycle``; later args win on key collision."""
        if span.end_cycle is not None:
            raise ValueError(f"span {span.name!r} already ended")
        if cycle < span.start_cycle:
            raise ValueError(
                f"span {span.name!r} cannot end at {cycle} before its "
                f"start {span.start_cycle}")
        span.end_cycle = cycle
        if args:
            prior = span._args
            span._args = args if prior is None else {**prior, **args}
        stack = self._open[span.track]
        if stack and stack[-1] is span:
            del stack[-1]
        else:
            # closed out of nesting order (two pending interrupts on
            # the PLIC track): the spans opened after it stay open
            for index, open_span in enumerate(stack):
                if open_span is span:
                    del stack[index]
                    break
        return span

    def open_span(self, track: str) -> Optional[Span]:
        """The innermost open span on ``track`` (None when idle)."""
        stack = self._open.get(track)
        return stack[-1] if stack else None

    def end_open(self, track: str, cycle: int, *, strict: bool = False,
                 **args: Any) -> int:
        """Close every open span on ``track`` (error-path cleanup).

        Returns the number of spans closed, innermost first.  A track
        with nothing open returns 0 deterministically; pass
        ``strict=True`` to raise :class:`ValueError` instead (for
        callers that know a span must be in flight).
        """
        stack = self._open.get(track)
        if not stack:
            if strict:
                raise ValueError(f"no open span on track {track!r}")
            return 0
        closed = 0
        while stack:
            self.end(stack[-1], cycle, **args)
            closed += 1
        return closed

    # ------------------------------------------------------------------
    # instants / counters / signals
    # ------------------------------------------------------------------
    def instant(self, track: str, name: str, cycle: int, **args: Any) -> None:
        event = InstantEvent()
        event.cycle = cycle
        event.track = track
        event.name = name
        event._args = args or None
        self.instants.append(event)

    def count(self, name: str, cycle: int, value: float) -> None:
        """Record one sample of a counter time series."""
        self.counter_samples.append((cycle, name, value))

    def signal(self, name: str, cycle: int, value: int) -> None:
        """Record a signal change (deduplicated against the last value)."""
        changes = self._signals[name]
        if not changes or changes[-1][1] != value:
            changes.append((cycle, value))

    def mirror(self, signal: str, track: str, name: str) -> None:
        """Derive ``signal`` from the ``track``/``name`` spans.

        The signal rises to 1 where each such span begins and falls to
        0 where it ends, as if both edges were recorded with
        :meth:`signal` by a component that never has two of these
        spans open at once (a DMA channel, the ICAP port, one PLIC
        source).  The edges are computed when :attr:`signals` is read;
        a mirrored name is never recorded directly.
        """
        self._mirrors[(track, name)] = signal

    @property
    def signals(self) -> Dict[str, List[Tuple[int, int]]]:
        """Signal name -> [(cycle, value)] change lists (VCD source
        data): the recorded signals plus the mirrored ones."""
        out = dict(self._signals)
        mirrors = self._mirrors
        if not mirrors:
            return out
        derived: Dict[str, List[Tuple[int, int]]] = {}
        for span in self.spans:
            signal = mirrors.get((span.track, span.name))
            if signal is None:
                continue
            changes = derived.setdefault(signal, [])
            if not changes or changes[-1][1] != 1:
                changes.append((span.start_cycle, 1))
            if span.end_cycle is not None and changes[-1][1] != 0:
                changes.append((span.end_cycle, 0))
        out.update(derived)
        return out

    # ------------------------------------------------------------------
    # queries (used by the latency-breakdown report and tests)
    # ------------------------------------------------------------------
    def find(self, track: str, name: str) -> List[Span]:
        return [s for s in self.spans
                if s.track == track and s.name == name]

    def last(self, track: str, name: str) -> Optional[Span]:
        spans = self.find(track, name)
        return spans[-1] if spans else None

    def children(self, span: Span, *, allow_open: bool = False) -> List[Span]:
        """Direct children of ``span``, ordered by (start_cycle, id).

        The order is deterministic regardless of recording order.
        Querying an *unfinished* span raises :class:`ValueError` — its
        child set is not final — unless ``allow_open=True``.
        """
        if span.end_cycle is None and not allow_open:
            raise ValueError(
                f"span {span.name!r} is still open; its children are not "
                f"final (pass allow_open=True to inspect an in-flight span)")
        out = [s for s in self.spans if s.parent_id == span.span_id]
        out.sort(key=lambda s: (s.start_cycle, s.span_id))
        return out

    @property
    def tracks(self) -> List[str]:
        seen: List[str] = []
        for span in self.spans:
            if span.track not in seen:
                seen.append(span.track)
        for event in self.instants:
            if event.track not in seen:
                seen.append(event.track)
        return seen

    def clear(self) -> None:
        """Drop every record; mirror declarations stay."""
        self.spans.clear()
        self.instants.clear()
        self.counter_samples.clear()
        self._signals.clear()
        self._open.clear()
        self._next_id = 1
