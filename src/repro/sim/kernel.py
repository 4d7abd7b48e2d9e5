"""The simulation kernel: an event queue with generator processes.

Design notes
------------
The queue is a binary heap keyed by ``(cycle, sequence)``; the sequence
number makes scheduling stable (FIFO among same-cycle events), which the
bus arbitration models rely on.

Processes are plain generators that yield :class:`Delay` or
:class:`WaitEvent`.  This gives hardware models the familiar
"cooperative coroutine" structure (cf. simpy / cocotb) without any
threading.  Bulk data movement is modelled at *burst* granularity — one
event per AXI burst, not per beat — which keeps full-bitstream transfers
to a few thousand events (see the HPC guide's advice: do the work in
bulk, not per element).

Fast path
---------
Two layers keep the kernel itself off the profile:

* Every :class:`_Process` carries one preallocated bound ``resume``
  callable (created at construction, reused for every ``Delay``), so
  stepping a process allocates no closures.  Event waits stash the
  trigger payload on the process and reuse a second preallocated
  continuation.

* A *batch window* lets a running callback advance virtual time itself
  instead of yielding one event per pacing step.  ``batch_window()``
  returns the earliest time the callback must NOT reach — the minimum of
  the next queued event and the current *horizon* (the time the caller
  of ``run``/``advance_to`` promised not to observe fine-grained state
  before).  While a callback keeps its virtual position strictly below
  that bound, executing work eagerly and calling ``batch_advance`` is
  observationally identical to yielding per-step delays: no other event
  and no observer can interleave inside the window.  The DMA descriptor
  engine (``core/dma.py``) is the main client.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.errors import SimulationError
from repro.sim.event import Event

_INF = float("inf")


@dataclass(frozen=True)
class Delay:
    """Yielded by a process to suspend for ``cycles`` clock cycles."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("delay must be non-negative")


@dataclass(frozen=True)
class WaitEvent:
    """Yielded by a process to suspend until ``event`` triggers."""

    event: Event


ProcessGen = Generator[Any, Any, Any]


class _Process:
    __slots__ = ("gen", "name", "finished", "result", "sim",
                 "resume", "_event_value", "_event_resume")

    def __init__(self, sim: "Simulator", gen: ProcessGen, name: str) -> None:
        self.gen = gen
        self.name = name
        self.finished = Event(f"{name}.finished")
        self.result: Any = None
        self.sim = sim
        # Preallocated continuations: one per process, reused for every
        # step — the kernel never builds per-event lambdas for processes.
        self.resume = self._resume
        self._event_value: Any = None
        self._event_resume = self._resume_event

    def _resume(self) -> None:
        self._step(None)

    def _resume_event(self) -> None:
        value, self._event_value = self._event_value, None
        self._step(value)

    def _on_event(self, value: Any) -> None:
        self._event_value = value
        self.sim.schedule(0, self._event_resume)

    def _step(self, send_value: Any) -> None:
        try:
            yielded = self.gen.send(send_value)
        except StopIteration as stop:
            self.result = stop.value
            self.finished.trigger(stop.value)
            return
        cls = type(yielded)
        if cls is Delay:
            self.sim.schedule(yielded.cycles, self.resume)
        elif cls is WaitEvent:
            yielded.event.on_trigger(self._on_event)
        elif isinstance(yielded, Event):
            yielded.on_trigger(self._on_event)
        elif isinstance(yielded, Delay):
            self.sim.schedule(yielded.cycles, self.resume)
        elif isinstance(yielded, WaitEvent):
            yielded.event.on_trigger(self._on_event)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {yielded!r}"
            )


class Simulator:
    """Cycle-resolution discrete-event simulator.

    >>> sim = Simulator()
    >>> hits = []
    >>> sim.schedule(10, lambda: hits.append(sim.now))
    >>> sim.run()
    >>> hits
    [10]
    """

    def __init__(self, freq_hz: float = 100e6) -> None:
        self.freq_hz = float(freq_hz)
        #: current simulation time in cycles: a plain attribute, so a
        #: clock read costs no call.  Only the kernel's own methods and
        #: the hart's MMIO clock sync move it.
        self.now = 0
        self._seq = 0
        self._queue: list[tuple[int, int, Callable[[], None]]] = []
        self._running = False
        self._horizon: float = 0
        self.events_processed = 0

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now_us(self) -> float:
        """Current simulation time in microseconds."""
        return self.now / self.freq_hz * 1e6

    def cycles_to_us(self, cycles: int) -> float:
        """Convert a cycle count to microseconds at this clock."""
        return cycles / self.freq_hz * 1e6

    # ------------------------------------------------------------------
    # scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` after ``delay`` cycles (>= 0)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback))
        self._seq += 1

    def schedule_at(self, cycle: int, callback: Callable[[], None]) -> None:
        """Run ``callback`` at absolute time ``cycle``."""
        if cycle < self.now:
            raise SimulationError(
                f"cannot schedule at cycle {cycle}, now is {self.now}"
            )
        heapq.heappush(self._queue, (cycle, self._seq, callback))
        self._seq += 1

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def add_process(self, gen: ProcessGen, name: str = "proc") -> Event:
        """Register a generator process; returns its completion event.

        The process starts at the current simulation time.  It may yield:

        * :class:`Delay` — resume after N cycles,
        * :class:`WaitEvent` — resume when the event triggers (the
          event's payload is sent back into the generator),
        * an :class:`Event` directly, as shorthand for ``WaitEvent``.
        """
        proc = _Process(self, gen, name)
        self.schedule(0, proc.resume)
        return proc.finished

    # ------------------------------------------------------------------
    # batch window (see module docstring)
    # ------------------------------------------------------------------
    def batch_window(self) -> float:
        """Earliest time the running callback must not reach virtually.

        The minimum of the next queued event's time and the current
        horizon.  A callback may execute work eagerly (and call
        :meth:`batch_advance`) while its virtual position stays strictly
        below this bound; the result is indistinguishable from yielding
        one ``Delay`` per step because nothing can interleave before it.
        """
        queue = self._queue
        nxt: float = queue[0][0] if queue else _INF
        horizon = self._horizon
        return nxt if nxt < horizon else horizon

    def batch_advance(self, cycle: int) -> None:
        """Move the clock forward from inside a running callback.

        Caller guarantees ``now <= cycle < batch_window()``; the kernel
        keeps the heap invariant (no queued event precedes ``now``)
        because the window is bounded by the next queued event.
        """
        self.now = cycle

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek_next_time(self) -> Optional[int]:
        """Time of the earliest pending event, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def step(self) -> bool:
        """Process the single earliest event.  Returns False when idle."""
        queue = self._queue
        if not queue:
            return False
        cycle, _seq, callback = heapq.heappop(queue)
        self.now = cycle
        self._horizon = cycle
        self.events_processed += 1
        callback()
        return True

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains or ``until`` cycles is reached.

        ``max_events`` guards against accidental infinite event loops in
        model code; hitting it raises :class:`SimulationError`.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._horizon = _INF if until is None else until
        heappop = heapq.heappop
        queue = self._queue
        try:
            remaining = max_events
            while queue:
                cycle = queue[0][0]
                if until is not None and cycle > until:
                    self.now = until
                    return
                # Same-cycle run-batch: drain every event at this cycle
                # before re-checking the stop condition.
                while queue and queue[0][0] == cycle:
                    cycle_, _seq, callback = heappop(queue)
                    self.now = cycle_
                    self.events_processed += 1
                    callback()
                    remaining -= 1
                    if remaining <= 0:
                        raise SimulationError(
                            f"exceeded {max_events} events; runaway model?"
                        )
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def advance_to(self, cycle: int, horizon: Optional[int] = None) -> None:
        """Advance the clock directly (used by the CPU co-sim quantum).

        Any events scheduled before ``cycle`` are executed first so the
        CPU never observes stale device state.

        ``horizon`` — when given — is the caller's promise not to
        observe fine-grained device state before that time (e.g. a
        ``wait_for`` whose predicate only reads event-gated status
        registers passes its timeout deadline).  Batching callbacks use
        it to widen their window; it never affects where the clock
        lands.  Defaults to ``cycle`` (fully conservative).
        """
        if cycle < self.now:
            raise SimulationError(f"advance_to({cycle}) is in the past ({self.now})")
        self._horizon = cycle if horizon is None or horizon < cycle else horizon
        queue = self._queue
        heappop = heapq.heappop
        pops = 0
        # Bulk pop: grab every event at or before `cycle` without
        # re-peeking through step()'s guards per event.
        while queue and queue[0][0] <= cycle:
            event_cycle, _seq, callback = heappop(queue)
            self.now = event_cycle
            pops += 1
            callback()
        if pops:
            self.events_processed += pops
        if cycle > self.now:
            self.now = cycle

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now} pending={len(self._queue)}>"
