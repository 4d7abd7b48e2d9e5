"""The scheduler's EDF queue against a sorted-list oracle.

``DprScheduler`` keeps its eligible requests in one deadline heap per
module.  The oracle keeps them in one plain list: the winner is the
earliest arrived ``(deadline_cycle, seq)``, and its riders are that
module's next entries in the same order, up to ``batch_limit``.  The
scheduler is driven through its public surface alone (``submit``,
``cancel`` and ``step``, with clock steps in between), and each step
is checked against the oracle: the tickets it resolved are the
oracle's batch, a step with nothing arrived lands the clock exactly on
the oracle's next arrival, and ``step`` returns False exactly when the
oracle holds nothing.  A cancelled request stays queued until the
admission gate resolves it, so it counts toward its batch like any
other.
"""

from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched import DprScheduler, SwapRequest, build_sched_soc, make_cache

MAX_MODULES = 32


@lru_cache(maxsize=None)
def _platform():
    # serving moves only the residency and the clock, and the oracle
    # reads neither: examples share the platform
    manager = build_sched_soc(MAX_MODULES, frame=16)
    return manager, make_cache(manager, charge_sd_time=False)


class SortedListEdf:
    """Every queued request in one list, scanned in sorted order."""

    def __init__(self, freq_hz, batch_limit):
        self.freq_hz = freq_hz
        self.batch_limit = batch_limit
        #: (deadline_cycle, seq, arrival_cycle, module)
        self.queued = []

    def _cycles(self, us):
        return int(us * self.freq_hz / 1e6)

    def submit(self, request, seq):
        self.queued.append((self._cycles(request.deadline_us), seq,
                            self._cycles(request.arrival_us),
                            request.module))

    def next_arrival(self):
        return min(entry[2] for entry in self.queued)

    def collect(self, now):
        arrived = sorted(e for e in self.queued if e[2] <= now)
        if not arrived:
            return set()
        module = arrived[0][3]
        batch = [e for e in arrived if e[3] == module][:self.batch_limit]
        self.queued = [e for e in self.queued if e not in batch]
        return {e[1] for e in batch}


def _step(scheduler, oracle):
    """One ``step()``, checked against the oracle; returns its result."""
    sim = scheduler.sim
    queued = bool(oracle.queued)
    unresolved = [t for t, o in enumerate(scheduler.outcomes) if o is None]
    batch = oracle.collect(sim.now)
    stepped = scheduler.step()
    assert stepped == queued
    assert {t for t in unresolved
            if scheduler.outcomes[t] is not None} == batch
    if queued and not batch:
        assert sim.now == oracle.next_arrival()
    return stepped


def _drive(modules, batch_limit, ops):
    manager, cache = _platform()
    sim = manager.soc.sim
    cycles_per_us = int(sim.freq_hz // 1_000_000)
    scheduler = DprScheduler(manager, cache=cache, batch_limit=batch_limit)
    oracle = SortedListEdf(sim.freq_hz, batch_limit)
    for op, *args in ops:
        if op == "submit":
            index, offset_us, slack_us = args
            # whole microseconds, counted from just past the clock
            arrival = float(sim.now // cycles_per_us + 1 + offset_us)
            request = SwapRequest(f"rm{index % modules}", arrival,
                                  arrival + slack_us)
            oracle.submit(request, scheduler.submit(request))
        elif op == "cancel":
            if scheduler.outcomes:
                scheduler.cancel(args[0] % len(scheduler.outcomes))
        else:
            sim.advance_to(sim.now + args[0] * cycles_per_us)
            _step(scheduler, oracle)
    while _step(scheduler, oracle):
        pass
    assert all(outcome is not None for outcome in scheduler.outcomes)


# a few whole microseconds of arrival, slack and clock steps make equal
# deadlines, within a module and across modules, common
_ops = st.lists(st.one_of(
    st.tuples(st.just("submit"), st.integers(0, MAX_MODULES - 1),
              st.integers(0, 12), st.integers(0, 8)),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    st.tuples(st.just("advance"), st.integers(0, 5)),
), max_size=80)


@settings(max_examples=150, deadline=None)
@given(modules=st.integers(1, MAX_MODULES), batch_limit=st.integers(1, 6),
       ops=_ops)
# riders by (deadline, seq): after rm1's request 1, the first rm0 batch
# is requests 2 and 3, and request 0 waits for the next
@example(modules=2, batch_limit=2, ops=[
    ("submit", 0, 0, 9), ("submit", 1, 0, 1), ("submit", 0, 0, 5),
    ("submit", 0, 0, 5), ("advance", 1)])
# equal deadlines across modules: rm1 wins on seq, though rm0 arrived
# (and entered the queue) first
@example(modules=2, batch_limit=1, ops=[
    ("submit", 1, 5, 5), ("submit", 0, 0, 10), ("advance", 6)])
def test_queue_matches_the_sorted_list_oracle(modules, batch_limit, ops):
    _drive(modules, batch_limit, ops)
