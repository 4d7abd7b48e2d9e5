"""The scheduler's EDF queue against a sorted-list oracle.

``DprScheduler`` keeps its eligible requests in one deadline heap per
module.  The oracle keeps them in one plain list: the winner is the
earliest arrived ``(deadline_cycle, seq)``, and its riders are that
module's next entries in the same order, up to ``batch_limit``.  The
queue is driven without serving (submit, advance the SoC clock,
promote arrivals, collect one batch), so only the queue is under test.
A cancelled request stays queued until the admission gate drops it at
service, so it counts toward its batch like any other.
"""

import asyncio
from functools import lru_cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sched import DprScheduler, SwapRequest, build_sched_soc, make_cache

MAX_MODULES = 32


@lru_cache(maxsize=None)
def _platform():
    # nothing is ever served, so only the clock moves: examples share it
    manager = build_sched_soc(MAX_MODULES, frame=16)
    return manager, make_cache(manager, charge_sd_time=False)


class SortedListEdf:
    """Every queued request in one list, scanned in sorted order."""

    def __init__(self, freq_hz, batch_limit):
        self.freq_hz = freq_hz
        self.batch_limit = batch_limit
        #: (deadline_cycle, seq, arrival_cycle, module, request_id)
        self.queued = []

    def _cycles(self, us):
        return int(us * self.freq_hz / 1e6)

    def submit(self, request, seq):
        self.queued.append((self._cycles(request.deadline_us), seq,
                            self._cycles(request.arrival_us),
                            request.module, request.request_id))

    def next_arrival(self):
        return min(entry[2] for entry in self.queued)

    def collect(self, now):
        arrived = sorted(e for e in self.queued if e[2] <= now)
        if not arrived:
            return []
        module = arrived[0][3]
        batch = [e for e in arrived if e[3] == module][:self.batch_limit]
        self.queued = [e for e in self.queued if e not in batch]
        return [e[4] for e in batch]


def _collect(scheduler, oracle):
    scheduler._promote_arrivals()
    got = ([entry.request.request_id
            for entry in scheduler._collect_batch()]
           if scheduler._by_module else [])
    assert got == oracle.collect(scheduler.sim.now)


async def _drive(modules, batch_limit, ops):
    manager, cache = _platform()
    sim = manager.soc.sim
    cycles_per_us = int(sim.freq_hz // 1_000_000)
    base_us = sim.now // cycles_per_us + 1
    scheduler = DprScheduler(manager, cache=cache, batch_limit=batch_limit)
    oracle = SortedListEdf(sim.freq_hz, batch_limit)
    futures = []
    for op, *args in ops:
        if op == "submit":
            index, offset_us, slack_us = args
            arrival = float(base_us + offset_us)
            request = SwapRequest(f"rm{index % modules}", arrival,
                                  arrival + slack_us,
                                  request_id=len(futures))
            futures.append(scheduler.submit(request))
            oracle.submit(request, len(futures) - 1)
        elif op == "cancel":
            if futures:
                futures[args[0] % len(futures)].cancel()
        else:
            sim.advance_to(sim.now + args[0] * cycles_per_us)
            _collect(scheduler, oracle)
    while oracle.queued:
        sim.advance_to(max(sim.now, oracle.next_arrival()))
        _collect(scheduler, oracle)
    assert scheduler._by_module == {} and scheduler._arrivals == []


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
# riders by (deadline, seq): the rm0 batch is requests 2, 3, then 0
@example(modules=2, batch_limit=3, ops=[
    ("submit", 0, 0, 9), ("submit", 1, 0, 1), ("submit", 0, 0, 5),
    ("submit", 0, 0, 5), ("advance", 1)])
# equal deadlines across modules: rm1 wins on seq, though rm0 arrived
# (and entered the queue) first
@example(modules=2, batch_limit=1, ops=[
    ("submit", 1, 5, 5), ("submit", 0, 0, 10), ("advance", 6)])
def test_queue_matches_the_sorted_list_oracle(modules, batch_limit, ops):
    asyncio.run(_drive(modules, batch_limit, ops))
