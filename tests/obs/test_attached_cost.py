"""What an attached Observability adds to a serving replay, in calls.

docs/OBSERVABILITY.md's attached-cost rule: an emit site resolves its
instruments and handles at attach, reads the clock once per emit block
and makes one tracer call per fact.  This test holds the rule to a
bound on a 400-request hot replay (8 resident modules, 1 MiB cache):
every Python and C call ``sys.setprofile`` sees from
``DprScheduler.run`` on, attached over detached, must stay at or below
``MAX_RATIO``.  The tracer's and the emit sites' reworking took the
ratio from 1.353 (497 extra calls per request) to 1.140 (193) on
CPython 3.11.  It counts calls, not wall time, so it holds exactly on
any host.
"""

import sys

from repro.obs import Observability
from repro.sched import WorkloadSpec, build_sched_soc, make_cache, synthesize
from repro.sched.scheduler import DprScheduler

MAX_RATIO = 1.20

HOT = WorkloadSpec(requests=400, arrival_rate_rps=2000.0, modules=8,
                   frame=32, deadline_slack_us=20_000.0, seed=2026)


def replay_calls(attached: bool) -> int:
    """Python plus C calls of one hot replay's ``run``."""
    manager = build_sched_soc(HOT.modules, frame=HOT.frame)
    cache = make_cache(manager, arena_bytes=1 << 20)
    if attached:
        manager.soc.attach_observability(Observability())
    scheduler = DprScheduler(manager, cache=cache)
    requests = synthesize(HOT)
    calls = 0

    def watch(_frame, event, _arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(watch)
    try:
        outcomes = scheduler.run(requests)
    finally:
        sys.setprofile(None)
    assert all(outcome.status == "completed" for outcome in outcomes)
    return calls


def test_attached_replay_stays_within_the_call_budget():
    attached = replay_calls(attached=True)
    detached = replay_calls(attached=False)
    ratio = attached / detached
    extra = (attached - detached) / HOT.requests
    assert ratio <= MAX_RATIO, (
        f"attached observability costs {ratio:.3f}x the detached calls "
        f"({extra:.0f} extra per request), above {MAX_RATIO}")
