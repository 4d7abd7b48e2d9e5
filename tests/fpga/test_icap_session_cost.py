"""What one ICAP configuration session costs the host, in calls.

A serving swap reaches the ICAP as three accepts (the descriptor's
first burst, one bulk run, the tail), and every step of the session
runs under :meth:`Icap._consume`: the packet walk, the FDRI staging and
CRC fold, the frame-store commit and the SoC's module identification
in the completion hook.  This test counts every Python and C call
``sys.setprofile`` sees while ``_consume`` is on the stack during a
200-request hot replay (``replay`` attaches observability, so the
session spans count too) and divides by the sessions opened.

The word scan with a per-header ``ConfigPacket`` decode, the per-word
register-CRC chain, the per-frame store and the SHA-256 identification
read 335 calls per session; the one-pass packet walk, the block store
and byte-exact identification read 83.0 on CPython 3.11.
``MAX_CALLS`` leaves about 20% above that for interpreter and numpy
differences.  It counts calls, not wall time, so it holds exactly on
any host.
"""

import sys

from repro.fpga.icap import Icap
from repro.sched import WorkloadSpec, build_sched_soc, make_cache, synthesize
from repro.sched.replay import replay

MAX_CALLS = 100

HOT = WorkloadSpec(requests=200, arrival_rate_rps=2000.0, modules=8,
                   frame=32, deadline_slack_us=20_000.0, seed=2026)


def session_calls() -> float:
    """Calls under ``Icap._consume`` per session of one hot replay."""
    manager = build_sched_soc(HOT.modules, frame=HOT.frame)
    cache = make_cache(manager, arena_bytes=1 << 20)
    consume = Icap._consume.__code__
    depth = calls = 0

    def watch(frame, event, _arg):
        nonlocal depth, calls
        if event == "call":
            if frame.f_code is consume:
                depth += 1
            calls += depth > 0
        elif event == "c_call":
            calls += depth > 0
        elif event == "return" and frame.f_code is consume:
            depth -= 1

    requests = synthesize(HOT)
    sys.setprofile(watch)
    try:
        report = replay(manager, requests, cache=cache)
    finally:
        sys.setprofile(None)
    assert report.completed == HOT.requests
    sessions = manager.soc.icap.sessions_opened
    assert sessions > 0 and manager.soc.icap.outcome == "configured"
    return calls / sessions


def test_a_session_stays_within_the_call_budget():
    per_session = session_calls()
    assert per_session <= MAX_CALLS, (
        f"an ICAP session costs {per_session:.1f} calls, above {MAX_CALLS}")
