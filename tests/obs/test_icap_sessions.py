"""ICAP session spans match configuration sessions.

A session runs from the sync word to DESYNC (or a port reset), so the
``icap/session`` spans must be one closed span per session, pairwise
disjoint, each inside the DMA transfer that streamed it, with the
``icap_session`` signal moving forward in time.  The power model
charges ``icap_active_mw`` over exactly these spans.
"""

import asyncio

import pytest

from repro.errors import ControllerError
from repro.faults import install_mem_fault
from repro.power import PowerModel


def _closed_sessions(tracer):
    sessions = tracer.find("icap", "session")
    assert all(s.end_cycle is not None for s in sessions), "session left open"
    return sorted(sessions, key=lambda s: s.start_cycle)


def _assert_session_invariants(tracer):
    sessions = _closed_sessions(tracer)
    for left, right in zip(sessions, sessions[1:]):
        assert left.end_cycle <= right.start_cycle, (left, right)
    transfers = tracer.find("dma.mm2s", "transfer")
    owners = []
    for session in sessions:
        if session.args["status"] != "ok":
            continue
        [owner] = [t for t in transfers
                   if t.start_cycle <= session.start_cycle
                   and session.end_cycle <= t.end_cycle]
        owners.append(owner.span_id)
    assert len(owners) == len(set(owners))
    cycles = [cycle for cycle, _ in tracer.signals["icap_session"]]
    assert cycles == sorted(cycles)
    return sessions


def test_back_to_back_reconfigurations(provisioned_manager_factory):
    soc, manager = provisioned_manager_factory()
    obs = soc.attach_observability()
    for name in ("sobel", "median", "gaussian"):
        manager.load_module(name)
    sessions = _assert_session_invariants(obs.tracer)
    assert [s.args["status"] for s in sessions] == ["ok"] * 3


def test_session_words_count_that_session_only(provisioned_manager_factory):
    # a session's words run from its sync word through its DESYNC
    # command word: the same for three equal-size bitstreams, and
    # fewer than the bitstream's words (its header precedes the sync
    # word, its NOOP pad follows the DESYNC)
    soc, manager = provisioned_manager_factory()
    obs = soc.attach_observability()
    names = ("sobel", "median", "gaussian")
    for name in names:
        manager.load_module(name)
    words = [s.args["words"] for s in _assert_session_invariants(obs.tracer)]
    sizes = {manager.descriptor(name).pbit_size for name in names}
    assert len(sizes) == 1
    assert len(set(words)) == 1 and words[0] < sizes.pop() // 4


def test_replay_charges_the_icap_only_while_it_configures():
    from repro.sched import (
        DprScheduler, WorkloadSpec, build_sched_soc, make_cache, synthesize,
    )
    from repro.sched.replay import _serve

    spec = WorkloadSpec(requests=40, arrival_rate_rps=2000, modules=4,
                        frame=16, deadline_slack_us=20_000.0, seed=1)
    manager = build_sched_soc(spec.modules, frame=spec.frame)
    soc = manager.soc
    obs = soc.attach_observability()
    cache = make_cache(manager, arena_bytes=1 << 18)
    asyncio.run(_serve(DprScheduler(manager, cache=cache), synthesize(spec)))
    sessions = _assert_session_invariants(obs.tracer)
    assert len(sessions) == soc.icap.reconfigurations_completed
    # the port drains one word per cycle, so a session lasts at least
    # its words and the ICAP's energy is bounded by its transfers'
    model = PowerModel()
    us_per_cycle = 1e6 / soc.sim.freq_hz
    charged = sum(c[3] * (c[1] - c[0]) * us_per_cycle
                  for c in model.contributions(obs.tracer) if c[2] == "icap")
    streamed = sum(t.duration for t in obs.tracer.find("dma.mm2s", "transfer")
                   if any(t.start_cycle <= s.start_cycle < t.end_cycle
                          for s in sessions))
    assert charged <= model.profile.icap_active_mw * streamed * us_per_cycle
    assert charged == pytest.approx(model.profile.icap_active_mw * us_per_cycle
                                    * sum(s.duration for s in sessions))


def test_aborted_session_closes_before_the_retry(provisioned_manager_factory):
    soc, manager = provisioned_manager_factory()
    obs = soc.attach_observability()
    descriptor = manager.descriptor("sobel")
    install_mem_fault(soc.rvcap.dma.mm2s, fail_read_at=300_000)
    with pytest.raises(ControllerError):
        manager.rvcap.init_reconfig_process(descriptor)
    manager.rvcap.recover_and_retry(descriptor)
    sessions = _assert_session_invariants(obs.tracer)
    assert [s.args["status"] for s in sessions] == ["aborted", "ok"]
    failed = [t for t in obs.tracer.find("dma.mm2s", "transfer")
              if t.args["status"] == "error"]
    assert len(failed) == 1
    assert sessions[0].start_cycle >= failed[0].start_cycle
