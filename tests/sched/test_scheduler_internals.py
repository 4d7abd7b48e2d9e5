"""Scheduler internals: the EDF queue empties and cancel accounting.

The EDF queue is one deadline heap per module; a module leaves it when
its heap empties.  These tests pin that nothing stays queued after
service, plus the report's accounting for requests cancelled before
service.
"""

from repro.sched import CANCELLED, COMPLETED, DprScheduler, SwapRequest
from repro.sched.replay import summarize


class TestEdfQueueEmpties:
    def test_served_modules_leave_the_queue(self, sched_platform_factory):
        # batch_limit=1 makes every request an EDF winner of its own
        # batch; once all are served no module heap is left behind
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1)
        requests = [
            SwapRequest("rm0", 10.0, 30_000.0 + 1_000.0 * i, request_id=i)
            for i in range(60)
        ]
        outcomes = scheduler.run(requests)
        assert all(o.status == COMPLETED for o in outcomes)
        assert scheduler._by_module == {}

    def test_interleaved_modules_are_all_served(
            self, sched_platform_factory):
        # interleave two modules so one module's heap empties while the
        # other still has pending work — nothing may be lost
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1)
        requests = [
            SwapRequest(f"rm{i % 2}", 10.0, 20_000.0 + 2_000.0 * i,
                        request_id=i)
            for i in range(50)
        ]
        outcomes = scheduler.run(requests)
        assert len(outcomes) == 50
        assert all(o.status == COMPLETED for o in outcomes)


class TestReplayCancelledAccounting:
    def test_cancelled_requests_surface_in_the_report(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        requests = [
            SwapRequest("rm0", 10.0, 50_000.0, request_id=0),
            SwapRequest("rm1", 10.0, 90_000.0, request_id=1),
        ]
        tickets = [scheduler.submit(request) for request in requests]
        scheduler.cancel(tickets[1])
        while scheduler.step():
            pass
        outcomes = scheduler.outcomes
        # the cancelled request is reported, not silently dropped
        assert len(outcomes) == 2
        cancelled = [o for o in outcomes if o.status == CANCELLED]
        assert len(cancelled) == 1
        assert cancelled[0].request_id == 1
        assert cancelled[0].finish_us is None

        report = summarize(outcomes, scheduler=scheduler, wall_seconds=0.0)
        assert report.requests == 2
        assert report.statuses.get(CANCELLED) == 1
        assert report.completed == 1
