"""DprScheduler: EDF order, batching, failure modes, accounting.

Tests drive the scheduler directly through ``run`` or ``submit`` and
``step`` — each step advances *simulated* time, so every scenario is
deterministic.
"""

from unittest import mock

import pytest

from repro.errors import SchedulerError
from repro.faults import install_mem_fault, remove_mem_fault
from repro.sched import (
    CANCELLED,
    COMPLETED,
    DROPPED,
    FAILED,
    TIMED_OUT,
    DprScheduler,
    SwapRequest,
    summarize,
)


class TestArbitration:
    def test_edf_serves_earliest_deadline_first(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1)
        requests = [
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0),
            SwapRequest("rm1", 10.0, 30_000.0, request_id=1),
            SwapRequest("rm2", 10.0, 60_000.0, request_id=2),
        ]
        outcomes = scheduler.run(requests)
        by_start = sorted(outcomes, key=lambda o: o.start_us)
        assert [o.module for o in by_start] == ["rm1", "rm2", "rm0"]
        assert all(o.status == COMPLETED for o in outcomes)

    def test_same_module_requests_batch_one_reconfiguration(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        requests = [
            SwapRequest("rm0", 10.0, 20_000.0, request_id=0),
            SwapRequest("rm1", 10.0, 50_000.0, request_id=1),
            SwapRequest("rm0", 10.0, 90_000.0, request_id=2),
        ]
        outcomes = scheduler.run(requests)
        lead, other, rider = outcomes
        # the far-deadline rm0 rides the first batch, ahead of rm1
        assert rider.batched and not rider.reconfigured
        assert rider.start_us == lead.start_us  # same batch as the lead
        assert rider.finish_us <= other.start_us
        assert lead.reconfigured and not lead.batched
        # two reconfigurations total: rm0 once, rm1 once
        reconfigs = manager.soc.obs.metrics.get(
            "sched_reconfigurations_total")
        assert reconfigs.value == 2

    def test_batch_limit_bounds_riders(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=2)
        requests = [SwapRequest("rm0", 10.0, 90_000.0, request_id=i)
                    for i in range(4)]
        scheduler.run(requests)
        hist = manager.soc.obs.metrics.get("sched_batch_size")
        assert hist.max == 2 and hist.count == 2

    def test_resident_module_skips_reconfiguration(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1)
        outcomes = scheduler.run([
            SwapRequest("rm0", 10.0, 50_000.0, request_id=0),
            SwapRequest("rm0", 10.0, 90_000.0, request_id=1),
        ])
        # batch_limit=1 forces two batches; the second finds rm0 loaded
        second = max(outcomes, key=lambda o: o.start_us)
        assert not second.reconfigured and second.tr_us == 0.0
        skips = manager.soc.obs.metrics.get("sched_reconfig_skips_total")
        assert skips.value == 1

    def test_unknown_module_rejected_at_submit(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        with pytest.raises(SchedulerError):
            scheduler.submit(SwapRequest("nope", 0.0, 1.0))


class TestDeadlinesAndLateness:
    def test_impossible_deadline_reported_as_miss(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        outcome, = scheduler.run([
            SwapRequest("rm0", 10.0, 11.0, payload_shape=(32, 32)),
        ])
        assert outcome.status == COMPLETED
        assert outcome.deadline_missed
        misses = manager.soc.obs.metrics.get(
            "sched_deadline_misses_total")
        assert misses.value == 1

    def test_drop_late_sheds_requests_past_deadline(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1,
                                 drop_late=True)
        outcomes = scheduler.run([
            # rm0 wins EDF; its ~80 us swap outlives rm1's deadline
            SwapRequest("rm0", 10.0, 40.0, request_id=0),
            SwapRequest("rm1", 10.0, 60.0, request_id=1),
        ])
        statuses = {o.request_id: o.status for o in outcomes}
        assert statuses[1] == DROPPED
        dropped = next(o for o in outcomes if o.request_id == 1)
        assert dropped.finish_us is None and dropped.deadline_missed

    def test_queue_timeout_expires_waiting_request(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache, batch_limit=1)
        outcomes = scheduler.run([
            SwapRequest("rm0", 10.0, 50_000.0, request_id=0),
            SwapRequest("rm1", 10.0, 90_000.0, timeout_us=5.0,
                        request_id=1),
        ])
        statuses = {o.request_id: o.status for o in outcomes}
        assert statuses == {0: COMPLETED, 1: TIMED_OUT}
        timed_out = next(o for o in outcomes if o.request_id == 1)
        assert "queue wait" in timed_out.error


class TestCancellation:
    def test_cancelled_future_is_skipped_not_served(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        keep = scheduler.submit(
            SwapRequest("rm0", 10.0, 50_000.0, request_id=0))
        drop = scheduler.submit(
            SwapRequest("rm1", 10.0, 90_000.0, request_id=1))
        assert scheduler.cancel(drop)
        while scheduler.step():
            pass
        kept, dropped = scheduler.outcomes[keep], scheduler.outcomes[drop]
        assert kept.status == COMPLETED
        # a cancelled request finishes like every other: in-band, late
        assert dropped.status == CANCELLED
        assert dropped.error == "cancelled before service"
        assert dropped.start_us is None and dropped.finish_us is None
        metrics = manager.soc.obs.metrics
        assert metrics.get("sched_cancelled_total").value == 1
        report = summarize(scheduler.outcomes, scheduler=scheduler,
                           wall_seconds=0.0)
        assert (metrics.get("sched_deadline_misses_total").value
                == report.deadline_misses == 1)
        # the cancelled module was never swapped in
        assert manager.soc.active_module(0) == "rm0"
        assert manager.soc.icap.reconfigurations_completed == 1
        assert not scheduler.cancel(drop)


class TestFaultHandling:
    def test_transient_dma_fault_retried_to_completion(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        channel = manager.soc.rvcap.dma.mm2s
        pbit = cache.get("rm0")[0].pbit_size
        cache.invalidate("rm0")
        install_mem_fault(channel, fail_read_at=pbit // 2)  # once=True
        scheduler = DprScheduler(manager, cache=cache)
        outcome, = scheduler.run([
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0),
        ])
        assert outcome.status == COMPLETED
        assert manager.soc.active_module(0) == "rm0"
        retries = manager.soc.obs.metrics.get(
            "sched_reconfig_retries_total")
        assert retries.value == 1

    def test_hard_fault_fails_request_scheduler_survives(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        channel = manager.soc.rvcap.dma.mm2s
        proxy = install_mem_fault(channel, fail_read_at=0, once=False)
        scheduler = DprScheduler(manager, cache=cache)
        failed, = scheduler.run([
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0)])
        remove_mem_fault(channel, proxy)
        recovered, = scheduler.run([
            SwapRequest("rm1", 10.0, 500_000.0, request_id=1)])
        assert failed.status == FAILED and failed.error
        assert recovered.status == COMPLETED
        assert manager.soc.active_module(0) == "rm1"

    @pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
    def test_one_corrupt_module_fails_alone(self, controller):
        """A failed load ends its ICAP session on either controller, so
        the modules served after it still load."""
        from repro.faults.injectors import flip_word_bit
        from repro.sched import build_sched_soc, make_cache

        manager = build_sched_soc(4, frame=16, controller=controller)
        cache = make_cache(manager, charge_sd_time=False)
        soc = manager.soc
        descriptor, _hit = cache.get("rm1")
        raw = soc.ddr_read(descriptor.start_address, descriptor.pbit_size)
        soc.ddr_write(descriptor.start_address,
                      flip_word_bit(raw, len(raw) // 8, 3))
        modules = ["rm0", "rm1", "rm2", "rm3", "rm0"]
        requests = [SwapRequest(name, 10.0 + 5_000.0 * i,
                                1_000_000.0, request_id=i)
                    for i, name in enumerate(modules)]
        outcomes = DprScheduler(manager, cache=cache).run(requests)
        assert [o.status for o in outcomes] == [
            COMPLETED, FAILED, COMPLETED, COMPLETED, COMPLETED]
        assert "CRC check failed" in outcomes[1].error

    @pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
    def test_session_that_commits_no_frame_fails_the_request(
            self, controller):
        """The bit-5 header flip ends its session ``empty``: served
        without the static verifier, the request FAILS and never
        completes, and the next module still loads."""
        from repro.fat32 import make_disk_image
        from repro.sched import build_sched_soc, make_cache
        from tests.integration.test_session_count import (
            _header_flip_bitstream,
        )

        manager = build_sched_soc(2, frame=16, controller=controller)
        soc = manager.soc
        rm1 = soc.bitgen.generate(soc.rp, soc.module("rm1")).to_bytes()
        soc.sdcard.load_blocks(make_disk_image(
            {"RM0.PBI": _header_flip_bitstream(), "RM1.PBI": rm1}
        ).populated_blocks())
        cache = make_cache(manager, charge_sd_time=False)
        requests = [SwapRequest("rm0", 10.0, 1_000_000.0, request_id=0),
                    SwapRequest("rm1", 5_000.0, 1_000_000.0, request_id=1)]
        outcomes = DprScheduler(manager, cache=cache).run(requests)
        assert [o.status for o in outcomes] == [FAILED, COMPLETED]
        assert "ended empty" in outcomes[0].error
        assert soc.icap.reconfigurations_completed == 1


def _serve_stepwise(scheduler, requests):
    """Serve ``requests`` one ``step()`` at a time, checking after every
    step that no RP is left decoupled and no ICAP span is left open."""
    soc = scheduler.soc
    tickets = [scheduler.submit(r) for r in requests]
    steps = 0
    while scheduler.step():
        steps += 1
        # each step serves a batch or lands on an arrival
        assert steps <= 2 * len(requests)
        assert soc.rvcap.rp_control.decouple_mask == 0
        assert all(span.end_cycle is not None for span in soc.obs.tracer.spans
                   if span.track == "icap")
    assert all(outcome is not None for outcome in scheduler.outcomes)
    return [scheduler.outcomes[t] for t in tickets]


class TestEveryRequestResolves:
    @pytest.mark.parametrize("controller", ["rvcap", "hwicap"])
    def test_missing_pbit_fails_its_request_alone(self, controller):
        from repro.fat32 import make_disk_image
        from repro.sched import build_sched_soc, make_cache

        manager = build_sched_soc(2, frame=16, controller=controller)
        soc = manager.soc
        obs = soc.attach_observability()
        rm1 = soc.bitgen.generate(soc.rp, soc.module("rm1")).to_bytes()
        soc.sdcard.load_blocks(
            make_disk_image({"RM1.PBI": rm1}).populated_blocks())
        cache = make_cache(manager, charge_sd_time=False)
        outcomes = _serve_stepwise(DprScheduler(manager, cache=cache), [
            SwapRequest("rm0", 10.0, 1_000_000.0, request_id=0),
            SwapRequest("rm1", 5_000.0, 1_000_000.0, request_id=1),
        ])
        assert [o.status for o in outcomes] == [FAILED, COMPLETED]
        assert "RM0.PBI" in outcomes[0].error
        assert soc.active_module(0) == "rm1"
        # the failed cache fault left no span open for later spans to
        # nest under
        assert all(span.end_cycle is not None for span in obs.tracer.spans)

    def test_refused_switch_fails_its_request_alone(
            self, sched_platform_factory):
        """A busy S2MM channel makes the switch refuse SELECT_ICAP=1 with
        a BusError, which is not retried; the driver's failure path
        stops the channel, so the next request is served."""
        from tests.drivers.test_rvcap_driver import _stall_s2mm

        manager, cache = sched_platform_factory()
        _stall_s2mm(manager.soc, manager)
        outcomes = _serve_stepwise(DprScheduler(manager, cache=cache), [
            SwapRequest("rm0", 200.0, 1_000_000.0, request_id=0),
            SwapRequest("rm1", 5_000.0, 1_000_000.0,
                        payload_shape=(32, 32), request_id=1),
        ])
        assert [o.status for o in outcomes] == [FAILED, COMPLETED]
        assert "mid-transfer" in outcomes[0].error
        assert manager.soc.active_module(0) == "rm1"
        retries = manager.soc.obs.metrics.get(
            "sched_reconfig_retries_total")
        assert retries.value == 0

    def test_hard_fault_counts_the_one_retry(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        install_mem_fault(manager.soc.rvcap.dma.mm2s, fail_read_at=0,
                          once=False)
        outcome, = _serve_stepwise(DprScheduler(manager, cache=cache), [
            SwapRequest("rm0", 10.0, 90_000.0, request_id=0),
        ])
        assert outcome.status == FAILED
        retries = manager.soc.obs.metrics.get(
            "sched_reconfig_retries_total")
        assert retries.value == 1

    def test_unexpected_error_escapes_run(self, sched_platform_factory):
        # only a ReproError is served in-band; anything else is a bug,
        # and it surfaces instead of leaving the replay waiting
        manager, cache = sched_platform_factory()
        scheduler = DprScheduler(manager, cache=cache)
        with mock.patch.object(manager, "load_module",
                               side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError, match="boom"):
                scheduler.run([SwapRequest("rm0", 10.0, 90_000.0)])
