"""DprScheduler admission gate: verify=True rejects bad streams in-band.

The gate must refuse a corrupted DDR-resident bitstream as status
``rejected`` *before* any ICAP traffic, keep serving other modules, and
memoize the verdict so clean traces pay one verification per placement.
"""

import numpy as np
import pytest

from repro.fpga.bitstream import Bitstream
from repro.fpga.packets import SYNC_WORD
from repro.sched import (
    COMPLETED,
    REJECTED,
    BitstreamRejected,
    DprScheduler,
    SwapRequest,
    build_sched_soc,
    make_cache,
    replay,
)


@pytest.fixture()
def platform():
    manager = build_sched_soc(4, frame=32)
    manager.soc.attach_observability()
    cache = make_cache(manager, arena_bytes=1 << 20, charge_sd_time=False)
    return manager, cache


def corrupt_resident_bitstream(manager, cache, module):
    """Smash a packet header of ``module``'s DDR-resident stream."""
    descriptor, _hit = cache.get(module)
    soc = manager.soc
    raw = soc.ddr_read(descriptor.start_address, descriptor.pbit_size)
    stream = Bitstream.from_bytes(raw)
    words = np.array(stream.words, copy=True)
    sync = int(np.nonzero(words == np.uint32(SYNC_WORD))[0][0])
    words[sync + 1] = 0x6000_0000  # nonexistent type-3 packet header
    soc.ddr_write(descriptor.start_address, Bitstream(words).to_bytes())
    return descriptor


class TestRejection:
    def test_corrupted_stream_is_rejected_without_icap_traffic(
            self, platform):
        manager, cache = platform
        corrupt_resident_bitstream(manager, cache, "rm0")
        scheduler = DprScheduler(manager, cache=cache, verify=True)
        requests = [SwapRequest("rm0", 10.0, 100_000.0, request_id=i)
                    for i in range(3)]
        outcomes = scheduler.run(requests)
        assert [o.status for o in outcomes] == [REJECTED] * 3
        assert all("failed verification" in (o.error or "")
                   for o in outcomes)
        # the ICAP never saw a word: no reconfiguration, no module loaded
        assert manager.soc.icap.words_consumed == 0
        assert manager.soc.active_module(0) is None

    def test_clean_modules_keep_serving_next_to_a_rejected_one(
            self, platform):
        manager, cache = platform
        corrupt_resident_bitstream(manager, cache, "rm0")
        scheduler = DprScheduler(manager, cache=cache, verify=True)
        requests = [
            SwapRequest("rm0", 10.0, 100_000.0, request_id=0),
            SwapRequest("rm1", 10.0, 200_000.0, request_id=1),
            SwapRequest("rm2", 10.0, 300_000.0, request_id=2),
        ]
        outcomes = scheduler.run(requests)
        by_id = {o.request_id: o.status for o in outcomes}
        assert by_id[0] == REJECTED
        assert by_id[1] == COMPLETED
        assert by_id[2] == COMPLETED

    def test_verify_off_still_attempts_the_load(self, platform):
        # without the gate the corrupted stream reaches the hardware
        # path and fails there (or worse) — the contrast the gate exists
        # to provide
        manager, cache = platform
        corrupt_resident_bitstream(manager, cache, "rm0")
        scheduler = DprScheduler(manager, cache=cache, verify=False)
        outcomes = scheduler.run([SwapRequest("rm0", 10.0, 100_000.0)])
        assert outcomes[0].status != REJECTED
        assert manager.soc.icap.words_consumed > 0


class TestMemoization:
    def test_clean_trace_verifies_each_placement_once(self, platform,
                                                      monkeypatch):
        import repro.verify as verify_mod
        calls = []
        real = verify_mod.verify_bitstream

        def counting(stream, rp, **kwargs):
            calls.append(kwargs.get("name"))
            return real(stream, rp, **kwargs)

        monkeypatch.setattr(verify_mod, "verify_bitstream", counting)
        manager, cache = platform
        scheduler = DprScheduler(manager, cache=cache, verify=True)
        requests = [SwapRequest(f"rm{i % 2}", 10.0 * (i + 1), 500_000.0,
                                request_id=i)
                    for i in range(8)]
        outcomes = scheduler.run(requests)
        assert all(o.status == COMPLETED for o in outcomes)
        # 8 requests over 2 modules, each resident at one address: the
        # memo limits the static analysis to one pass per placement
        assert sorted(calls) == ["rm0", "rm1"]

    def test_rejection_exception_carries_the_findings(self, platform):
        manager, cache = platform
        descriptor = corrupt_resident_bitstream(manager, cache, "rm0")
        scheduler = DprScheduler(manager, cache=cache, verify=True)
        with pytest.raises(BitstreamRejected) as excinfo:
            scheduler._verify_descriptor("rm0", descriptor)
        assert excinfo.value.module == "rm0"
        assert any("VFY-BIT" in message
                   for message in excinfo.value.messages)


class TestReplayIntegration:
    def test_replay_accounts_rejected_in_statuses(self, platform):
        manager, cache = platform
        corrupt_resident_bitstream(manager, cache, "rm0")
        requests = [SwapRequest(f"rm{i % 4}", 10.0 * (i + 1), 500_000.0,
                                request_id=i)
                    for i in range(8)]
        report = replay(manager, requests, cache=cache, verify=True)
        assert report.statuses.get(REJECTED) == 2
        assert report.statuses.get(COMPLETED) == 6
