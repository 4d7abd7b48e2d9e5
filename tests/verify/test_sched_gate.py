"""DprScheduler admission gate: verify=True rejects bad streams in-band.

The gate must refuse a corrupted DDR-resident bitstream as status
``rejected`` *before* any ICAP traffic, keep serving other modules, and
memoize the verdict so clean traces pay one verification per placement.
Its verdict is the ICAP's: a stream the port configures is served, one
it refuses is rejected with the gate on and fails without it.
"""

import numpy as np
import pytest

from repro.fpga.bitstream import Bitstream
from repro.fpga.config_memory import ConfigMemory
from repro.fpga.device import KINTEX7_325T
from repro.fpga.icap import Icap
from repro.fpga.packets import SYNC_WORD, Command, ConfigRegister, type1_write
from repro.sched import (
    COMPLETED,
    FAILED,
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


def rewrite_resident_bitstream(manager, cache, module, edit):
    """Apply ``edit`` to the words of ``module``'s DDR-resident stream."""
    descriptor, _hit = cache.get(module)
    soc = manager.soc
    raw = soc.ddr_read(descriptor.start_address, descriptor.pbit_size)
    words = np.array(Bitstream.from_bytes(raw).words, copy=True)
    edit(words)
    soc.ddr_write(descriptor.start_address, Bitstream(words).to_bytes())


def null_wcfg_with_a_good_crc(words):
    """CMD=WCFG becomes CMD=NULL, and the CRC check word still matches."""
    cmd = type1_write(ConfigRegister.CMD, 1)
    wcfg = next(i for i in range(1, len(words))
                if words[i - 1] == cmd and words[i] == Command.WCFG)
    words[wcfg] = Command.NULL
    check = int(np.flatnonzero(
        words == type1_write(ConfigRegister.CRC, 1))[-1]) + 1
    icap = Icap(ConfigMemory(KINTEX7_325T))
    icap.accept(Bitstream(words[:check - 1]).to_bytes(), 0)
    words[check] = icap._running_crc()


class TestTheVerdictIsTheIcaps:
    def test_a_pad_word_the_icap_ignores_is_served(self, platform):
        manager, cache = platform

        def flip_last_pad_word(words):
            words[-1] ^= 1

        rewrite_resident_bitstream(manager, cache, "rm1", flip_last_pad_word)
        report = replay(manager, [SwapRequest("rm1", 10.0, 100_000.0)],
                        cache=cache, verify=True)
        assert report.statuses.get(COMPLETED) == 1
        assert manager.soc.active_module(0) == "rm1"

    def test_frame_data_without_wcfg_is_rejected(self, platform):
        manager, cache = platform
        rewrite_resident_bitstream(manager, cache, "rm1",
                                   null_wcfg_with_a_good_crc)
        scheduler = DprScheduler(manager, cache=cache, verify=True)
        [outcome] = scheduler.run([SwapRequest("rm1", 10.0, 100_000.0)])
        assert outcome.status == REJECTED
        assert "VFY-BIT-006" in outcome.error
        assert manager.soc.icap.words_consumed == 0

    def test_frame_data_without_wcfg_fails_without_the_gate(self, platform):
        # the ICAP commits frame data only under WCFG: the swap fails and
        # the partition's frames stay unwritten
        manager, cache = platform
        rewrite_resident_bitstream(manager, cache, "rm1",
                                   null_wcfg_with_a_good_crc)
        scheduler = DprScheduler(manager, cache=cache, verify=False)
        [outcome] = scheduler.run([SwapRequest("rm1", 10.0, 100_000.0)])
        assert outcome.status == FAILED
        assert "protocol check failed" in outcome.error
        assert manager.soc.icap.config_memory.frames_written == 0
        assert manager.soc.active_module(0) is None
