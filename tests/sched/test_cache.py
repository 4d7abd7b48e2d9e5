"""LRU bitstream cache: hits, eviction, accounting, timing."""

import pytest

from repro.errors import CacheCapacityError
from repro.sched import sd_load_cycles
from repro.sched.cache import ARENA_ALIGN


def _pbit_bytes(manager) -> int:
    """Size of one small-RP pbit on the provisioned card."""
    from repro.fat32 import Fat32FileSystem, SdBackdoorBlockDevice
    fs = Fat32FileSystem.mount(SdBackdoorBlockDevice(manager.soc.sdcard))
    return fs.file_size("RM0.PBI")


def _aligned(nbytes: int) -> int:
    return (nbytes + ARENA_ALIGN - 1) & ~(ARENA_ALIGN - 1)


class TestHitMiss:
    def test_first_get_faults_then_hits(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        d1, hit1 = cache.get("rm0")
        d2, hit2 = cache.get("rm0")
        assert (hit1, hit2) == (False, True)
        assert d1.start_address == d2.start_address
        assert d1.start_address >= cache.arena_base
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_descriptor_drives_real_reconfiguration(
            self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        descriptor, _hit = cache.get("rm1")
        result = manager.load_module("rm1", descriptor=descriptor)
        assert result is not None
        assert manager.soc.active_module(0) == "rm1"

    def test_prefetch_does_not_skew_demand_hit_rate(
            self, sched_platform_factory):
        _manager, cache = sched_platform_factory()
        assert cache.prefetch(["rm0", "rm1"]) == 2
        assert cache.stats.misses == 0
        _d, hit = cache.get("rm0")
        assert hit and cache.stats.hit_rate == 1.0

    def test_invalidate_forces_refault(self, sched_platform_factory):
        _manager, cache = sched_platform_factory()
        cache.get("rm0")
        assert cache.invalidate("rm0")
        assert not cache.contains("rm0")
        assert not cache.invalidate("rm0")  # already gone
        _d, hit = cache.get("rm0")
        assert not hit


class TestLru:
    def test_coldest_module_evicted_under_pressure(
            self, sched_platform_factory):
        manager, _ = sched_platform_factory(with_cache=False)
        from repro.sched import make_cache
        two = 2 * _aligned(_pbit_bytes(manager))
        cache = make_cache(manager, arena_bytes=two, charge_sd_time=False)
        cache.get("rm0")
        cache.get("rm1")
        cache.get("rm2")  # arena holds two: rm0 must go
        assert cache.resident_modules == ["rm1", "rm2"]
        assert cache.stats.evictions == 1

    def test_hit_refreshes_lru_position(self, sched_platform_factory):
        manager, _ = sched_platform_factory(with_cache=False)
        from repro.sched import make_cache
        two = 2 * _aligned(_pbit_bytes(manager))
        cache = make_cache(manager, arena_bytes=two, charge_sd_time=False)
        cache.get("rm0")
        cache.get("rm1")
        cache.get("rm0")  # rm0 is now hottest
        cache.get("rm2")  # rm1, not rm0, must be evicted
        assert cache.resident_modules == ["rm0", "rm2"]

    def test_oversized_pbit_rejected(self, sched_platform_factory):
        manager, _ = sched_platform_factory(with_cache=False)
        from repro.sched import make_cache
        cache = make_cache(manager, arena_bytes=1024,
                           charge_sd_time=False)
        with pytest.raises(CacheCapacityError):
            cache.get("rm0")


class TestTiming:
    def test_miss_charges_modelled_sd_time(self, sched_platform_factory):
        manager, cache = sched_platform_factory(charge_sd_time=True)
        sim = manager.soc.sim
        before = sim.now
        descriptor, _ = cache.get("rm0")
        assert sim.now - before == sd_load_cycles(descriptor.pbit_size)

    def test_hit_is_free_of_sd_time(self, sched_platform_factory):
        manager, cache = sched_platform_factory(charge_sd_time=True)
        cache.get("rm0")
        sim = manager.soc.sim
        before = sim.now
        cache.get("rm0")
        assert sim.now == before

    def test_sd_cost_model_is_superlinear_in_blocks(self):
        one_block = sd_load_cycles(512)
        four_blocks = sd_load_cycles(2048)
        assert four_blocks > 3 * one_block
        assert sd_load_cycles(0) == sd_load_cycles(1) > 0


class TestExport:
    def test_export_reads_the_cache_stats(self):
        """Each cache fact is counted once, in CacheStats, and the
        export observes it: prefetches count no demand miss there
        either, and counters that stay 0 are exported at 0."""
        from repro.sched import WorkloadSpec, build_sched_soc, make_cache
        from repro.sched import replay, synthesize

        spec = WorkloadSpec(requests=60, arrival_rate_rps=300.0, modules=8,
                            frame=32, seed=2026)
        manager = build_sched_soc(spec.modules, frame=spec.frame)
        cache = make_cache(manager, arena_bytes=64 << 10)
        report = replay(manager, synthesize(spec), cache=cache,
                        prefetch=["rm0", "rm1", "rm2"])
        snapshot = manager.soc.obs.metrics.snapshot()
        assert report.cache is not None
        for field, name in [("hits", "sched_cache_hits_total"),
                            ("misses", "sched_cache_misses_total"),
                            ("evictions", "sched_cache_evictions_total"),
                            ("sd_bytes_loaded",
                             "sched_cache_sd_bytes_total")]:
            assert snapshot[name] == report.cache[field], name
        assert snapshot["sched_cache_resident_bytes"] == float(
            report.cache["resident_bytes"])
        # the three prefetches loaded from SD, but missed no demand
        assert report.cache["sd_bytes_loaded"] == (
            (report.cache["misses"] + 3) * _pbit_bytes(manager))

    def test_zero_counters_are_exported(self, sched_platform_factory):
        manager, cache = sched_platform_factory()
        cache.get("rm0")
        snapshot = manager.soc.obs.metrics.snapshot()
        assert snapshot["sched_cache_evictions_total"] == 0
        assert snapshot["sched_cache_misses_total"] == 1
