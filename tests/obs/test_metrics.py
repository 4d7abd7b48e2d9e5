"""Unit tests for the metrics registry and HDR histogram bucketing."""

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    _bucket_index,
    _bucket_upper_bound,
)


class TestBucketing:
    def test_small_values_exact(self):
        for value in range(8):
            index = _bucket_index(value)
            assert _bucket_upper_bound(index) == value

    def test_monotone_nondecreasing(self):
        indices = [_bucket_index(v) for v in range(1, 100_000, 37)]
        assert indices == sorted(indices)

    def test_relative_error_bounded(self):
        # HDR property: bucket upper bound within 12.5% of any member
        for value in (9, 100, 1_000, 65_535, 1_000_000, 123_456_789):
            upper = _bucket_upper_bound(_bucket_index(value))
            assert upper >= value
            assert (upper - value) / value <= 0.125

    def test_value_within_own_bucket(self):
        for value in (8, 15, 16, 17, 255, 256, 1 << 20):
            index = _bucket_index(value)
            assert _bucket_upper_bound(index) >= value
            if index > 0:
                assert _bucket_upper_bound(index - 1) < value


class TestInstruments:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge(self):
        g = Gauge("n")
        g.set(2.5)
        assert g.value == 2.5
        g.set(-1)
        assert g.value == -1

    def test_histogram_stats(self):
        h = Histogram("n")
        for v in (10, 20, 30, 40):
            h.record(v)
        assert h.count == 4
        assert h.total == 100
        assert h.mean == 25.0
        assert h.min == 10 and h.max == 40

    def test_histogram_percentiles(self):
        h = Histogram("n")
        for v in range(1, 101):
            h.record(v)
        assert h.percentile(0.0) <= h.percentile(0.5) <= h.percentile(1.0)
        assert h.percentile(1.0) == 100
        # p50 within HDR quantization error of the true median
        assert 50 <= h.percentile(0.5) <= 57

    @pytest.mark.parametrize("value", [0, 7, 8, 4095, 4096, 4097, 65_537,
                                       123_456_789])
    def test_record_lands_in_its_bucket(self, value):
        # through the small-value table and the octave formula above it
        h = Histogram("n")
        h.record(value)
        assert h.buckets == {_bucket_index(value): 1}

    def test_histogram_negative_clamped(self):
        h = Histogram("n")
        h.record(-5)
        assert h.min == 0 and h.count == 1

    def test_empty_histogram(self):
        h = Histogram("n")
        assert h.mean == 0.0
        assert h.percentile(0.99) == 0

    def test_cumulative_buckets(self):
        h = Histogram("n")
        for v in (1, 1, 2, 100):
            h.record(v)
        pairs = h.cumulative_buckets()
        assert pairs[-1][1] == 4  # total count
        uppers = [u for u, _ in pairs]
        assert uppers == sorted(uppers)

    @staticmethod
    def _state(h):
        return (dict(h.buckets), h.count, h.total, h.min, h.max,
                h.cumulative_buckets())

    @pytest.mark.parametrize("value", [0, 3, 7, 8, 19, 23, 1_000, 65_537,
                                       123_456_789])
    @pytest.mark.parametrize("count", [1, 2, 17])
    def test_record_count_matches_repeated_record(self, value, count):
        # values from the exact unit buckets into the HDR octaves
        counted, repeated = Histogram("a"), Histogram("b")
        for h in (counted, repeated):
            h.record(5)  # a prior sample, so min/max merge too
        counted.record_count(value, count)
        for _ in range(count):
            repeated.record(value)
        assert self._state(counted) == self._state(repeated)

    def test_record_count_zero_is_a_no_op(self):
        h = Histogram("n")
        h.record_count(42, 0)
        assert self._state(h) == self._state(Histogram("n"))
        assert h.min is None and h.max is None

    def test_record_count_clamps_negative_values(self):
        counted, repeated = Histogram("a"), Histogram("b")
        counted.record_count(-9, 3)
        for _ in range(3):
            repeated.record(-9)
        assert self._state(counted) == self._state(repeated)
        assert counted.min == 0 and counted.total == 0

    def test_label_suffix(self):
        c = Counter("n", labels={"b": "2", "a": "1"})
        assert c.label_suffix == '{a="1",b="2"}'  # sorted, stable


class TestRegistry:
    def test_idempotent_per_name_and_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("hits")
        b = reg.counter("hits")
        assert a is b
        c = reg.counter("hits", labels={"port": "icap"})
        assert c is not a

    def test_kind_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_instruments_sorted(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        reg.counter("mm", labels={"k": "v"})
        names = [i.name for i in reg.instruments()]
        assert names == ["aa", "mm", "zz"]

    def test_get(self):
        reg = MetricsRegistry()
        c = reg.counter("x", labels={"a": "b"})
        assert reg.get("x", {"a": "b"}) is c
        assert reg.get("x") is None

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(1.5)
        h = reg.histogram("h")
        h.record(10)
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 1.5
        assert snap["h"]["count"] == 1 and snap["h"]["p99"] >= 10


class TestMerge:
    """Cross-shard merge semantics (the fleet determinism contract)."""

    def test_counters_sum(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("reqs").inc(3)
        b.counter("reqs").inc(4)
        b.counter("only_b").inc(1)
        a.merge(b)
        assert a.get("reqs").value == 7
        assert a.get("only_b").value == 1

    def test_histograms_add_bucket_wise(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for v in (10, 20, 30):
            a.histogram("lat").record(v)
        for v in (5, 40_000):
            b.histogram("lat").record(v)
        a.merge(b)
        h = a.get("lat")
        assert h.count == 5
        assert h.total == 10 + 20 + 30 + 5 + 40_000
        assert h.min == 5 and h.max == 40_000
        # bucket-wise add: merged buckets equal a fresh recording of all
        ref = Histogram("ref")
        for v in (10, 20, 30, 5, 40_000):
            ref.record(v)
        assert h.buckets == ref.buckets

    def test_gauge_default_max_keeps_peak(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("peak").set(7.0)
        b.gauge("peak").set(9.0)
        a.merge(b)
        assert a.get("peak").value == 9.0
        # and order-independent: merging the smaller in changes nothing
        c = MetricsRegistry()
        c.gauge("peak").set(1.0)
        a.merge(c)
        assert a.get("peak").value == 9.0

    def test_gauge_explicit_reductions(self):
        for mode, a_val, b_val, want in [
                ("min", 7.0, 9.0, 7.0),
                ("sum", 7.0, 9.0, 16.0),
                ("last", 7.0, 9.0, 9.0)]:
            a, b = MetricsRegistry(), MetricsRegistry()
            a.gauge("g", merge_mode=mode).set(a_val)
            b.gauge("g", merge_mode=mode).set(b_val)
            a.merge(b)
            assert a.get("g").value == want, mode

    def test_destination_mode_wins(self):
        # the merge policy is the destination's, not the source's
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("g", merge_mode="sum").set(1.0)
        b.gauge("g", merge_mode="max").set(10.0)
        a.merge(b)
        assert a.get("g").value == 11.0

    def test_unseen_gauge_adopts_source_mode_and_value(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.gauge("fresh", merge_mode="sum").set(4.0)
        a.merge(b)
        g = a.get("fresh")
        assert g.value == 4.0 and g.merge_mode == "sum"
        # subsequent merges then reduce with the adopted mode
        c = MetricsRegistry()
        c.gauge("fresh", merge_mode="sum").set(6.0)
        a.merge(c)
        assert a.get("fresh").value == 10.0

    def test_invalid_merge_mode_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.gauge("g", merge_mode="median")
        with pytest.raises(ValueError):
            Gauge("g", merge_mode="avg")

    def test_labeled_instruments_merge_per_label_set(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", labels={"tenant": "x"}).inc(1)
        b.counter("c", labels={"tenant": "x"}).inc(2)
        b.counter("c", labels={"tenant": "y"}).inc(5)
        a.merge(b)
        assert a.get("c", {"tenant": "x"}).value == 3
        assert a.get("c", {"tenant": "y"}).value == 5
