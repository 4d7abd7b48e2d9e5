"""Observed instruments: the registry reads the components' own counters.

An observed counter is the sum over its sources of each source's count
since it was attached; an observed gauge reduces its sources' current
readings by its merge mode.  Neither takes pushes, both pickle as plain
instruments (the fleet's worker pool returns registries), and merging
or exporting one reads its value at that moment.
"""

import pickle

import pytest

from repro.obs import Observability, metrics_json, prometheus_text
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.soc.builder import build_soc


class _Source:
    def __init__(self, count: int = 0) -> None:
        self.count = count


def _registry_over(source: _Source) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.observed_counter("words_total", "words", source, "count",
                              labels={"port": "icap"})
    registry.observed_gauge("level", "a level", lambda: source.count * 2)
    return registry


class TestObservedInstruments:
    def test_counter_counts_from_attach(self):
        source = _Source(10)
        registry = _registry_over(source)
        source.count += 7
        counter = registry.get("words_total", {"port": "icap"})
        assert counter.value == 7
        # attaching the same source again keeps its first baseline
        registry.observed_counter("words_total", "words", source, "count",
                                  labels={"port": "icap"})
        assert counter.value == 7

    def test_observed_instruments_refuse_pushes(self):
        registry = _registry_over(_Source())
        with pytest.raises(TypeError):
            registry.get("words_total", {"port": "icap"}).inc()
        with pytest.raises(TypeError):
            registry.get("level").set(1.0)
        with pytest.raises(TypeError):
            registry.counter("words_total", labels={"port": "icap"}).inc(1)

    def test_gauge_reduces_its_sources_by_merge_mode(self):
        registry = MetricsRegistry()
        registry.observed_gauge("peak", "", lambda: 3)
        registry.observed_gauge("peak", "", lambda: 8)
        assert registry.get("peak").value == 8  # the default, max

    def test_unpickled_registry_carries_plain_values(self):
        source = _Source()
        registry = _registry_over(source)
        source.count = 5
        copy = pickle.loads(pickle.dumps(registry))
        counter = copy.get("words_total", {"port": "icap"})
        gauge = copy.get("level")
        assert type(counter) is Counter and counter.value == 5
        assert type(gauge) is Gauge and gauge.value == 10
        assert gauge.merge_mode == "max"
        source.count = 50  # the copy no longer reads the source
        assert counter.value == 5 and gauge.value == 10
        counter.inc(2)
        assert copy.snapshot()["words_total{port=\"icap\"}"] == 7

    def test_merging_into_a_plain_registry_adds_the_values(self):
        source = _Source()
        registry = _registry_over(source)
        source.count = 4
        merged = MetricsRegistry()
        merged.counter("words_total", labels={"port": "icap"}).inc(3)
        merged.merge(registry)
        merged.merge(registry)
        assert merged.get("words_total", {"port": "icap"}).value == 3 + 4 + 4
        assert type(merged.get("level")) is Gauge
        assert merged.get("level").value == 8

    def test_exports_match_a_pushed_instrument_of_the_same_value(self):
        source = _Source()
        observed = _registry_over(source)
        source.count = 12
        pushed = MetricsRegistry()
        pushed.counter("words_total", "words", {"port": "icap"}).inc(12)
        pushed.gauge("level", "a level").set(24)
        assert prometheus_text(observed) == prometheus_text(pushed)
        assert metrics_json(observed) == metrics_json(pushed)


def test_two_socs_on_one_observability_sum(small_test_bitstream_bytes):
    # the table2() shape: both controllers' SoCs attach one registry
    obs = Observability()
    socs = [build_soc(with_case_study_modules=False) for _ in range(2)]
    for soc in socs:
        soc.attach_observability(obs)
    data = small_test_bitstream_bytes
    socs[0].icap.accept(data, now=0)
    socs[1].icap.accept(data, now=0)
    socs[1].icap.accept(data, now=10**6)
    ddr = socs[0].config.layout.ddr_base
    for soc, reads in zip(socs, (1, 3), strict=True):
        for _ in range(reads):
            soc.xbar.read(ddr, 8, soc.sim.now)
    snapshot = obs.metrics.snapshot()
    words = len(data) // 4
    assert snapshot["icap_words_total"] == 3 * words
    assert snapshot["icap_sessions_total"] == 3
    assert snapshot['axi_transactions_total{xbar="main_xbar"}'] == 4
    # the soc_* gauges keep the larger SoC's reading (merge mode max)
    assert snapshot["soc_icap_words"] == 2 * words
    assert snapshot["soc_icap_reconfigurations"] == 2
