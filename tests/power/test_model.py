"""Exact-arithmetic tests for the span-driven power model."""

import pytest

from repro.obs.tracer import SpanTracer
from repro.power import DEFAULT_PROFILE, PowerIntegrator, PowerModel

#: 1000 cycles = 1 us, so mW x cycles/1000 = nJ with no rounding slop
FREQ = 1e9


def _trace_one_dma_reconfig() -> SpanTracer:
    """icap session + one DMA transfer + the driver span, all [0, 1000)."""
    tracer = SpanTracer()
    driver = tracer.begin("driver", "reconfig", 0)
    icap = tracer.begin("icap", "session", 0)
    dma = tracer.begin("dma.mm2s", "transfer", 0, bytes=1280)
    tracer.end(dma, 1000)
    tracer.end(icap, 1000)
    tracer.end(driver, 1000)
    return tracer


class TestComponentEnergy:
    def test_exact_hand_computed_energies(self):
        p = DEFAULT_PROFILE
        model = PowerModel(p)
        tracer = _trace_one_dma_reconfig()
        energy = model.component_energy(
            model.contributions(tracer), 0, 1000, freq_hz=FREQ)
        assert energy["static"] == pytest.approx(p.floor_mw)  # 1 us
        assert energy["icap"] == pytest.approx(p.icap_active_mw)
        assert energy["cpu"] == pytest.approx(p.cpu_active_mw)
        bursts = -(-1280 // p.dma_burst_bytes)
        assert energy["dma"] == pytest.approx(
            p.dma_active_mw + bursts * p.dma_burst_nj + p.dma_descriptor_nj)
        assert energy["ddr"] == pytest.approx(
            1280 * p.ddr_pj_per_byte * 1e-3 + p.ddr_activate_nj)
        assert energy["accel"] == 0.0

    def test_half_window_halves_interval_and_event_energy(self):
        model = PowerModel()
        contribs = model.contributions(_trace_one_dma_reconfig())
        full = model.component_energy(contribs, 0, 1000, freq_hz=FREQ)
        half = model.component_energy(contribs, 0, 500, freq_hz=FREQ)
        for component, nj in full.items():
            assert half[component] == pytest.approx(nj / 2)

    def test_zero_length_span_is_an_impulse(self):
        model = PowerModel()
        tracer = SpanTracer()
        dma = tracer.begin("dma.mm2s", "transfer", 100, bytes=128)
        tracer.end(dma, 100)
        contribs = model.contributions(tracer)
        inside = model.component_energy(contribs, 0, 200, freq_hz=FREQ)
        outside = model.component_energy(contribs, 200, 400, freq_hz=FREQ)
        p = DEFAULT_PROFILE
        assert inside["dma"] == pytest.approx(
            p.dma_burst_nj + p.dma_descriptor_nj)
        assert outside["dma"] == 0.0

    def test_accel_run_charges_cpu_and_accel(self):
        model = PowerModel()
        tracer = SpanTracer()
        span = tracer.begin("driver", "accel_run", 0)
        tracer.end(span, 2000)
        energy = model.component_energy(
            model.contributions(tracer), 0, 2000, freq_hz=FREQ)
        p = DEFAULT_PROFILE
        assert energy["cpu"] == pytest.approx(2 * p.cpu_active_mw)
        assert energy["accel"] == pytest.approx(2 * p.accel_active_mw)


class TestSeriesAndIntegrator:
    def test_series_integral_equals_component_sum(self):
        model = PowerModel()
        tracer = _trace_one_dma_reconfig()
        contribs = model.contributions(tracer)
        energy = model.component_energy(contribs, 0, 1000, freq_hz=FREQ)
        integrator = PowerIntegrator(model, tracer, freq_hz=FREQ,
                                     contributions=contribs)
        assert integrator.energy_nj(0, 1000) == pytest.approx(
            sum(energy.values()))

    def test_series_starts_and_ends_at_floor(self):
        model = PowerModel()
        series = model.series(_trace_one_dma_reconfig(), freq_hz=FREQ)
        assert series[0][0] == 0
        assert series[-1][1] == pytest.approx(DEFAULT_PROFILE.floor_mw)
        assert series[0][1] > DEFAULT_PROFILE.floor_mw  # active at t=0

    def test_integrator_subwindow_additivity(self):
        model = PowerModel()
        tracer = _trace_one_dma_reconfig()
        integrator = PowerIntegrator(model, tracer, freq_hz=FREQ)
        whole = integrator.energy_nj(0, 1000)
        parts = (integrator.energy_nj(0, 300)
                 + integrator.energy_nj(300, 700)
                 + integrator.energy_nj(700, 1000))
        assert parts == pytest.approx(whole)

    def test_integrator_counts_impulse_once(self):
        model = PowerModel()
        tracer = SpanTracer()
        dma = tracer.begin("dma.mm2s", "transfer", 100, bytes=128)
        tracer.end(dma, 100)
        anchor = tracer.begin("icap", "session", 0)
        tracer.end(anchor, 200)
        integrator = PowerIntegrator(model, tracer, freq_hz=FREQ)
        p = DEFAULT_PROFILE
        impulse = p.dma_burst_nj + p.dma_descriptor_nj \
            + 128 * p.ddr_pj_per_byte * 1e-3 + p.ddr_activate_nj
        left = integrator.energy_nj(0, 100)
        covering = integrator.energy_nj(0, 101)
        right = integrator.energy_nj(101, 200)
        # the impulse lands exactly once, in the window containing 100
        assert covering - left == pytest.approx(
            impulse + (p.floor_mw + p.icap_active_mw) / 1000)
        assert left + (covering - left) + right == pytest.approx(
            integrator.energy_nj(0, 200))


class TestAnnotateAndInject:
    def test_annotate_writes_energy_to_matching_tracks(self):
        model = PowerModel()
        tracer = _trace_one_dma_reconfig()
        other = tracer.begin("axi", "burst", 0)
        tracer.end(other, 10)
        count = model.annotate(tracer, freq_hz=FREQ)
        annotated = [s for s in tracer.spans if "energy_nj" in (s.args or {})]
        assert count == len(annotated) == 3  # driver, icap, dma.mm2s
        assert "energy_nj" not in (other.args or {})
        driver = tracer.find("driver", "reconfig")[0]
        integrator = PowerIntegrator(model, tracer, freq_hz=FREQ)
        assert driver.args["energy_nj"] == pytest.approx(
            round(integrator.energy_nj(0, 1000), 3))

    def test_annotate_skips_open_spans(self):
        model = PowerModel()
        tracer = SpanTracer()
        tracer.begin("driver", "reconfig", 0)  # never ended
        assert model.annotate(tracer, freq_hz=FREQ) == 0

    def test_inject_power_track_feeds_counters_and_signals(self):
        model = PowerModel()
        tracer = _trace_one_dma_reconfig()
        samples = model.inject_power_track(tracer, freq_hz=FREQ)
        names = {name for _cycle, name, _value in tracer.counter_samples}
        assert "power_mw" in names
        assert samples == len([s for s in tracer.counter_samples
                               if s[1] == "power_mw"])
        assert "power_mw" in tracer.signals
        # the signal holds integer mW levels, floor at the tail
        assert tracer.signals["power_mw"][-1][1] == int(
            round(DEFAULT_PROFILE.floor_mw))

