"""Campaign smoke: each kind detects and recovers on a live SoC."""

import pytest

from repro.errors import ControllerError
from repro.faults.campaign import ALL_KINDS, run_fault_sweep, sweep_kinds


@pytest.fixture(scope="module")
def provisioned(provisioned_manager_factory):
    return provisioned_manager_factory()


class TestSweepMechanics:
    def test_unknown_kind_rejected(self, provisioned):
        _soc, manager = provisioned
        with pytest.raises(ControllerError):
            run_fault_sweep(manager, kinds=("cosmic-ray",))

    def test_sweep_kinds_normalization(self):
        assert sweep_kinds(None) == ALL_KINDS
        assert sweep_kinds(["bitflip"]) == ("bitflip",)

    def test_full_sweep_detects_and_recovers(self, provisioned):
        soc, manager = provisioned
        report = run_fault_sweep(manager, points=1, seed=11)
        assert report.points == len(ALL_KINDS)
        assert report.detection_rate == 1.0
        assert report.recovery_rate >= 0.95
        # after the sweep the platform is healthy: RP coupled, module up
        assert not soc.rvcap.rp_control.decoupled
        assert soc.active_module(0) == report.module

    def test_report_renders_rates(self, provisioned):
        _soc, manager = provisioned
        report = run_fault_sweep(manager, points=1, seed=3,
                                 kinds=("truncate",))
        text = report.render()
        assert "truncate" in text
        assert "recovery rate" in text

    def test_polling_mode_sweep(self, provisioned):
        _soc, manager = provisioned
        report = run_fault_sweep(manager, points=1, seed=5,
                                 kinds=("ddr-read", "dma-reset"),
                                 mode="polling")
        assert report.detection_rate == 1.0
        assert report.recovery_rate == 1.0

    def test_deadline_shorter_than_transfer_is_scored(
            self, provisioned_manager_factory):
        """Every attempt times out with the DMA still streaming; the
        point is scored, not raised, and the RP ends coupled with the
        switch on the acceleration path."""
        soc, manager = provisioned_manager_factory()
        report = run_fault_sweep(manager, points=1, seed=7,
                                 kinds=("bitflip",), timeout_us=100.0,
                                 max_attempts=1)
        (outcome,) = report.outcomes
        assert outcome.detected
        assert not outcome.recovered
        assert not soc.rvcap.rp_control.decoupled
        assert not soc.rvcap.in_reconfiguration_mode

    def test_same_seed_reproduces_points(self, provisioned):
        _soc, manager = provisioned
        a = run_fault_sweep(manager, points=2, seed=17, kinds=("bitflip",))
        b = run_fault_sweep(manager, points=2, seed=17, kinds=("bitflip",))
        assert [o.point for o in a.outcomes] == [o.point for o in b.outcomes]
