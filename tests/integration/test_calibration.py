"""Paper-vs-measured checks: the numbers EXPERIMENTS.md reports.

These are the load-bearing reproduction assertions.  Each test names
the paper value it anchors; tolerances reflect the CLINT's 200 ns
measurement quantization plus <=1% modelling slack.
"""

import numpy as np
import pytest

from repro.accel import GOLDEN_FILTERS, scene_image


@pytest.fixture(scope="module")
def case_study(provisioned_manager_factory):
    """Run the full Sec. IV-D case study once; share the results."""
    soc, manager = provisioned_manager_factory()
    image = scene_image(512)
    rows = {}
    for name in ("gaussian", "median", "sobel"):
        output, times = manager.process_image(name, image)
        rows[name] = (output, times)
    return image, rows


class TestTable4:
    """Table IV: T_d=18, T_r=1651, T_c=606/598/588, T_ex sums."""

    @pytest.mark.parametrize("name,tc_target,tex_target", [
        ("gaussian", 606.0, 2275.0),
        ("median", 598.0, 2267.0),
        ("sobel", 588.0, 2257.0),
    ])
    def test_row(self, case_study, name, tc_target, tex_target):
        _image, rows = case_study
        _output, times = rows[name]
        assert times.td_us == pytest.approx(18.0, abs=0.4)
        assert times.tr_us == pytest.approx(1651.0, abs=0.6)
        assert times.tc_us == pytest.approx(tc_target, abs=0.6)
        assert times.tex_us == pytest.approx(tex_target, abs=1.5)

    def test_outputs_bit_exact(self, case_study):
        image, rows = case_study
        for name, (output, _times) in rows.items():
            assert np.array_equal(output, GOLDEN_FILTERS[name](image)), name


class TestSection4B:
    """In-text numbers of Sec. IV-B."""

    def test_rvcap_reference_throughput(self, provisioned_manager_factory):
        # 650892 B in 1651 us = 394.2 MB/s at the reference point
        _soc, manager = provisioned_manager_factory()
        result = manager.load_module("sobel")
        assert result.pbit_size == 650_892
        assert result.throughput_mb_s == pytest.approx(394.2, abs=0.5)

    def test_decision_time(self, provisioned_manager_factory):
        _soc, manager = provisioned_manager_factory()
        result = manager.load_module("median")
        assert result.td_us == pytest.approx(18.0, abs=0.4)
