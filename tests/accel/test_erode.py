"""The extension RM (erode): registry extensibility beyond the paper."""

import numpy as np
import pytest

from repro.accel import erode3x3, make_filter_module, scene_image


class TestGolden:
    def test_matches_scipy(self):
        from scipy.ndimage import minimum_filter
        img = scene_image(128)
        assert np.array_equal(erode3x3(img),
                              minimum_filter(img, size=3, mode="nearest"))

    def test_erosion_shrinks_bright_speckle(self):
        img = np.zeros((16, 16), dtype=np.uint8)
        img[8, 8] = 255
        assert not erode3x3(img).any()

    def test_flat_unchanged(self):
        flat = np.full((8, 8), 9, dtype=np.uint8)
        assert np.array_equal(erode3x3(flat), flat)


class TestEndToEnd:
    def test_fourth_module_loads_and_runs(self, provisioned_manager_factory):
        """Register erode at runtime, reconfigure, stream an image."""
        soc, manager = provisioned_manager_factory()
        soc.register_module(make_filter_module("erode"))
        manager.provision_sdcard()  # re-provision with all four modules
        manager.init_rmodules()
        image = scene_image(512)
        output, times = manager.process_image("erode", image)
        assert np.array_equal(output, erode3x3(image))
        assert times.tr_us == pytest.approx(1651.0, abs=1.0)
        assert soc.active_module(0) == "erode"

    def test_four_way_swapping(self, provisioned_manager_factory):
        soc, manager = provisioned_manager_factory()
        soc.register_module(make_filter_module("erode"))
        manager.provision_sdcard()
        manager.init_rmodules()
        for name in ("erode", "sobel", "erode", "gaussian"):
            manager.load_module(name)
            assert soc.active_module(0) == name
