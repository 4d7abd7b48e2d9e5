"""Golden filter kernels vs the stack-based oracle.

The production filters (:mod:`repro.accel.golden`) must equal the
(9, H, W)-stack forms they replaced (``golden_oracle``) pixel for
pixel, on any uint8 image: full-range pixels, and 2-3-value alphabets
so the median network meets ties; contiguous and strided views; one
row or one column up to 40 x 72.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.accel import GOLDEN_FILTERS, scene_image
from tests.property import golden_oracle
from tests.property.golden_oracle import ORACLE_FILTERS

FILTERS = tuple(GOLDEN_FILTERS)

#: how the image under test is laid out in memory
LAYOUTS = ("contiguous", "row_strided", "col_strided", "transposed",
           "flipped")

_pixels = st.one_of(
    st.just(st.integers(0, 255)),
    st.lists(st.integers(0, 255), min_size=2, max_size=3,
             unique=True).map(st.sampled_from),
)


@st.composite
def images(draw):
    """A uint8 image of 1-40 rows x 1-72 columns in any layout."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 72))
    layout = draw(st.sampled_from(LAYOUTS))
    shape = {"row_strided": (2 * rows, cols),
             "col_strided": (rows, 2 * cols),
             "transposed": (cols, rows)}.get(layout, (rows, cols))
    base = draw(arrays(np.uint8, shape, elements=draw(_pixels)))
    image = {"contiguous": lambda a: a,
             "row_strided": lambda a: a[::2],
             "col_strided": lambda a: a[:, ::2],
             "transposed": lambda a: a.T,
             "flipped": lambda a: a[::-1, ::-1]}[layout](base)
    assert image.shape == (rows, cols)
    return image


def _check(name, image):
    ours = GOLDEN_FILTERS[name](image)
    ref = ORACLE_FILTERS[name](image)
    assert ours.dtype == np.uint8 and ours.shape == image.shape
    assert np.array_equal(ours, ref), name


@pytest.mark.parametrize("name", FILTERS)
@settings(max_examples=300, deadline=None)
@given(image=images())
def test_kernel_matches_oracle(name, image):
    _check(name, image)


@pytest.mark.parametrize("name", FILTERS)
def test_scene_frame_matches_oracle(name):
    _check(name, scene_image(512))


def test_oracle_is_the_stack_form():
    """Liveness: the oracle is not the production code, and its median
    still goes through ``np.median`` over the stacked neighbourhood."""
    assert set(ORACLE_FILTERS) == set(GOLDEN_FILTERS)
    for name in FILTERS:
        assert ORACLE_FILTERS[name] is not GOLDEN_FILTERS[name]
        assert ORACLE_FILTERS[name].__module__ == golden_oracle.__name__
    image = scene_image(64)
    with mock.patch.object(np, "median", wraps=np.median) as median:
        golden_oracle.median3x3(image)
    assert median.call_count == 1
    assert median.call_args.args[0].shape == (9, 64, 64)
    with mock.patch.object(np, "median", wraps=np.median) as median:
        GOLDEN_FILTERS["median"](image)
    assert median.call_count == 0
