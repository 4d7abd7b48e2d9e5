"""The stack-based 3x3 filters: the golden kernels' oracle.

:mod:`repro.accel.golden` filters on shifted views of one edge-padded
array: an exchange network for the median, separable sums for the
Gaussian and the Sobel, a running minimum for erosion.  This module
keeps the form those kernels replaced, which stacks the nine
neighbourhood views into one (9, H, W) array and reduces over its
first axis (``np.median``, a weighted ``tensordot``, ``min``), as the
reference ``test_golden_kernel_props.py`` compares against.  It
imports only numpy.
"""

from __future__ import annotations

import numpy as np


def neighborhood_stack(image: np.ndarray) -> np.ndarray:
    """Stack the 9 shifted views of the 3x3 neighborhood: (9, H, W)."""
    padded = np.pad(image, 1, mode="edge")
    h, w = image.shape
    views = [
        padded[dy : dy + h, dx : dx + w]
        for dy in range(3)
        for dx in range(3)
    ]
    return np.stack(views)


def gaussian3x3(image: np.ndarray) -> np.ndarray:
    """3x3 Gaussian blur, kernel [[1,2,1],[2,4,2],[1,2,1]]/16, rounded."""
    image = np.asarray(image, dtype=np.uint8)
    stack = neighborhood_stack(image).astype(np.uint32)
    weights = np.array([1, 2, 1, 2, 4, 2, 1, 2, 1], dtype=np.uint32)
    acc = np.tensordot(weights, stack, axes=1)
    return ((acc + 8) >> 4).astype(np.uint8)  # +8 rounds to nearest


def median3x3(image: np.ndarray) -> np.ndarray:
    """3x3 median filter."""
    image = np.asarray(image, dtype=np.uint8)
    stack = neighborhood_stack(image)
    return np.median(stack, axis=0).astype(np.uint8)


def sobel3x3(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude |Gx| + |Gy|, saturated to 255."""
    image = np.asarray(image, dtype=np.uint8)
    stack = neighborhood_stack(image).astype(np.int32)
    # stack order is (dy, dx) row-major: index = dy*3 + dx
    gx = (stack[2] + 2 * stack[5] + stack[8]) - (stack[0] + 2 * stack[3] + stack[6])
    gy = (stack[6] + 2 * stack[7] + stack[8]) - (stack[0] + 2 * stack[1] + stack[2])
    mag = np.abs(gx) + np.abs(gy)
    return np.clip(mag, 0, 255).astype(np.uint8)


def erode3x3(image: np.ndarray) -> np.ndarray:
    """3x3 grayscale erosion (morphological minimum filter)."""
    image = np.asarray(image, dtype=np.uint8)
    return neighborhood_stack(image).min(axis=0)


ORACLE_FILTERS = {
    "gaussian": gaussian3x3,
    "median": median3x3,
    "sobel": sobel3x3,
    "erode": erode3x3,
}
