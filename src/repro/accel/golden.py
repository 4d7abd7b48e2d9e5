"""Golden (reference) implementations of the case-study image filters.

The paper's case study (Sec. IV-D) uses three HLS-generated 3x3 filters
— Sobel, Median, Gaussian — on 512x512 8-bit grayscale images.  These
numpy implementations define the *functional* contract the streaming
RMs must match bit-exactly; they use edge replication at the borders.

Each filter works on shifted views of one edge-padded copy of the
image, never on a stacked (9, H, W) neighbourhood, and each is exact
in its integer dtype:

- the median runs Paeth's 19-exchange median-of-9 network with
  ``np.minimum``/``np.maximum`` on uint8; the median of nine values is
  one of them, so no arithmetic happens at all;
- the Gaussian is separable, [1,2,1] along each row then down each
  column, in uint16 (at most 16 * 255 + 8);
- the Sobel smooths and differences separably in int16
  (|Gx| + |Gy| <= 2 * 4 * 255);
- erosion is a running ``np.minimum`` over the nine views.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

#: Paeth's median-of-9 exchange network (Devillard's ``opt_med9``):
#: after these compare-exchanges, position 4 holds the median
_MEDIAN9_NETWORK = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5),
    (7, 8), (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7),
    (4, 2), (6, 4), (4, 2),
)


def _pad_replicate(image: np.ndarray, dtype: type = np.uint8) -> np.ndarray:
    """``np.pad(image, 1, mode="edge")`` in ``dtype``, without np.pad's
    generic per-call set-up, which rivals a small slab's filter time."""
    h, w = image.shape
    padded = np.empty((h + 2, w + 2), dtype=dtype)
    padded[1:-1, 1:-1] = image
    padded[0, 1:-1] = image[0]
    padded[-1, 1:-1] = image[-1]
    padded[:, 0] = padded[:, 1]
    padded[:, -1] = padded[:, -2]
    return padded


def _shifted_views(image: np.ndarray) -> list[np.ndarray]:
    """The 9 views of the 3x3 neighbourhood, (dy, dx) row-major."""
    padded = _pad_replicate(image)
    h, w = image.shape
    return [padded[dy : dy + h, dx : dx + w]
            for dy in range(3) for dx in range(3)]


def gaussian3x3(image: np.ndarray) -> np.ndarray:
    """3x3 Gaussian blur, kernel [[1,2,1],[2,4,2],[1,2,1]]/16, rounded."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    padded = _pad_replicate(image, np.uint16)
    rows = padded[:, :w] + 2 * padded[:, 1 : w + 1] + padded[:, 2:]
    acc = rows[:h] + 2 * rows[1 : h + 1] + rows[2:]
    return ((acc + 8) >> 4).astype(np.uint8)  # +8 rounds to nearest


def median3x3(image: np.ndarray) -> np.ndarray:
    """3x3 median filter."""
    image = np.asarray(image, dtype=np.uint8)
    p = _shifted_views(image)
    for a, b in _MEDIAN9_NETWORK:
        p[a], p[b] = np.minimum(p[a], p[b]), np.maximum(p[a], p[b])
    return p[4]


def sobel3x3(image: np.ndarray) -> np.ndarray:
    """Sobel gradient magnitude |Gx| + |Gy|, saturated to 255."""
    image = np.asarray(image, dtype=np.uint8)
    h, w = image.shape
    padded = _pad_replicate(image, np.int16)
    # Gx: vertical [1,2,1] smoothing, then right column minus left
    cols = padded[:h] + 2 * padded[1 : h + 1] + padded[2:]
    # Gy: horizontal [1,2,1] smoothing, then bottom row minus top
    rows = padded[:, :w] + 2 * padded[:, 1 : w + 1] + padded[:, 2:]
    mag = np.abs(cols[:, 2:] - cols[:, :w]) + np.abs(rows[2:] - rows[:h])
    return np.minimum(mag, 255).astype(np.uint8)


def erode3x3(image: np.ndarray) -> np.ndarray:
    """3x3 grayscale erosion (morphological minimum filter).

    Not part of the paper's case study; included as a fourth RM to
    exercise the module registry beyond the published three.
    """
    image = np.asarray(image, dtype=np.uint8)
    return reduce(np.minimum, _shifted_views(image))


GOLDEN_FILTERS = {
    "gaussian": gaussian3x3,
    "median": median3x3,
    "sobel": sobel3x3,
    "erode": erode3x3,
}
