"""Core 2D grid conventions and mask set algebra.

All grids are numpy arrays indexed ``[y, x]`` (row-major), origin at the
top-left, x growing rightward and y growing downward.  Pixel ``(x, y)``
therefore lives at flat index ``y * width + x``, and its geometric center is
the point ``(x + 0.5, y + 0.5)``.

Label masks are uint8 arrays with values in {0 = background, 1 = PS, 2 = FH};
binary masks are uint8 {0, 1} arrays.  Probability maps are float32 arrays of
shape (height, width, channels) with per-pixel channel sums equal to 1.
Channel order is (background, PS, FH) for 3 channels and
(negative, positive) for 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError, InvalidClassError

BACKGROUND = 0
PS = 1
FH = 2

CLASS_NAMES = {PS: "PS", FH: "FH"}

PROB_SUM_TOL = 1e-4


class Point(NamedTuple):
    x: float
    y: float


def validate_label_mask(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"label mask must be 2-D, got shape {m.shape}")
    if m.size and m.max() > 2:
        raise ValueError("label mask values must lie in {0, 1, 2}")
    return m.astype(np.uint8, copy=False)


def validate_binary_mask(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"binary mask must be 2-D, got shape {m.shape}")
    if m.dtype == bool:
        return m.astype(np.uint8)
    if m.size and m.max() > 1:
        raise ValueError("binary mask values must lie in {0, 1}")
    return m.astype(np.uint8, copy=False)


def validate_prob_map(p: np.ndarray, tol: float = PROB_SUM_TOL) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 3 or p.shape[2] not in (2, 3):
        raise ValueError(f"probability map must be (H, W, C) with C in {{2, 3}}, got {p.shape}")
    if p.size:
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("probability values must lie in [0, 1]")
        sums = p.sum(axis=2, dtype=np.float64)
        err = np.abs(sums - 1.0)
        if err.max() > tol:
            y, x = np.unravel_index(int(err.argmax()), err.shape)
            raise ValueError(
                f"channel sums must equal 1 within {tol}; worst pixel ({x}, {y}) sums to {sums[y, x]:.6g}"
            )
    return p


def class_mask(labels: np.ndarray, c: int) -> np.ndarray:
    """Binary mask of the pixels carrying class ``c`` (1 = PS, 2 = FH)."""
    if c not in (PS, FH):
        raise InvalidClassError(f"class id must be 1 (PS) or 2 (FH), got {c}")
    labels = validate_label_mask(labels)
    return (labels == c).astype(np.uint8)


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"mask dimensions differ: {a.shape} vs {b.shape}")


def mask_set_counts(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """Pixel counts of (a only, b only, both) for two equal-size binary masks."""
    a = validate_binary_mask(a)
    b = validate_binary_mask(b)
    require_same_shape(a, b)
    fa = a.astype(bool)
    fb = b.astype(bool)
    both = int(np.count_nonzero(fa & fb))
    only_a = int(np.count_nonzero(fa)) - both
    only_b = int(np.count_nonzero(fb)) - both
    return only_a, only_b, both


def pixel_centers(mask: np.ndarray) -> np.ndarray:
    """(N, 2) array of (x, y) centers of the foreground pixels, row-major order."""
    ys, xs = np.nonzero(mask)
    return np.column_stack([xs + 0.5, ys + 0.5])


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background 4-neighbor or on the image border."""
    m = np.asarray(mask, dtype=bool)
    interior = np.zeros_like(m)
    interior[1:-1, 1:-1] = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return m & ~interior


def centroid(mask: np.ndarray) -> Point:
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        raise ValueError("centroid of an empty mask is undefined")
    return Point(float(xs.mean() + 0.5), float(ys.mean() + 0.5))


def finite_point(p: Point) -> Point:
    if not (math.isfinite(p.x) and math.isfinite(p.y)):
        raise ValueError(f"point has non-finite coordinates: {p}")
    return p
