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

from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionMismatchError

BACKGROUND = 0
PS = 1
FH = 2

CLASS_NAMES = {PS: "PS", FH: "FH"}

# the file tolerance documented for FPM maps; every later check of a map read
# from a file uses it too, so nothing the reader accepts is rejected downstream
PROB_SUM_TOL = 1e-3


class Point(NamedTuple):
    x: float
    y: float


def _validate_mask(m: np.ndarray, kind: str, top: int) -> np.ndarray:
    """m as a 2-D uint8 array, with no copy when it is one; every value must lie in [0, top]."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"{kind} mask must be 2-D, got shape {m.shape}")
    # written so that NaN, which fails every comparison, is rejected; an
    # unsigned or bool mask cannot go below 0, so it takes a single pass
    if m.size and not (m.max() <= top and (m.dtype.kind in "ub" or m.min() >= 0)):
        values = ", ".join(str(v) for v in range(top + 1))
        raise ValueError(f"{kind} mask values must lie in {{{values}}}")
    return m.astype(np.uint8, copy=False)


def validate_label_mask(m: np.ndarray) -> np.ndarray:
    return _validate_mask(m, "label", FH)


def validate_binary_mask(m: np.ndarray) -> np.ndarray:
    return _validate_mask(m, "binary", 1)


def validate_prob_map(p: np.ndarray, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Check shape, range and channel sums (within ``PROB_SUM_TOL``); return ``p`` as a float array.

    A float32 map is returned as it is, without a copy; any other input goes
    to float64.  Channel sums accumulate in float64, channel by channel in
    index order.  A pixel is named at (x, y) + origin, as in ``pixel_centers``.
    """
    p = np.asarray(p)
    if p.dtype != np.float32:
        p = np.asarray(p, dtype=np.float64)
    if p.ndim != 3 or p.shape[2] not in (2, 3):
        raise ValueError(f"probability map must be (H, W, C) with C in {{2, 3}}, got {p.shape}")
    if p.size:
        # written so that NaN, which fails every comparison, is rejected
        if not (p.min() >= 0.0 and p.max() <= 1.0):
            raise ValueError("probability values must lie in [0, 1]")
        sums = np.add(p[..., 0], p[..., 1], dtype=np.float64)
        for c in range(2, p.shape[2]):
            sums += p[..., c]
        # max |s - 1| from the extremes, so the passing path makes no more copies
        if max(sums.max() - 1.0, 1.0 - sums.min()) > PROB_SUM_TOL:
            err = np.abs(sums - 1.0)
            y, x = np.unravel_index(int(err.argmax()), err.shape)
            raise ValueError(
                f"channel sums must equal 1 within {PROB_SUM_TOL}; "
                f"worst pixel ({x + origin[0]}, {y + origin[1]}) sums to {sums[y, x]:.6g}"
            )
    return p


def require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(f"mask dimensions differ: {a.shape} vs {b.shape}")


def mask_set_counts(a: np.ndarray, b: np.ndarray) -> tuple[int, int, int]:
    """Pixel counts of (a only, b only, both) for two equal-size binary masks."""
    a = validate_binary_mask(a)
    b = validate_binary_mask(b)
    require_same_shape(a, b)
    both = int(np.count_nonzero(a & b))
    only_a = int(np.count_nonzero(a)) - both
    only_b = int(np.count_nonzero(b)) - both
    return only_a, only_b, both


def pixel_centers(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """(N, 2) array of (x, y) centers of the foreground pixels, row-major order.

    Pixel (x, y) of mask is pixel (x + origin[0], y + origin[1]) of its frame.
    """
    ys, xs = np.nonzero(mask)
    return np.column_stack([xs + origin[0] + 0.5, ys + origin[1] + 0.5])


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground pixels with a background 4-neighbor or on the image border."""
    m = np.asarray(mask, dtype=bool)
    interior = np.zeros_like(m)
    interior[1:-1, 1:-1] = m[1:-1, 1:-1] & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
    return m & ~interior


def bounding_window(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> Optional[tuple[int, int, np.ndarray]]:
    """(x0, y0, window): mask trimmed to the bounding box of its foreground.

    The window is a view of mask; (x0, y0) is its top-left pixel in the frame
    in which mask's pixel (0, 0) sits at origin.  None when mask is empty.
    """
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    return origin[0] + c0, origin[1] + r0, mask[r0:r1, c0:c1]


def paste(window: tuple[int, int, np.ndarray], box: tuple[int, int, int, int]) -> np.ndarray:
    """The (x0, y0, mask) window inside box = (x0, y0, x1, y1), on the box's uint8 grid of zeros."""
    x, y, m = window
    bx0, by0, bx1, by1 = box
    out = np.zeros((by1 - by0, bx1 - bx0), dtype=np.uint8)
    out[y - by0 : y - by0 + m.shape[0], x - bx0 : x - bx0 + m.shape[1]] = m
    return out


def centroid(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> Point:
    """Mean pixel center of the foreground, in the frame of ``pixel_centers``."""
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        raise ValueError("centroid of an empty mask is undefined")
    # shift the integer indices, not the mean, so a window gives the frame's floats
    return Point(float((xs + origin[0]).mean() + 0.5), float((ys + origin[1]).mean() + 0.5))
