"""Binary morphology and connected-component analysis.

Dilation/erosion treat everything outside the image as background.  Kernels
are filled discrete ellipses; for even sizes the anchor sits at
``(w // 2, h // 2)`` inside the bounding box, so a 10x10 kernel spans offsets
dx, dy in [-5, 4].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import validate_binary_mask

_EIGHT_CONN = np.ones((3, 3), dtype=np.uint8)


@dataclass(frozen=True)
class StructuringElement:
    width: int
    height: int
    offsets: tuple[tuple[int, int], ...]  # (dx, dy) relative to the anchor

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("structuring element must be non-empty")


def elliptical_kernel(w: int, h: int) -> StructuringElement:
    """Filled discrete ellipse inscribed in a w x h box (row-span rasterization)."""
    if w < 1 or h < 1:
        raise ValueError(f"kernel size must be >= 1, got {w}x{h}")
    cx = (w - 1) / 2.0
    cy = (h - 1) / 2.0
    rx = (w - 1) / 2.0
    ry = (h - 1) / 2.0
    ax, ay = w // 2, h // 2
    offsets = []
    for y in range(h):
        dy = y - cy
        if ry > 0:
            if abs(dy) > ry:
                continue
            half = rx * np.sqrt(max(0.0, 1.0 - (dy / ry) ** 2))
        else:
            half = rx
        x0 = int(round(cx - half))
        x1 = int(round(cx + half))
        for x in range(x0, x1 + 1):
            offsets.append((x - ax, y - ay))
    return StructuringElement(w, h, tuple(offsets))


def _shift(m: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Translate m by (dx, dy); vacated pixels become 0."""
    out = np.zeros_like(m)
    h, w = m.shape
    ys0, ys1 = max(dy, 0), min(h + dy, h)
    xs0, xs1 = max(dx, 0), min(w + dx, w)
    if ys0 >= ys1 or xs0 >= xs1:
        return out
    out[ys0:ys1, xs0:xs1] = m[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return out


def dilate(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    m = validate_binary_mask(m)
    out = np.zeros_like(m, dtype=bool)
    src = m.astype(bool)
    for dx, dy in k.offsets:
        out |= _shift(src, dx, dy)
    return out.astype(np.uint8)


def erode(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    m = validate_binary_mask(m)
    out = np.ones_like(m, dtype=bool)
    src = m.astype(bool)
    for dx, dy in k.offsets:
        out &= _shift(src, -dx, -dy)
    return out.astype(np.uint8)


def close(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    return erode(dilate(m, k), k)


def largest_component(m: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected component (ties: smallest row-major pixel)."""
    m = validate_binary_mask(m)
    labels, n = ndimage.label(m, structure=_EIGHT_CONN)
    if n == 0:
        return np.zeros_like(m)
    # labels follow row-major order of each component's first pixel, so the
    # first maximum is the documented tie winner; only foreground is counted,
    # so bin 0 stays empty and never wins
    best = np.bincount(labels[labels > 0]).argmax()
    return (labels == best).astype(np.uint8)
