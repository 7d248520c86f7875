"""Binary morphology and connected-component analysis.

Dilation/erosion treat everything outside the image as background.  Kernels
are filled discrete ellipses; for even sizes the anchor sits at
``(w // 2, h // 2)`` inside the bounding box, so a 10x10 kernel spans offsets
dx, dy in [-5, 4].

Each of ``dilate`` and ``erode`` copies its mask once into a background
border as wide as the kernel's ``reach``, then ORs (or ANDs) one
image-sized slice of that copy per kernel offset into its output, in place.
No offset reads past the border, so no slice needs clipping, and a closing
allocates two padded copies and two outputs, not a shifted copy per offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .raster import validate_binary_mask

# the neighborhood of every connected component and edge chain
EIGHT_CONN = np.ones((3, 3), dtype=np.uint8)


@dataclass(frozen=True)
class StructuringElement:
    width: int
    height: int
    offsets: tuple[tuple[int, int], ...]  # (dx, dy) relative to the anchor

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("structuring element must be non-empty")

    @property
    def reach(self) -> int:
        """Largest |dx| or |dy| of an offset: how far from a pixel the kernel reads."""
        return max(max(abs(dx), abs(dy)) for dx, dy in self.offsets)


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


def _views(m: np.ndarray, k: StructuringElement, sign: int):
    """One image-sized view per offset of k: m read sign * (dx, dy) away from each pixel."""
    m = validate_binary_mask(m)
    h, w = m.shape
    r = k.reach
    p = np.zeros((h + 2 * r, w + 2 * r), dtype=np.uint8)
    p[r : r + h, r : r + w] = m
    for dx, dy in k.offsets:
        y, x = r + sign * dy, r + sign * dx
        yield p[y : y + h, x : x + w]


def dilate(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    """out[y, x] = 1 where m[y - dy, x - dx] is set for some (dx, dy) in k."""
    views = _views(m, k, -1)
    out = next(views).copy()
    for v in views:
        out |= v
    return out


def erode(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    """out[y, x] = 1 where m[y + dy, x + dx] is set for every (dx, dy) in k."""
    views = _views(m, k, 1)
    out = next(views).copy()
    for v in views:
        out &= v
    return out


def close(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    return erode(dilate(m, k), k)


def largest_component(m: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected component (ties: smallest row-major pixel)."""
    m = validate_binary_mask(m)
    labels, n = ndimage.label(m, structure=EIGHT_CONN)
    if n == 0:
        return np.zeros_like(m)
    # labels follow row-major order of each component's first pixel, so the
    # first maximum is the documented tie winner; only foreground is counted,
    # so bin 0 stays empty and never wins
    best = np.bincount(labels[labels > 0]).argmax()
    return (labels == best).astype(np.uint8)
