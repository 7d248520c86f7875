"""Binary morphology and connected-component analysis.

Dilation/erosion treat everything outside the image as background.  Kernels
are filled discrete ellipses; for even sizes the anchor sits at
``(w // 2, h // 2)`` inside the bounding box, so a 10x10 kernel spans offsets
dx, dy in [-5, 4].

Each of ``dilate`` and ``erode`` copies its mask once into a background
border as wide as the kernel's ``reach``.  It reads the kernel as horizontal
runs of offsets (``StructuringElement.runs``) and builds a doubling ladder
over the padded copy (van Herk 1992): level i ORs (or ANDs) the 2**i pixels
from each pixel rightward, as two shifted copies of level i - 1.  A run of
length n is then two overlapping image-sized slices of the level of the
largest power of two <= n; OR and AND are idempotent, so the overlap is
harmless, and the result is the same set as one slice per offset.  The
10x10 kernel's 70 offsets are 10 runs of lengths 1, 6, 8 and 10: 3 ladder
levels and 16 slices, not 70 slices.  No run reads past the border, so no
slice needs clipping.

``largest_component`` labels row runs, not pixels.  One diff over a copy
padded with a background column on each side finds every run's start and
(exclusive) end, in row-major order.  Run j of the next row touches run i
when s_j <= e_i and e_j >= s_i; two ``searchsorted`` calls over the flat
run bounds find all such pairs.  Each pair hooks its larger label onto its
smaller, and pointer jumping then flattens the label forest, until no pair
joins two labels.  A component's label is thus its smallest run index, the
run that holds its first row-major pixel.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .raster import validate_binary_mask

@dataclass(frozen=True)
class StructuringElement:
    width: int
    height: int
    offsets: tuple[tuple[int, int], ...]  # (dx, dy) relative to the anchor

    def __post_init__(self):
        if not self.offsets:
            raise ValueError("structuring element must be non-empty")

    @functools.cached_property
    def reach(self) -> int:
        """Largest |dx| or |dy| of an offset: how far from a pixel the kernel reads."""
        return max(max(abs(dx), abs(dy)) for dx, dy in self.offsets)

    @functools.cached_property
    def runs(self) -> tuple[tuple[int, int, int], ...]:
        """The offsets as horizontal runs (dy, first dx, length), ordered by dy, then dx."""
        runs = []
        for dx, dy in sorted(set(self.offsets), key=lambda o: (o[1], o[0])):
            if runs and runs[-1][0] == dy and runs[-1][1] + runs[-1][2] == dx:
                runs[-1][2] += 1
            else:
                runs.append([dy, dx, 1])
        return tuple(map(tuple, runs))


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


def _combine(m: np.ndarray, k: StructuringElement, sign: int, op) -> np.ndarray:
    """At each pixel, op over m read sign * (dx, dy) away, for every offset (dx, dy) of k."""
    m = validate_binary_mask(m)
    h, w = m.shape
    r = k.reach
    p = np.zeros((h + 2 * r, w + 2 * r), dtype=np.uint8)
    p[r : r + h, r : r + w] = m
    # ladder[i][y, x] is op over p[y, x : x + 2**i]
    ladder = [p]
    for i in range(max(n for _, _, n in k.runs).bit_length() - 1):
        ladder.append(op(ladder[i][:, : -(1 << i)], ladder[i][:, 1 << i :]))
    out = None
    for dy, dx, n in k.runs:
        i = n.bit_length() - 1
        y = r + sign * dy
        x = r + (dx if sign > 0 else -(dx + n - 1))  # the run's leftmost column read
        for c in (x, x + n - (1 << i)) if n & (n - 1) else (x,):
            v = ladder[i][y : y + h, c : c + w]
            if out is None:
                out = v.copy()
            else:
                op(out, v, out=out)
    return out


def dilate(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    """out[y, x] = 1 where m[y - dy, x - dx] is set for some (dx, dy) in k."""
    return _combine(m, k, -1, np.bitwise_or)


def erode(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    """out[y, x] = 1 where m[y + dy, x + dx] is set for every (dx, dy) in k."""
    return _combine(m, k, 1, np.bitwise_and)


def close(m: np.ndarray, k: StructuringElement) -> np.ndarray:
    return erode(dilate(m, k), k)


def largest_component(m: np.ndarray) -> np.ndarray:
    """Keep only the largest 8-connected component (ties: smallest row-major pixel)."""
    m = validate_binary_mask(m)
    h, w = m.shape
    wp = w + 2
    p = np.zeros((h, wp), dtype=bool)
    p[:, 1:-1] = m
    # flat indices in p of each run's start and end; the changes alternate
    bounds = np.flatnonzero(np.diff(p.ravel())) + 1
    starts, ends = bounds[0::2], bounds[1::2]
    n = starts.size
    if n == 0:
        return np.zeros((h, w), dtype=np.uint8)
    # the runs j touching run i are those of [lo_i, lo_i + cnt_i): one row
    # down is wp further on, and the bounds are integers, so "s_j <= e_i" is
    # "s_j < e_i + 1"
    lo = np.searchsorted(ends, starts + wp)
    cnt = np.searchsorted(starts, ends + (wp + 1)) - lo
    labels = np.arange(n)
    pairs = int(cnt.sum())
    if pairs:
        i = np.repeat(labels, cnt)
        j = np.arange(pairs) + np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
        small, large = i, j  # i < j: run i lies in the row above
        # a label never exceeds its run's index, so no chain is longer than n
        # and n.bit_length() jumps flatten any forest
        jumps = n.bit_length()
        while True:
            np.minimum.at(labels, large, small)
            for _ in range(jumps):
                labels = labels[labels]
            a, b = labels[i], labels[j]
            apart = a != b
            if not apart.any():
                break
            a, b = a[apart], b[apart]
            small, large = np.minimum(a, b), np.maximum(a, b)
    lengths = ends - starts
    # only roots have a nonzero size, and the first maximum is the smallest root
    drop = labels != np.bincount(labels, lengths).argmax()
    out = p[:, 1:-1].astype(np.uint8)  # C order, 0/1; most masks hold one component
    if drop.any():
        s, k = starts[drop], lengths[drop]
        s = s - 2 * (s // wp) - 1  # flat index in m: each row above held two pad columns
        out.reshape(-1)[np.arange(k.sum()) + np.repeat(s - (np.cumsum(k) - k), k)] = 0
    return out
