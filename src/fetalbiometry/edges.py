"""Edge detection on binary masks: Sobel gradient and non-maximum
suppression, and splitting edge maps into 8-connected chains.

Canny's hysteresis step is left out: on a binary mask every nonzero Sobel
magnitude is at least the step height, so thresholds below it keep every pixel
that survives non-maximum suppression.  Out-of-bounds reads are background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import NoEdgesError
from .raster import validate_binary_mask

_EIGHT_CONN = np.ones((3, 3), dtype=np.uint8)

# neighbor offsets by quantized gradient angle, 45 degrees apart, y down
_DIR_OFFSETS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


@dataclass(frozen=True)
class EdgeChain:
    points: tuple[tuple[int, int], ...]  # (x, y) pixels of one 8-connected component, row-major

    def __len__(self):
        return len(self.points)


def gradient(img: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """3x3 Sobel derivatives with zero padding; returns (gx, gy, magnitude)."""
    p = np.pad(np.asarray(img, dtype=np.float64), 1)
    # separable Sobel: smooth [1,2,1] across, difference [-1,0,1] along
    sy = p[:-2, :] + 2 * p[1:-1, :] + p[2:, :]
    sx = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    gx = sy[:, 2:] - sy[:, :-2]
    gy = sx[2:, :] - sx[:-2, :]
    return gx, gy, np.hypot(gx, gy)


def _nonmax_suppress(gx: np.ndarray, gy: np.ndarray, mag: np.ndarray) -> np.ndarray:
    ys, xs = np.nonzero(mag > 0)
    angle = np.degrees(np.arctan2(gy[ys, xs], gx[ys, xs])) % 360.0
    bins = np.rint(angle / 45.0).astype(int) % 8
    dx, dy = np.asarray(_DIR_OFFSETS)[bins].T
    m = mag[ys, xs]
    p = np.pad(mag, 1)
    fwd = p[ys + 1 + dy, xs + 1 + dx]  # value at p + u (toward brighter side)
    bwd = p[ys + 1 - dy, xs + 1 - dx]
    keep = np.zeros(mag.shape, dtype=bool)
    # strict toward the gradient so tied pairs resolve to the foreground side
    keep[ys, xs] = (m > fwd) & (m >= bwd)
    return keep


def canny(m: np.ndarray) -> np.ndarray:
    """Binary edge map of a mask: Sobel gradient of its 0/1 values, then
    non-maximum suppression.  No hysteresis: the derivatives are integers, so
    a nonzero magnitude is at least 1 and passes any threshold below that.
    Direction bins and magnitude order are those of the {0, 255} scale."""
    m = validate_binary_mask(m)
    gx, gy, mag = gradient(m)
    return _nonmax_suppress(gx, gy, mag).astype(np.uint8)


def extract_chains(edges: np.ndarray) -> list[EdgeChain]:
    """One chain per 8-connected edge component, its pixels in row-major order.

    The chains partition the edge pixels and come in row-major order of their
    first pixel.
    """
    edges = validate_binary_mask(edges)
    labels, n = ndimage.label(edges, structure=_EIGHT_CONN)
    idx = np.flatnonzero(labels)
    ids = labels.ravel()[idx]
    # a stable sort by label keeps each component's pixels in row-major order
    ys, xs = np.divmod(idx[np.argsort(ids, kind="stable")], edges.shape[1])
    xs, ys = xs.tolist(), ys.tolist()
    ends = np.cumsum(np.bincount(ids, minlength=n + 1)[1:]).tolist()
    return [EdgeChain(tuple(zip(xs[start:end], ys[start:end]))) for start, end in zip([0] + ends[:-1], ends)]


def longest_chain(chains: list[EdgeChain]) -> EdgeChain:
    """Chain with the most points; ties go to the smallest first row-major pixel.

    This is the tie rule of ``morphology.largest_component``, so the winner of
    ``extract_chains(e)`` holds exactly the pixels that function keeps of e.
    """
    if not chains:
        raise NoEdgesError("no edge chains to select from")

    def key(c: EdgeChain):
        x, y = c.points[0]
        return (-len(c.points), y, x)

    return min(chains, key=key)
