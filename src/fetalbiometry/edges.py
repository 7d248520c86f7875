"""Edge detection on binary masks: Sobel gradient and non-maximum
suppression, and splitting edge maps into 8-connected chains.

Canny's hysteresis step is left out: on a binary mask every nonzero Sobel
magnitude is at least the step height, so thresholds below it keep every pixel
that survives non-maximum suppression.  Out-of-bounds reads are background.

``canny`` runs in integers.  The Sobel derivatives of a 0/1 mask lie in
[-4, 4], so the direction bin of each of the 81 possible (gx, gy) pairs is
looked up in a table built at import with the float formula, and the
suppression compares squared magnitudes gx^2 + gy^2, which order these pairs
exactly as ``np.hypot`` does.  The edge map is thus the float definition's,
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoEdgesError
from .raster import validate_binary_mask

# neighbor offsets by quantized gradient angle, 45 degrees apart, y down
_DIR_OFFSETS = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])

# direction bin of every integer Sobel pair of a 0/1 mask, indexed [gy + 4, gx + 4]
_G = np.arange(-4.0, 5.0)
_BINS = np.rint(np.degrees(np.arctan2(_G[:, None], _G)) % 360.0 / 45.0).astype(int) % 8


@dataclass(frozen=True)
class EdgeChain:
    points: tuple[tuple[int, int], ...]  # (x, y) pixels of one 8-connected component, row-major

    def __len__(self):
        return len(self.points)


def _sobel(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """3x3 Sobel derivatives (gx, gy) of the interior of p, in p's dtype."""
    # separable Sobel: smooth [1,2,1] across, difference [-1,0,1] along
    sy = p[:-2, :] + 2 * p[1:-1, :] + p[2:, :]
    sx = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    return sy[:, 2:] - sy[:, :-2], sx[2:, :] - sx[:-2, :]


def canny(m: np.ndarray) -> np.ndarray:
    """Binary edge map of a mask: Sobel gradient of its 0/1 values, then
    non-maximum suppression.  No hysteresis: the derivatives are integers, so
    a nonzero magnitude is at least 1 and passes any threshold below that.

    A pixel is kept when its magnitude exceeds that of its neighbor toward
    the gradient and is at least that of the one away from it (tied pairs
    resolve to the foreground side).  Everything runs in int16: the direction
    comes from the integer-pair table and the magnitudes are compared
    squared, which gives the bins and orderings of the float Sobel magnitude
    on the 0/1 and on the {0, 255} scale alike.
    """
    m = validate_binary_mask(m)
    h, w = m.shape
    # pad by 2 so the derivatives cover a 1 px ring outside the mask; the
    # ring's magnitude is then zeroed, so suppression reads there see background
    p = np.zeros((h + 4, w + 4), dtype=np.int16)
    p[2:-2, 2:-2] = m
    gx, gy = _sobel(p)
    mag2 = gx * gx + gy * gy
    mag2[[0, -1], :] = 0
    mag2[:, [0, -1]] = 0
    idx = np.flatnonzero(mag2 > 0)
    # flat step to the neighbor toward the gradient, per (gy, gx) pair
    steps = (_DIR_OFFSETS @ (1, w + 2))[_BINS]
    step = steps[gy.ravel()[idx] + 4, gx.ravel()[idx] + 4]
    flat = mag2.ravel()
    mag = flat[idx]
    keep = (mag > flat[idx + step]) & (mag >= flat[idx - step])
    out = np.zeros((h + 2) * (w + 2), dtype=np.uint8)
    out[idx[keep]] = 1
    return out.reshape(h + 2, w + 2)[1:-1, 1:-1].copy()


def extract_chains(edges: np.ndarray) -> list[EdgeChain]:
    """One chain per 8-connected edge component, its pixels in row-major order.

    The chains partition the edge pixels and come in row-major order of their
    first pixel.
    """
    from scipy import ndimage  # imported here, so that the CLI's import does not load scipy

    edges = validate_binary_mask(edges)
    labels, n = ndimage.label(edges, structure=np.ones((3, 3), dtype=np.uint8))
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
