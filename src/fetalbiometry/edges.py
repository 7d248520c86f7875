"""Edge detection on binary masks: Sobel gradient, non-maximum suppression,
hysteresis thresholding, and edge-chain extraction.

Masks are rendered to {0, 255} intensities before the gradient so the small
hysteresis thresholds used by the pipeline (2 and 5) discriminate on the
usual 8-bit scale.  Out-of-bounds reads are background.
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
    points: tuple[tuple[int, int], ...]  # (x, y) pixel coordinates, 8-connected walk
    closed: bool

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


def canny(m: np.ndarray, min_val: float, max_val: float) -> np.ndarray:
    """Binary edge map of a mask via Sobel + NMS + hysteresis."""
    if min_val > max_val:
        raise ValueError(f"min_val ({min_val}) must be <= max_val ({max_val})")
    m = validate_binary_mask(m)
    img = m.astype(np.float64) * 255.0
    gx, gy, mag = gradient(img)
    keep = _nonmax_suppress(gx, gy, mag)
    candidates = keep & (mag >= min_val)
    strong = keep & (mag > max_val)
    labels, n = ndimage.label(candidates, structure=_EIGHT_CONN)
    if n == 0:
        return np.zeros_like(m)
    strong_ids = np.unique(labels[strong])
    strong_ids = strong_ids[strong_ids > 0]
    edges = np.isin(labels, strong_ids)
    return edges.astype(np.uint8)


def _neighbors(p, pixel_set):
    x, y = p
    out = []
    for dx, dy in _DIR_OFFSETS:
        q = (x + dx, y + dy)
        if q in pixel_set:
            out.append(q)
    return out


def extract_chains(edges: np.ndarray) -> list[EdgeChain]:
    """Trace each 8-connected edge component into ordered chains.

    Pixels are never shared between chains, so chain lengths sum to the edge
    pixel count.  A well-formed ring yields a single closed chain.
    """
    edges = validate_binary_mask(edges)
    h, w = edges.shape
    labels, n = ndimage.label(edges, structure=_EIGHT_CONN)
    chains = []
    for cid in range(1, n + 1):
        ys, xs = np.nonzero(labels == cid)
        pixel_set = set(zip(xs.tolist(), ys.tolist()))
        neigh = {p: _neighbors(p, pixel_set) for p in pixel_set}
        unvisited = set(pixel_set)

        def rm(p):
            return p[1] * w + p[0]

        def pick_next(cur):
            cands = [q for q in neigh[cur] if q in unvisited]
            if not cands:
                return None
            cands.sort(
                key=lambda q: (
                    sum(r in unvisited for r in neigh[q]),
                    abs(q[0] - cur[0]) + abs(q[1] - cur[1]),  # 4-neighbors first
                    rm(q),
                )
            )
            return cands[0]

        while unvisited:
            start = min(
                unvisited,
                key=lambda p: (sum(q in unvisited for q in neigh[p]), rm(p)),
            )
            unvisited.discard(start)
            chain = [start]
            cur = start
            while True:
                nxt = pick_next(cur)
                if nxt is None:
                    break
                unvisited.discard(nxt)
                chain.append(nxt)
                cur = nxt
            # if the walk began mid-curve, extend backwards from the start
            back = start
            prefix = []
            while True:
                nxt = pick_next(back)
                if nxt is None:
                    break
                unvisited.discard(nxt)
                prefix.append(nxt)
                back = nxt
            if prefix:
                chain = list(reversed(prefix)) + chain
            chain = _repair_closure(chain)
            first, last = chain[0], chain[-1]
            closed = len(chain) >= 3 and max(abs(first[0] - last[0]), abs(first[1] - last[1])) <= 1
            chains.append(EdgeChain(tuple(chain), closed))
    return chains


def _adj(p, q) -> bool:
    return max(abs(p[0] - q[0]), abs(p[1] - q[1])) == 1


def _repair_closure(chain):
    """Swap a spur pixel at either end when that closes the walk into a ring.

    A 2-px-thick corner can make the walk start or finish on a pixel hanging
    off the ring; exchanging it with its neighbor restores closure while
    keeping consecutive points 8-adjacent.
    """
    if len(chain) < 4 or _adj(chain[0], chain[-1]):
        return chain
    if _adj(chain[-1], chain[1]) and _adj(chain[0], chain[2]):
        return [chain[1], chain[0]] + chain[2:]
    if _adj(chain[0], chain[-2]) and _adj(chain[-1], chain[-3]):
        return chain[:-2] + [chain[-1], chain[-2]]
    return chain


def longest_chain(chains: list[EdgeChain]) -> EdgeChain:
    """Chain with the most points; ties go to the smallest starting row-major index."""
    if not chains:
        raise NoEdgesError("no edge chains to select from")

    def key(c: EdgeChain):
        x, y = min(c.points, key=lambda p: (p[1], p[0]))
        return (-len(c.points), (y, x))

    return min(chains, key=key)
