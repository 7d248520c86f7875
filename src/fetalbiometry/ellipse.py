"""Ellipse fitting and geometry.

The fit minimizes the gradient-weighted (approximate mean square) algebraic
distance of the conic, solved as a generalized eigenproblem M v = lambda N v
on centred, isotropically scaled copies of the input points.  The constant
term has no gradient, so its row and column of N are zero: it is eliminated
from M by the Schur complement, and the remaining 5 x 5 symmetric-definite
problem is reduced by the Cholesky factor L of N to the ordinary symmetric
one L^-1 S L^-T, which ``eigh`` solves; the constant term is then
back-substituted.  The conic is turned into an
ellipse in that normalized frame, and the ellipse is mapped back: a shift and
an isotropic scale carry an ellipse onto an ellipse exactly.  Whenever the
gradient-weighted conic is not a real ellipse, the ellipse-constrained direct
least-squares fit (Fitzgibbon, Pilu & Fisher 1999) is used instead.  The
consensus fit searches the same normalized frame for an outlier-free subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NoTangentError
from .raster import keyed_rng, paste

# the consensus search: 5-point subsets drawn per fit, the Sampson distance
# (px) within which a point supports a conic, and the sampling key's first word
_CONSENSUS_SUBSETS = 32
_CONSENSUS_INLIER_PX = 1.5
_CONSENSUS_KEY = 0xE111
# row j: the design columns left once column j is deleted, for the minors
_MINOR_COLUMNS = np.array([[c for c in range(6) if c != j] for j in range(6)])


@dataclass(frozen=True)
class Ellipse:
    cx: float
    cy: float
    a: float  # semi-major
    b: float  # semi-minor
    theta_deg: float  # major-axis angle from +x toward +y, in [0, 180)

    def __post_init__(self):
        vals = (self.cx, self.cy, self.a, self.b, self.theta_deg)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"ellipse parameters must be finite: {vals}")
        if not (self.a >= self.b > 0):
            raise ValueError(f"need a >= b > 0, got a={self.a}, b={self.b}")
        if not (0.0 <= self.theta_deg < 180.0):
            raise ValueError(f"theta must lie in [0, 180), got {self.theta_deg}")

    def to_local(self, pts: np.ndarray) -> np.ndarray:
        """Rotate/translate world points into the axis-aligned ellipse frame."""
        t = math.radians(self.theta_deg)
        c, s = math.cos(t), math.sin(t)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64)) - (self.cx, self.cy)
        return pts @ np.array([[c, -s], [s, c]])

    def from_local(self, pts: np.ndarray) -> np.ndarray:
        t = math.radians(self.theta_deg)
        c, s = math.cos(t), math.sin(t)
        pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
        return pts @ np.array([[c, s], [-s, c]]) + (self.cx, self.cy)

    def quad_form(self, pts: np.ndarray) -> np.ndarray:
        """(x'/a)^2 + (y'/b)^2 for each point; <= 1 means inside or on."""
        loc = self.to_local(pts)
        return (loc[:, 0] / self.a) ** 2 + (loc[:, 1] / self.b) ** 2


def _design(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])


def _normalized(points) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, np.ndarray]:
    """(pts, mean, scale, x, y): the (N, 2) points as floats, and centred and scaled to an RMS radius of sqrt(2)."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.shape[0] < 5:
        raise DegenerateInputError(f"need at least 5 points, got {pts.shape[0]}")
    mean = pts.mean(axis=0)
    centered = pts - mean
    rms = np.sqrt((centered**2).sum(axis=1).mean())
    if rms < 1e-12:
        raise DegenerateInputError("all points coincide")
    scale = math.sqrt(2.0) / rms
    return pts, mean, scale, centered[:, 0] * scale, centered[:, 1] * scale


def _taubin_conic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = _design(x, y)
    m = z.T @ z  # m[5, 5] is the point count, at least 5 after _normalized
    # N sums the outer products of the gradients (2x, y, 0, 1, 0) and
    # (0, x, 2y, 0, 1) of the first five monomials; its sums are entries of m
    sxx, sxy, syy, sx, sy, count = m[3, 3], m[3, 4], m[4, 4], m[3, 5], m[4, 5], m[5, 5]
    n = np.array(
        [
            [4 * sxx, 2 * sxy, 0.0, 2 * sx, 0.0],
            [2 * sxy, sxx + syy, 2 * sxy, sy, sx],
            [0.0, 2 * sxy, 4 * syy, 0.0, 2 * sy],
            [2 * sx, sy, 0.0, count, 0.0],
            [0.0, sx, 2 * sy, 0.0, count],
        ]
    )
    # the constant term f = -k . u makes the last row of M v = lambda N v hold
    k = m[:5, 5] / m[5, 5]
    s = m[:5, :5] - np.outer(k, m[5, :5])
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(n))
    except np.linalg.LinAlgError:
        raise DegenerateInputError("gradient-weighted scatter is not positive definite")
    w, v = np.linalg.eigh(l_inv @ s @ l_inv.T)
    admissible = np.flatnonzero(w > -1e-9)  # w ascends
    if admissible.size == 0:
        raise DegenerateInputError("gradient-weighted fit has no admissible eigenvalue")
    u = l_inv.T @ v[:, admissible[0]]
    return np.append(u, -k @ u)


def _direct_conic(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ellipse-constrained direct least-squares fit (4AC - B^2 = 1)."""
    z = _design(x, y)
    d1, d2 = z[:, :3], z[:, 3:]
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise DegenerateInputError("rank-deficient scatter matrix")
    m = s1 + s2 @ t
    c_inv = np.array([[0.0, 0.0, 0.5], [0.0, -1.0, 0.0], [0.5, 0.0, 0.0]])
    w, v = np.linalg.eig(c_inv @ m)
    best = None
    for i in range(3):
        a1 = np.real(v[:, i])
        cond = 4 * a1[0] * a1[2] - a1[1] ** 2
        if cond > 0:
            best = a1
            break
    if best is None:
        raise DegenerateInputError("no elliptic solution from the direct fit")
    return np.concatenate([best, t @ best])


def _conic_to_ellipse(c: np.ndarray) -> Ellipse:
    a, b, cc, d, e, f = c
    det = b * b - 4 * a * cc
    if det >= 0:
        raise DegenerateInputError("conic is not of elliptic type")
    cx = (2 * cc * d - b * e) / det
    cy = (2 * a * e - b * d) / det
    # constant term after translating to the center
    f0 = a * cx * cx + b * cx * cy + cc * cy * cy + d * cx + e * cy + f
    q = np.array([[a, b / 2], [b / 2, cc]])
    evals, evecs = np.linalg.eigh(q)
    axes2 = -f0 / evals
    if not np.all(axes2 > 0):
        raise DegenerateInputError("conic has no real elliptic axes")
    axes = np.sqrt(axes2)
    major = int(np.argmax(axes))
    vx, vy = evecs[:, major]
    theta = math.degrees(math.atan2(vy, vx)) % 180.0
    if theta >= 180.0:
        theta = 0.0
    return Ellipse(float(cx), float(cy), float(axes[major]), float(axes[1 - major]), float(theta))


def fit_ams(points: np.ndarray) -> Ellipse:
    """Fit an ellipse to (N, 2) points by the approximate-mean-square conic fit."""
    _, mean, scale, xn, yn = _normalized(points)
    try:
        e = _conic_to_ellipse(_taubin_conic(xn, yn))
    except DegenerateInputError:
        e = _conic_to_ellipse(_direct_conic(xn, yn))
    # undo normalization: x_n = (x - mx) * s, y_n = (y - my) * s
    cx, cy = e.cx / scale + mean[0], e.cy / scale + mean[1]
    return Ellipse(float(cx), float(cy), float(e.a / scale), float(e.b / scale), e.theta_deg)


def fit_consensus(points: np.ndarray) -> Ellipse:
    """AMS fit of the largest set of points within _CONSENSUS_INLIER_PX of one 5-point ellipse.

    RANSAC (Fischler & Bolles 1981) on the points ``fit_ams`` normalizes.
    Each subset's conic is the null vector of its 5 x 6 design matrix: entry
    j is the minor without column j, signed (-1)^j.  Non-ellipses (b^2 - 4ac
    >= 0) are dropped, the zero conic of a repeated index with them.  A point
    supports conic Q when its Sampson distance |Q(p)| / |grad Q(p)| (Sampson
    1982) is at most the threshold, tested squared.  The subsets come from a
    generator keyed by the point count, so equal points give equal fits.  The
    plain fit of all points stands in when no subset gives an ellipse or the
    refit is degenerate.
    """
    pts, _, scale, x, y = _normalized(points)
    n = len(pts)
    one, zero = np.ones_like(x), np.zeros_like(x)
    design = _design(x, y)
    subsets = design[keyed_rng(_CONSENSUS_KEY, n).integers(0, n, size=(_CONSENSUS_SUBSETS, 5))]
    # (K, 6, 5, 5): minor j of each subset drops design column j
    minors = subsets[:, :, _MINOR_COLUMNS].transpose(0, 2, 1, 3)
    conics = np.linalg.det(minors) * (1.0, -1.0, 1.0, -1.0, 1.0, -1.0)
    conics = conics[conics[:, 1] ** 2 - 4.0 * conics[:, 0] * conics[:, 2] < 0.0]
    if not len(conics):
        return fit_ams(pts)
    value = design @ conics.T
    gx = np.column_stack([2.0 * x, y, zero, one, zero, zero]) @ conics.T
    gy = np.column_stack([zero, x, 2.0 * y, zero, one, zero]) @ conics.T
    inside = value**2 <= (_CONSENSUS_INLIER_PX * scale) ** 2 * (gx**2 + gy**2)
    best = inside[:, int(inside.sum(axis=0).argmax())]
    try:
        return fit_ams(pts[best])
    except DegenerateInputError:
        return fit_ams(pts)


def contains(e: Ellipse, p) -> bool:
    """True iff the point lies inside or on the ellipse."""
    return bool(e.quad_form(np.asarray(p, dtype=np.float64).reshape(1, 2))[0] <= 1.0)


def raster_window(e: Ellipse, width: int, height: int) -> tuple[int, int, np.ndarray]:
    """(x0, y0, window) of the ellipse on a width x height grid.

    The window covers the rotated ellipse's axis-aligned bounding box, with
    half-widths sqrt(a^2 cos^2 t + b^2 sin^2 t) in x and
    sqrt(a^2 sin^2 t + b^2 cos^2 t) in y, grown by 1 px against rounding and
    clipped to the grid; its pixel (0, 0) is grid pixel (x0, y0).  A pixel is
    set when its grid center (x + 0.5, y + 0.5) lies inside the ellipse, so
    no grid pixel outside the window is inside.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be >= 1")
    t = math.radians(e.theta_deg)
    c, s = math.cos(t), math.sin(t)
    hx = math.sqrt((e.a * c) ** 2 + (e.b * s) ** 2)
    hy = math.sqrt((e.a * s) ** 2 + (e.b * c) ** 2)
    x0 = max(0, int(math.floor(e.cx - hx - 1)))
    x1 = min(width, int(math.ceil(e.cx + hx + 1)))
    y0 = max(0, int(math.floor(e.cy - hy - 1)))
    y1 = min(height, int(math.ceil(e.cy + hy + 1)))
    if x0 >= x1 or y0 >= y1:
        return 0, 0, np.zeros((0, 0), dtype=np.uint8)
    # row-major (x + 0.5, y + 0.5) centers of the window's pixels
    pts = np.empty((y1 - y0, x1 - x0, 2))
    pts[..., 0] = np.arange(x0, x1) + 0.5
    pts[..., 1] = (np.arange(y0, y1) + 0.5)[:, None]
    inside = e.quad_form(pts.reshape(-1, 2)) <= 1.0
    return x0, y0, inside.reshape(y1 - y0, x1 - x0).astype(np.uint8)


def rasterize(e: Ellipse, width: int, height: int) -> np.ndarray:
    """Mask of pixels whose centers (x + 0.5, y + 0.5) lie inside the ellipse."""
    return paste(raster_window(e, width, height), (0, 0, width, height))


def external_tangents(e: Ellipse, p) -> tuple[np.ndarray, np.ndarray]:
    """Tangent contact points on the ellipse as seen from an external point.

    Solved on the unit circle after the affine map that normalizes the
    ellipse; returned with the smaller local polar angle first.
    """
    p = np.asarray(p, dtype=np.float64).reshape(2)
    loc = e.to_local(p.reshape(1, 2))[0]
    q = np.array([loc[0] / e.a, loc[1] / e.b])
    d2 = float(q @ q)
    if d2 <= 1.0 + 1e-12:
        raise NoTangentError("point is inside or on the ellipse")
    # unit-circle tangency: t = q/d2 +/- sqrt(d2-1)/d2 * perp(q)
    root = math.sqrt(d2 - 1.0) / d2
    perp = np.array([-q[1], q[0]])
    t1 = q / d2 + root * perp
    t2 = q / d2 - root * perp
    cand = sorted([t1, t2], key=lambda t: math.atan2(t[1], t[0]))
    out = e.from_local(np.array(cand) * (e.a, e.b))
    return out[0], out[1]
