"""Angle of progression and head-symphysis distance from refined shapes.

AoP is the angle at the pubic-symphysis apex between the ray back along the
symphysis axis and the ray to the tangent contact point on the fetal-head
shape, taking the tangent that maximizes the angle.  HSD is the minimum
distance from the (mask-derived) symphysis apex to the fetal-head boundary,
computed on hole-closed masks only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ellipse as el
from .errors import EmptyShapeError, MissingStructureError, OverlapError
from .raster import (
    CLASS_NAMES,
    FH,
    PS,
    Point,
    boundary_mask,
    bounding_window,
    centroid,
    pixel_centers,
    validate_label_mask,
)
from .refine import RefineParams, RefinedShape, refine

_AXIS_TIE_TOL = 1e-9


def _cross2(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


@dataclass
class BiometryResult:
    aop_deg: float
    hsd_px: float
    ps_apex: Point
    ps_proximal: Point
    tangent_point: Point
    hsd_head_point: Point
    used_ellipse_ps: bool = False
    used_ellipse_fh: bool = False
    prune_iters_ps: int = 0
    prune_iters_fh: int = 0

    def __post_init__(self):
        if not (0.0 < self.aop_deg <= 180.0):
            raise ValueError(f"AoP must lie in (0, 180], got {self.aop_deg}")
        if self.hsd_px < 0:
            raise ValueError("HSD must be >= 0")
        if self.ps_apex == self.ps_proximal:
            raise ValueError("degenerate symphysis axis")


def boundary_points(mask: np.ndarray, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Centers of foreground pixels with a background 4-neighbor or on the border,
    in the frame where mask's pixel (0, 0) sits at origin."""
    if not mask.any():
        raise EmptyShapeError("mask has no foreground")
    return pixel_centers(boundary_mask(mask), origin)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise in image coordinates."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    # a point strictly between two others of its row is never a strict vertex,
    # and the chain drops collinear points anyway: keep each row's two ends
    by_row = np.lexsort((pts[:, 0], pts[:, 1]))
    new_row = np.flatnonzero(np.diff(pts[by_row, 1])) + 1
    keep = np.zeros(len(pts), dtype=bool)
    keep[by_row[np.r_[0, new_row]]] = True
    keep[by_row[np.r_[new_row - 1, len(pts) - 1]]] = True
    seq = pts[keep].tolist()

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                (ox, oy), (ax, ay) = out[-2], out[-1]
                if (ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox) > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = build(seq)
    upper = build(seq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _diameter_endpoints(points: np.ndarray) -> tuple[Point, Point]:
    """Most distant pair of points (exact over the convex hull); of tied pairs,
    the first in row-major order of the hull's pairwise distances."""
    hull = convex_hull(points)
    if len(hull) < 2:
        raise EmptyShapeError("not enough boundary points for a diameter")
    d = ((hull[None] - hull[:, None]) ** 2).sum(axis=2)
    i, j = np.unravel_index(int(np.argmax(d)), d.shape)
    a, b = sorted((hull[i], hull[j]), key=lambda p: (p[1], p[0]))
    return Point(*a), Point(*b)


def _orient(p1: Point, p2: Point, fh_centroid: Point) -> tuple[Point, Point]:
    """(proximal, apex) of an axis; the apex is the end nearer the head."""
    d1 = math.hypot(p1.x - fh_centroid.x, p1.y - fh_centroid.y)
    d2 = math.hypot(p2.x - fh_centroid.x, p2.y - fh_centroid.y)
    if d1 < d2:
        return p2, p1
    return p1, p2


def _mask_axis_endpoints(ps: RefinedShape, fh_centroid: Point) -> tuple[Point, Point]:
    """(proximal, apex) of the symphysis axis taken as the closed mask's diameter."""
    return _orient(*_diameter_endpoints(boundary_points(*ps.closed_window)), fh_centroid)


def ps_axis_endpoints(ps: RefinedShape, fh_centroid: Point) -> tuple[Point, Point]:
    """(proximal, apex) of the symphysis axis; apex is the end nearer the head."""
    if not ps.used_ellipse:
        return _mask_axis_endpoints(ps, fh_centroid)
    e = ps.ellipse
    theta = 0.0 if (e.a - e.b) / e.a < _AXIS_TIE_TOL else math.radians(e.theta_deg)
    dx, dy = e.a * math.cos(theta), e.a * math.sin(theta)
    return _orient(Point(e.cx - dx, e.cy - dy), Point(e.cx + dx, e.cy + dy), fh_centroid)


def _angle_at(apex: Point, back: Point, target) -> float:
    u = np.array([back.x - apex.x, back.y - apex.y])
    v = np.array([target[0] - apex.x, target[1] - apex.y])
    return math.degrees(math.atan2(abs(float(_cross2(u, v))), float(u @ v)))


def _apex_inside(fh: RefinedShape, apex: Point) -> bool:
    if fh.used_ellipse:
        return el.contains(fh.ellipse, (apex.x, apex.y))
    # floor, not int(): an apex at x = -0.4 lies off-frame, not in column 0
    xi, yi = math.floor(apex.x), math.floor(apex.y)
    x0, y0, x1, y1 = fh.box
    return x0 <= xi < x1 and y0 <= yi < y1 and bool(fh.closed[yi - y0, xi - x0])


def compute_aop(proximal: Point, apex: Point, fh: RefinedShape) -> tuple[float, Point]:
    """Angle of progression in degrees at the apex of the (proximal, apex)
    symphysis axis, and its tangent contact point on the fetal head."""
    if _apex_inside(fh, apex):
        raise OverlapError("symphysis apex lies inside the fetal-head shape")
    if fh.used_ellipse:
        t1, t2 = el.external_tangents(fh.ellipse, (apex.x, apex.y))
        tangent = max((t1, t2), key=lambda t: _angle_at(apex, proximal, t))
    else:
        hull = convex_hull(boundary_points(*fh.closed_window))
        idx = max(range(len(hull)), key=lambda i: _angle_at(apex, proximal, hull[i]))
        tangent = hull[idx]
        # supporting-line check: the hull must not straddle the apex-tangent line
        d = tangent - (apex.x, apex.y)
        cross = _cross2(np.broadcast_to(d, (len(hull), 2)), hull - (apex.x, apex.y))
        if cross.min() < -1e-6 and cross.max() > 1e-6:
            raise OverlapError("no supporting tangent line from the apex")
    angle = _angle_at(apex, proximal, tangent)
    if angle <= 0.0:
        angle = 180.0  # collinear rays: fold the degenerate 0 onto the (0, 180] range
    return angle, Point(float(tangent[0]), float(tangent[1]))


def compute_hsd(fh_closed: np.ndarray, apex: Point, origin: tuple[int, int] = (0, 0)) -> tuple[float, Point]:
    """Min distance from the apex to the fetal-head boundary, and the arg-min point.

    fh_closed may be a window of the frame, its pixel (0, 0) at origin."""
    pts = boundary_points(fh_closed, origin)
    d = np.hypot(pts[:, 0] - apex.x, pts[:, 1] - apex.y)
    i = int(np.argmin(d))
    return float(d[i]), Point(float(pts[i, 0]), float(pts[i, 1]))


def _class_window(labels: np.ndarray, c: int) -> tuple[int, int, np.ndarray]:
    """(x0, y0, window) of the bounding box of class c's pixels."""
    win = bounding_window(labels == c)
    if win is None:
        raise MissingStructureError(CLASS_NAMES[c])
    return win


def measure_frame(labels: np.ndarray, params: RefineParams = RefineParams()) -> BiometryResult:
    """Full per-frame measurement: refinement (component filter included), AoP and HSD."""
    result, _, _ = measure_frame_detailed(labels, params)
    return result


def measure_frame_detailed(
    labels: np.ndarray, params: RefineParams = RefineParams()
) -> tuple[BiometryResult, RefinedShape, RefinedShape]:
    """As measure_frame, but also returns the refined PS and FH shapes."""
    labels = validate_label_mask(labels)
    frame = (labels.shape[1], labels.shape[0])
    # the class boxes are the only full-frame reads; all else runs in windows
    ps_x, ps_y, ps_win = _class_window(labels, PS)
    fh_x, fh_y, fh_win = _class_window(labels, FH)
    ps_ref = refine(ps_win, params, origin=(ps_x, ps_y), frame=frame)
    fh_ref = refine(fh_win, params, origin=(fh_x, fh_y), frame=frame)

    fh_centroid = centroid(*fh_ref.closed_window)
    proximal, apex = ps_axis_endpoints(ps_ref, fh_centroid)
    aop, tangent = compute_aop(proximal, apex, fh_ref)

    # HSD landmarks always come from the hole-closed masks, which the AoP axis
    # already used unless the PS ellipse was accepted
    hsd_apex = apex
    if ps_ref.used_ellipse:
        _, hsd_apex = _mask_axis_endpoints(ps_ref, fh_centroid)
    hsd, head_point = compute_hsd(fh_ref.closed, hsd_apex, fh_ref.box[:2])

    result = BiometryResult(
        aop_deg=aop,
        hsd_px=hsd,
        ps_apex=apex,
        ps_proximal=proximal,
        tangent_point=tangent,
        hsd_head_point=head_point,
        used_ellipse_ps=ps_ref.used_ellipse,
        used_ellipse_fh=fh_ref.used_ellipse,
        prune_iters_ps=ps_ref.prune_iterations,
        prune_iters_fh=fh_ref.prune_iterations,
    )
    return result, ps_ref, fh_ref
