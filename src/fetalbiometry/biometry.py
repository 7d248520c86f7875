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

from . import ellipse as el, morphology
from .errors import EmptyShapeError, MissingStructureError, OverlapError
from .raster import FH, PS, Point, boundary_mask, centroid, class_mask, pixel_centers, validate_label_mask
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


def boundary_points(mask: np.ndarray) -> np.ndarray:
    """Centers of foreground pixels with a background 4-neighbor or on the border."""
    if not mask.any():
        raise EmptyShapeError("mask has no foreground")
    return pixel_centers(boundary_mask(mask))


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Monotone-chain convex hull, counter-clockwise in image coordinates."""
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross2(out[-1] - out[-2], p - out[-2]) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _diameter_endpoints(points: np.ndarray) -> tuple[Point, Point]:
    """Most distant pair of points (exact over the convex hull)."""
    hull = convex_hull(points)
    best = None
    best_d = -1.0
    for i in range(len(hull)):
        d = ((hull[i + 1 :] - hull[i]) ** 2).sum(axis=1)
        if d.size == 0:
            continue
        j = int(np.argmax(d))
        if d[j] > best_d:
            best_d = float(d[j])
            best = (hull[i], hull[i + 1 + j])
    if best is None:
        raise EmptyShapeError("not enough boundary points for a diameter")
    a, b = sorted(best, key=lambda p: (p[1], p[0]))
    return Point(*a), Point(*b)


def ps_axis_endpoints(ps: RefinedShape, fh_centroid: Point) -> tuple[Point, Point]:
    """(proximal, apex) of the symphysis axis; apex is the end nearer the head."""
    if ps.used_ellipse:
        e = ps.ellipse
        theta = 0.0 if (e.a - e.b) / e.a < _AXIS_TIE_TOL else math.radians(e.theta_deg)
        dx, dy = e.a * math.cos(theta), e.a * math.sin(theta)
        p1 = Point(e.cx - dx, e.cy - dy)
        p2 = Point(e.cx + dx, e.cy + dy)
    else:
        p1, p2 = _diameter_endpoints(boundary_points(ps.closed_mask))
    d1 = math.hypot(p1.x - fh_centroid.x, p1.y - fh_centroid.y)
    d2 = math.hypot(p2.x - fh_centroid.x, p2.y - fh_centroid.y)
    if d1 < d2:
        return p2, p1
    return p1, p2


def _angle_at(apex: Point, back: Point, target) -> float:
    u = np.array([back.x - apex.x, back.y - apex.y])
    v = np.array([target[0] - apex.x, target[1] - apex.y])
    return math.degrees(math.atan2(abs(float(_cross2(u, v))), float(u @ v)))


def _apex_inside(fh: RefinedShape, apex: Point) -> bool:
    if fh.used_ellipse:
        return el.contains(fh.ellipse, (apex.x, apex.y))
    xi, yi = int(apex.x), int(apex.y)
    h, w = fh.closed_mask.shape
    return 0 <= xi < w and 0 <= yi < h and bool(fh.closed_mask[yi, xi])


def compute_aop(ps: RefinedShape, fh: RefinedShape) -> tuple[float, Point, Point, Point]:
    """Angle of progression in degrees, its tangent contact point, and the
    (proximal, apex) symphysis axis it was measured from."""
    fh_centroid = centroid(fh.closed_mask)
    proximal, apex = ps_axis_endpoints(ps, fh_centroid)
    if _apex_inside(fh, apex):
        raise OverlapError("symphysis apex lies inside the fetal-head shape")
    if fh.used_ellipse:
        t1, t2 = el.external_tangents(fh.ellipse, (apex.x, apex.y))
        tangent = max((t1, t2), key=lambda t: _angle_at(apex, proximal, t))
    else:
        hull = convex_hull(boundary_points(fh.closed_mask))
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
    return angle, Point(float(tangent[0]), float(tangent[1])), proximal, apex


def compute_hsd(ps_closed: np.ndarray, fh_closed: np.ndarray, apex: Point) -> tuple[float, Point]:
    """Min distance from the apex to the fetal-head boundary, and the arg-min point."""
    pts = boundary_points(fh_closed)
    d = np.hypot(pts[:, 0] - apex.x, pts[:, 1] - apex.y)
    i = int(np.argmin(d))
    return float(d[i]), Point(float(pts[i, 0]), float(pts[i, 1]))


def measure_frame(labels: np.ndarray, params: RefineParams = RefineParams()) -> BiometryResult:
    """Full per-frame measurement: component filtering, refinement, AoP and HSD."""
    result, _, _ = measure_frame_detailed(labels, params)
    return result


def measure_frame_detailed(
    labels: np.ndarray, params: RefineParams = RefineParams()
) -> tuple[BiometryResult, RefinedShape, RefinedShape]:
    """As measure_frame, but also returns the refined PS and FH shapes."""
    labels = validate_label_mask(labels)
    ps_raw = class_mask(labels, PS)
    fh_raw = class_mask(labels, FH)
    if not ps_raw.any():
        raise MissingStructureError("PS")
    if not fh_raw.any():
        raise MissingStructureError("FH")
    ps_ref = refine(morphology.largest_component(ps_raw), params)
    fh_ref = refine(morphology.largest_component(fh_raw), params)

    aop, tangent, proximal, apex = compute_aop(ps_ref, fh_ref)

    # HSD landmarks always come from the hole-closed masks, which the AoP axis
    # already used unless the PS ellipse was accepted
    hsd_apex = apex
    if ps_ref.used_ellipse:
        mask_shape = RefinedShape(ps_ref.closed_mask, None, None, False, 0, 0.0)
        _, hsd_apex = ps_axis_endpoints(mask_shape, centroid(fh_ref.closed_mask))
    hsd, head_point = compute_hsd(ps_ref.closed_mask, fh_ref.closed_mask, hsd_apex)

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
