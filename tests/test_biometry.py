import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry import ellipse as el, morphology, phantom
from fetalbiometry.biometry import (
    _AXIS_TIE_TOL,
    BiometryResult,
    _angle_at,
    _apex_inside,
    _cross2,
    _orient,
    boundary_points,
    compute_hsd,
    convex_hull,
    measure_frame,
    measure_frame_detailed,
    ps_axis_endpoints,
)
from fetalbiometry.ellipse import Ellipse, rasterize
from fetalbiometry.errors import EmptyShapeError, FetalBiometryError, MissingStructureError, OverlapError
from fetalbiometry.raster import FH, PS, Point, boundary_mask, validate_label_mask
from fetalbiometry.refine import RefinedShape, RefineParams, refine


def scene_mask(ps: Ellipse, fh: Ellipse, w: int, h: int) -> np.ndarray:
    labels = np.zeros((h, w), np.uint8)
    labels[rasterize(ps, w, h) == 1] = PS
    labels[rasterize(fh, w, h) == 1] = FH
    return labels


class TestBoundary:
    def test_single_pixel(self):
        m = np.zeros((5, 5), np.uint8)
        m[2, 3] = 1
        pts = boundary_points(m)
        assert pts.tolist() == [[3.5, 2.5]]

    def test_square_boundary_count(self):
        m = np.zeros((10, 10), np.uint8)
        m[2:7, 2:7] = 1  # 5x5 block: 16 boundary pixels
        assert len(boundary_points(m)) == 16

    def test_border_pixels_count(self):
        m = np.ones((4, 4), np.uint8)
        assert len(boundary_points(m)) == 12  # all but the 2x2 interior

    def test_empty_error(self):
        with pytest.raises(EmptyShapeError):
            boundary_points(np.zeros((3, 3), np.uint8))


class TestHull:
    def test_square_corners(self):
        pts = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [2, 2], [1, 3]], float)
        hull = convex_hull(pts)
        assert len(hull) == 4
        assert {tuple(p) for p in hull} == {(0, 0), (4, 0), (4, 4), (0, 4)}

    def test_collinear_passthrough(self):
        pts = np.array([[0, 0], [1, 1], [2, 2]], float)
        hull = convex_hull(pts)
        assert {tuple(p) for p in hull} == {(0.0, 0.0), (2.0, 2.0)}


class TestPsAxis:
    def test_mask_diameter(self):
        from fetalbiometry.refine import RefinedShape

        m = np.zeros((20, 40), np.uint8)
        m[9:12, 5:30] = 1
        shape = RefinedShape(m, None, False, 0, 0.0, (0, 0, 40, 20), (40, 20))
        prox, apex = ps_axis_endpoints(shape, Point(100.0, 10.0))
        assert apex.x > prox.x  # apex is the end nearer the head

    def test_ellipse_axis(self):
        from fetalbiometry.refine import RefinedShape

        e = Ellipse(100.0, 100.0, 40.0, 6.0, 0.0)
        m = rasterize(e, 200, 200)
        shape = RefinedShape(m, e, True, 0, 0.0, (0, 0, 200, 200), (200, 200))
        prox, apex = ps_axis_endpoints(shape, Point(240.0, 100.0))
        assert apex == Point(140.0, 100.0)
        assert prox == Point(60.0, 100.0)


class TestCircleOracle:
    """PS axis (60,100)-(140,100), FH circle center (240,100) radius 50.

    Apex-to-center distance 100, so the tangent half-angle is asin(0.5) = 30
    degrees and the maximizing tangent gives AoP = 180 - 30 = 150.  HSD is
    100 - 50 = 50 up to mask quantization.
    """

    PS_E = Ellipse(100.0, 100.0, 40.0, 6.0, 0.0)
    FH_E = Ellipse(240.0, 100.0, 50.0, 50.0, 0.0)

    def test_aop(self):
        labels = scene_mask(self.PS_E, self.FH_E, 360, 200)
        r = measure_frame(labels)
        assert abs(r.aop_deg - 150.0) < 1.0

    def test_hsd(self):
        labels = scene_mask(self.PS_E, self.FH_E, 360, 200)
        r = measure_frame(labels)
        assert abs(r.hsd_px - 50.0) < 1.5

    def test_landmarks(self):
        labels = scene_mask(self.PS_E, self.FH_E, 360, 200)
        r = measure_frame(labels)
        assert abs(r.ps_apex.x - 140.0) < 1.5 and abs(r.ps_apex.y - 100.0) < 1.5
        assert r.tangent_point.x > r.ps_apex.x
        assert abs(math.hypot(r.hsd_head_point.x - 240.0, r.hsd_head_point.y - 100.0) - 50.0) < 1.0


class TestResult:
    @pytest.mark.parametrize("aop", [0.0, -1.0, 180.5, math.nan])
    def test_aop_outside_its_range_rejected(self, aop):
        with pytest.raises(ValueError, match="AoP"):
            BiometryResult(aop, 1.0, Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 2.0), Point(3.0, 3.0))


class TestMeasureFrame:
    def test_missing_structure(self):
        labels = np.zeros((64, 64), np.uint8)
        labels[10:20, 10:20] = PS
        with pytest.raises(MissingStructureError, match="FH"):
            measure_frame(labels)
        labels2 = np.zeros((64, 64), np.uint8)
        labels2[10:20, 10:20] = FH
        with pytest.raises(MissingStructureError, match="PS"):
            measure_frame(labels2)

    def test_largest_component_kept(self):
        labels = scene_mask(TestCircleOracle.PS_E, TestCircleOracle.FH_E, 360, 200)
        noisy = labels.copy()
        noisy[5:8, 5:8] = PS  # small spurious blob far from the symphysis
        clean = measure_frame(labels)
        got = measure_frame(noisy)
        assert abs(got.aop_deg - clean.aop_deg) < 1e-9
        assert abs(got.hsd_px - clean.hsd_px) < 1e-9

    def test_detailed_returns_shapes(self):
        labels = scene_mask(TestCircleOracle.PS_E, TestCircleOracle.FH_E, 360, 200)
        result, ps_ref, fh_ref = measure_frame_detailed(labels)
        assert result.used_ellipse_ps == ps_ref.used_ellipse
        assert result.used_ellipse_fh == fh_ref.used_ellipse
        assert ps_ref.closed_mask.shape == labels.shape

    def test_shapes_pickle_in_kilobytes(self):
        # each shape keeps only its box-sized window, never a 512^2 array
        _, ps_ref, fh_ref = measure_frame_detailed(phantom.render(phantom.random_scene(0)))
        for shape in (ps_ref, fh_ref):
            assert len(pickle.dumps(shape)) <= 40_000

    def test_result_in_range(self):
        labels = scene_mask(TestCircleOracle.PS_E, TestCircleOracle.FH_E, 360, 200)
        r = measure_frame(labels)
        assert 0.0 < r.aop_deg <= 180.0
        assert r.hsd_px >= 0.0
        assert 0 <= r.prune_iters_ps <= 15 and 0 <= r.prune_iters_fh <= 15


class TestHsdFunction:
    def test_point_to_square(self):
        fh = np.zeros((40, 40), np.uint8)
        fh[10:30, 20:35] = 1
        d, pt = compute_hsd(fh, Point(5.0, 20.5))
        assert abs(d - 15.5) < 1e-9  # nearest boundary pixel center is (20.5, 20.5)
        assert pt.x == 20.5


class TestApexInside:
    @staticmethod
    def mask_shape(mask):
        h, w = mask.shape
        return RefinedShape(mask, None, False, 0, math.inf, (0, 0, w, h), (w, h))

    def test_apex_left_of_frame_is_outside(self):
        fh = np.zeros((12, 12), np.uint8)
        fh[:, 0] = 1
        assert not _apex_inside(self.mask_shape(fh), Point(-0.4, 5.5))
        assert _apex_inside(self.mask_shape(fh), Point(0.4, 5.5))

    def test_apex_above_frame_is_outside(self):
        fh = np.zeros((12, 12), np.uint8)
        fh[0, :] = 1
        assert not _apex_inside(self.mask_shape(fh), Point(5.5, -0.4))
        assert _apex_inside(self.mask_shape(fh), Point(5.5, 0.4))

    @staticmethod
    def offset_shape():
        # a 4x3 window at (10, 20) of a 40x30 frame, foreground in its middle row
        closed = np.zeros((3, 4), np.uint8)
        closed[1, :] = 1
        return RefinedShape(closed, None, False, 0, math.inf, (10, 20, 14, 23), (40, 30))

    def test_apex_in_frame_outside_box_is_outside(self):
        shape = self.offset_shape()
        for apex in (Point(5.5, 21.5), Point(14.5, 21.5), Point(11.5, 19.5), Point(11.5, 23.5), Point(1.5, 1.5)):
            assert not _apex_inside(shape, apex)

    def test_background_in_box_is_outside(self):
        assert not _apex_inside(self.offset_shape(), Point(11.5, 20.5))
        assert not _apex_inside(self.offset_shape(), Point(13.5, 22.5))

    def test_foreground_in_box_is_inside(self):
        assert _apex_inside(self.offset_shape(), Point(10.5, 21.5))
        assert _apex_inside(self.offset_shape(), Point(13.9, 21.0))


class TestFailureContract:
    @settings(max_examples=150, deadline=None)
    @given(
        arrays(np.uint8, st.tuples(st.integers(1, 24), st.integers(1, 24)), elements=st.integers(0, 2)),
        st.integers(1, 13),
        st.integers(1, 13),
    )
    def test_result_or_package_error(self, labels, kernel_w, kernel_h):
        params = RefineParams(kernel_w=kernel_w, kernel_h=kernel_h)
        try:
            result, _, _ = measure_frame_detailed(labels, params)
        except FetalBiometryError:
            return
        assert isinstance(result, BiometryResult)


# Reference implementation: the full-frame measurement path, which kept the
# largest component of each whole-frame class mask and took the centroid,
# boundary points, hull and HSD on full-frame masks.  The window-native
# production code must match it bit for bit.
def ref_centroid(mask):
    ys, xs = np.nonzero(mask)
    if xs.size == 0:
        raise ValueError("centroid of an empty mask is undefined")
    return Point(float(xs.mean() + 0.5), float(ys.mean() + 0.5))


def ref_boundary_points(mask):
    if not mask.any():
        raise EmptyShapeError("mask has no foreground")
    ys, xs = np.nonzero(boundary_mask(mask))
    return np.column_stack([xs + 0.5, ys + 0.5])


def ref_convex_hull(points):
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


def ref_diameter_endpoints(points):
    hull = ref_convex_hull(points)
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


def ref_mask_axis_endpoints(mask, fh_centroid):
    return _orient(*ref_diameter_endpoints(ref_boundary_points(mask)), fh_centroid)


def ref_ps_axis_endpoints(ps, fh_centroid):
    if not ps.used_ellipse:
        return ref_mask_axis_endpoints(ps.closed_mask, fh_centroid)
    e = ps.ellipse
    theta = 0.0 if (e.a - e.b) / e.a < _AXIS_TIE_TOL else math.radians(e.theta_deg)
    dx, dy = e.a * math.cos(theta), e.a * math.sin(theta)
    return _orient(Point(e.cx - dx, e.cy - dy), Point(e.cx + dx, e.cy + dy), fh_centroid)


def ref_compute_aop(proximal, apex, fh):
    if _apex_inside(fh, apex):
        raise OverlapError("symphysis apex lies inside the fetal-head shape")
    if fh.used_ellipse:
        t1, t2 = el.external_tangents(fh.ellipse, (apex.x, apex.y))
        tangent = max((t1, t2), key=lambda t: _angle_at(apex, proximal, t))
    else:
        hull = ref_convex_hull(ref_boundary_points(fh.closed_mask))
        idx = max(range(len(hull)), key=lambda i: _angle_at(apex, proximal, hull[i]))
        tangent = hull[idx]
        d = tangent - (apex.x, apex.y)
        cross = _cross2(np.broadcast_to(d, (len(hull), 2)), hull - (apex.x, apex.y))
        if cross.min() < -1e-6 and cross.max() > 1e-6:
            raise OverlapError("no supporting tangent line from the apex")
    angle = _angle_at(apex, proximal, tangent)
    if angle <= 0.0:
        angle = 180.0
    return angle, Point(float(tangent[0]), float(tangent[1]))


def ref_compute_hsd(fh_closed, apex):
    pts = ref_boundary_points(fh_closed)
    d = np.hypot(pts[:, 0] - apex.x, pts[:, 1] - apex.y)
    i = int(np.argmin(d))
    return float(d[i]), Point(float(pts[i, 0]), float(pts[i, 1]))


def ref_measure_frame_detailed(labels, params=RefineParams()):
    labels = validate_label_mask(labels)
    ps_raw = (labels == PS).astype(np.uint8)
    fh_raw = (labels == FH).astype(np.uint8)
    if not ps_raw.any():
        raise MissingStructureError("PS")
    if not fh_raw.any():
        raise MissingStructureError("FH")
    ps_ref = refine(morphology.largest_component(ps_raw), params)
    fh_ref = refine(morphology.largest_component(fh_raw), params)
    fh_centroid = ref_centroid(fh_ref.closed_mask)
    proximal, apex = ref_ps_axis_endpoints(ps_ref, fh_centroid)
    aop, tangent = ref_compute_aop(proximal, apex, fh_ref)
    hsd_apex = apex
    if ps_ref.used_ellipse:
        _, hsd_apex = ref_mask_axis_endpoints(ps_ref.closed_mask, fh_centroid)
    hsd, head_point = ref_compute_hsd(fh_ref.closed_mask, hsd_apex)
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # compared by type against the reference
        return type(e)


def assert_same_array(got, want):
    if want is None:
        assert got is None
        return
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def assert_same_measurement(got, want):
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    # repr spells every float exactly, and the types of the numbers too
    assert repr(got[0]) == repr(want[0])
    for g, w in zip(got[1:], want[1:]):
        assert_same_array(g.closed_mask, w.closed_mask)
        assert repr(g.ellipse) == repr(w.ellipse)
        assert (g.used_ellipse, g.prune_iterations, repr(g.final_ratio), g.box, g.frame) == (
            w.used_ellipse,
            w.prune_iterations,
            repr(w.final_ratio),
            w.box,
            w.frame,
        )


def _phantom_frames():
    frames = []
    for seed in (0, 1):
        labels = phantom.render(phantom.random_scene(seed, 256, 256))
        frames.append(labels)
        frames.append(phantom.perturb(labels, phantom.Perturbation(protrusions=1, seed=seed)))
    return frames


PHANTOM_FRAMES = _phantom_frames()


@st.composite
def scene_labels(draw):
    """Label masks with the cases a window must get right.

    Either a 256^2 phantom rolled so that its structures may be cut by, or
    wrap over, the frame edges; or a small frame with a thin PS ellipse and a
    round FH ellipse anywhere, partly off-frame included, optionally a class
    made of two equal rectangles (a size tie).  Then speckle: single pixels of
    either class anywhere, mostly far from the main components.
    """
    if draw(st.integers(0, 3)) == 0:
        labels = PHANTOM_FRAMES[draw(st.integers(0, len(PHANTOM_FRAMES) - 1))]
        labels = np.roll(labels, (draw(st.integers(-80, 80)), draw(st.integers(-80, 80))), axis=(0, 1))
    else:
        h, w = draw(st.integers(4, 56)), draw(st.integers(4, 56))
        labels = np.zeros((h, w), np.uint8)
        tied = draw(st.sampled_from([None, PS, FH]))
        for c, thin in ((PS, True), (FH, False)):
            if c == tied:
                rw, rh = draw(st.integers(1, max(1, w // 3))), draw(st.integers(1, max(1, h // 3)))
                for _ in range(2):
                    x, y = draw(st.integers(0, w - rw)), draw(st.integers(0, h - rh))
                    labels[y : y + rh, x : x + rw] = c
                continue
            a = draw(st.integers(1, max(w, h))) / 2
            b = a / draw(st.sampled_from([3, 4, 6])) if thin else a * draw(st.sampled_from([0.6, 0.8, 1.0]))
            cx = draw(st.integers(-w // 4, w + w // 4)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
            cy = draw(st.integers(-h // 4, h + h // 4)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
            e = Ellipse(cx, cy, a, max(b, 0.5), draw(st.sampled_from([0.0, 30.0, 90.0, 135.0])))
            labels[rasterize(e, w, h) == 1] = c
    labels = labels.copy()
    h, w = labels.shape
    for _ in range(draw(st.integers(0, 6))):
        labels[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = draw(st.sampled_from([PS, FH]))
    return labels


class TestWindowsMatchFullFrame:
    @settings(max_examples=200, deadline=None)
    @given(scene_labels(), st.integers(1, 13), st.integers(1, 13))
    def test_every_field_equal(self, labels, kernel_w, kernel_h):
        params = RefineParams(kernel_w=kernel_w, kernel_h=kernel_h)
        assert_same_measurement(
            outcome(measure_frame_detailed, labels, params), outcome(ref_measure_frame_detailed, labels, params)
        )

    def test_speckle_far_from_the_component(self):
        labels = scene_mask(TestCircleOracle.PS_E, TestCircleOracle.FH_E, 360, 200)
        labels[0, 0] = labels[199, 359] = PS
        labels[0, 359] = labels[199, 0] = FH
        got = measure_frame_detailed(labels)
        assert_same_measurement(got, ref_measure_frame_detailed(labels))
        assert got[1].box[2] - got[1].box[0] < 360 // 2


_QUARTERS = st.integers(-16, 16).map(lambda k: k / 4)


@st.composite
def hull_points(draw):
    """Point sets on a quarter-pixel grid, where every cross product of the
    chain is exact (as on the pixel centers the pipeline feeds it): free
    sets, sets on a few rows, one row, a diagonal line, and at most 2 points;
    then some duplicated points."""
    kind = draw(st.sampled_from(["free", "rows", "row", "line", "tiny"]))
    n = draw(st.integers(0, 2)) if kind == "tiny" else draw(st.integers(3, 40))
    if kind == "line":
        x0, y0 = draw(_QUARTERS), draw(_QUARTERS)
        dx, dy = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        pts = [(x0 + t * dx, y0 + t * dy) for t in draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))]
    else:
        ys = draw(st.lists(_QUARTERS, min_size=1, max_size={"rows": 3, "row": 1}.get(kind, 40)))
        pts = [(draw(_QUARTERS), draw(st.sampled_from(ys))) for _ in range(n)]
    if pts:
        pts += [pts[draw(st.integers(0, len(pts) - 1))] for _ in range(draw(st.integers(0, 5)))]
    return np.array(pts, dtype=np.float64).reshape(-1, 2)


class TestHullMatchesChain:
    @settings(max_examples=500, deadline=None)
    @given(hull_points())
    def test_same_vertices_in_the_same_order(self, pts):
        assert_same_array(convex_hull(pts), ref_convex_hull(pts))
