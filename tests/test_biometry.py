import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry.biometry import (
    BiometryResult,
    _apex_inside,
    boundary_points,
    compute_hsd,
    convex_hull,
    measure_frame,
    measure_frame_detailed,
    ps_axis_endpoints,
)
from fetalbiometry.ellipse import Ellipse, rasterize
from fetalbiometry.errors import EmptyShapeError, FetalBiometryError, MissingStructureError
from fetalbiometry.raster import FH, PS, Point
from fetalbiometry.refine import RefinedShape, RefineParams


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
        shape = RefinedShape(m, None, None, False, 0, 0.0)
        prox, apex = ps_axis_endpoints(shape, Point(100.0, 10.0))
        assert apex.x > prox.x  # apex is the end nearer the head

    def test_ellipse_axis(self):
        from fetalbiometry.refine import RefinedShape

        e = Ellipse(100.0, 100.0, 40.0, 6.0, 0.0)
        m = rasterize(e, 200, 200)
        shape = RefinedShape(m, e, m, True, 0, 0.0)
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
        return RefinedShape(mask, None, None, False, 0, math.inf)

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
