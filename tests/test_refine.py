import math

import numpy as np
import pytest

from fetalbiometry.ellipse import Ellipse, rasterize
from fetalbiometry.errors import EmptyShapeError, FormatError
from fetalbiometry.metrics import dice
from fetalbiometry.refine import RefineParams, protrusion_ratio, prune, refine


class TestParams:
    def test_defaults(self):
        p = RefineParams()
        assert (p.kernel_w, p.kernel_h) == (10, 10)
        assert (p.canny_min, p.canny_max) == (2.0, 5.0)
        assert p.prune_distance == 3.0
        assert p.max_prune == 15
        assert p.ellipse_accept_ratio == 0.20

    def test_dict_round_trip(self):
        p = RefineParams(kernel_w=6, max_prune=9)
        assert RefineParams.from_dict(p.to_dict()) == p

    @pytest.mark.parametrize(
        "d",
        [
            {"max_prune": "3"},
            {"max_prune": 3.0},
            {"max_prune": True},
            {"canny_min": None},
            {"canny_min": float("nan")},
            {"canny_min": 10**400},
            {"max_prun": 3},
            {"max_prune": 0},
            [1, 2],
        ],
    )
    def test_from_dict_rejects(self, d):
        with pytest.raises(FormatError):
            RefineParams.from_dict(d)

    def test_from_dict_takes_int_for_float(self):
        p = RefineParams.from_dict({"prune_distance": 4, "max_prune": 7})
        assert p == RefineParams(prune_distance=4.0, max_prune=7)
        assert type(p.prune_distance) is float

    def test_invalid(self):
        with pytest.raises(ValueError):
            RefineParams(kernel_w=0)
        with pytest.raises(ValueError):
            RefineParams(ellipse_accept_ratio=1.5)
        with pytest.raises(ValueError):
            RefineParams(canny_min=9, canny_max=5)


class TestProtrusionRatio:
    def test_both_empty_zero(self):
        a = np.zeros((4, 4), np.uint8)
        assert protrusion_ratio(a, a) == 0.0

    def test_simple_ratio(self):
        e = np.zeros((4, 4), np.uint8)
        s = np.zeros((4, 4), np.uint8)
        e[0, 0:3] = 1  # 3 pixels only in E
        s[1, 0] = 1  # 1 pixel only in S
        e[2, 2] = s[2, 2] = 1
        assert protrusion_ratio(e, s) == 3.0

    def test_superset_infinite(self):
        s = np.zeros((4, 4), np.uint8)
        s[1, 1] = 1
        e = s.copy()
        e[1, 2] = 1
        assert protrusion_ratio(e, s) == math.inf

    def test_subset_zero(self):
        s = np.ones((4, 4), np.uint8)
        e = np.zeros((4, 4), np.uint8)
        e[1, 1] = 1
        assert protrusion_ratio(e, s) == 0.0

    def test_symmetry_inverse(self):
        rng = np.random.default_rng(3)
        e = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        s = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        r = protrusion_ratio(e, s)
        rinv = protrusion_ratio(s, e)
        if 0 < r < math.inf:
            assert abs(r * rinv - 1.0) < 1e-12


class TestPrune:
    def test_inside_untouched(self):
        e = Ellipse(16.0, 16.0, 8.0, 5.0, 0.0)
        m = rasterize(e, 32, 32)
        assert np.array_equal(prune(m, e, 3.0), m)

    def test_far_pixels_removed(self):
        e = Ellipse(16.0, 16.0, 6.0, 4.0, 0.0)
        m = rasterize(e, 32, 32)
        m[2, 2] = 1  # far from the ellipse
        out = prune(m, e, 3.0)
        assert out[2, 2] == 0
        assert out.sum() == m.sum() - 1

    def test_within_margin_kept(self):
        e = Ellipse(16.0, 16.0, 6.0, 6.0, 0.0)
        m = np.zeros((32, 32), np.uint8)
        m[16, 24] = 1  # center (24.5, 16.5): distance from ellipse center ~8.5 <= 6+3
        out = prune(m, e, 3.0)
        assert out[16, 24] == 1

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            prune(np.zeros((4, 4), np.uint8), Ellipse(1, 1, 2, 1, 0.0), 0.0)


def ellipse_mask(cx, cy, a, b, theta, w=128, h=128):
    return rasterize(Ellipse(cx, cy, a, b, theta), w, h)


class TestRefine:
    def test_clean_ellipse_uses_fit(self):
        m = ellipse_mask(64, 64, 40, 25, 30)
        r = refine(m)
        assert r.used_ellipse
        assert r.prune_iterations == 0
        assert r.final_ratio < 0.20
        assert dice(r.selected_mask, m) > 0.97

    def test_hole_closed(self):
        m = ellipse_mask(64, 64, 40, 25, 0)
        m[60:64, 60:64] = 0
        r = refine(m)
        assert r.closed_mask[61, 61] == 1

    def test_protrusion_triggers_pruning(self):
        m = ellipse_mask(64, 80, 45, 30, 0, 192, 160)
        m[76:82, 108:150] = 1  # long thin spur off the right side
        r = refine(m)
        assert r.prune_iterations >= 1
        assert r.prune_iterations <= 15
        assert r.used_ellipse
        clean = ellipse_mask(64, 80, 45, 30, 0, 192, 160)
        assert dice(r.selected_mask, clean) > 0.95

    def test_annulus_keeps_mask(self):
        # the fitted ellipse fills the central hole, so the excess is too large
        outer = rasterize(Ellipse(64.0, 64.0, 40.0, 40.0, 0.0), 128, 128)
        inner = rasterize(Ellipse(64.0, 64.0, 25.0, 25.0, 0.0), 128, 128)
        r = refine((outer - inner).astype(np.uint8))
        assert not r.used_ellipse
        assert r.final_ratio >= 0.20
        assert np.array_equal(r.selected_mask, r.closed_mask)

    def test_empty_mask_error(self):
        with pytest.raises(EmptyShapeError):
            refine(np.zeros((16, 16), np.uint8))

    def test_single_pixel_rejected(self):
        m = np.zeros((32, 32), np.uint8)
        m[10, 10] = 1
        r = refine(m)
        assert not r.used_ellipse
        assert r.selected_mask.sum() == 1

    def test_prune_cap_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = (rng.random((48, 48)) < 0.45).astype(np.uint8)
            if not m.any():
                continue
            r = refine(m)
            assert r.prune_iterations <= 15
