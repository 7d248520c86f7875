import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fetalbiometry.ellipse import (
    Ellipse,
    _conic_to_ellipse,
    _direct_conic,
    _taubin_conic,
    contains,
    external_tangents,
    fit_ams,
    fit_consensus,
    raster_window,
    rasterize,
)
from fetalbiometry.errors import DegenerateInputError, NoTangentError
from fetalbiometry.metrics import dice


def sample_ellipse(e: Ellipse, n: int) -> np.ndarray:
    t = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    local = np.column_stack([e.a * np.cos(t), e.b * np.sin(t)])
    return e.from_local(local)


class TestFit:
    def test_exact_recovery(self):
        e = Ellipse(100.0, 80.0, 50.0, 30.0, 20.0)
        f = fit_ams(sample_ellipse(e, 32))
        assert abs(f.cx - e.cx) / e.cx < 1e-6
        assert abs(f.cy - e.cy) / e.cy < 1e-6
        assert abs(f.a - e.a) / e.a < 1e-6
        assert abs(f.b - e.b) / e.b < 1e-6
        assert abs(f.theta_deg - e.theta_deg) < 1e-5

    def test_unit_circle(self):
        t = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        f = fit_ams(np.column_stack([np.cos(t), np.sin(t)]))
        assert abs(f.a - 1) < 1e-9 and abs(f.b - 1) < 1e-9
        assert abs(f.cx) < 1e-9 and abs(f.cy) < 1e-9

    def test_fields_are_floats(self):
        pts = sample_ellipse(Ellipse(100.0, 80.0, 50.0, 30.0, 20.0), 32)
        for fit in (fit_ams, fit_consensus):
            e = fit(pts)
            assert [type(v) for v in (e.cx, e.cy, e.a, e.b, e.theta_deg)] == [float] * 5

    def test_collinear_error(self):
        pts = np.column_stack([np.arange(5.0), 2 * np.arange(5.0)])
        with pytest.raises(DegenerateInputError):
            fit_ams(pts)

    def test_too_few_points(self):
        with pytest.raises(DegenerateInputError):
            fit_ams(np.zeros((4, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_rigid_motion_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        e = Ellipse(0.0, 0.0, float(rng.uniform(20, 60)), float(rng.uniform(10, 19)), 0.0)
        pts = sample_ellipse(e, 40)
        ang = float(rng.uniform(0, 180))
        shift = rng.uniform(-50, 50, 2)
        t = math.radians(ang)
        rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        f = fit_ams(pts @ rot.T + shift)
        assert abs(f.a - e.a) < 1e-9 * e.a + 1e-9
        assert abs(f.b - e.b) < 1e-9 * e.b + 1e-9
        assert np.allclose([f.cx, f.cy], shift, atol=1e-8)
        assert min(abs(f.theta_deg - ang % 180.0), 180 - abs(f.theta_deg - ang % 180.0)) < 1e-6


    def test_large_offsets(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = float(rng.uniform(20, 200))
            e = Ellipse(
                float(1e4 + rng.uniform(-100, 100)),
                float(1e4 + rng.uniform(-100, 100)),
                a,
                a * float(rng.uniform(0.3, 1.0)),
                float(rng.uniform(0, 180)),
            )
            f = fit_ams(sample_ellipse(e, 64))
            assert max(abs(f.cx - e.cx), abs(f.cy - e.cy), abs(f.a - e.a), abs(f.b - e.b)) < 1e-10

    def test_hyperbolic_conic_falls_back_to_direct_fit(self):
        rng = np.random.default_rng(1)
        t = rng.uniform(-1.5, 1.5, 20)
        pts = np.column_stack([20 * np.cosh(t), 10 * np.sinh(t)]) + rng.normal(0, 0.5, (20, 2))
        c = _taubin_conic(*normalized(pts)[:2])
        assert c[1] ** 2 - 4 * c[0] * c[2] >= 0
        assert fit_ams(pts) == direct_fit(pts)


def normalized(points):
    """(x, y, mean, scale): the points centred and scaled to RMS radius sqrt(2), as the fit sees them."""
    mean = points.mean(axis=0)
    centered = points - mean
    scale = math.sqrt(2.0) / np.sqrt((centered**2).sum(axis=1).mean())
    return centered[:, 0] * scale, centered[:, 1] * scale, mean, scale


def direct_fit(points):
    """The direct fit's ellipse, scaled back from the normalized frame."""
    x, y, mean, scale = normalized(points)
    e = _conic_to_ellipse(_direct_conic(x, y))
    return Ellipse(float(e.cx / scale + mean[0]), float(e.cy / scale + mean[1]), e.a / scale, e.b / scale, e.theta_deg)


# Reference: the fit that maps the conic back through the normalizing
# congruence before converting it, and raises when a gradient-weighted conic
# of elliptic type turns out to be imaginary.
def ref_fit_ams(points):
    x, y, mean, scale = normalized(points)
    try:
        conic = _taubin_conic(x, y)
        if conic[1] ** 2 - 4 * conic[0] * conic[2] >= 0:
            conic = _direct_conic(x, y)
    except DegenerateInputError:
        conic = _direct_conic(x, y)
    t = np.array([[scale, 0.0, -scale * mean[0]], [0.0, scale, -scale * mean[1]], [0.0, 0.0, 1.0]])
    a, b, c, d, e, f = conic
    cm = t.T @ np.array([[a, b / 2, d / 2], [b / 2, c, e / 2], [d / 2, e / 2, f]]) @ t
    return _conic_to_ellipse(np.array([cm[0, 0], 2 * cm[0, 1], cm[1, 1], 2 * cm[0, 2], 2 * cm[1, 2], cm[2, 2]]))


def outcome(fit, points):
    try:
        return fit(points)
    except DegenerateInputError as exc:
        return exc


@st.composite
def frame_point_sets(draw):
    """Noisy samples of a frame-scale ellipse: full or an arc of at least a quarter turn."""
    a = draw(st.floats(8.0, 400.0))
    e = Ellipse(
        draw(st.floats(0.0, 2048.0)),
        draw(st.floats(0.0, 2048.0)),
        a,
        draw(st.floats(max(8.0, 0.3 * a), a)),
        draw(st.floats(0.0, 180.0, exclude_max=True)),
    )
    n = draw(st.integers(8, 400))
    span = draw(st.one_of(st.just(2 * math.pi), st.floats(math.pi / 2, 2 * math.pi)))
    t = draw(st.floats(0.0, 2 * math.pi)) + np.linspace(0.0, span, n, endpoint=span < 2 * math.pi)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(0.0, draw(st.floats(0.0, 2.0)), (n, 2))
    return e.from_local(np.column_stack([e.a * np.cos(t), e.b * np.sin(t)])) + noise


class TestFitMatchesCongruence:
    @settings(max_examples=300, deadline=None)
    @given(frame_point_sets())
    def test_same_ellipse(self, pts):
        got, ref = outcome(fit_ams, pts), outcome(ref_fit_ams, pts)
        if isinstance(ref, DegenerateInputError) and isinstance(got, Ellipse):
            # the one changed case: an imaginary gradient-weighted ellipse now falls back
            x, y, _, _ = normalized(pts)
            c = _taubin_conic(x, y)
            assert c[1] ** 2 - 4 * c[0] * c[2] < 0
            with pytest.raises(DegenerateInputError, match="no real elliptic axes"):
                _conic_to_ellipse(c)
            assert got == direct_fit(pts)
            return
        if isinstance(ref, DegenerateInputError):
            assert isinstance(got, DegenerateInputError)
            return
        assert max(abs(got.cx - ref.cx), abs(got.cy - ref.cy), abs(got.a - ref.a), abs(got.b - ref.b)) < 1e-7
        if (got.a - got.b) / got.a > 1e-3:
            d = abs(got.theta_deg - ref.theta_deg) % 180.0
            assert min(d, 180.0 - d) < 1e-9


# Reference for the Taubin solve: the generalized eigenproblem of the full
# 6 x 6 pair, solved by LAPACK through scipy.
def ref_taubin_conic(x, y):
    z = np.column_stack([x * x, x * y, y * y, x, y, np.ones_like(x)])
    m = z.T @ z
    zx = np.column_stack([2 * x, y, np.zeros_like(x), np.ones_like(x), np.zeros_like(x), np.zeros_like(x)])
    zy = np.column_stack([np.zeros_like(x), x, 2 * y, np.zeros_like(x), np.ones_like(x), np.zeros_like(x)])
    n = zx.T @ zx + zy.T @ zy
    w, v = scipy.linalg.eig(m, n)
    w = np.real(w)
    finite = np.isfinite(w) & (w > -1e-9)
    if not finite.any():
        raise DegenerateInputError("gradient-weighted fit has no admissible eigenvalue")
    return np.real(v[:, np.flatnonzero(finite)[np.argmin(w[finite])]])


def fit_path(points, taubin_conic):
    """("taubin" | "direct", ellipse) as fit_ams would fit with this solve, or ("error", None)."""
    x, y, mean, scale = normalized(np.asarray(points, dtype=np.float64))
    try:
        e, path = _conic_to_ellipse(taubin_conic(x, y)), "taubin"
    except DegenerateInputError:
        try:
            e, path = _conic_to_ellipse(_direct_conic(x, y)), "direct"
        except DegenerateInputError:
            return "error", None
    return path, Ellipse(float(e.cx / scale + mean[0]), float(e.cy / scale + mean[1]), e.a / scale, e.b / scale, e.theta_deg)


def _five_on_an_ellipse():
    return sample_ellipse(Ellipse(40.0, 30.0, 20.0, 8.0, 25.0), 5)


def _two_clusters():
    rng = np.random.default_rng(3)
    return np.concatenate([rng.normal((10.0, 10.0), 1e-3, (6, 2)), rng.normal((90.0, 40.0), 1e-3, (6, 2))])


def _line_and_a_point():
    t = np.arange(12.0)
    return np.concatenate([np.column_stack([3 * t + 5, 2 * t - 1]), [[20.0, 40.0]]])


DEGENERATE_SETS = {
    "five-points": _five_on_an_ellipse(),
    "five-random": np.random.default_rng(0).uniform(0, 100, (5, 2)),
    "collinear": np.column_stack([np.arange(5.0), 2 * np.arange(5.0)]),
    "collinear-many": np.column_stack([np.arange(40.0) * 0.5 + 7, 300 - 1.5 * np.arange(40.0)]),
    "two-clusters": _two_clusters(),
    "line-and-a-point": _line_and_a_point(),
}


def assert_matches_reference(pts):
    """fit_ams takes the path the scipy solve would, and is the ellipse of a
    Taubin conic within 1e-10 of the scipy one (both of unit norm, signs
    aligned).

    The conics are compared, not the ellipses, because the map from conic to
    ellipse is shared and can be ill-conditioned: eight noisy points on a
    10 px arc fit a near-parabola with a = 1796 px whose two conics agree to
    1.2e-15, while against a 50-digit solve of the same pair the scipy
    ellipse is 4.3e-7 px off, and the numpy one 1.3e-7 px.
    """
    got, ref = fit_path(pts, _taubin_conic), fit_path(pts, ref_taubin_conic)
    assert got[0] == ref[0]
    fitted = outcome(fit_ams, pts)
    if got[1] is None:
        assert isinstance(fitted, DegenerateInputError)
        return
    assert fitted == got[1]
    if got[0] == "direct":
        assert got[1] == ref[1]
        return
    x, y, _, _ = normalized(pts)
    g, r = (c / np.linalg.norm(c) for c in (_taubin_conic(x, y), ref_taubin_conic(x, y)))
    assert np.abs(g - np.sign(g @ r) * r).max() < 1e-10


# eight noisy points on a 10 px arc: the fit is a near-parabola
NEAR_PARABOLA = np.array(
    [
        [-10.14166345, 1.75119556],
        [-10.36415193, 1.66336156],
        [-12.62431004, -0.26096474],
        [-9.62225217, -0.35520855],
        [-4.87780712, -1.44342702],
        [-3.7896222, -6.07674084],
        [-1.70632594, -4.21836088],
        [-2.55668535, -6.68111769],
    ]
)


class TestTaubinMatchesScipy:
    @settings(max_examples=300, deadline=None)
    @given(frame_point_sets())
    @example(NEAR_PARABOLA)
    def test_same_fit(self, pts):
        assert_matches_reference(pts)

    @pytest.mark.parametrize("pts", DEGENERATE_SETS.values(), ids=DEGENERATE_SETS.keys())
    def test_same_outcome_on_degenerate_sets(self, pts):
        assert_matches_reference(pts)


class TestContains:
    E = Ellipse(10.0, 20.0, 5.0, 2.0, 30.0)

    def test_center_inside(self):
        assert contains(self.E, (10.0, 20.0))

    def test_far_point_outside(self):
        t = math.radians(30.0)
        p = (10.0 + 10.0 * math.cos(t), 20.0 + 10.0 * math.sin(t))
        assert not contains(self.E, p)

    def test_boundary_counts_inside(self):
        e = Ellipse(10.0, 20.0, 5.0, 2.0, 0.0)
        assert contains(e, (15.0, 20.0))
        assert contains(e, (10.0, 22.0))


class TestRasterize:
    def test_tiny_circle_single_pixel(self):
        e = Ellipse(3.5, 4.5, 0.4, 0.4, 0.0)  # centered on pixel (3, 4)
        m = rasterize(e, 8, 8)
        assert m.sum() == 1 and m[4, 3] == 1

    def test_fully_outside(self):
        e = Ellipse(-50.0, -50.0, 10.0, 5.0, 0.0)
        assert rasterize(e, 20, 20).sum() == 0

    def test_fit_round_trip_dice(self):
        from fetalbiometry.edges import canny, extract_chains, longest_chain

        e = Ellipse(128.0, 120.0, 70.0, 45.0, 35.0)
        m = rasterize(e, 256, 256)
        chain = longest_chain(extract_chains(canny(m)))
        f = fit_ams(np.asarray(chain.points, float) + 0.5)
        m2 = rasterize(f, 256, 256)
        assert dice(m, m2) >= 0.98

    def test_area_convergence(self):
        e = Ellipse(150.0, 150.0, 60.0, 25.0, 70.0)
        area = int(rasterize(e, 300, 300).sum())
        assert abs(area - math.pi * e.a * e.b) / (math.pi * e.a * e.b) < 0.02


# Reference: the raster window over a square box of half-width a around the
# center.  The production window is tighter and must set the same pixels.
def ref_raster_window(e, width, height):
    r = e.a
    x0 = max(0, int(math.floor(e.cx - r - 1)))
    x1 = min(width, int(math.ceil(e.cx + r + 1)))
    y0 = max(0, int(math.floor(e.cy - r - 1)))
    y1 = min(height, int(math.ceil(e.cy + r + 1)))
    if x0 >= x1 or y0 >= y1:
        return 0, 0, np.zeros((0, 0), dtype=np.uint8)
    gx, gy = np.meshgrid(np.arange(x0, x1) + 0.5, np.arange(y0, y1) + 0.5)
    inside = e.quad_form(np.column_stack([gx.ravel(), gy.ravel()])) <= 1.0
    return x0, y0, inside.reshape(y1 - y0, x1 - x0).astype(np.uint8)


def pasted(window, width, height):
    x0, y0, win = window
    out = np.zeros((height, width), dtype=np.uint8)
    out[y0 : y0 + win.shape[0], x0 : x0 + win.shape[1]] = win
    return out


class TestRasterWindow:
    @settings(max_examples=300, deadline=None)
    @given(
        cx=st.floats(-40.0, 140.0),
        cy=st.floats(-40.0, 140.0),
        a=st.floats(0.2, 90.0),
        ratio=st.floats(0.005, 1.0),  # b / a: thin to round
        theta=st.floats(0.0, 180.0, exclude_max=True),
        width=st.integers(1, 100),
        height=st.integers(1, 100),
    )
    @example(cx=50.0, cy=50.0, a=40.0, ratio=0.05, theta=0.0, width=100, height=100)
    @example(cx=50.0, cy=50.0, a=40.0, ratio=0.05, theta=90.0, width=100, height=100)
    @example(cx=-3.0, cy=97.5, a=30.0, ratio=0.2, theta=135.0, width=100, height=100)
    def test_matches_square_box(self, cx, cy, a, ratio, theta, width, height):
        e = Ellipse(cx, cy, a, a * ratio, theta)
        x0, y0, win = got = raster_window(e, width, height)
        assert pasted(got, width, height).tobytes() == pasted(ref_raster_window(e, width, height), width, height).tobytes()
        if win.size == 0:
            return
        # each side lies within the rotated ellipse's bounding box plus 1 px
        t = math.radians(theta)
        hx = math.hypot(e.a * math.cos(t), e.b * math.sin(t))
        hy = math.hypot(e.a * math.sin(t), e.b * math.cos(t))
        assert x0 >= math.floor(cx - hx) - 1 and y0 >= math.floor(cy - hy) - 1
        assert x0 + win.shape[1] <= math.ceil(cx + hx) + 1 and y0 + win.shape[0] <= math.ceil(cy + hy) + 1


class TestTangents:
    def test_unit_circle(self):
        t1, t2 = external_tangents(Ellipse(0.0, 0.0, 1.0, 1.0, 0.0), (2.0, 0.0))
        pts = sorted([tuple(t1), tuple(t2)], key=lambda p: p[1])
        assert np.allclose(pts[0], (0.5, -math.sqrt(3) / 2))
        assert np.allclose(pts[1], (0.5, math.sqrt(3) / 2))

    @pytest.mark.parametrize("r,d", [(1.0, 3.0), (2.5, 7.0), (5.0, 6.0)])
    def test_half_angle_matches_arcsin(self, r, d):
        e = Ellipse(0.0, 0.0, r, r, 0.0)
        t1, t2 = external_tangents(e, (d, 0.0))
        for t in (t1, t2):
            v = np.array([t[0] - d, t[1]])
            u = np.array([-d, 0.0])
            cosang = (u @ v) / (np.linalg.norm(u) * np.linalg.norm(v))
            assert abs(math.acos(np.clip(cosang, -1, 1)) - math.asin(r / d)) < 1e-9

    def test_interior_point_error(self):
        with pytest.raises(NoTangentError):
            external_tangents(Ellipse(0.0, 0.0, 2.0, 1.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("seed", range(5))
    def test_tangent_line_supports_ellipse(self, seed):
        rng = np.random.default_rng(seed)
        e = Ellipse(
            float(rng.uniform(-5, 5)),
            float(rng.uniform(-5, 5)),
            float(rng.uniform(3, 8)),
            float(rng.uniform(1, 3)),
            float(rng.uniform(0, 180)),
        )
        p = np.array([e.cx + 20.0, e.cy + 12.0])
        for t in external_tangents(e, p):
            d = t - p
            bound = sample_ellipse(e, 720) - p
            cross = d[0] * bound[:, 1] - d[1] * bound[:, 0]
            assert cross.min() >= -1e-6 or cross.max() <= 1e-6
