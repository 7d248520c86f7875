import importlib
import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry import edges, ellipse as el, morphology, phantom
from fetalbiometry.ellipse import Ellipse, rasterize
from fetalbiometry.errors import DegenerateInputError, EmptyShapeError, NoEdgesError
from fetalbiometry.metrics import dice
from fetalbiometry.raster import FH, PS, mask_set_counts, pixel_centers
from fetalbiometry.refine import (
    CLOSING_KERNEL,
    ELLIPSE_ACCEPT_RATIO,
    MAX_PRUNE,
    PRUNE_DISTANCE,
    RefinedShape,
    protrusion_ratio,
    prune,
    refine,
)


def class_mask(labels: np.ndarray, c: int) -> np.ndarray:
    """Binary mask of the pixels carrying class c."""
    return (labels == c).astype(np.uint8)


# the package attribute ``fetalbiometry.refine`` is the function
refine_mod = importlib.import_module("fetalbiometry.refine")


# Reference implementation: the full-frame refinement that kept the largest
# component, then ran closing, Canny, chains, the point prune and the ratios
# on the whole frame.  The cropped production code must match it field for
# field.  It runs the same consensus search as refine: what it checks is that
# crop and full frame agree, not the search itself.  Its loop ends as
# refine's does, after the first round that keeps every point.
def _ref_boundary_points(mask):
    edge_map = edges.canny(mask)
    chain = edges.longest_chain(edges.extract_chains(edge_map))
    return np.asarray(chain.points, dtype=np.float64) + 0.5  # pixel centers


def ref_refine(raw):
    raw = morphology.largest_component(raw)
    if not raw.any():
        raise EmptyShapeError("cannot refine an empty mask")
    closed = morphology.close(raw, CLOSING_KERNEL)
    if not closed.any():
        closed = raw.copy()
    h, w = closed.shape
    iterations = 0
    try:
        points = _ref_boundary_points(closed)
        fitted = el.fit_ams(points)
        if protrusion_ratio(el.rasterize(fitted, w, h), closed) >= 1.0:
            fitted = el.fit_consensus(points)
            while iterations < MAX_PRUNE:
                keep = prune(points, fitted)
                iterations += 1
                if keep.all():
                    break
                points = points[keep]
                fitted = el.fit_consensus(points)
    except (DegenerateInputError, NoEdgesError):
        return RefinedShape(closed, None, False, iterations, math.inf, (0, 0, w, h), (w, h))
    only_e, _, _ = mask_set_counts(el.rasterize(fitted, w, h), closed)
    s_area = int(np.count_nonzero(closed))
    ratio = only_e / s_area
    used = ratio < ELLIPSE_ACCEPT_RATIO
    return RefinedShape(closed, fitted, used, iterations, ratio, (0, 0, w, h), (w, h))


def assert_same_shape(got, want):
    assert got.closed_mask.dtype == want.closed_mask.dtype
    assert got.closed_mask.tobytes() == want.closed_mask.tobytes()
    assert got.ellipse == want.ellipse  # exact floats
    assert got.frame == want.frame
    assert got.used_ellipse == want.used_ellipse
    assert got.prune_iterations == want.prune_iterations
    assert got.final_ratio == want.final_ratio


def test_the_papers_constants():
    assert CLOSING_KERNEL.offsets == morphology.elliptical_kernel(10, 10).offsets
    assert (PRUNE_DISTANCE, ELLIPSE_ACCEPT_RATIO, MAX_PRUNE) == (3.0, 0.20, 15)


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
        pts = pixel_centers(rasterize(e, 32, 32))
        assert prune(pts, e).all()

    def test_far_pixels_removed(self):
        e = Ellipse(16.0, 16.0, 6.0, 4.0, 0.0)
        pts = np.concatenate([pixel_centers(rasterize(e, 32, 32)), [[2.5, 2.5]]])  # the last far from the ellipse
        keep = prune(pts, e)
        assert keep.shape == (len(pts),) and keep.dtype == bool
        assert keep[:-1].all() and not keep[-1]

    def test_within_margin_kept(self):
        e = Ellipse(16.0, 16.0, 6.0, 6.0, 0.0)
        # at distance 8.5 from the center, inside 6 + 3; the second at 9.5 is outside
        keep = prune(np.array([[24.5, 16.0], [25.5, 16.0]]), e)
        assert keep.tolist() == [True, False]


def ellipse_mask(cx, cy, a, b, theta, w=128, h=128):
    return rasterize(Ellipse(cx, cy, a, b, theta), w, h)


def selected_mask(r: RefinedShape) -> np.ndarray:
    """The full-frame mask the decision rule picks: the ellipse's raster or the hole-closed mask."""
    return rasterize(r.ellipse, *r.frame) if r.used_ellipse else r.closed_mask


class TestRefine:
    def test_clean_ellipse_uses_fit(self):
        m = ellipse_mask(64, 64, 40, 25, 30)
        r = refine(m)
        assert r.used_ellipse
        assert r.prune_iterations == 0
        assert r.final_ratio < 0.20
        assert dice(selected_mask(r), m) > 0.97

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
        assert dice(selected_mask(r), clean) > 0.95

    def test_annulus_keeps_mask(self):
        # the fitted ellipse fills the central hole, so the excess is too large
        outer = rasterize(Ellipse(64.0, 64.0, 40.0, 40.0, 0.0), 128, 128)
        inner = rasterize(Ellipse(64.0, 64.0, 25.0, 25.0, 0.0), 128, 128)
        r = refine((outer - inner).astype(np.uint8))
        assert not r.used_ellipse
        assert r.final_ratio >= 0.20
        assert np.array_equal(selected_mask(r), r.closed_mask)

    def test_empty_mask_error(self):
        with pytest.raises(EmptyShapeError):
            refine(np.zeros((16, 16), np.uint8))

    def test_single_pixel_rejected(self):
        m = np.zeros((32, 32), np.uint8)
        m[10, 10] = 1
        r = refine(m)
        assert not r.used_ellipse
        assert selected_mask(r).sum() == 1

    def test_prune_cap_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = (rng.random((48, 48)) < 0.45).astype(np.uint8)
            if not m.any():
                continue
            r = refine(m)
            assert r.prune_iterations <= 15


class TestRefinedShape:
    def test_negative_prune_count_rejected(self):
        with pytest.raises(ValueError, match="prune_iterations"):
            RefinedShape(np.ones((2, 2), np.uint8), None, False, -1, 0.0, (0, 0, 2, 2), (2, 2))


class TestShapeIsItsWindow:
    """A refined shape holds arrays over its box only, whatever the frame."""

    @staticmethod
    def far_shape():
        # a 120x100 window at (1000, 2000) of a 4096^2 frame
        return refine(ellipse_mask(60, 50, 50, 35, 20, 120, 100), origin=(1000, 2000), frame=(4096, 4096))

    def test_size_does_not_depend_on_the_frame(self):
        self.far_shape()  # warm-up: one-time allocations
        tracemalloc.start()
        try:
            r = self.far_shape()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000
        assert r.used_ellipse and r.frame == (4096, 4096)
        x0, y0, x1, y1 = r.box
        assert 1000 <= x0 and x1 <= 1120 and 2000 <= y0 and y1 <= 2100

    def test_pickle_round_trip(self):
        r = self.far_shape()
        back = pickle.loads(pickle.dumps(r))
        assert (back.closed.dtype, back.closed.shape) == (r.closed.dtype, r.closed.shape)
        assert back.closed.tobytes() == r.closed.tobytes()
        fields = ("ellipse", "used_ellipse", "prune_iterations", "final_ratio", "box", "frame")
        assert [getattr(back, f) for f in fields] == [getattr(r, f) for f in fields]


def _arc(w, h, cx, cy, r, thickness, start_deg, span_deg):
    """Annulus sector: pixels whose centers lie at radius [r, r + thickness]
    and polar angle [start, start + span] around (cx, cy)."""
    ys, xs = np.mgrid[0:h, 0:w] + 0.5
    rr = np.hypot(xs - cx, ys - cy)
    ang = (np.degrees(np.arctan2(ys - cy, xs - cx)) - start_deg) % 360.0
    return ((rr >= r) & (rr <= r + thickness) & (ang <= span_deg)).astype(np.uint8)


@st.composite
def refine_inputs(draw, kinds=("blob", "ellipse", "arc", "protrusion")):
    """Binary masks of the given kinds on small frames, often touching the border."""
    h = draw(st.integers(8, 64))
    w = draw(st.integers(8, 64))
    kind = draw(st.sampled_from(kinds))
    coord = st.floats(-0.25, 1.25)
    if kind == "blob":
        patch = draw(arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16)), elements=st.integers(0, 1)))
        y = draw(st.integers(-patch.shape[0] + 1, h - 1))
        x = draw(st.integers(-patch.shape[1] + 1, w - 1))
        m = np.zeros((h + 32, w + 32), np.uint8)  # margin for placing the patch off-frame
        m[y + 16 : y + 16 + patch.shape[0], x + 16 : x + 16 + patch.shape[1]] = patch
        m = m[16:-16, 16:-16]
    elif kind == "arc":
        # a thin sector of a large circle: its fitted ellipse overruns the crop
        m = _arc(
            w,
            h,
            draw(coord) * w,
            draw(coord) * h,
            draw(st.floats(6, 90)),
            draw(st.floats(1, 8)),
            draw(st.floats(0, 360)),
            draw(st.floats(15, 240)),
        )
    else:
        a = draw(st.floats(2, 48))
        e = Ellipse(draw(coord) * w, draw(coord) * h, a, a * draw(st.floats(0.1, 1.0)), draw(st.floats(0, 179.9)))
        m = rasterize(e, w, h)
        if kind == "protrusion":
            for _ in range(draw(st.integers(1, 2))):
                y, x = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
                m[y : y + draw(st.integers(2, 8)), x : x + draw(st.integers(5, 40))] = 1
    if not m.any():
        m[draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))] = 1
    return m


def protrusion_scene(seed, **perturbation):
    """A 256^2 phantom with one protrusion on each structure."""
    p = phantom.Perturbation(protrusions=1, seed=seed, **perturbation)
    return phantom.perturb(phantom.render(phantom.random_scene(seed, 256, 256)), p)


class TestCropMatchesFullFrame:
    @settings(max_examples=250, deadline=None)
    @given(refine_inputs())
    def test_every_field_equal(self, m):
        assert_same_shape(refine(m), ref_refine(m))

    def test_arc_fit_overruns_the_crop(self):
        # the fitted circle's pixels beyond the arc's box count as ellipse-only
        m = _arc(160, 160, 80.0, 150.0, 60.0, 4.0, 220.0, 100.0)
        ys, xs = np.nonzero(m)
        r = refine(m)
        e_mask = rasterize(r.ellipse, *r.frame)
        assert e_mask[: ys.min()].any() or e_mask[ys.max() + 1 :].any()
        assert_same_shape(r, ref_refine(m))

    @pytest.mark.parametrize("seed", range(2))
    def test_protrusion_phantom(self, seed):
        labels = protrusion_scene(seed)
        for cid in (PS, FH):
            m = morphology.largest_component(class_mask(labels, cid))
            assert_same_shape(refine(m), ref_refine(m))


class TestRefinesTheLargestComponent:
    """refine(m) is the refinement of m's largest component alone."""

    @staticmethod
    def assert_refines_largest(m):
        got, want = refine(m), refine(morphology.largest_component(m))
        assert_same_shape(got, want)
        assert got.box == want.box

    def test_two_disjoint_ellipses(self):
        m = ellipse_mask(40, 40, 30, 20, 10, 200, 120) | ellipse_mask(150, 70, 20, 12, 60, 200, 120)
        self.assert_refines_largest(m)

    @settings(max_examples=100, deadline=None)
    @given(refine_inputs(kinds=("blob",)))
    def test_blobs(self, m):
        self.assert_refines_largest(m)


class TestConsensusFit:
    TRUTH = Ellipse(100.0, 80.0, 40.0, 25.0, 30.0)

    @classmethod
    def spurred_points(cls):
        """240 points: 200 pixel centers on the ellipse, then a 40-point spur off its major-axis end."""
        t = np.linspace(0.0, 2 * math.pi, 200, endpoint=False)
        rim = cls.TRUTH.from_local(np.column_stack([40.0 * np.cos(t), 25.0 * np.sin(t)]))
        spur = cls.TRUTH.from_local(np.column_stack([np.linspace(41.0, 80.0, 40), np.full(40, 1.0)]))
        return np.floor(np.concatenate([rim, spur])) + 0.5

    @staticmethod
    def miss(e, truth):
        return max(abs(e.cx - truth.cx), abs(e.cy - truth.cy), abs(e.a - truth.a), abs(e.b - truth.b))

    def test_recovers_the_ellipse_under_a_spur(self):
        pts = self.spurred_points()
        assert self.miss(el.fit_consensus(pts), self.TRUTH) < 0.5
        assert self.miss(el.fit_ams(pts), self.TRUTH) > 2.0

    def test_same_points_same_fit(self):
        pts = self.spurred_points()
        assert el.fit_consensus(pts) == el.fit_consensus(pts.copy())

    def test_no_elliptic_subset_falls_back_to_the_plain_fit(self, monkeypatch):
        # every 5 points of a hyperbola lie on that hyperbola alone
        x = np.linspace(5.0, 40.0, 30)
        pts = np.concatenate([np.column_stack([x, 200.0 / x]), np.column_stack([-x, -200.0 / x])])
        want = el.fit_ams(pts)
        fitted = []
        fit_ams = el.fit_ams
        monkeypatch.setattr(el, "fit_ams", lambda p: fitted.append(len(p)) or fit_ams(p))
        assert el.fit_consensus(pts) == want
        assert fitted == [len(pts)]


class TestCallCounts:
    """The benchmark's per-layer spans wrap these functions by module attribute.
    refine extracts edges and tests the protrusion ratio once per structure,
    prunes once per round, and rasters the final fit once more when the loop
    ran; every AMS fit, the consensus refits included, goes through
    ``ellipse.fit_ams``."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module, name in [
            (refine_mod, "prune"),
            (refine_mod, "protrusion_ratio"),
            (edges, "canny"),
            (el, "fit_ams"),
            (el, "fit_consensus"),
            (el, "raster_window"),
        ]:
            counted(module, name)
        return calls

    @pytest.mark.parametrize("seed", [0, 1])
    def test_calls_per_structure(self, calls, seed):
        # every loop on these scenes ends at its fixed point, before the cap
        labels = protrusion_scene(seed)
        pruned = 0
        for cid in (PS, FH):
            calls.clear()
            r = refine(morphology.largest_component(class_mask(labels, cid)))
            n = r.prune_iterations
            assert n < MAX_PRUNE
            pruned += n
            assert calls["canny"] == calls["protrusion_ratio"] == 1
            assert calls["raster_window"] == 1 + (n > 0)
            # the entry's consensus fit, then one refit per round that drops a point
            assert calls.get("prune", 0) == calls.get("fit_consensus", 0) == n
            assert calls["fit_ams"] == n + 1
        assert pruned > 0

    def test_nothing_runs_after_a_round_that_prunes_nothing(self, calls):
        # this PS's second round keeps every point: no fit follows it, and the
        # final fit is rastered once
        labels = protrusion_scene(1, holes=2)
        calls.clear()  # rendering rasterizes
        r = refine(morphology.largest_component(class_mask(labels, PS)))
        assert r.prune_iterations == 2
        assert calls == {
            "prune": 2,
            "protrusion_ratio": 1,
            "canny": 1,
            "raster_window": 2,
            "fit_consensus": 2,
            "fit_ams": 3,
        }


def arc():
    """The arc of test_arc_fit_overruns_the_crop: its fit overruns the arc, so the loop is entered."""
    return _arc(160, 160, 80.0, 150.0, 60.0, 4.0, 220.0, 100.0)


class TestPruneLoopEnd:
    def test_ends_after_the_first_round_that_prunes_nothing(self, monkeypatch):
        dropped = []

        def counted(points, e):
            keep = prune(points, e)
            dropped.append(int(np.count_nonzero(~keep)))
            return keep

        monkeypatch.setattr(refine_mod, "prune", counted)
        r = refine(arc())
        assert r.prune_iterations == len(dropped) > 1
        assert all(dropped[:-1]) and dropped[-1] == 0

    def test_a_loop_that_always_prunes_stops_at_the_cap(self, monkeypatch):
        calls = []

        def drop_first(points, e):
            calls.append(len(points))
            keep = np.ones(len(points), bool)
            keep[0] = False
            return keep

        monkeypatch.setattr(refine_mod, "prune", drop_first)
        r = refine(arc())
        assert MAX_PRUNE == 15
        assert len(calls) == r.prune_iterations == MAX_PRUNE
        assert calls == list(range(calls[0], calls[0] - MAX_PRUNE, -1))

    def test_a_round_that_ends_in_an_error_is_counted(self, monkeypatch):
        calls = []

        def drop_all(points, e):
            calls.append(len(points))
            return np.zeros(len(points), bool)

        monkeypatch.setattr(refine_mod, "prune", drop_all)
        # no point is left to fit
        r = refine(arc())
        assert r.ellipse is None
        assert len(calls) == r.prune_iterations == 1

    def test_a_no_op_first_round_decides_on_the_consensus_fit(self):
        # the plain fit enters the loop, and its consensus fit keeps every point
        r = refine(ellipse_mask(33, 16, 27, 6, 61, 64, 64))
        closed = r.closed_mask
        plain = el.fit_ams(_ref_boundary_points(closed))
        assert r.prune_iterations == 1 and r.ellipse != plain

        def excess(e):
            only_e, only_s, both = mask_set_counts(rasterize(e, 64, 64), closed)
            return only_e / (only_s + both)

        assert r.final_ratio == excess(r.ellipse) != excess(plain)


class TestPruneLoopFixedPoint:
    """Each round trims the point set the last round kept, until a round keeps them all."""

    @staticmethod
    def recorded_refine(monkeypatch, m):
        """(refine(m), [(points, keep)] of each prune call)."""
        rounds = []

        def recorded(points, e):
            keep = prune(points, e)
            rounds.append((points.copy(), keep))
            return keep

        monkeypatch.setattr(refine_mod, "prune", recorded)
        return refine(m), rounds

    def check(self, r, rounds):
        assert len(rounds) == r.prune_iterations
        for (points, keep), (later, _) in zip(rounds, rounds[1:]):
            assert not keep.all()
            assert np.array_equal(later, points[keep])  # the kept points, in order
        if rounds and r.prune_iterations < MAX_PRUNE and r.ellipse is not None:
            # not capped, and no refit failed on too few points: a fixed point
            points, keep = rounds[-1]
            assert keep.all()
            assert r.ellipse == el.fit_consensus(points)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_protrusion_scenes(self, monkeypatch, seed):
        labels = protrusion_scene(seed)
        for cid in (PS, FH):
            r, rounds = self.recorded_refine(monkeypatch, morphology.largest_component(class_mask(labels, cid)))
            assert len(rounds) > 1
            self.check(r, rounds)

    def test_arc(self, monkeypatch):
        r, rounds = self.recorded_refine(monkeypatch, arc())
        assert len(rounds) > 1
        self.check(r, rounds)

    @settings(max_examples=100, deadline=None)
    @given(refine_inputs())
    def test_any_mask(self, m):
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(*self.recorded_refine(monkeypatch, m))
