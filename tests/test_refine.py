import dataclasses
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
from fetalbiometry.errors import DegenerateInputError, EmptyShapeError, FormatError, NoEdgesError
from fetalbiometry.io_formats import dataclass_from_json
from fetalbiometry.metrics import dice
from fetalbiometry.raster import FH, PS, mask_set_counts
from fetalbiometry.refine import RefinedShape, RefineParams, protrusion_ratio, prune, refine


def class_mask(labels: np.ndarray, c: int) -> np.ndarray:
    """Binary mask of the pixels carrying class c."""
    return (labels == c).astype(np.uint8)


# the package attribute ``fetalbiometry.refine`` is the function
refine_mod = importlib.import_module("fetalbiometry.refine")


# Reference implementation: the full-frame refinement that kept the largest
# component, then ran closing, Canny, chains, prune and the ratios on the
# whole frame.  The cropped production code must match it field for field.
def _ref_fit_boundary(mask):
    edge_map = edges.canny(mask)
    chain = edges.longest_chain(edges.extract_chains(edge_map))
    pts = np.asarray(chain.points, dtype=np.float64) + 0.5  # pixel centers
    fitted = el.fit_ams(pts)
    h, w = mask.shape
    return fitted, el.rasterize(fitted, w, h)


def ref_refine(raw, params=RefineParams()):
    raw = morphology.largest_component(raw)
    if not raw.any():
        raise EmptyShapeError("cannot refine an empty mask")
    kernel = morphology.elliptical_kernel(params.kernel_w, params.kernel_h)
    closed = morphology.close(raw, kernel)
    if not closed.any():
        closed = raw.copy()
    s_mask = closed.copy()
    h, w = closed.shape
    iterations = 0
    try:
        fitted, e_mask = _ref_fit_boundary(s_mask)
        while protrusion_ratio(e_mask, s_mask) >= 1.0 and iterations < params.max_prune:
            s_mask = prune(s_mask, fitted, params.prune_distance)
            if not s_mask.any():
                raise DegenerateInputError("pruning removed the whole mask")
            fitted, e_mask = _ref_fit_boundary(s_mask)
            iterations += 1
    except (DegenerateInputError, NoEdgesError):
        return RefinedShape(closed, None, False, iterations, math.inf, (0, 0, w, h), (w, h))
    only_e, _, _ = mask_set_counts(e_mask, closed)
    s_area = int(np.count_nonzero(closed))
    ratio = only_e / s_area
    used = ratio < params.ellipse_accept_ratio
    return RefinedShape(closed, fitted, used, iterations, ratio, (0, 0, w, h), (w, h))


def assert_same_shape(got, want):
    assert got.closed_mask.dtype == want.closed_mask.dtype
    assert got.closed_mask.tobytes() == want.closed_mask.tobytes()
    assert got.ellipse == want.ellipse  # exact floats
    assert got.frame == want.frame
    assert got.used_ellipse == want.used_ellipse
    assert got.prune_iterations == want.prune_iterations
    assert got.final_ratio == want.final_ratio


class TestParams:
    def test_defaults(self):
        p = RefineParams()
        assert (p.kernel_w, p.kernel_h) == (10, 10)
        assert p.prune_distance == 3.0
        assert p.max_prune == 15
        assert p.ellipse_accept_ratio == 0.20

    def test_dict_round_trip(self):
        p = RefineParams(kernel_w=6, max_prune=9)
        assert dataclass_from_json(RefineParams, dataclasses.asdict(p)) == p

    @pytest.mark.parametrize(
        "d",
        [
            {"max_prune": "3"},
            {"max_prune": 3.0},
            {"max_prune": True},
            {"prune_distance": None},
            {"prune_distance": float("nan")},
            {"prune_distance": 10**400},
            {"max_prun": 3},
            {"canny_min": 2.0},  # a removed knob is an unknown key
            {"max_prune": 0},
            [1, 2],
        ],
    )
    def test_from_dict_rejects(self, d):
        with pytest.raises(FormatError):
            dataclass_from_json(RefineParams, d)

    def test_from_dict_takes_int_for_float(self):
        p = dataclass_from_json(RefineParams, {"prune_distance": 4, "max_prune": 7})
        assert p == RefineParams(prune_distance=4.0, max_prune=7)
        assert type(p.prune_distance) is float

    def test_invalid(self):
        with pytest.raises(ValueError):
            RefineParams(kernel_w=0)
        for field in ("kernel_w", "kernel_h"):
            assert getattr(RefineParams(**{field: 64}), field) == 64
            with pytest.raises(ValueError, match=r"\[1, 64\]"):
                RefineParams(**{field: 65})
        with pytest.raises(ValueError):
            RefineParams(ellipse_accept_ratio=1.5)
        for d in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                RefineParams(prune_distance=d)


def _shape_fields(r):
    return r.closed_mask.tobytes(), r.ellipse, r.used_ellipse, r.prune_iterations, r.final_ratio


# one non-default, in-range value per RefineParams field
_KNOB_VALUES = {
    "kernel_w": 5,
    "kernel_h": 5,
    "prune_distance": 1.5,
    "max_prune": 1,
    "ellipse_accept_ratio": 0.05,
}


class TestEveryKnobActs:
    """A settable value that changes nothing is a dead flag and config key."""

    @pytest.fixture(scope="class")
    def mask(self):
        # the PS of this scene is pruned 3 rounds and keeps its ellipse at a ratio of 0.083
        labels = phantom.perturb(
            phantom.render(phantom.random_scene(0, 256, 256)), phantom.Perturbation(holes=2, protrusions=1, seed=0)
        )
        return morphology.largest_component(class_mask(labels, PS))

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(RefineParams)])
    def test_changes_the_refined_shape(self, mask, field):
        assert field in _KNOB_VALUES, f"give RefineParams.{field} a value that must change refine"
        params = dataclasses.replace(RefineParams(), **{field: _KNOB_VALUES[field]})
        assert _shape_fields(refine(mask, params)) != _shape_fields(refine(mask))


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
    """Binary masks of the given kinds on small frames, often touching the
    border, with kernels of 1..13 (odd and even) and prune caps of 1..15."""
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
    params = RefineParams(
        kernel_w=draw(st.integers(1, 13)),
        kernel_h=draw(st.integers(1, 13)),
        max_prune=draw(st.integers(1, 15)),
    )
    return m, params


class TestCropMatchesFullFrame:
    @settings(max_examples=250, deadline=None)
    @given(refine_inputs())
    def test_every_field_equal(self, case):
        m, params = case
        assert_same_shape(refine(m, params), ref_refine(m, params))

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
        labels = phantom.perturb(
            phantom.render(phantom.random_scene(seed, 256, 256)), phantom.Perturbation(protrusions=1, seed=seed)
        )
        for cid in (PS, FH):
            m = morphology.largest_component(class_mask(labels, cid))
            assert_same_shape(refine(m), ref_refine(m))


class TestRefinesTheLargestComponent:
    """refine(m) is the refinement of m's largest component alone."""

    @staticmethod
    def assert_refines_largest(m, params=RefineParams()):
        got, want = refine(m, params), refine(morphology.largest_component(m), params)
        assert_same_shape(got, want)
        assert got.box == want.box

    def test_two_disjoint_ellipses(self):
        m = ellipse_mask(40, 40, 30, 20, 10, 200, 120) | ellipse_mask(150, 70, 20, 12, 60, 200, 120)
        self.assert_refines_largest(m)

    @settings(max_examples=100, deadline=None)
    @given(refine_inputs(kinds=("blob",)))
    def test_blobs(self, case):
        self.assert_refines_largest(*case)


class TestCallCounts:
    """The benchmark's per-layer spans wrap these functions by module attribute;
    refine must keep calling them once per fit and once per prune round."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_calls_per_structure(self, monkeypatch, seed):
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
        ]:
            counted(module, name)
        labels = phantom.perturb(
            phantom.render(phantom.random_scene(seed, 256, 256)), phantom.Perturbation(protrusions=1, seed=seed)
        )
        pruned = 0
        for cid in (PS, FH):
            calls.clear()
            r = refine(morphology.largest_component(class_mask(labels, cid)))
            n = r.prune_iterations
            pruned += n
            assert calls.get("prune", 0) == n
            assert calls["protrusion_ratio"] == calls["canny"] == calls["fit_ams"] == n + 1
        assert pruned > 0
