import math
from dataclasses import replace

import numpy as np
import pytest

from fetalbiometry.biometry import measure_frame
from fetalbiometry.ellipse import Ellipse
from fetalbiometry.errors import OverlapError
from fetalbiometry.phantom import (
    Perturbation,
    PhantomScene,
    _structure_boundary,
    analytic_biometry,
    perturb,
    point_ellipse_distance,
    ps_apex,
    random_scene,
    render,
    validate_scene,
)

# seeds whose key word numpy cast through float, onto the key of seed 0, when
# keys were lists of Python ints
FAR_SEEDS = [-1, -500, -5000, 2**64 - 1]
from fetalbiometry.raster import FH, PS, boundary_mask


def circle_scene():
    """PS axis (60,100)-(140,100); FH circle center (240,100) radius 50.

    AoP = 180 - asin(50/100) in degrees = 150 exactly, HSD = 50 exactly.
    """
    return PhantomScene(
        ps=Ellipse(100.0, 100.0, 40.0, 6.0, 0.0),
        fh=Ellipse(240.0, 100.0, 50.0, 50.0, 0.0),
        width=360,
        height=200,
    )


class TestAnalytic:
    def test_circle_oracle_exact(self):
        aop, hsd = analytic_biometry(circle_scene())
        assert abs(aop - 150.0) < 1e-9
        assert abs(hsd - 50.0) < 1e-9

    def test_apex_faces_head(self):
        prox, apex = ps_apex(circle_scene())
        assert apex == (140.0, 100.0)
        assert prox == (60.0, 100.0)

    def test_scale_invariance_of_aop(self):
        s = circle_scene()
        aop1, hsd1 = analytic_biometry(s)
        s2 = s.scaled(2.0)
        aop2, hsd2 = analytic_biometry(s2)
        assert abs(aop1 - aop2) < 1e-9
        assert abs(hsd2 - 2.0 * hsd1) < 1e-9

    def test_overlap_rejected(self):
        with pytest.raises(OverlapError):
            PhantomScene(
                ps=Ellipse(100.0, 100.0, 40.0, 6.0, 0.0),
                fh=Ellipse(150.0, 100.0, 50.0, 50.0, 0.0),
                width=360,
                height=200,
            )

    def test_dict_round_trip(self):
        s = circle_scene()
        assert PhantomScene.from_dict(s.to_dict()) == s


class TestPointEllipseDistance:
    def test_circle(self):
        e = Ellipse(0.0, 0.0, 5.0, 5.0, 0.0)
        assert abs(point_ellipse_distance(e, (12.0, 0.0)) - 7.0) < 1e-9

    def test_on_axis(self):
        e = Ellipse(0.0, 0.0, 10.0, 4.0, 0.0)
        assert abs(point_ellipse_distance(e, (15.0, 0.0)) - 5.0) < 1e-9
        assert abs(point_ellipse_distance(e, (0.0, 9.0)) - 5.0) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_sampling(self, seed):
        rng = np.random.default_rng(seed)
        e = Ellipse(
            float(rng.uniform(-10, 10)),
            float(rng.uniform(-10, 10)),
            float(rng.uniform(5, 20)),
            float(rng.uniform(2, 5)),
            float(rng.uniform(0, 180)),
        )
        ang = rng.uniform(0, 2 * math.pi)
        p = (e.cx + 40 * math.cos(ang), e.cy + 40 * math.sin(ang))
        t = np.linspace(0, 2 * math.pi, 200_000)
        bx = e.from_local(np.column_stack([e.a * np.cos(t), e.b * np.sin(t)]))
        brute = np.hypot(bx[:, 0] - p[0], bx[:, 1] - p[1]).min()
        assert abs(point_ellipse_distance(e, p) - brute) < 1e-5


class TestRender:
    def test_classes_present(self):
        labels = render(circle_scene())
        assert set(np.unique(labels)) == {0, PS, FH}

    def test_pipeline_agrees_with_analytic(self):
        s = circle_scene()
        aop, hsd = analytic_biometry(s)
        r = measure_frame(render(s))
        assert abs(r.aop_deg - aop) < 1.5
        assert abs(r.hsd_px - hsd) < 2.0


class TestRandomScene:
    @pytest.mark.parametrize("seed", range(5))
    def test_valid_and_in_band(self, seed):
        s = random_scene(seed)
        validate_scene(s)
        aop, hsd = analytic_biometry(s)
        assert 95.0 <= aop <= 170.0
        assert hsd > 0.0

    def test_deterministic(self):
        assert random_scene(3) == random_scene(3)

    def test_seeds_differ(self):
        assert random_scene(0) != random_scene(1)

    @pytest.mark.parametrize("seed", FAR_SEEDS)
    def test_far_seed_has_its_own_stream(self, seed):
        assert random_scene(seed, 256, 256) != random_scene(0, 256, 256)


class TestPerturb:
    def test_identity_when_disabled(self):
        labels = render(circle_scene())
        assert np.array_equal(perturb(labels, Perturbation()), labels)

    def test_holes_carved_inside(self):
        labels = render(circle_scene())
        out = perturb(labels, Perturbation(holes=2, seed=1, classes=(FH,)))
        removed = (labels != 0) & (out == 0)
        assert removed.any()
        assert not ((labels == 0) & (out != 0)).any()

    def test_protrusion_adds_pixels(self):
        labels = render(circle_scene())
        out = perturb(labels, Perturbation(protrusions=1, seed=2, classes=(FH,)))
        added = (labels == 0) & (out == FH)
        assert added.any()
        assert np.array_equal(out == PS, labels == PS)

    def test_deterministic(self):
        labels = render(circle_scene())
        p = Perturbation(holes=1, protrusions=1, boundary_noise=1.5, seed=9, classes=(FH,))
        assert np.array_equal(perturb(labels, p), perturb(labels, p))

    @pytest.mark.parametrize("seed", FAR_SEEDS)
    def test_far_seed_has_its_own_stream(self, seed):
        labels = render(circle_scene())
        p = Perturbation(holes=1, protrusions=1, boundary_noise=1.5, classes=(FH,))
        assert not np.array_equal(perturb(labels, replace(p, seed=seed)), perturb(labels, p))

    def test_input_untouched(self):
        labels = render(circle_scene())
        keep = labels.copy()
        perturb(labels, Perturbation(holes=1, seed=0, classes=(FH,)))
        assert np.array_equal(labels, keep)

    def test_no_room_for_hole_raises(self):
        from fetalbiometry.errors import InfeasiblePerturbationError

        labels = render(circle_scene())
        # the symphysis is too thin to hold a strictly interior hole
        with pytest.raises(InfeasiblePerturbationError):
            perturb(labels, Perturbation(holes=1, seed=0, classes=(PS,)))

    def test_invalid(self):
        with pytest.raises(ValueError):
            Perturbation(holes=-1)
        assert Perturbation(protrusions=100).protrusions == 100
        with pytest.raises(ValueError, match="at most 100 protrusions"):
            Perturbation(protrusions=101)
        with pytest.raises(ValueError):
            Perturbation(hole_radius=(5.0, 2.0))

    @pytest.mark.parametrize("size", [(0.0, 0.0), (-1.0, 5.0), (math.nan, 5.0)])
    def test_nonpositive_protrusion_length_rejected(self, size):
        with pytest.raises(ValueError, match="protrusion lengths positive"):
            Perturbation(protrusion_size=size)

    # below -1 no disk can be drawn, in (-1, 0) a pixel would be carved, and a
    # NaN or infinite bound overflows the radius draw
    @pytest.mark.parametrize(
        "radius", [(-5.0, -2.0), (-0.5, -0.2), (1.0, math.nan), (math.nan, math.nan), (1.0, math.inf)]
    )
    def test_hole_radius_outside_its_range_rejected(self, radius):
        with pytest.raises(ValueError, match="hole radii finite and nonnegative"):
            Perturbation(holes=2, hole_radius=radius, classes=(FH,))

    def test_zero_hole_radius_carves_one_pixel_per_hole(self):
        labels = render(random_scene(0))
        out = perturb(labels, Perturbation(holes=2, hole_radius=(0.0, 0.0), classes=(FH,)))
        removed = (labels == FH) & (out == 0)
        assert np.count_nonzero(removed) == 2 and np.array_equal(out == PS, labels == PS)

    def test_protrusion_on_a_one_pixel_structure_raises(self):
        from fetalbiometry.errors import InfeasiblePerturbationError

        labels = np.zeros((16, 16), np.uint8)
        labels[8, 8] = FH
        # its only boundary pixel is its centroid, so it has no outward direction
        with pytest.raises(InfeasiblePerturbationError, match="no outward direction"):
            perturb(labels, Perturbation(protrusions=1, classes=(FH,)))


def test_structure_boundary_ignores_image_border():
    labels = np.zeros((6, 7), np.uint8)
    labels[0:4, 0:5] = PS  # touches the top and left image borders
    with_border = np.zeros(labels.shape, bool)
    with_border[0:4, 0:5] = True
    with_border[1:3, 1:4] = False
    assert np.array_equal(boundary_mask(labels == PS), with_border)
    # perturbations attach only where the shape meets background
    without_border = np.zeros(labels.shape, bool)
    without_border[3, 0:5] = without_border[0:4, 4] = True
    ys, xs = _structure_boundary(labels, PS)
    got = np.zeros(labels.shape, bool)
    got[ys, xs] = True
    assert np.array_equal(got, without_border)
