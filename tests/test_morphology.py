import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from fetalbiometry.morphology import (
    StructuringElement,
    close,
    dilate,
    elliptical_kernel,
    erode,
    largest_component,
)

CROSS = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


# Reference for dilate/erode: one full-frame shifted copy per kernel offset.
def ref_shift(m, dx, dy):
    """Translate m by (dx, dy); vacated pixels become 0."""
    out = np.zeros_like(m)
    h, w = m.shape
    ys0, ys1 = max(dy, 0), min(h + dy, h)
    xs0, xs1 = max(dx, 0), min(w + dx, w)
    if ys0 >= ys1 or xs0 >= xs1:
        return out
    out[ys0:ys1, xs0:xs1] = m[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return out


def ref_dilate(m, k):
    out = np.zeros(m.shape, dtype=bool)
    for dx, dy in k.offsets:
        out |= ref_shift(m.astype(bool), dx, dy)
    return out.astype(np.uint8)


def ref_erode(m, k):
    out = np.ones(m.shape, dtype=bool)
    for dx, dy in k.offsets:
        out &= ref_shift(m.astype(bool), -dx, -dy)
    return out.astype(np.uint8)


@st.composite
def masks(draw):
    """Binary masks from 1x1 to 40x40: random, empty or full."""
    shape = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    fill = draw(st.sampled_from(["random", "empty", "full"]))
    if fill == "random":
        return draw(arrays(np.uint8, shape, elements=st.integers(0, 1)))
    return np.full(shape, fill == "full", dtype=np.uint8)


def hole_probe(margin):
    """The 9-point probe ``phantom._carve_hole`` erodes with."""
    offsets = tuple((dx, dy) for dy in (-margin, 0, margin) for dx in (-margin, 0, margin))
    return StructuringElement(2 * margin + 1, 2 * margin + 1, offsets)


@st.composite
def run_kernels(draw):
    """(kernel, its runs): rows of several horizontal runs, lengths 1-13, at
    least one column apart, so that each drawn run is one of ``runs``."""
    runs = []
    for dy in sorted(draw(st.sets(st.integers(-8, 8), min_size=1, max_size=5))):
        x = draw(st.integers(-24, 4))
        for gap, n in draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 13)), min_size=1, max_size=4)):
            runs.append((dy, x, n))
            x += n + gap
    offsets = [(dx, dy) for dy, x, n in runs for dx in range(x, x + n)]
    return StructuringElement(1, 1, tuple(draw(st.permutations(offsets)))), tuple(runs)


kernels = st.one_of(
    st.builds(elliptical_kernel, st.integers(1, 12), st.integers(1, 12)),
    st.builds(hole_probe, st.integers(1, 25)),
    # offsets may reach past the whole mask
    st.lists(st.tuples(st.integers(-45, 45), st.integers(-45, 45)), min_size=1, max_size=12).map(
        lambda offsets: StructuringElement(1, 1, tuple(offsets))
    ),
    # rows of several runs whose lengths are mostly not powers of two
    run_kernels().map(lambda kr: kr[0]),
)


# Reference for the largest_component tests: every 8-connected component.
def connected_components(m):
    """8-connected components as (id, boolean pixel mask, size), id from 1."""
    labels, n = ndimage.label(m, structure=np.ones((3, 3), np.uint8))
    comps = [labels == cid for cid in range(1, n + 1)]
    return [(cid, c, int(np.count_nonzero(c))) for cid, c in enumerate(comps, start=1)]


class TestKernel:
    def test_1x1(self):
        assert set(elliptical_kernel(1, 1).offsets) == {(0, 0)}

    def test_3x3_is_cross(self):
        assert set(elliptical_kernel(3, 3).offsets) == CROSS

    def test_10x10_default(self):
        k = elliptical_kernel(10, 10)
        assert (0, 0) in k.offsets
        dxs = [o[0] for o in k.offsets]
        dys = [o[1] for o in k.offsets]
        assert min(dxs) == -5 and max(dxs) == 4
        assert min(dys) == -5 and max(dys) == 4

    def test_reach_kept_after_the_first_read(self):
        k = elliptical_kernel(10, 10)
        assert k.reach == 5 and vars(k)["reach"] == 5

    def test_runs_of_the_10x10_default(self):
        k = elliptical_kernel(10, 10)
        assert k.runs == (
            (-5, -1, 1), (-4, -3, 6), (-3, -4, 8), (-2, -5, 10), (-1, -5, 10),
            (0, -5, 10), (1, -5, 10), (2, -4, 8), (3, -3, 6), (4, -1, 1),
        )
        assert vars(k)["runs"] is k.runs

    def test_runs_of_the_hole_probe(self):
        assert hole_probe(3).runs == tuple((dy, x, 1) for dy in (-3, 0, 3) for x in (-3, 0, 3))

    def test_runs_merge_duplicates_and_adjacent_offsets(self):
        k = StructuringElement(1, 1, ((2, 0), (0, 0), (1, 0), (0, 0), (-1, 1), (1, 1)))
        assert k.runs == ((0, 0, 3), (1, -1, 1), (1, 1, 1))

    @settings(max_examples=200, deadline=None)
    @given(run_kernels())
    def test_runs_are_the_drawn_runs(self, kr):
        k, runs = kr
        assert k.runs == runs

    def test_invalid(self):
        with pytest.raises(ValueError):
            elliptical_kernel(0, 3)
        with pytest.raises(ValueError):
            StructuringElement(1, 1, ())


class TestDilateErode:
    def test_dilate_empty(self):
        m = np.zeros((5, 5), np.uint8)
        assert dilate(m, elliptical_kernel(3, 3)).sum() == 0

    def test_dilate_single_pixel_cross(self):
        m = np.zeros((5, 5), np.uint8)
        m[2, 2] = 1
        out = dilate(m, elliptical_kernel(3, 3))
        got = {(x - 2, y - 2) for y, x in zip(*np.nonzero(out))}
        assert got == CROSS

    def test_dilate_full_absorbing(self):
        m = np.ones((6, 6), np.uint8)
        assert dilate(m, elliptical_kernel(3, 3)).all()

    def test_erode_full_loses_border(self):
        m = np.ones((6, 6), np.uint8)
        out = erode(m, elliptical_kernel(3, 3))
        expected = np.zeros((6, 6), np.uint8)
        expected[1:-1, 1:-1] = 1
        assert np.array_equal(out, expected)

    def test_erode_empty(self):
        assert erode(np.zeros((4, 4), np.uint8), elliptical_kernel(3, 3)).sum() == 0

    def test_erode_cross_to_center(self):
        m = np.zeros((5, 5), np.uint8)
        for dx, dy in CROSS:
            m[2 + dy, 2 + dx] = 1
        out = erode(m, elliptical_kernel(3, 3))
        assert out.sum() == 1 and out[2, 2] == 1


class TestMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(masks(), kernels)
    def test_bit_identical(self, m, k):
        dilated, eroded = ref_dilate(m, k), ref_erode(m, k)
        for got, want in [
            (dilate(m, k), dilated),
            (erode(m, k), eroded),
            (close(m, k), ref_erode(dilated, k)),
        ]:
            assert got.dtype == np.uint8 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "k, reach",
        [(elliptical_kernel(1, 1), 0), (elliptical_kernel(3, 3), 1), (elliptical_kernel(10, 10), 5), (hole_probe(7), 7)],
    )
    def test_reach(self, k, reach):
        assert k.reach == reach


class TestClose:
    def test_fills_interior_hole(self):
        m = np.zeros((40, 40), np.uint8)
        m[10:30, 10:30] = 1
        m[20, 20] = 0
        out = close(m, elliptical_kernel(10, 10))
        assert out[20, 20] == 1

    def test_empty(self):
        assert close(np.zeros((8, 8), np.uint8), elliptical_kernel(10, 10)).sum() == 0

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, (64, 64), elements=st.integers(0, 1)))
    def test_idempotent(self, m):
        k = elliptical_kernel(5, 5)
        once = close(m, k)
        assert np.array_equal(close(once, k), once)

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, (64, 64), elements=st.integers(0, 1)))
    def test_interior_duality(self, m):
        k = elliptical_kernel(3, 3)
        refl = StructuringElement(k.width, k.height, tuple((-dx, -dy) for dx, dy in k.offsets))
        a = erode(m, k)
        b = 1 - dilate(1 - m, refl)
        assert np.array_equal(a[2:-2, 2:-2], b[2:-2, 2:-2])


class TestComponents:
    def test_diagonal_touching_is_one(self):
        m = np.zeros((4, 4), np.uint8)
        m[0, 0] = m[1, 1] = 1
        assert len(connected_components(m)) == 1

    def test_two_blobs(self):
        m = np.zeros((8, 8), np.uint8)
        m[0, 0:5] = 1
        m[5, 0:3] = 1
        comps = connected_components(m)
        assert sorted(c[2] for c in comps) == [3, 5]
        assert sum(c[2] for c in comps) == int(m.sum())

    def test_empty(self):
        assert connected_components(np.zeros((3, 3), np.uint8)) == []

    def test_largest_kept(self):
        m = np.zeros((8, 8), np.uint8)
        m[0, 0:5] = 1
        m[5, 0:3] = 1
        out = largest_component(m)
        assert out.sum() == 5 and out[0, 0:5].all()

    def test_largest_identity_single_blob(self):
        m = np.zeros((6, 6), np.uint8)
        m[2:4, 2:4] = 1
        assert np.array_equal(largest_component(m), m)

    def test_largest_tie_break(self):
        m = np.zeros((8, 8), np.uint8)
        m[0, 0:3] = 1  # first in row-major order
        m[4, 0:3] = 1
        out = largest_component(m)
        assert out[0, 0:3].all() and out.sum() == 3

    @settings(max_examples=25, deadline=None)
    @given(arrays(np.uint8, (16, 16), elements=st.integers(0, 1)))
    def test_largest_is_connected_max(self, m):
        out = largest_component(m)
        comps = connected_components(m)
        if not comps:
            assert out.sum() == 0
        else:
            assert out.sum() == max(c[2] for c in comps)
            assert len(connected_components(out)) <= 1
            # ties go to the component with the smallest row-major pixel
            _, want, _ = min(comps, key=lambda c: (-c[2], int(np.flatnonzero(c[1])[0])))
            assert np.array_equal(out, want.astype(np.uint8))


# Reference for the run labeller: ndimage.label's components, the first
# maximum of their sizes (labels follow row-major first pixels) kept.
def ref_largest_component(m):
    labels, n = ndimage.label(m, structure=np.ones((3, 3), np.uint8))
    if n == 0:
        return np.zeros(m.shape, np.uint8)
    return (labels == np.bincount(labels[labels > 0]).argmax()).astype(np.uint8)


def _ties():
    """Three 4-pixel components; the one whose first pixel is row-major first must win."""
    m = np.zeros((6, 9), np.uint8)
    m[0, 5:9] = 1  # first pixel (0, 5)
    m[1:3, 0:2] = 1  # first pixel (1, 0)
    m[4, 2:4] = m[5, 4:6] = 1  # diagonal step, first pixel (4, 2)
    return m


def _checkerboard(h, w):
    return (np.indices((h, w)).sum(axis=0) % 2 == 0).astype(np.uint8)


LABELLER_CASES = {
    "empty": np.zeros((5, 7), np.uint8),
    "full": np.ones((5, 7), np.uint8),
    "1xN": np.array([[1, 1, 0, 1, 1, 1, 0, 1]], np.uint8),
    "Nx1": np.array([[1], [1], [0], [1], [1], [1], [0], [1]], np.uint8),
    "1x1-set": np.ones((1, 1), np.uint8),
    "1x1-clear": np.zeros((1, 1), np.uint8),
    # runs that meet only corner to corner, across each row boundary
    "diagonal-down": np.eye(6, dtype=np.uint8),
    "diagonal-up": np.eye(6, dtype=np.uint8)[::-1].copy(),
    "diagonal-runs": np.array([[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0]], np.uint8),
    # one column apart: not touching
    "gap-runs": np.array([[1, 1, 0, 0, 0], [0, 0, 0, 1, 1], [1, 1, 1, 0, 0]], np.uint8),
    # a run ending at column w-1 must not join one starting at column 0 of the next row
    "edge-columns": np.array([[0, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 1], [0, 0, 0, 1]], np.uint8),
    "checkerboard": _checkerboard(7, 8),
    "ties": _ties(),
    # a U: two arms joined only at the bottom, merged after both were labelled
    "u-shape": np.array([[1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1], [0, 0, 0, 0], [1, 1, 1, 0]], np.uint8),
}


class TestRunLabeller:
    @pytest.mark.parametrize("m", LABELLER_CASES.values(), ids=LABELLER_CASES.keys())
    def test_matches_ndimage(self, m):
        out = largest_component(m)
        assert out.dtype == np.uint8 and out.flags.c_contiguous
        assert not np.shares_memory(out, m)
        assert out.tobytes() == ref_largest_component(m).tobytes()

    def test_tie_goes_to_the_first_pixel(self):
        want = np.zeros((6, 9), np.uint8)
        want[0, 5:9] = 1
        assert np.array_equal(largest_component(_ties()), want)

    def test_checkerboard_is_one_component(self):
        m = _checkerboard(7, 8)
        assert np.array_equal(largest_component(m), m)

    @settings(max_examples=300, deadline=None)
    @given(masks())
    def test_random_masks(self, m):
        out = largest_component(m)
        assert out.dtype == np.uint8 and out.flags.c_contiguous and not np.shares_memory(out, m)
        assert out.tobytes() == ref_largest_component(m).tobytes()

    def test_bool_and_noncontiguous_input(self):
        m = _ties().T  # a transposed view
        assert largest_component(m.astype(bool)).tobytes() == ref_largest_component(m).tobytes()
        assert largest_component(m).tobytes() == ref_largest_component(m).tobytes()
