import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from fetalbiometry import edges, phantom
from fetalbiometry.edges import canny, extract_chains, longest_chain
from fetalbiometry.ellipse import Ellipse, rasterize
from fetalbiometry.errors import NoEdgesError
from fetalbiometry.morphology import largest_component

# Reference implementation: full-frame shifted copies, one masked pass per
# quantized direction.  The production code must match it bit for bit.
_REF_DIRS = [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]


def _ref_shift(m, dx, dy):
    out = np.zeros_like(m)
    h, w = m.shape
    ys0, ys1 = max(dy, 0), min(h + dy, h)
    xs0, xs1 = max(dx, 0), min(w + dx, w)
    if ys0 >= ys1 or xs0 >= xs1:
        return out
    out[ys0:ys1, xs0:xs1] = m[ys0 - dy : ys1 - dy, xs0 - dx : xs1 - dx]
    return out


def _ref_shift_axis(a, d, axis):
    return _ref_shift(a, 0, d) if axis == 0 else _ref_shift(a, d, 0)


def gradient(img):
    """canny's Sobel derivatives of img with zero padding, as (gx, gy, magnitude)."""
    gx, gy = edges._sobel(np.pad(np.asarray(img, dtype=np.float64), 1))
    return gx, gy, np.hypot(gx, gy)


def ref_gradient(img):
    img = np.asarray(img, dtype=np.float64)

    def smooth(a, axis):
        return _ref_shift_axis(a, 1, axis) + 2 * a + _ref_shift_axis(a, -1, axis)

    def diff(a, axis):
        return _ref_shift_axis(a, -1, axis) - _ref_shift_axis(a, 1, axis)

    gx = diff(smooth(img, 0), 1)
    gy = diff(smooth(img, 1), 0)
    return gx, gy, np.hypot(gx, gy)


def ref_nonmax_suppress(gx, gy, mag):
    angle = np.degrees(np.arctan2(gy, gx)) % 360.0
    bins = np.rint(angle / 45.0).astype(int) % 8
    keep = np.zeros(mag.shape, dtype=bool)
    nonzero = mag > 0
    for k, (dx, dy) in enumerate(_REF_DIRS):
        sel = nonzero & (bins == k)
        if not sel.any():
            continue
        fwd = _ref_shift(mag, -dx, -dy)
        bwd = _ref_shift(mag, dx, dy)
        keep |= sel & (mag > fwd) & (mag >= bwd)
    return keep


def ref_canny(m, min_val, max_val):
    gx, gy, mag = ref_gradient(m.astype(np.float64) * 255.0)
    keep = ref_nonmax_suppress(gx, gy, mag)
    labels, n = ndimage.label(keep & (mag >= min_val), structure=np.ones((3, 3), np.uint8))
    if n == 0:
        return np.zeros_like(m)
    strong_ids = np.unique(labels[keep & (mag > max_val)])
    return np.isin(labels, strong_ids[strong_ids > 0]).astype(np.uint8)


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 12)),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_gradient_bit_identical(self, img):
        for got, want in zip(gradient(img), ref_gradient(img)):
            assert got.tobytes() == want.tobytes()

    # canny has no hysteresis; the reference keeps it, at the thresholds the
    # pipeline used on the x255 scale, to show that dropping it changes nothing

    @settings(max_examples=80, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20)), elements=st.integers(0, 1)))
    @example(np.ones((5, 7), np.uint8))
    def test_canny_bit_identical_on_masks(self, m):
        # random masks put foreground on the image border in most examples
        assert np.array_equal(canny(m), ref_canny(m, 2.0, 5.0))

    @pytest.mark.parametrize("seed", range(3))
    def test_canny_bit_identical_on_phantoms(self, seed):
        labels = phantom.perturb(
            phantom.render(phantom.random_scene(seed, 256, 256)),
            phantom.Perturbation(holes=1, protrusions=1, boundary_noise=1.5, seed=seed),
        )
        for cid in (1, 2):
            m = (labels == cid).astype(np.uint8)
            assert np.array_equal(canny(m), ref_canny(m, 2.0, 5.0))

    def test_suppression_is_scale_free_on_masks(self):
        # Sobel derivatives of a {0, 1} mask are integers in [-4, 4]: the
        # direction bins and the magnitude comparisons are the same on the
        # {0, 255} scale
        g = np.arange(-4.0, 5.0)
        gx, gy = (a.ravel() for a in np.meshgrid(g, g))

        def decisions(scale):
            mag = np.hypot(gx * scale, gy * scale)
            bins = np.rint(np.degrees(np.arctan2(gy * scale, gx * scale)) % 360.0 / 45.0).astype(int) % 8
            return bins, mag[:, None] > mag, mag[:, None] >= mag

        for got, want in zip(decisions(1.0), decisions(255.0)):
            assert np.array_equal(got, want)


class TestIntegerPath:
    """canny works on the integer Sobel pairs of a 0/1 mask; over all 81 of
    them its bin table and squared magnitudes decide as the float path does."""

    gx, gy = (a.ravel() for a in np.meshgrid(np.arange(-4, 5), np.arange(-4, 5)))

    def test_bin_table_is_float_formula(self):
        gx, gy = self.gx.astype(np.float64), self.gy.astype(np.float64)
        for scale in (1.0, 255.0):
            angle = np.degrees(np.arctan2(gy * scale, gx * scale)) % 360.0
            want = np.rint(angle / 45.0).astype(int) % 8
            assert np.array_equal(edges._BINS[self.gy + 4, self.gx + 4], want)

    def test_squared_magnitude_orders_as_hypot(self):
        mag2 = self.gx * self.gx + self.gy * self.gy
        mag = np.hypot(self.gx.astype(np.float64), self.gy.astype(np.float64))
        assert np.array_equal(mag2[:, None] > mag2, mag[:, None] > mag)
        assert np.array_equal(mag2[:, None] >= mag2, mag[:, None] >= mag)

    def test_mask_gradients_lie_in_the_table(self):
        # the center pair of every 3x3 neighborhood a 0/1 mask can have
        bits = (np.arange(512)[:, None] >> np.arange(9)) & 1
        for pattern in bits.reshape(-1, 3, 3):
            gx, gy, _ = gradient(pattern)
            assert abs(gx[1, 1]) <= 4 and abs(gy[1, 1]) <= 4


class TestGradient:
    def test_constant_zero(self):
        _, _, mag = gradient(np.full((6, 6), 37.0))
        assert mag[1:-1, 1:-1].max() == 0.0

    def test_vertical_step(self):
        img = np.zeros((8, 8))
        img[:, 4:] = 255.0
        gx, gy, mag = gradient(img)
        # Sobel weight sum is 4 across the step
        assert np.allclose(mag[2:-2, 3], 1020.0)
        assert np.allclose(mag[2:-2, 4], 1020.0)
        assert np.allclose(mag[2:-2, 2], 0.0)

    def test_single_bright_pixel_ring(self):
        img = np.zeros((7, 7))
        img[3, 3] = 255.0
        _, _, mag = gradient(img)
        assert mag[3, 3] == 0.0
        assert (mag[2:5, 2:5] > 0).sum() == 8  # the 8-neighbor ring


class TestCanny:
    def test_empty(self):
        assert canny(np.zeros((10, 10), np.uint8)).sum() == 0

    def test_square_single_ring(self):
        m = np.zeros((30, 30), np.uint8)
        m[5:25, 5:25] = 1
        chains = extract_chains(canny(m))
        assert len(chains) == 1

    def test_edges_near_transitions(self):
        m = np.zeros((40, 40), np.uint8)
        m[10:30, 8:33] = 1
        e = canny(m)
        grown = np.zeros_like(m, bool)
        # transition pixels: foreground adjacent to background or vice versa
        trans = np.zeros_like(m, bool)
        b = m.astype(bool)
        trans[:-1, :] |= b[:-1, :] != b[1:, :]
        trans[1:, :] |= b[:-1, :] != b[1:, :]
        trans[:, :-1] |= b[:, :-1] != b[:, 1:]
        trans[:, 1:] |= b[:, :-1] != b[:, 1:]
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                grown |= np.roll(np.roll(trans, dy, 0), dx, 1)
        assert np.all(grown[e.astype(bool)])


class TestChains:
    def test_two_rings_two_chains(self):
        m = np.zeros((60, 60), np.uint8)
        m[5:25, 5:25] = 1
        m[35:55, 35:55] = 1
        chains = extract_chains(canny(m))
        assert len(chains) == 2

    def test_empty(self):
        assert extract_chains(np.zeros((5, 5), np.uint8)) == []

    def test_partition_property(self):
        m = np.zeros((50, 50), np.uint8)
        m[5:20, 5:45] = 1
        m[30:45, 10:25] = 1
        e = canny(m)
        chains = extract_chains(e)
        total = sum(len(c) for c in chains)
        assert total == int(e.sum())
        seen = set()
        for c in chains:
            for p in c.points:
                assert p not in seen
                seen.add(p)

    @pytest.mark.parametrize("seed", range(6))
    def test_rasterized_ellipse_one_closed_chain(self, seed):
        rng = np.random.default_rng(seed)
        e = Ellipse(
            float(rng.uniform(40, 60)),
            float(rng.uniform(40, 60)),
            float(rng.uniform(15, 30)),
            float(rng.uniform(6, 14)),
            float(rng.uniform(0, 180)),
        )
        chains = extract_chains(canny(rasterize(e, 100, 100)))
        assert len(chains) == 1


class TestComponents:
    @settings(max_examples=150, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 16), st.integers(1, 16)), elements=st.integers(0, 1)))
    def test_longest_is_largest_component(self, e):
        # random masks hold equal-size components and touch the border in most examples
        chains = extract_chains(e)
        ys, xs = np.nonzero(e)
        assert sorted(p for c in chains for p in c.points) == sorted(zip(xs.tolist(), ys.tolist()))
        assert all(c.points == tuple(sorted(c.points, key=lambda p: (p[1], p[0]))) for c in chains)
        assert len(chains) == ndimage.label(e, structure=np.ones((3, 3)))[1]
        if not chains:
            assert not e.any()
            return
        keep = np.zeros_like(e)
        for x, y in longest_chain(chains).points:
            keep[y, x] = 1
        assert np.array_equal(keep, largest_component(e))


class TestLongest:
    def test_max_selected(self):
        m = np.zeros((60, 60), np.uint8)
        m[5:30, 5:30] = 1  # larger ring
        m[40:50, 40:50] = 1
        chains = extract_chains(canny(m))
        best = longest_chain(chains)
        assert len(best) == max(len(c) for c in chains)

    def test_single_identity(self):
        m = np.zeros((20, 20), np.uint8)
        m[5:15, 5:15] = 1
        chains = extract_chains(canny(m))
        assert longest_chain(chains) is chains[0]

    def test_empty_error(self):
        with pytest.raises(NoEdgesError):
            longest_chain([])

    def test_tie_smaller_start(self):
        m = np.zeros((40, 40), np.uint8)
        m[25:32, 25:32] = 1
        m[5:12, 5:12] = 1  # same size, earlier in row-major order
        chains = extract_chains(canny(m))
        lens = [len(c) for c in chains]
        assert lens[0] == lens[1]
        best = longest_chain(chains)
        assert min(p[1] * 40 + p[0] for p in best.points) == min(
            min(p[1] * 40 + p[0] for p in c.points) for c in chains
        )
