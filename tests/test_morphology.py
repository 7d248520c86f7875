import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry.morphology import (
    StructuringElement,
    close,
    connected_components,
    dilate,
    elliptical_kernel,
    erode,
    largest_component,
)

CROSS = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}


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
