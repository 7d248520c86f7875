import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry import io_formats, morphology, phantom
from fetalbiometry.biometry import measure_frame
from fetalbiometry.errors import DimensionMismatchError
from fetalbiometry.raster import (
    mask_set_counts,
    validate_binary_mask,
    validate_label_mask,
    validate_prob_map,
)

# masks that hold a value below 0 or NaN; a uint8 cast would read -1 as 255
# and -254 as 2 (FH)
OUT_OF_RANGE = [np.int8(-1), np.int16(-254), np.float64(np.nan)]


class TestMaskSetCounts:
    def test_identical(self):
        a = np.zeros((4, 4), np.uint8)
        a[1:3, 1:3] = 1
        assert mask_set_counts(a, a) == (0, 0, 4)

    def test_disjoint(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.zeros((4, 4), np.uint8)
        a.ravel()[:3] = 1
        b.ravel()[5:10] = 1
        assert mask_set_counts(a, b) == (3, 5, 0)

    def test_overlapping_blocks(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.zeros((4, 4), np.uint8)
        a[0:2, 0:2] = 1
        b[0:2, 1:3] = 1
        assert mask_set_counts(a, b) == (2, 2, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mask_set_counts(np.zeros((2, 2), np.uint8), np.zeros((3, 2), np.uint8))

    @given(
        arrays(np.uint8, (6, 6), elements=st.integers(0, 1)),
        arrays(np.uint8, (6, 6), elements=st.integers(0, 1)),
    )
    def test_swap_symmetry(self, a, b):
        oa, ob, both = mask_set_counts(a, b)
        assert mask_set_counts(b, a) == (ob, oa, both)
        assert oa + both == int(a.sum())
        assert ob + both == int(b.sum())


class TestValidation:
    def test_label_range(self):
        with pytest.raises(ValueError):
            validate_label_mask(np.full((2, 2), 7, np.uint8))

    @pytest.mark.parametrize("value", OUT_OF_RANGE, ids=["int8", "int16", "nan"])
    def test_negative_and_nan_rejected(self, value):
        m = np.zeros((3, 3), value.dtype)
        m[1, 2] = value
        with pytest.raises(ValueError, match=r"^label mask values must lie in \{0, 1, 2\}$"):
            validate_label_mask(m)
        with pytest.raises(ValueError, match=r"^binary mask values must lie in \{0, 1\}$"):
            validate_binary_mask(m)

    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    def test_in_range_masks_come_back_as_uint8(self, dtype):
        m = np.array([[0, 1], [1, 0]], dtype)
        for validate in (validate_label_mask, validate_binary_mask):
            out = validate(m)
            assert out.dtype == np.uint8 and out.tolist() == [[0, 1], [1, 0]]
            assert (out is m) == (dtype is np.uint8)  # a uint8 mask is not copied

    def test_dilate_rejects_a_negative_pixel(self):
        m = np.zeros((5, 5), np.int8)
        m[2, 2] = -1
        with pytest.raises(ValueError, match="binary mask values"):
            morphology.dilate(m, morphology.elliptical_kernel(3, 3))

    def test_write_label_mask_rejects_a_negative_pixel(self, tmp_path):
        m = np.zeros((4, 4), np.int8)
        m[1, 1] = -1
        with pytest.raises(ValueError, match="label mask values"):
            io_formats.write_label_mask(m, tmp_path / "m.pgm")

    def test_measure_frame_rejects_a_negative_pixel(self):
        labels = phantom.render(phantom.random_scene(0, 256, 256)).astype(np.int16)
        assert labels[0, 0] == 0
        labels[0, 0] = -254
        with pytest.raises(ValueError, match="label mask values"):
            measure_frame(labels)

    def test_prob_map_sum(self):
        p = np.dstack([np.full((2, 2), 0.5), np.full((2, 2), 0.4)])
        with pytest.raises(ValueError, match="worst pixel"):
            validate_prob_map(p)

    def test_prob_map_worst_pixel_in_the_frame(self):
        # a window whose pixel (0, 0) is pixel (3, 10) of its frame
        p = np.dstack([np.full((2, 3), 0.5), np.full((2, 3), 0.5)])
        p[1, 2, 0] = 0.6
        with pytest.raises(ValueError, match=r"worst pixel \(2, 1\)"):
            validate_prob_map(p)
        with pytest.raises(ValueError, match=r"worst pixel \(5, 11\)"):
            validate_prob_map(p, (3, 10))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_prob_map_nan(self, dtype):
        with pytest.raises(ValueError, match="must lie in"):
            validate_prob_map(np.full((2, 2, 3), np.nan, dtype))
        p = np.dstack([np.full((2, 2), 0.25), np.full((2, 2), 0.75)]).astype(dtype)
        p[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="must lie in"):
            validate_prob_map(p)

    def test_prob_map_ok(self):
        p = np.dstack([np.full((2, 2), 0.25), np.full((2, 2), 0.75)])
        out = validate_prob_map(p)
        assert out.shape == (2, 2, 2)
