import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry import io_formats, morphology, phantom
from fetalbiometry.biometry import measure_frame
from fetalbiometry.errors import DimensionMismatchError
from fetalbiometry.raster import (
    PS,
    Point,
    centroid,
    keyed_rng,
    mask_set_counts,
    validate_binary_mask,
    validate_label_mask,
    validate_prob_map,
)

# masks that hold a value below 0 or NaN; a uint8 cast would read -1 as 255
# and -254 as 2 (FH)
OUT_OF_RANGE = [np.int8(-1), np.int16(-254), np.float64(np.nan)]


class TestKeyedRng:
    @pytest.mark.parametrize("words", [(0, 0xF0), (7, 0xAB), (2**63 - 1, 5), (3, 2**63 - 1)])
    def test_words_below_2_63_keep_their_streams(self, words):
        want = np.random.Generator(np.random.Philox(key=list(words))).random(4)
        assert np.array_equal(keyed_rng(*words).random(4), want)

    def test_words_are_taken_mod_2_64(self):
        assert np.array_equal(keyed_rng(-1, -2).random(4), keyed_rng(2**64 - 1, 2**64 - 2).random(4))
        assert not np.array_equal(keyed_rng(-1, 0).random(4), keyed_rng(0, 0).random(4))


def test_package_import_leaves_dataprep_unloaded():
    # keyed_rng lives here, so importing the package does not load the
    # training-data module; a fresh interpreter, since this process has loaded it
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, fetalbiometry; print('fetalbiometry.dataprep' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_import_leaves_the_other_commands_modules_unloaded():
    # dataprep, metrics and overlay are imported by the commands that use
    # them, so measure and ensemble processes do not pay for them
    src = Path(__file__).resolve().parent.parent / "src"
    modules = ["fetalbiometry.dataprep", "fetalbiometry.metrics", "fetalbiometry.overlay"]
    code = f"import sys, fetalbiometry.cli; print([m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def ref_centroid(mask, origin):
    """The mean of the foreground's pixel coordinates, over every pixel."""
    ys, xs = np.nonzero(mask)
    return Point(float((xs + origin[0]).mean() + 0.5), float((ys + origin[1]).mean() + 0.5))


class TestCentroid:
    @settings(max_examples=300, deadline=None)
    @given(
        st.tuples(st.integers(1, 64), st.integers(1, 64)).flatmap(
            lambda shape: arrays(np.uint8, shape, elements=st.sampled_from([0, 1, 1, 2]))
        ),
        st.tuples(st.integers(-(2**20), 2**20), st.integers(-(2**20), 2**20)),
    )
    def test_bit_identical_to_the_mean(self, m, origin):
        if not m.any():
            m[-1, -1] = 1
        got = centroid(m, origin)
        assert type(got.x) is float and type(got.y) is float
        want = ref_centroid(m, origin)
        assert (got.x.hex(), got.y.hex()) == (want.x.hex(), want.y.hex())

    @pytest.mark.parametrize("m", [np.zeros((1, 1), np.uint8), np.zeros((5, 3), bool)])
    def test_empty_mask_rejected(self, m):
        with pytest.raises(ValueError, match="empty mask"):
            centroid(m, (4, -2))


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fractions_rejected(self, dtype):
        # a fraction used to be truncated: 0.5 read as 0, 1.7 as 1
        with pytest.raises(ValueError, match=r"^binary mask values must lie in \{0, 1\}$"):
            validate_binary_mask(np.array([[0.5, 1.0]], dtype))
        with pytest.raises(ValueError, match=r"^label mask values must lie in \{0, 1, 2\}$"):
            validate_label_mask(np.array([[1.7, 2.0]], dtype))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_float_values_accepted(self, dtype):
        m = np.array([[0.0, 1.0], [2.0, -0.0]], dtype)
        assert validate_label_mask(m).tolist() == [[0, 1], [2, 0]]
        assert validate_binary_mask(m.clip(0, 1)).tolist() == [[0, 1], [1, 0]]

    def test_measure_frame_rejects_a_fractional_pixel(self):
        labels = phantom.render(phantom.random_scene(0, 256, 256)).astype(np.float64)
        labels[labels == PS] = 1.7  # measured exactly like the clean frame before
        with pytest.raises(ValueError, match="label mask values"):
            measure_frame(labels)

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
