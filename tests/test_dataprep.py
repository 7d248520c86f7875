import numpy as np
import pytest

from fetalbiometry.dataprep import AugmentParams, augment, keyed_rng, normalize_intensity, sparse_sample
from fetalbiometry.errors import DimensionMismatchError, FormatError
from fetalbiometry.io_formats import dataclass_from_json
from fetalbiometry.raster import FH, PS

# seeds whose key word numpy cast through float, onto the key of seed 0, when
# keys were lists of Python ints
FAR_SEEDS = [-1, -500, -5000, 2**64 - 1]


class TestKeyedRng:
    @pytest.mark.parametrize("words", [(0, 0xF0), (7, 0xAB), (2**63 - 1, 5), (3, 2**63 - 1)])
    def test_words_below_2_63_keep_their_streams(self, words):
        want = np.random.Generator(np.random.Philox(key=list(words))).random(4)
        assert np.array_equal(keyed_rng(*words).random(4), want)

    def test_words_are_taken_mod_2_64(self):
        assert np.array_equal(keyed_rng(-1, -2).random(4), keyed_rng(2**64 - 1, 2**64 - 2).random(4))
        assert not np.array_equal(keyed_rng(-1, 0).random(4), keyed_rng(0, 0).random(4))


class TestSparseSample:
    VIDEOS = [("vidA", 120, 1), ("vidB", 200, 0), ("vidC", 64, 1)]

    def test_counts(self):
        plan = sparse_sample(self.VIDEOS, n_pos=5, n_neg=8, seed=0)
        assert len(plan.frames["vidA"]) == 5
        assert len(plan.frames["vidB"]) == 8
        assert len(plan.frames["vidC"]) == 5
        assert sum(map(len, plan.frames.values())) == 18

    def test_within_strata(self):
        plan = sparse_sample(self.VIDEOS, seed=3)
        for vid, length, label in self.VIDEOS:
            want = 5 if label == 1 else 8
            picks = plan.frames[vid]
            assert picks == sorted(picks)
            assert all(0 <= f < length for f in picks)
            for i, f in enumerate(picks):
                assert length * i / want <= f < max(length * (i + 1) / want, length * i / want + 1)

    def test_deterministic(self):
        a = sparse_sample(self.VIDEOS, seed=7)
        b = sparse_sample(self.VIDEOS, seed=7)
        assert a.frames == b.frames

    def test_seed_changes_picks(self):
        a = sparse_sample(self.VIDEOS, seed=0)
        b = sparse_sample(self.VIDEOS, seed=1)
        assert a.frames != b.frames

    def test_far_seeds_have_their_own_streams(self):
        plans = [sparse_sample(self.VIDEOS, seed=s).frames for s in (0, *FAR_SEEDS[:3])]
        assert all(a != b for i, a in enumerate(plans) for b in plans[i + 1 :])
        assert sparse_sample(self.VIDEOS, seed=FAR_SEEDS[3]).frames == plans[1]  # 2**64 - 1 is -1 mod 2**64

    def test_order_independent_per_video(self):
        a = sparse_sample(self.VIDEOS, seed=5)
        b = sparse_sample(list(reversed(self.VIDEOS)), seed=5)
        assert a.frames == b.frames

    def test_short_video_warns_and_takes_all(self):
        with pytest.warns(UserWarning, match="fewer"):
            plan = sparse_sample([("tiny", 3, 1)], n_pos=5)
        assert plan.frames["tiny"] == [0, 1, 2]

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            sparse_sample([], n_pos=0)


class TestNormalize:
    def test_range(self):
        img = np.array([[0, 128, 255]], np.uint8)
        out = normalize_intensity(img)
        assert out[0, 0] == 0.0 and out[0, 2] == 1.0
        assert abs(out[0, 1] - 128 / 255) < 1e-15

    def test_dtype(self):
        assert normalize_intensity(np.zeros((2, 2), np.uint8)).dtype == np.float64


class TestAugment:
    IMG = None

    @staticmethod
    def image(seed=0, h=48, w=40):
        rng = np.random.default_rng(seed)
        return rng.random((h, w))

    @staticmethod
    def mask(h=48, w=40):
        m = np.zeros((h, w), np.uint8)
        m[10:20, 8:18] = PS
        m[25:40, 15:35] = FH
        return m

    def test_deterministic(self):
        p = AugmentParams(seed=11)
        img = self.image()
        a1, m1 = augment(img, self.mask(), p, sample_index=4)
        a2, m2 = augment(img, self.mask(), p, sample_index=4)
        assert np.array_equal(a1, a2)
        assert np.array_equal(m1, m2)

    @pytest.mark.parametrize("seed", FAR_SEEDS)
    def test_far_seed_has_its_own_stream(self, seed):
        img = self.image()
        far, zero = (augment(img, None, AugmentParams(seed=s), 0)[0] for s in (seed, 0))
        assert not np.array_equal(far, zero)

    def test_negative_indices_have_their_own_streams(self):
        img = self.image()
        outs = [augment(img, None, AugmentParams(), i)[0] for i in (-2, -1, 0)]
        assert not np.array_equal(outs[0], outs[1]) and not np.array_equal(outs[1], outs[2])

    def test_index_independent_of_order(self):
        p = AugmentParams(seed=11)
        img = self.image()
        direct, _ = augment(img, None, p, sample_index=9)
        for i in range(9):
            augment(img, None, p, sample_index=i)
        after, _ = augment(img, None, p, sample_index=9)
        assert np.array_equal(direct, after)

    def test_output_in_unit_range(self):
        p = AugmentParams(seed=2, noise_prob=1.0, gamma_prob=1.0, contrast_prob=1.0)
        for i in range(5):
            out, _ = augment(self.image(i), None, p, sample_index=i)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_flip_only_is_involution(self):
        p = AugmentParams(
            flip_prob=1.0, noise_prob=0.0, gamma_prob=0.0, contrast_prob=0.0, affine_prob=0.0
        )
        img = self.image()
        out, m = augment(img, self.mask(), p, sample_index=0)
        assert np.array_equal(out, img[:, ::-1])
        assert np.array_equal(m, self.mask()[:, ::-1])
        back, m2 = augment(out, m, p, sample_index=0)
        assert np.array_equal(back, img)
        assert np.array_equal(m2, self.mask())

    def test_all_disabled_identity(self):
        p = AugmentParams(
            flip_prob=0.0, noise_prob=0.0, gamma_prob=0.0, contrast_prob=0.0, affine_prob=0.0
        )
        img = self.image()
        out, m = augment(img, self.mask(), p, sample_index=3)
        assert np.array_equal(out, img)
        assert np.array_equal(m, self.mask())

    def test_mask_stays_label_valued(self):
        p = AugmentParams(seed=5, affine_prob=1.0)
        for i in range(5):
            _, m = augment(self.image(i), self.mask(), p, sample_index=i)
            assert set(np.unique(m)).issubset({0, PS, FH})

    def test_mask_disables_translation_and_scale(self):
        # with a mask, the affine is rotation only: foreground area is stable
        p = AugmentParams(
            flip_prob=0.0, noise_prob=0.0, gamma_prob=0.0, contrast_prob=0.0, affine_prob=1.0
        )
        m0 = self.mask(64, 64)
        for i in range(5):
            _, m = augment(self.image(i, 64, 64), m0, p, sample_index=i)
            a0 = np.count_nonzero(m0)
            assert abs(np.count_nonzero(m) - a0) / a0 < 0.12

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            augment(self.image(), self.mask(32, 32), AugmentParams(), 0)

    def test_params_from_dict_round_trip(self):
        p = AugmentParams(seed=9, gamma_range=(0.5, 0.9))
        d = {k: getattr(p, k) for k in AugmentParams.__dataclass_fields__}
        assert dataclass_from_json(AugmentParams, d) == p

    @pytest.mark.parametrize(
        "d",
        [
            {"gamma_range": [0.5]},
            {"gamma_range": 0.5},
            {"gamma_range": [0.5, "1"]},
            {"seed": 1.5},
            {"flip": 0.5},
            {"seed": "3"},
            {"seed": 3.0},
            {"seed": True},
            {"flip_prob": None},
            {"flip_prob": float("nan")},
            {"rotate_range": 10**400},
            [1, 2],
        ],
    )
    def test_params_from_dict_rejects(self, d):
        with pytest.raises(FormatError):
            dataclass_from_json(AugmentParams, d)

    def test_params_from_dict_takes_lists(self):
        assert dataclass_from_json(AugmentParams, {"gamma_range": [0.5, 1]}) == AugmentParams(gamma_range=(0.5, 1.0))

    def test_params_from_dict_takes_int_for_float(self):
        p = dataclass_from_json(AugmentParams, {"rotate_range": 10, "seed": 7})
        assert p == AugmentParams(rotate_range=10.0, seed=7)
        assert type(p.rotate_range) is float

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AugmentParams(flip_prob=1.5)
        with pytest.raises(ValueError):
            AugmentParams(gamma_range=(1.0, 0.4))
