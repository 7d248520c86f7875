import numpy as np
import pytest

from fetalbiometry import dataprep
from fetalbiometry.dataprep import AugmentParams, augment, normalize_intensity, sparse_sample
from fetalbiometry.errors import DimensionMismatchError
from fetalbiometry.raster import FH, PS

# seeds whose key word numpy cast through float, onto the key of seed 0, when
# keys were lists of Python ints
FAR_SEEDS = [-1, -500, -5000, 2**64 - 1]


class TestSparseSample:
    VIDEOS = [("vidA", 120, 1), ("vidB", 200, 0), ("vidC", 64, 1)]

    def test_counts(self):
        plan = sparse_sample(self.VIDEOS, seed=0)
        assert len(plan.frames["vidA"]) == 5
        assert len(plan.frames["vidB"]) == 8
        assert len(plan.frames["vidC"]) == 5
        assert sum(map(len, plan.frames.values())) == 18

    def test_counts_follow_the_constants(self, monkeypatch):
        monkeypatch.setattr(dataprep, "N_POS", 3)
        monkeypatch.setattr(dataprep, "N_NEG", 4)
        plan = sparse_sample(self.VIDEOS, seed=0)
        assert [len(plan.frames[vid]) for vid, _, _ in self.VIDEOS] == [3, 4, 3]

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

    @pytest.mark.parametrize("length", [2**62 - 1, 2**63 - 1])
    @pytest.mark.parametrize("label", [0, 1])
    def test_last_stratum_ends_inside_long_videos(self, monkeypatch, length, label):
        # the last stratum ends at the video's last frame, however long the video
        class LastOfEachStratum:
            def integers(self, lo, hi):
                return hi - 1

        monkeypatch.setattr(dataprep, "keyed_rng", lambda *words: LastOfEachStratum())
        picks = sparse_sample([("long", length, label)]).frames["long"]
        assert picks[-1] == length - 1
        assert picks == sorted(set(picks))

    def test_short_video_warns_and_takes_all(self):
        with pytest.warns(UserWarning, match="fewer"):
            plan = sparse_sample([("tiny", 3, 1)])
        assert plan.frames["tiny"] == [0, 1, 2]


class TestNormalize:
    def test_range(self):
        img = np.array([[0, 128, 255]], np.uint8)
        out = normalize_intensity(img)
        assert out[0, 0] == 0.0 and out[0, 2] == 1.0
        assert abs(out[0, 1] - 128 / 255) < 1e-15

    def test_dtype(self):
        assert normalize_intensity(np.zeros((2, 2), np.uint8)).dtype == np.float64


# the sampling recipe's frame counts, as test_the_augment_constants pins them
SAMPLING = {"N_POS": 5, "N_NEG": 8}
# the augmentation recipe's values, as test_the_augment_constants pins them
RECIPE = {
    "FLIP_PROB": 0.5,
    "NOISE_PROB": 0.5,
    "NOISE_SIGMA_RANGE": (1.18e-2, 5.88e-2),
    "GAMMA_PROB": 0.5,
    "GAMMA_RANGE": (0.4, 1.0),
    "CONTRAST_PROB": 0.5,
    "CONTRAST_RANGE": (0.8, 1.2),
    "AFFINE_PROB": 0.6,
    "TRANSLATE_RANGE": 0.1,
    "ROTATE_RANGE": 20.0,
    "SCALE_RANGE": (1.0, 1.3),
}
ALL_ON = {name: 1.0 for name in RECIPE if name.endswith("_PROB")}
ALL_OFF = dict.fromkeys(ALL_ON, 0.0)
# one value per constant, away from ALL_ON and the recipe
CHANGED = {
    **ALL_OFF,
    "NOISE_SIGMA_RANGE": (0.2, 0.3),
    "GAMMA_RANGE": (1.5, 2.0),
    "CONTRAST_RANGE": (0.3, 0.5),
    "TRANSLATE_RANGE": 0.4,
    "ROTATE_RANGE": 90.0,
    "SCALE_RANGE": (0.5, 0.6),
}


def recipe(monkeypatch, **constants):
    """Set ``dataprep``'s recipe constants by name, for this test only."""
    for name, value in constants.items():
        monkeypatch.setattr(dataprep, name, value)


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

    def test_output_in_unit_range(self, monkeypatch):
        recipe(monkeypatch, NOISE_PROB=1.0, GAMMA_PROB=1.0, CONTRAST_PROB=1.0)
        p = AugmentParams(seed=2)
        for i in range(5):
            out, _ = augment(self.image(i), None, p, sample_index=i)
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_flip_only_is_involution(self, monkeypatch):
        recipe(monkeypatch, **{**ALL_OFF, "FLIP_PROB": 1.0})
        p = AugmentParams()
        img = self.image()
        out, m = augment(img, self.mask(), p, sample_index=0)
        assert np.array_equal(out, img[:, ::-1])
        assert np.array_equal(m, self.mask()[:, ::-1])
        back, m2 = augment(out, m, p, sample_index=0)
        assert np.array_equal(back, img)
        assert np.array_equal(m2, self.mask())

    def test_all_disabled_identity(self, monkeypatch):
        recipe(monkeypatch, **ALL_OFF)
        img = self.image()
        out, m = augment(img, self.mask(), AugmentParams(), sample_index=3)
        assert np.array_equal(out, img)
        assert np.array_equal(m, self.mask())

    def test_mask_stays_label_valued(self, monkeypatch):
        recipe(monkeypatch, AFFINE_PROB=1.0)
        p = AugmentParams(seed=5)
        for i in range(5):
            _, m = augment(self.image(i), self.mask(), p, sample_index=i)
            assert set(np.unique(m)).issubset({0, PS, FH})

    def test_mask_disables_translation_and_scale(self, monkeypatch):
        # with a mask, the affine is rotation only: foreground area is stable
        recipe(monkeypatch, **{**ALL_OFF, "AFFINE_PROB": 1.0})
        m0 = self.mask(64, 64)
        for i in range(5):
            _, m = augment(self.image(i, 64, 64), m0, AugmentParams(), sample_index=i)
            a0 = np.count_nonzero(m0)
            assert abs(np.count_nonzero(m) - a0) / a0 < 0.12

    @pytest.mark.parametrize("name", list(CHANGED))
    def test_each_constant_changes_the_output(self, monkeypatch, name):
        img = self.image(2, 32, 32)
        recipe(monkeypatch, **ALL_ON)
        before, _ = augment(img, None, AugmentParams(), 0)
        recipe(monkeypatch, **{name: CHANGED[name]})
        assert not np.array_equal(augment(img, None, AugmentParams(), 0)[0], before)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            augment(self.image(), self.mask(32, 32), AugmentParams(), 0)


def test_the_augment_constants():
    # every public upper-case name of the module is a sampling or augmentation
    # constant, and each augmentation constant is covered
    names = [name for name in vars(dataprep) if name.isupper() and not name.startswith("_")]
    assert names == [*SAMPLING, *RECIPE] and set(CHANGED) == set(RECIPE)
    assert {name: getattr(dataprep, name) for name in names} == {**SAMPLING, **RECIPE}
