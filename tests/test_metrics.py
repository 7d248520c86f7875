import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalbiometry.errors import MetricError
from fetalbiometry.metrics import (
    ConfusionCounts,
    classification_metrics,
    confusion,
    dice,
    mcc,
    roc_auc,
    segmentation_scores,
    surface_distances,
)


class TestConfusion:
    def test_threshold_inclusive(self):
        c = confusion([0.5, 0.49], [1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_cls_threshold_inclusive(self):
        # the positive-class probabilities of (negative, positive) vectors
        # (0.5, 0.5), (0.6, 0.4) and (0.1, 0.9)
        c = confusion([0.5, 0.4, 0.9], [1, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)

    def test_counts(self):
        c = confusion([0.9, 0.8, 0.2, 0.6], [1, 0, 0, 1])
        assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 1, 0)

    def test_empty_error(self):
        with pytest.raises(MetricError):
            confusion([], [])


class TestMcc:
    def test_perfect(self):
        assert mcc(ConfusionCounts(5, 5, 0, 0)) == 1.0

    def test_inverted(self):
        assert mcc(ConfusionCounts(0, 0, 5, 5)) == -1.0

    def test_degenerate_zero(self):
        assert mcc(ConfusionCounts(5, 0, 5, 0)) == 0.0

    def test_manual_value(self):
        c = ConfusionCounts(tp=3, tn=4, fp=1, fn=2)
        expected = (3 * 4 - 1 * 2) / math.sqrt(4 * 5 * 5 * 6)
        assert abs(mcc(c) - expected) < 1e-15


class TestAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.8, 0.3, 0.1], [1, 1, 0, 0]) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0

    def test_interleaved(self):
        assert abs(roc_auc([0.9, 0.8, 0.3], [1, 0, 1]) - 0.5) < 1e-12

    def test_ties_half_credit(self):
        assert abs(roc_auc([0.5, 0.5], [1, 0]) - 0.5) < 1e-12

    def test_single_class_error(self):
        with pytest.raises(MetricError):
            roc_auc([0.1, 0.9], [1, 1])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0, 1, allow_nan=False), min_size=2, max_size=12),
        st.integers(0, 10_000),
    )
    def test_matches_pairwise_concordance(self, scores, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 2, len(scores))
        if labels.sum() in (0, len(labels)):
            labels[0] = 1 - labels[0]
        pos = [s for s, y in zip(scores, labels) if y == 1]
        neg = [s for s, y in zip(scores, labels) if y == 0]
        conc = sum(1.0 if p > n else 0.5 if p == n else 0.0 for p in pos for n in neg)
        expected = conc / (len(pos) * len(neg))
        assert abs(roc_auc(scores, labels) - expected) < 1e-12


class TestClassificationBundle:
    def test_all_correct(self):
        acc, f1, auc, m = classification_metrics([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])
        assert (acc, f1, auc, m) == (1.0, 1.0, 1.0, 1.0)

    def test_one_class_auc_none(self):
        # ACC, F1 and MCC stay defined when AUC is not
        assert classification_metrics([0.9, 0.2], [1, 1]) == (0.5, 2 / 3, None, 0.0)
        assert classification_metrics([0.9, 0.2], [0, 0]) == (0.5, 0.0, None, 0.0)

    def test_mixed(self):
        acc, f1, auc, m = classification_metrics([0.9, 0.4, 0.6, 0.2], [1, 1, 0, 0])
        assert acc == 0.5
        assert abs(f1 - 0.5) < 1e-15


class TestDice:
    def test_identical(self):
        m = np.zeros((8, 8), np.uint8)
        m[2:6, 2:6] = 1
        assert dice(m, m) == 1.0

    def test_disjoint(self):
        a = np.zeros((8, 8), np.uint8)
        b = np.zeros((8, 8), np.uint8)
        a[0, 0] = 1
        b[7, 7] = 1
        assert dice(a, b) == 0.0

    def test_empty_pair(self):
        z = np.zeros((4, 4), np.uint8)
        assert dice(z, z) == 1.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), np.uint8)
        b = np.zeros((4, 4), np.uint8)
        a[0, 0:2] = 1
        b[0, 1:3] = 1
        assert dice(a, b) == 0.5


class TestSurfaceDistances:
    def test_identical_zero(self):
        m = np.zeros((10, 10), np.uint8)
        m[3:7, 3:7] = 1
        asd, hd = surface_distances(m, m)
        assert asd == 0.0 and hd == 0.0

    def test_shifted_squares(self):
        a = np.zeros((12, 12), np.uint8)
        b = np.zeros((12, 12), np.uint8)
        a[2:6, 2:6] = 1
        b[2:6, 5:9] = 1  # shifted 3 right
        asd, hd = surface_distances(a, b)
        assert hd == 3.0
        assert 0.0 < asd <= 3.0

    def test_empty_error(self):
        m = np.zeros((5, 5), np.uint8)
        full = np.ones((5, 5), np.uint8)
        with pytest.raises(MetricError):
            surface_distances(m, full)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        b = (rng.random((16, 16)) < 0.4).astype(np.uint8)
        if a.any() and b.any():
            assert surface_distances(a, b) == surface_distances(b, a)


class TestSegmentationScores:
    def test_perfect_match(self):
        labels = np.zeros((20, 20), np.uint8)
        labels[2:8, 2:8] = 1
        labels[10:18, 10:18] = 2
        out = segmentation_scores(labels, labels)
        assert out["ps"]["dsc"] == 1.0 and out["fh"]["dsc"] == 1.0
        assert out["mean"]["asd"] == 0.0 and out["mean"]["hd"] == 0.0

    def test_mean_is_average(self):
        gt = np.zeros((20, 20), np.uint8)
        gt[2:8, 2:8] = 1
        gt[10:18, 10:18] = 2
        pred = np.zeros((20, 20), np.uint8)
        pred[3:9, 2:8] = 1
        pred[10:18, 11:19] = 2
        out = segmentation_scores(pred, gt)
        assert abs(out["mean"]["dsc"] - (out["ps"]["dsc"] + out["fh"]["dsc"]) / 2) < 1e-15
