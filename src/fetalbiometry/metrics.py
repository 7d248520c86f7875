"""Classification, segmentation and biometric evaluation metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import MetricError
from .raster import boundary_mask, pixel_centers, require_same_shape, validate_binary_mask

POSITIVE_THRESHOLD = 0.5  # inclusive


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(scores, labels, threshold: float = POSITIVE_THRESHOLD) -> ConfusionCounts:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if scores.size == 0 or scores.shape != labels.shape:
        raise MetricError("scores and labels must be non-empty and equal length")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.count_nonzero(pred & pos)),
        tn=int(np.count_nonzero(~pred & ~pos)),
        fp=int(np.count_nonzero(pred & ~pos)),
        fn=int(np.count_nonzero(~pred & pos)),
    )


def mcc(c: ConfusionCounts) -> float:
    denom = (
        (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    )
    if denom == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom)


def roc_auc(scores, labels) -> float:
    """Trapezoidal area under the ROC curve swept across distinct thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.count_nonzero(labels == 1))
    n_neg = int(np.count_nonzero(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC is undefined when only one class is present")
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    tps = np.cumsum(sorted_labels == 1)
    fps = np.cumsum(sorted_labels == 0)
    # keep one operating point per distinct score
    distinct = np.r_[sorted_scores[1:] != sorted_scores[:-1], True]
    tpr = np.r_[0.0, tps[distinct] / n_pos]
    fpr = np.r_[0.0, fps[distinct] / n_neg]
    return float(np.trapezoid(tpr, fpr))


def classification_metrics(scores, labels) -> tuple[float, float, float, float]:
    """(accuracy, F1, AUC, MCC) at the 0.5 decision threshold."""
    c = confusion(scores, labels)
    acc = (c.tp + c.tn) / c.total
    f1_den = 2 * c.tp + c.fp + c.fn
    f1 = 2 * c.tp / f1_den if f1_den else 0.0
    return acc, f1, roc_auc(scores, labels), mcc(c)


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a = validate_binary_mask(a)
    b = validate_binary_mask(b)
    require_same_shape(a, b)
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return 1.0
    inter = int(np.count_nonzero(a.astype(bool) & b.astype(bool)))
    return 2.0 * inter / (na + nb)


def surface_distances(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(average symmetric surface distance, exact Hausdorff distance).

    Boundaries are foreground pixels with a background 4-neighbor or on the
    image border; distances are Euclidean, center to center.
    """
    a = validate_binary_mask(a)
    b = validate_binary_mask(b)
    require_same_shape(a, b)
    pa = pixel_centers(boundary_mask(a))
    pb = pixel_centers(boundary_mask(b))
    if len(pa) == 0 or len(pb) == 0:
        raise MetricError("surface distances are undefined for empty masks")
    dab = cKDTree(pb).query(pa)[0]
    dba = cKDTree(pa).query(pb)[0]
    asd = (dab.sum() + dba.sum()) / (len(pa) + len(pb))
    hd = max(dab.max(), dba.max())
    return float(asd), float(hd)


def segmentation_scores(pred_labels: np.ndarray, gt_labels: np.ndarray) -> dict:
    """Per-class and mean DSC/ASD/HD over the PS and FH classes."""
    out = {}
    means = {"dsc": [], "asd": [], "hd": []}
    for cid, name in ((1, "ps"), (2, "fh")):
        pa = (np.asarray(pred_labels) == cid).astype(np.uint8)
        ga = (np.asarray(gt_labels) == cid).astype(np.uint8)
        d = dice(pa, ga)
        asd, hd = surface_distances(pa, ga)
        out[name] = {"dsc": d, "asd": asd, "hd": hd}
        means["dsc"].append(d)
        means["asd"].append(asd)
        means["hd"].append(hd)
    out["mean"] = {k: float(np.mean(v)) for k, v in means.items()}
    return out


def biometry_delta(pred, gt) -> tuple[float, float]:
    """(|AoP difference| in degrees, |HSD difference| in pixels)."""
    return abs(pred.aop_deg - gt.aop_deg), abs(pred.hsd_px - gt.hsd_px)
