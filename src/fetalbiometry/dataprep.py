"""Training-data plumbing: sparse frame sampling, intensity normalization and
the stochastic augmentation pipeline.

All randomness is counter-based (Philox) and keyed explicitly, so any sample
can be regenerated independently of evaluation order.  ``keyed_rng`` builds
every such generator, here and in ``phantom``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .raster import validate_label_mask

_TRANSFORM_IDS = {"flip": 1, "noise": 2, "gamma": 3, "contrast": 4, "affine": 5}


@dataclass(frozen=True)
class AugmentParams:
    flip_prob: float = 0.5
    noise_prob: float = 0.5
    noise_sigma_range: tuple[float, float] = (1.18e-2, 5.88e-2)
    gamma_prob: float = 0.5
    gamma_range: tuple[float, float] = (0.4, 1.0)
    contrast_prob: float = 0.5
    contrast_range: tuple[float, float] = (0.8, 1.2)
    affine_prob: float = 0.6
    translate_range: float = 0.1  # fraction of width/height
    rotate_range: float = 20.0  # degrees
    scale_range: tuple[float, float] = (1.0, 1.3)
    seed: int = 0

    def __post_init__(self):
        for p in (self.flip_prob, self.noise_prob, self.gamma_prob, self.contrast_prob, self.affine_prob):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"probability out of [0, 1]: {p}")
        for lo, hi in (self.noise_sigma_range, self.gamma_range, self.contrast_range, self.scale_range):
            if lo > hi:
                raise ValueError(f"range not ordered: ({lo}, {hi})")
        # a negative sigma, a zero scale or a draw wider than the largest float would crash augment
        if min(self.noise_sigma_range[0], self.contrast_range[0]) < 0:
            raise ValueError("noise sigma and contrast must be >= 0")
        if min(self.gamma_range[0], self.scale_range[0]) <= 0:
            raise ValueError("gamma and scale must be > 0")
        if not (0 <= self.translate_range <= 1 and 0 <= self.rotate_range <= 180):
            raise ValueError("translate_range must lie in [0, 1] and rotate_range in [0, 180] degrees")


@dataclass
class SamplePlan:
    frames: dict[str, list[int]] = field(default_factory=dict)


def keyed_rng(*words: int) -> np.random.Generator:
    """A Philox generator keyed by up to two integer words.

    Each word is reduced mod 2**64 into a uint64 key word, so a negative seed
    names its own stream; integers equal mod 2**64 share one.
    """
    return np.random.Generator(np.random.Philox(key=np.array([w % 2**64 for w in words], np.uint64)))


def sparse_sample(videos, n_pos: int = 5, n_neg: int = 8, seed: int = 0) -> SamplePlan:
    """Pick frames per video: even strata with seeded jitter inside each stratum.

    ``videos`` is an iterable of (video_id, length, label) with label 1 for
    positive (standard-plane) videos.  Positives contribute n_pos frames,
    negatives n_neg.  Short videos contribute every frame and warn.
    """
    import hashlib  # imported here, so that the CLI's import does not load it

    if n_pos < 1 or n_neg < 1:
        raise ValueError("frame counts must be >= 1")
    plan = SamplePlan()
    for video_id, length, label in videos:
        want = n_pos if label == 1 else n_neg
        if length < want:
            warnings.warn(
                f"video {video_id!r} has {length} frames, fewer than the requested {want}; taking all"
            )
            plan.frames[video_id] = list(range(length))
            continue
        digest = hashlib.blake2b(video_id.encode(), digest_size=8).digest()
        rng = keyed_rng(seed, int.from_bytes(digest, "little"))
        edges = np.linspace(0, length, want + 1)
        picks = []
        for i in range(want):
            lo = int(np.floor(edges[i]))
            hi = max(lo + 1, int(np.floor(edges[i + 1])))
            picks.append(int(rng.integers(lo, hi)))
        plan.frames[video_id] = picks
    return plan


def normalize_intensity(img: np.ndarray) -> np.ndarray:
    """8-bit intensities mapped linearly onto [0, 1] (v / 255)."""
    return np.asarray(img, dtype=np.float64) / 255.0


def _rng(params: AugmentParams, sample_index: int, transform: str) -> np.random.Generator:
    # transform ids fit in the low 3 bits of the second word
    return keyed_rng(params.seed, (sample_index << 3) | _TRANSFORM_IDS[transform])


def augment(
    img: np.ndarray,
    mask: Optional[np.ndarray],
    params: AugmentParams,
    sample_index: int,
) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Apply flip -> noise -> gamma -> contrast -> affine, each firing with its
    own probability.

    Geometric transforms hit the mask too (nearest neighbor); intensity
    transforms never touch it.  When a mask is present (segmentation use) the
    affine translation and scaling are disabled and only rotation applies.
    """
    img = np.asarray(img, dtype=np.float64)
    if mask is not None:
        mask = validate_label_mask(mask)
        if mask.shape != img.shape:
            raise DimensionMismatchError(f"mask shape {mask.shape} != image shape {img.shape}")

    rng = _rng(params, sample_index, "flip")
    if rng.random() < params.flip_prob:
        img = img[:, ::-1].copy()
        if mask is not None:
            mask = mask[:, ::-1].copy()

    rng = _rng(params, sample_index, "noise")
    if rng.random() < params.noise_prob:
        sigma = rng.uniform(*params.noise_sigma_range)
        img = np.clip(img + rng.normal(0.0, sigma, size=img.shape), 0.0, 1.0)

    rng = _rng(params, sample_index, "gamma")
    if rng.random() < params.gamma_prob:
        g = rng.uniform(*params.gamma_range)
        img = np.clip(np.power(img, g), 0.0, 1.0)

    rng = _rng(params, sample_index, "contrast")
    if rng.random() < params.contrast_prob:
        c = rng.uniform(*params.contrast_range)
        img = np.clip((img - img.mean()) * c + img.mean(), 0.0, 1.0)

    rng = _rng(params, sample_index, "affine")
    if rng.random() < params.affine_prob:
        angle = rng.uniform(-params.rotate_range, params.rotate_range)
        if mask is None:
            tx = rng.uniform(-params.translate_range, params.translate_range) * img.shape[1]
            ty = rng.uniform(-params.translate_range, params.translate_range) * img.shape[0]
            scale = rng.uniform(*params.scale_range)
        else:
            tx = ty = 0.0
            scale = 1.0
        img = _affine(img, angle, tx, ty, scale, order=1)
        img = np.clip(img, 0.0, 1.0)
        if mask is not None:
            mask = _affine(mask, angle, tx, ty, scale, order=0).astype(np.uint8)
    return img, mask


def _affine(arr: np.ndarray, angle_deg: float, tx: float, ty: float, scale: float, order: int):
    """Rotate/scale about the image center, then translate; background fill 0."""
    from scipy import ndimage  # imported here, so that the CLI's import does not load scipy

    t = np.radians(angle_deg)
    c, s = np.cos(t), np.sin(t)
    fwd = scale * np.array([[c, -s], [s, c]])  # (y, x) index convention
    inv = np.linalg.inv(fwd)
    center = (np.array(arr.shape) - 1) / 2.0
    offset = center - inv @ (center + np.array([ty, tx]))
    return ndimage.affine_transform(arr, inv, offset=offset, order=order, mode="constant", cval=0.0)
