"""Training-data plumbing: sparse frame sampling, intensity normalization and
the stochastic augmentation pipeline.

The sampling and augmentation recipes are fixed at this module's constants;
a run chooses only its seed (``AugmentParams`` for augmentation) and each
sample's index.

All randomness is counter-based (Philox) and keyed explicitly, so any sample
can be regenerated independently of evaluation order.  Every such generator
comes from ``raster.keyed_rng``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionMismatchError
from .raster import keyed_rng, validate_label_mask

_TRANSFORM_IDS = {"flip": 1, "noise": 2, "gamma": 3, "contrast": 4, "affine": 5}

# the sampling recipe: frames drawn from each positive (standard-plane) video
# and from each negative one
N_POS = 5
N_NEG = 8

# the augmentation recipe: each transform fires with its probability and
# draws its strength uniformly from its range
FLIP_PROB = 0.5
NOISE_PROB = 0.5
NOISE_SIGMA_RANGE = (1.18e-2, 5.88e-2)
GAMMA_PROB = 0.5
GAMMA_RANGE = (0.4, 1.0)
CONTRAST_PROB = 0.5
CONTRAST_RANGE = (0.8, 1.2)
AFFINE_PROB = 0.6
TRANSLATE_RANGE = 0.1  # fraction of width/height
ROTATE_RANGE = 20.0  # degrees
SCALE_RANGE = (1.0, 1.3)


@dataclass(frozen=True)
class AugmentParams:
    seed: int = 0


@dataclass
class SamplePlan:
    frames: dict[str, list[int]] = field(default_factory=dict)


def sparse_sample(videos, seed: int = 0) -> SamplePlan:
    """Pick frames per video: even strata with seeded jitter inside each stratum.

    ``videos`` is an iterable of (video_id, length, label) with label 1 for
    positive (standard-plane) videos.  Positives contribute ``N_POS`` frames,
    negatives ``N_NEG``.  Short videos contribute every frame and warn.
    """
    import hashlib  # imported here, so that the CLI's import does not load it

    plan = SamplePlan()
    for video_id, length, label in videos:
        want = N_POS if label == 1 else N_NEG
        if length < want:
            warnings.warn(
                f"video {video_id!r} has {length} frames, fewer than the requested {want}; taking all"
            )
            plan.frames[video_id] = list(range(length))
            continue
        digest = hashlib.blake2b(video_id.encode(), digest_size=8).digest()
        rng = keyed_rng(seed, int.from_bytes(digest, "little"))
        # integer strata edges: length >= want keeps each stratum non-empty
        plan.frames[video_id] = [int(rng.integers(i * length // want, (i + 1) * length // want)) for i in range(want)]
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
    own probability (``FLIP_PROB`` ... ``AFFINE_PROB``).

    Geometric transforms hit the mask too (nearest neighbor); intensity
    transforms never touch it.  When a mask is present (segmentation use) the
    affine translation and scaling are disabled and only rotation applies.
    Each transform's stream is keyed by ``sample_index`` shifted past a 3-bit
    transform id, mod 2**64: indices equal mod 2**61 share every stream.
    """
    img = np.asarray(img, dtype=np.float64)
    if mask is not None:
        mask = validate_label_mask(mask)
        if mask.shape != img.shape:
            raise DimensionMismatchError(f"mask shape {mask.shape} != image shape {img.shape}")

    rng = _rng(params, sample_index, "flip")
    if rng.random() < FLIP_PROB:
        img = img[:, ::-1].copy()
        if mask is not None:
            mask = mask[:, ::-1].copy()

    rng = _rng(params, sample_index, "noise")
    if rng.random() < NOISE_PROB:
        sigma = rng.uniform(*NOISE_SIGMA_RANGE)
        img = np.clip(img + rng.normal(0.0, sigma, size=img.shape), 0.0, 1.0)

    rng = _rng(params, sample_index, "gamma")
    if rng.random() < GAMMA_PROB:
        g = rng.uniform(*GAMMA_RANGE)
        img = np.clip(np.power(img, g), 0.0, 1.0)

    rng = _rng(params, sample_index, "contrast")
    if rng.random() < CONTRAST_PROB:
        c = rng.uniform(*CONTRAST_RANGE)
        img = np.clip((img - img.mean()) * c + img.mean(), 0.0, 1.0)

    rng = _rng(params, sample_index, "affine")
    if rng.random() < AFFINE_PROB:
        angle = rng.uniform(-ROTATE_RANGE, ROTATE_RANGE)
        if mask is None:
            tx = rng.uniform(-TRANSLATE_RANGE, TRANSLATE_RANGE) * img.shape[1]
            ty = rng.uniform(-TRANSLATE_RANGE, TRANSLATE_RANGE) * img.shape[0]
            scale = rng.uniform(*SCALE_RANGE)
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
