"""Per-structure shape refinement: hole closing, boundary extraction, ellipse
fitting, iterative protrusion pruning, and the ellipse-vs-mask decision rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import edges, ellipse as el, morphology
from .errors import DegenerateInputError, EmptyShapeError, NoEdgesError
from .raster import mask_set_counts, require_same_shape, validate_binary_mask


@dataclass(frozen=True)
class RefineParams:
    kernel_w: int = 10
    kernel_h: int = 10
    canny_min: float = 2.0
    canny_max: float = 5.0
    prune_distance: float = 3.0
    max_prune: int = 15
    ellipse_accept_ratio: float = 0.20

    def __post_init__(self):
        if self.kernel_w < 1 or self.kernel_h < 1:
            raise ValueError("kernel size must be positive")
        if self.canny_min > self.canny_max:
            raise ValueError("canny_min must be <= canny_max")
        if self.prune_distance <= 0 or self.max_prune <= 0:
            raise ValueError("prune_distance and max_prune must be positive")
        if not (0.0 < self.ellipse_accept_ratio < 1.0):
            raise ValueError("ellipse_accept_ratio must lie in (0, 1)")

    @classmethod
    def from_dict(cls, d: dict) -> "RefineParams":
        return cls(**{k: d[k] for k in cls.__dataclass_fields__ if k in d})

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RefinedShape:
    closed_mask: np.ndarray  # hole-closed mask, output of the closing step
    ellipse: Optional[el.Ellipse]
    ellipse_mask: Optional[np.ndarray]
    used_ellipse: bool
    prune_iterations: int
    final_ratio: float

    def __post_init__(self):
        if self.prune_iterations < 0:
            raise ValueError("prune_iterations must be >= 0")
        if self.used_ellipse and self.ellipse is None:
            raise ValueError("used_ellipse requires a fitted ellipse")

    @property
    def selected_mask(self) -> np.ndarray:
        return self.ellipse_mask if self.used_ellipse else self.closed_mask


def protrusion_ratio(e_mask: np.ndarray, s_mask: np.ndarray) -> float:
    """|E and not S| / |S and not E|; 0/0 -> 0, k/0 -> inf (protrusion anomaly)."""
    e_mask = validate_binary_mask(e_mask)
    s_mask = validate_binary_mask(s_mask)
    require_same_shape(e_mask, s_mask)
    only_e, only_s, _ = mask_set_counts(e_mask, s_mask)
    if only_e == 0:
        return 0.0
    if only_s == 0:
        return math.inf
    return only_e / only_s


def prune(s: np.ndarray, e: el.Ellipse, d: float) -> np.ndarray:
    """Drop foreground pixels whose centers fall outside the ellipse grown by d."""
    if d <= 0:
        raise ValueError("prune distance must be positive")
    s = validate_binary_mask(s)
    grown = el.Ellipse(e.cx, e.cy, e.a + d, e.b + d, e.theta_deg)
    ys, xs = np.nonzero(s)
    if xs.size == 0:
        return s.copy()
    pts = np.column_stack([xs + 0.5, ys + 0.5])
    outside = grown.quad_form(pts) > 1.0
    out = s.copy()
    out[ys[outside], xs[outside]] = 0
    return out


def _fit_boundary(mask: np.ndarray, params: RefineParams) -> tuple[el.Ellipse, np.ndarray]:
    edge_map = edges.canny(mask, params.canny_min, params.canny_max)
    chain = edges.longest_chain(edges.extract_chains(edge_map))
    pts = np.asarray(chain.points, dtype=np.float64) + 0.5  # pixel centers
    fitted = el.fit_ams(pts)
    h, w = mask.shape
    return fitted, el.rasterize(fitted, w, h)


def refine(raw: np.ndarray, params: RefineParams = RefineParams()) -> RefinedShape:
    """Run the closing / fitting / pruning / decision sequence on one structure."""
    raw = validate_binary_mask(raw)
    if not raw.any():
        raise EmptyShapeError("cannot refine an empty mask")
    kernel = morphology.elliptical_kernel(params.kernel_w, params.kernel_h)
    closed = morphology.close(raw, kernel)
    if not closed.any():
        # closing can erase a mask thinner than the kernel near the border
        closed = raw.copy()
    s_mask = closed.copy()
    iterations = 0
    try:
        fitted, e_mask = _fit_boundary(s_mask, params)
        while protrusion_ratio(e_mask, s_mask) >= 1.0 and iterations < params.max_prune:
            s_mask = prune(s_mask, fitted, params.prune_distance)
            if not s_mask.any():
                raise DegenerateInputError("pruning removed the whole mask")
            fitted, e_mask = _fit_boundary(s_mask, params)
            iterations += 1
    except (DegenerateInputError, NoEdgesError):
        return RefinedShape(closed, None, None, False, iterations, math.inf)
    # decision rule against the hole-closed (pre-prune) mask
    only_e, _, _ = mask_set_counts(e_mask, closed)
    s_area = int(np.count_nonzero(closed))
    ratio = only_e / s_area
    used = ratio < params.ellipse_accept_ratio
    return RefinedShape(closed, fitted, e_mask, used, iterations, ratio)
