"""Per-structure shape refinement: largest-component filtering, hole closing,
boundary extraction, ellipse fitting, iterative protrusion pruning, and the
ellipse-vs-mask decision rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import edges, ellipse as el, morphology
from .errors import DegenerateInputError, EmptyShapeError, NoEdgesError
from .raster import bounding_window, mask_set_counts, paste, pixel_centers, validate_binary_mask

# the closing kernel's largest side: closing loops over its ~w x h offsets
MAX_KERNEL = 64


@dataclass(frozen=True)
class RefineParams:
    kernel_w: int = 10
    kernel_h: int = 10
    prune_distance: float = 3.0
    max_prune: int = 15
    ellipse_accept_ratio: float = 0.20

    def __post_init__(self):
        if not (1 <= self.kernel_w <= MAX_KERNEL and 1 <= self.kernel_h <= MAX_KERNEL):
            raise ValueError(f"kernel size must lie in [1, {MAX_KERNEL}]")
        if not 0.0 < self.prune_distance < math.inf or self.max_prune <= 0:
            raise ValueError("prune_distance must be finite and positive, max_prune positive")
        if not (0.0 < self.ellipse_accept_ratio < 1.0):
            raise ValueError("ellipse_accept_ratio must lie in (0, 1)")


@dataclass
class RefinedShape:
    closed: np.ndarray  # hole-closed mask over box, output of the closing step
    ellipse: Optional[el.Ellipse]
    used_ellipse: bool
    prune_iterations: int
    final_ratio: float
    # (x0, y0, x1, y1) frame box holding the closed foreground with at least
    # 1 px of background on every side that is not the frame edge
    box: tuple[int, int, int, int]
    frame: tuple[int, int]  # (width, height)

    def __post_init__(self):
        if self.prune_iterations < 0:
            raise ValueError("prune_iterations must be >= 0")
        if self.used_ellipse and self.ellipse is None:
            raise ValueError("used_ellipse requires a fitted ellipse")

    @property
    def closed_window(self) -> tuple[np.ndarray, tuple[int, int]]:
        """(closed, origin): the margin is background, so boundary pixels are the frame's."""
        return self.closed, self.box[:2]

    @property
    def closed_mask(self) -> np.ndarray:
        """closed pasted onto the whole frame, computed on each access."""
        return paste((*self.box[:2], self.closed), (0, 0, *self.frame))


def protrusion_ratio(e_mask: np.ndarray, s_mask: np.ndarray) -> float:
    """|E and not S| / |S and not E|; 0/0 -> 0, k/0 -> inf (protrusion anomaly)."""
    only_e, only_s, _ = mask_set_counts(e_mask, s_mask)
    if only_e == 0:
        return 0.0
    if only_s == 0:
        return math.inf
    return only_e / only_s


def prune(s: np.ndarray, e: el.Ellipse, d: float, *, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Drop foreground pixels whose centers fall outside the ellipse grown by d.

    Pixel (x, y) of s is pixel (x + origin[0], y + origin[1]) of the frame
    that e lives in.
    """
    if d <= 0:
        raise ValueError("prune distance must be positive")
    s = validate_binary_mask(s)
    grown = el.Ellipse(e.cx, e.cy, e.a + d, e.b + d, e.theta_deg)
    outside = grown.quad_form(pixel_centers(s, origin)) > 1.0
    out = s.copy()
    out[s != 0] = ~outside  # pixel_centers lists the foreground in row-major order, as boolean indexing does
    return out


def _crop_box(
    core: tuple[int, int, np.ndarray], frame: tuple[int, int], kernel: morphology.StructuringElement
) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1) of the box in which closing and Canny of a mask are exact.

    core is the (x0, y0, window) of the mask's bounding box B on the
    (width, height) frame.  The closed mask lies inside B: a pixel right of B
    cannot be closed, because its shift by the kernel's largest dx misses the
    dilation, and likewise on the other sides.  Erosion at a pixel of B reads
    the dilation up to the kernel's reach away, so B padded by the reach
    holds every pixel it reads; dilated pixels outside that box are never
    read.  Canny then needs one background pixel around the closed mask: the
    Sobel magnitude is zero beyond 1 px of the foreground, so the NMS reads
    1 px further out see zero in the crop's zero padding and in the frame
    alike.  Where the padded box meets the image edge, the crop edge is the
    image edge and "outside = background" holds as before.
    """
    x, y, m = core
    pad = max(kernel.reach, 1)
    w, h = frame
    return max(0, x - pad), max(0, y - pad), min(w, x + m.shape[1] + pad), min(h, y + m.shape[0] + pad)


def _joint(*windows: tuple[int, int, np.ndarray]) -> list[np.ndarray]:
    """(x0, y0, mask) windows pasted onto the bounding box of the non-empty ones."""
    boxes = [(x, y, x + m.shape[1], y + m.shape[0]) for x, y, m in windows if m.size]
    x0s, y0s, x1s, y1s = zip(*boxes)
    box = (min(x0s), min(y0s), max(x1s), max(y1s))
    return [paste(win, box) for win in windows]


def _fit_boundary(
    mask: np.ndarray, origin: tuple[int, int], frame: tuple[int, int]
) -> tuple[el.Ellipse, tuple[int, int, np.ndarray]]:
    """Ellipse fitted to the largest Canny edge of the crop mask, in frame
    coordinates, and its raster window on the (width, height) frame.

    The fitted points are the centers of the largest 8-connected edge
    component in row-major order: the pixels, order and floats of
    ``edges.longest_chain(edges.extract_chains(edge_map))``, whose tie rule
    is the component's, without building a tuple per pixel.
    """
    edge_map = edges.canny(mask)
    if not edge_map.any():
        raise NoEdgesError("no edge pixels to fit")
    # fit frame coordinates, never shift the fitted ellipse: the fit must see
    # the very floats a full-frame fit sees, or boundary pixels flip
    fitted = el.fit_ams(pixel_centers(morphology.largest_component(edge_map), origin))
    return fitted, el.raster_window(fitted, *frame)


def refine(
    raw: np.ndarray,
    params: RefineParams = RefineParams(),
    *,
    origin: tuple[int, int] = (0, 0),
    frame: Optional[tuple[int, int]] = None,
) -> RefinedShape:
    """Run the component / closing / fitting / pruning / decision sequence on one structure.

    raw is a window of a (width, height) frame, its pixel (0, 0) at origin;
    by default the frame is raw itself.  Only raw's largest 8-connected
    component is refined.  A class window is a sub-rectangle of the frame
    holding every pixel of its class, so its row-major order is the frame's
    and the component tie rule picks what it would pick on the whole frame.
    Everything else runs inside the component's padded bounding box
    (``_crop_box``), and the returned shape keeps the hole-closed mask over
    that box only.
    """
    raw = morphology.largest_component(raw)
    w, h = frame or (raw.shape[1], raw.shape[0])
    # trimmed to the foreground: a window may hold pixels outside the padded box
    core = bounding_window(raw, origin)
    if core is None:
        raise EmptyShapeError("cannot refine an empty mask")
    kernel = morphology.elliptical_kernel(params.kernel_w, params.kernel_h)
    box = _crop_box(core, (w, h), kernel)
    x0, y0 = box[:2]
    crop = paste(core, box)
    closed = morphology.close(crop, kernel)
    if not closed.any():
        # closing can erase a mask thinner than the kernel near the border
        closed = crop
    s_mask = closed
    iterations = 0
    try:
        fitted, e_win = _fit_boundary(s_mask, (x0, y0), (w, h))
        # the ellipse window may overrun the crop: its pixels there count as E-only
        while protrusion_ratio(*_joint(e_win, (x0, y0, s_mask))) >= 1.0 and iterations < params.max_prune:
            s_mask = prune(s_mask, fitted, params.prune_distance, origin=(x0, y0))
            # a pruned-away mask has no edges: _fit_boundary raises NoEdgesError
            fitted, e_win = _fit_boundary(s_mask, (x0, y0), (w, h))
            iterations += 1
    except (DegenerateInputError, NoEdgesError):
        return RefinedShape(closed, None, False, iterations, math.inf, box, (w, h))
    # decision rule against the hole-closed (pre-prune) mask
    only_e, only_s, both = mask_set_counts(*_joint(e_win, (x0, y0, closed)))
    ratio = only_e / (only_s + both)
    used = ratio < params.ellipse_accept_ratio
    return RefinedShape(closed, fitted, used, iterations, ratio, box, (w, h))
