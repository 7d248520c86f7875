"""Per-structure shape refinement: largest-component filtering, hole closing,
boundary extraction, ellipse fitting, iterative protrusion pruning, and the
ellipse-vs-mask decision rule.

The boundary points are taken once, from the closed mask's largest edge
component.  Their plain AMS fit decides whether the prune loop runs: it does
when the fitted ellipse covers at least as many pixels outside the mask as
the mask has outside the ellipse.  That fit leans toward a protrusion, so
every ellipse in the loop is ``ellipse.fit_consensus``'s.  Each round keeps
the points inside the last fit grown by ``PRUNE_DISTANCE`` and refits them:
trimmed fitting, as in least trimmed squares (Rousseeuw 1984) and RANSAC's
refit on its consensus set (Fischler & Bolles 1981).  The loop ends after the
first round that keeps every point, as every later round would repeat it:
the same points and fit."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import edges, ellipse as el, morphology
from .errors import DegenerateInputError, EmptyShapeError
from .raster import bounding_window, mask_set_counts, paste, pixel_centers

# the paper's recipe: holes closed by a 10x10 elliptical kernel, points
# pruned outside the fitted ellipse grown by 3 px per semi-axis, and the
# ellipse kept when its pixels outside the closed mask are under 20% of the
# mask's area
CLOSING_KERNEL = morphology.elliptical_kernel(10, 10)
PRUNE_DISTANCE = 3.0
ELLIPSE_ACCEPT_RATIO = 0.20
MAX_PRUNE = 15  # the prune loop's round cap, a bound on its cost


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


def prune(points: np.ndarray, e: el.Ellipse) -> np.ndarray:
    """One bool per point: whether it lies inside or on e grown by ``PRUNE_DISTANCE`` per semi-axis."""
    grown = el.Ellipse(e.cx, e.cy, e.a + PRUNE_DISTANCE, e.b + PRUNE_DISTANCE, e.theta_deg)
    return grown.quad_form(points) <= 1.0


def _crop_box(core: tuple[int, int, np.ndarray], frame: tuple[int, int]) -> tuple[int, int, int, int]:
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
    pad = CLOSING_KERNEL.reach  # 5 px, more than the 1 px Canny needs
    w, h = frame
    return max(0, x - pad), max(0, y - pad), min(w, x + m.shape[1] + pad), min(h, y + m.shape[0] + pad)


def _joint(*windows: tuple[int, int, np.ndarray]) -> list[np.ndarray]:
    """(x0, y0, mask) windows pasted onto the bounding box of the non-empty ones."""
    boxes = [(x, y, x + m.shape[1], y + m.shape[0]) for x, y, m in windows if m.size]
    x0s, y0s, x1s, y1s = zip(*boxes)
    box = (min(x0s), min(y0s), max(x1s), max(y1s))
    return [paste(win, box) for win in windows]


def _boundary_points(mask: np.ndarray, origin: tuple[int, int]) -> np.ndarray:
    """Frame centers of the largest Canny edge of the crop mask, the points every fit sees.

    They are the centers of the largest 8-connected edge component in
    row-major order: the pixels, order and floats of
    ``edges.longest_chain(edges.extract_chains(edge_map))``, whose tie rule
    is the component's, without building a tuple per pixel; an empty edge
    map gives none, which ``el.fit_ams`` rejects.  Fits take frame
    coordinates and the fitted ellipse is never shifted: the fit must see the
    very floats a full-frame fit sees, or boundary pixels flip.
    """
    return pixel_centers(morphology.largest_component(edges.canny(mask)), origin)


def refine(
    raw: np.ndarray,
    *,
    origin: tuple[int, int] = (0, 0),
    frame: Optional[tuple[int, int]] = None,
) -> RefinedShape:
    """Run the component / closing / fitting / pruning / decision sequence on one structure.

    The recipe is the paper's, at this module's constants: closing with
    ``CLOSING_KERNEL``, pruning by ``PRUNE_DISTANCE`` for at most
    ``MAX_PRUNE`` rounds, and the ellipse-vs-mask decision at
    ``ELLIPSE_ACCEPT_RATIO``.

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
    box = _crop_box(core, (w, h))
    x0, y0 = box[:2]
    crop = paste(core, box)
    closed = morphology.close(crop, CLOSING_KERNEL)
    if not closed.any():
        # closing can erase a mask thinner than the kernel near the border
        closed = crop
    iterations = 0
    try:
        points = _boundary_points(closed, (x0, y0))
        fitted = el.fit_ams(points)
        # the ellipse window may overrun the crop: its pixels there count as E-only
        joint = _joint(el.raster_window(fitted, w, h), (x0, y0, closed))
        if protrusion_ratio(*joint) >= 1.0:
            # the plain fit that entered the loop leans toward the protrusion
            fitted = el.fit_consensus(points)
            while iterations < MAX_PRUNE:
                keep = prune(points, fitted)
                iterations += 1
                if keep.all():  # a fixed point: fitted is these points' consensus fit
                    break
                # too few kept points make fit_consensus raise DegenerateInputError
                points = points[keep]
                fitted = el.fit_consensus(points)
            joint = _joint(el.raster_window(fitted, w, h), (x0, y0, closed))
    except DegenerateInputError:
        return RefinedShape(closed, None, False, iterations, math.inf, box, (w, h))
    # decision rule against the hole-closed mask
    only_e, only_s, both = mask_set_counts(*joint)
    ratio = only_e / (only_s + both)
    used = ratio < ELLIPSE_ACCEPT_RATIO
    return RefinedShape(closed, fitted, used, iterations, ratio, box, (w, h))
