"""Synthetic PS/FH scenes with closed-form biometry, used as test oracles.

A scene is two disjoint ellipses on a canvas.  Its angle of progression and
head-symphysis distance are computed analytically, so rendered label masks
can verify the whole measurement pipeline.  Perturbations (holes,
protrusions, boundary noise) are seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ellipse as el
from .errors import InfeasiblePerturbationError, OverlapError
from .morphology import StructuringElement, erode
from .raster import FH, PS, Point, boundary_mask, keyed_rng, validate_label_mask


@dataclass(frozen=True)
class PhantomScene:
    ps: el.Ellipse
    fh: el.Ellipse
    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas must be at least 1x1")
        validate_scene(self)

    def scaled(self, factor: float) -> "PhantomScene":
        def sc(e: el.Ellipse) -> el.Ellipse:
            return el.Ellipse(e.cx * factor, e.cy * factor, e.a * factor, e.b * factor, e.theta_deg)

        return PhantomScene(
            sc(self.ps), sc(self.fh), int(round(self.width * factor)), int(round(self.height * factor))
        )

    def to_dict(self) -> dict:
        def d(e):
            return {"cx": e.cx, "cy": e.cy, "a": e.a, "b": e.b, "theta_deg": e.theta_deg}

        return {"ps": d(self.ps), "fh": d(self.fh), "width": self.width, "height": self.height}

    @classmethod
    def from_dict(cls, d: dict) -> "PhantomScene":
        return cls(el.Ellipse(**d["ps"]), el.Ellipse(**d["fh"]), d["width"], d["height"])


# each protrusion runs a Python loop over the pixels of its box
MAX_PROTRUSIONS = 100


@dataclass(frozen=True)
class Perturbation:
    """Seeded perturbations of a rendered scene.

    Each hole is a disk whose radius is drawn from ``hole_radius``, a finite,
    nonnegative and ordered range; a radius below 1, ``(0.0, 0.0)`` too,
    carves a one-pixel hole.
    """

    holes: int = 0
    hole_radius: tuple[float, float] = (2.0, 4.0)
    protrusions: int = 0
    protrusion_size: tuple[float, float] = (15.0, 40.0)
    boundary_noise: float = 0.0
    seed: int = 0
    classes: tuple[int, ...] = (PS, FH)

    def __post_init__(self):
        # shifts are drawn from (-noise, noise), a range that must be finite
        if self.holes < 0 or self.protrusions < 0 or not 0 <= 2 * self.boundary_noise < math.inf:
            raise ValueError("perturbation sizes must be nonnegative, and twice the noise finite")
        if self.protrusions > MAX_PROTRUSIONS:
            raise ValueError(f"at most {MAX_PROTRUSIONS} protrusions, got {self.protrusions}")
        # a hole's radius sizes the disk it carves, and a spur pixel's offset
        # along the spur is divided by the spur's length; written so that NaN fails
        if not (0 <= self.hole_radius[0] <= self.hole_radius[1] < math.inf) or not (
            0 < self.protrusion_size[0] <= self.protrusion_size[1]
        ):
            raise ValueError(
                "ranges must be ordered, hole radii finite and nonnegative, and protrusion lengths positive"
            )


def ps_apex(scene: PhantomScene) -> tuple[Point, Point]:
    """(proximal, apex) endpoints of the PS major axis; apex faces the head."""
    e = scene.ps
    t = math.radians(e.theta_deg)
    dx, dy = e.a * math.cos(t), e.a * math.sin(t)
    p1 = Point(e.cx - dx, e.cy - dy)
    p2 = Point(e.cx + dx, e.cy + dy)
    f = scene.fh
    d1 = math.hypot(p1.x - f.cx, p1.y - f.cy)
    d2 = math.hypot(p2.x - f.cx, p2.y - f.cy)
    return (p1, p2) if d2 < d1 else (p2, p1)


def validate_scene(scene: PhantomScene) -> None:
    """Interiors must be disjoint (dense 0.25-px check) and the apex outside FH."""
    ps, fh = scene.ps, scene.fh
    xs = np.arange(ps.cx - ps.a, ps.cx + ps.a + 0.25, 0.25)
    ys = np.arange(ps.cy - ps.a, ps.cy + ps.a + 0.25, 0.25)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside_ps = ps.quad_form(pts) <= 1.0
    if np.any(fh.quad_form(pts[inside_ps]) <= 1.0):
        raise OverlapError("PS and FH interiors overlap")
    _, apex = ps_apex(scene)
    if fh.quad_form(np.array([[apex.x, apex.y]]))[0] <= 1.0:
        raise OverlapError("PS apex lies inside FH")


def _angle_between(apex: Point, u_to: Point, v_to) -> float:
    ux, uy = u_to.x - apex.x, u_to.y - apex.y
    vx, vy = v_to[0] - apex.x, v_to[1] - apex.y
    return math.degrees(math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy))


def point_ellipse_distance(e: el.Ellipse, p) -> float:
    """Exact distance from an external point to the ellipse boundary.

    Newton iteration on the boundary parameter with a bisection safeguard;
    always converges on [0, pi/2] after folding into the first quadrant: it
    stops at a step below 1e-10 rad, or after 200 steps.
    """
    loc = e.to_local(np.asarray(p, dtype=np.float64).reshape(1, 2))[0]
    qa, qb = abs(loc[0]), abs(loc[1])
    a, b = e.a, e.b

    def g(t):
        return (b * b - a * a) * math.sin(t) * math.cos(t) + qa * a * math.sin(t) - qb * b * math.cos(t)

    def gp(t):
        return (b * b - a * a) * math.cos(2 * t) + qa * a * math.cos(t) + qb * b * math.sin(t)

    lo, hi = 0.0, math.pi / 2
    t = math.atan2(a * qb, b * qa) if (qa or qb) else 0.0
    for _ in range(200):
        val = g(t)
        if val > 0:
            hi = t
        else:
            lo = t
        dval = gp(t)
        step_ok = dval != 0
        if step_ok:
            t_new = t - val / dval
            step_ok = lo < t_new < hi
        if not step_ok:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) < 1e-10:
            t = t_new
            break
        t = t_new
    bx, by = a * math.cos(t), b * math.sin(t)
    return math.hypot(bx - qa, by - qb)


def analytic_biometry(scene: PhantomScene) -> tuple[float, float]:
    """(AoP in degrees, HSD in pixels) in closed form; the scene was checked when it was built."""
    proximal, apex = ps_apex(scene)
    t1, t2 = el.external_tangents(scene.fh, (apex.x, apex.y))
    aop = max(_angle_between(apex, proximal, t1), _angle_between(apex, proximal, t2))
    hsd = point_ellipse_distance(scene.fh, (apex.x, apex.y))
    return aop, hsd


def render(scene: PhantomScene) -> np.ndarray:
    labels = np.zeros((scene.height, scene.width), dtype=np.uint8)
    labels[el.rasterize(scene.ps, scene.width, scene.height) > 0] = PS
    labels[el.rasterize(scene.fh, scene.width, scene.height) > 0] = FH
    return labels


def random_scene(seed: int, width: int = 512, height: int = 512) -> PhantomScene:
    """Seeded random scene with AoP in [95, 170] degrees and both shapes on canvas."""
    rng = keyed_rng(seed, 0xF0)
    for _ in range(1000):
        ps_a = rng.uniform(25, 45)
        ps_b = rng.uniform(8, 18)
        ps_theta = rng.uniform(0, 180)
        fh_a = rng.uniform(60, 110)
        fh_b = rng.uniform(50, 95)
        fh_theta = rng.uniform(0, 180)
        cx = rng.uniform(0.15, 0.45) * width
        cy = rng.uniform(0.3, 0.7) * height
        # head placed beyond the apex, roughly along the axis
        gap = rng.uniform(10, 60)
        bearing = math.radians(ps_theta + rng.uniform(-30, 30))
        t = math.radians(ps_theta)
        apex = np.array([cx + ps_a * math.cos(t), cy + ps_a * math.sin(t)])
        fh_c = apex + (fh_a + gap) * np.array([math.cos(bearing), math.sin(bearing)])
        try:
            ps_e = el.Ellipse(cx, cy, ps_a, ps_b, ps_theta % 180.0)
            fh_e = el.Ellipse(float(fh_c[0]), float(fh_c[1]), fh_a, fh_b, fh_theta % 180.0)
            if not _fits(ps_e, width, height) or not _fits(fh_e, width, height):
                continue
            scene = PhantomScene(ps_e, fh_e, width, height)
            aop, _ = analytic_biometry(scene)
        except (OverlapError, ValueError):
            continue
        if 95.0 <= aop <= 170.0:
            return scene
    raise RuntimeError(f"could not generate a feasible scene for seed {seed}")


def _fits(e: el.Ellipse, width: int, height: int) -> bool:
    """The ellipse's circumscribed circle lies at least 4 px inside the canvas."""
    return e.cx - e.a >= 4.0 and e.cx + e.a <= width - 4.0 and e.cy - e.a >= 4.0 and e.cy + e.a <= height - 4.0


def perturb(labels: np.ndarray, p: Perturbation) -> np.ndarray:
    """Carve holes, attach protrusions and jitter boundaries, deterministically."""
    labels = validate_label_mask(labels)
    out = labels.copy()
    rng = keyed_rng(p.seed, 0xAB)
    for cid in p.classes:
        struct = out == cid
        if not struct.any():
            continue
        for _ in range(p.holes):
            _carve_hole(out, cid, rng, p.hole_radius)
        for _ in range(p.protrusions):
            _attach_protrusion(out, cid, rng, p.protrusion_size)
        if p.boundary_noise > 0:
            _jitter_boundary(out, cid, rng, p.boundary_noise)
    return out


def _disk_offsets(r: float) -> np.ndarray:
    n = int(math.ceil(r))
    dy, dx = np.mgrid[-n : n + 1, -n : n + 1]
    keep = dx * dx + dy * dy <= r * r
    return np.column_stack([dx[keep], dy[keep]])


def _carve_hole(labels: np.ndarray, cid: int, rng, radius_range) -> None:
    h, w = labels.shape
    r = rng.uniform(*radius_range)
    # candidate centers where the hole stays strictly interior
    margin = int(math.ceil(r)) + 2
    probe = StructuringElement(
        2 * margin + 1,
        2 * margin + 1,
        tuple((dx, dy) for dy in (-margin, 0, margin) for dx in (-margin, 0, margin)),
    )
    ys, xs = np.nonzero(erode(labels == cid, probe))
    if xs.size == 0:
        raise InfeasiblePerturbationError(f"no room for a radius-{r:.1f} hole in class {cid}")
    i = int(rng.integers(0, xs.size))
    cx, cy = int(xs[i]), int(ys[i])
    for dx, dy in _disk_offsets(r):
        x, y = cx + dx, cy + dy
        if 0 <= x < w and 0 <= y < h and labels[y, x] == cid:
            labels[y, x] = 0


def _structure_boundary(labels: np.ndarray, cid: int) -> tuple[np.ndarray, np.ndarray]:
    """(ys, xs) of the class's boundary pixels; unlike ``raster.boundary_mask``,
    the image border alone does not make a pixel boundary."""
    m = np.pad(labels == cid, 1, mode="edge")
    return np.nonzero(boundary_mask(m)[1:-1, 1:-1])


def _attach_protrusion(labels: np.ndarray, cid: int, rng, size_range) -> None:
    h, w = labels.shape
    ys, xs = _structure_boundary(labels, cid)
    if xs.size == 0:
        raise InfeasiblePerturbationError(f"class {cid} has no boundary to attach to")
    i = int(rng.integers(0, xs.size))
    bx, by = float(xs[i]), float(ys[i])
    m = labels == cid
    cy_, cx_ = np.nonzero(m)
    cx0, cy0 = cx_.mean(), cy_.mean()
    norm = math.hypot(bx - cx0, by - cy0)
    if norm == 0:  # the boundary pixel is the centroid: no outward direction
        raise InfeasiblePerturbationError(f"class {cid} has no outward direction at ({bx:.0f}, {by:.0f})")
    nx, ny = (bx - cx0) / norm, (by - cy0) / norm
    length = rng.uniform(*size_range)
    half_width = max(3.0, 0.15 * length)
    # stadium-shaped spur along the outward normal, attached at the boundary
    x0, x1 = int(bx - length - half_width), int(bx + length + half_width) + 1
    y0, y1 = int(by - length - half_width), int(by + length + half_width) + 1
    for y in range(max(0, y0), min(h, y1)):
        for x in range(max(0, x0), min(w, x1)):
            if labels[y, x] != 0:
                continue
            t = ((x - bx) * nx + (y - by) * ny) / length
            t = min(max(t, 0.0), 1.0)
            px, py = bx + t * length * nx, by + t * length * ny
            if (x - px) ** 2 + (y - py) ** 2 <= half_width**2:
                labels[y, x] = cid


def _jitter_boundary(labels: np.ndarray, cid: int, rng, amplitude: float) -> None:
    h, w = labels.shape
    ys, xs = _structure_boundary(labels, cid)
    m = labels == cid
    cy_, cx_ = np.nonzero(m)
    cx0, cy0 = cx_.mean(), cy_.mean()
    shifts = rng.uniform(-amplitude, amplitude, size=xs.size)
    for (x, y, u) in zip(xs.tolist(), ys.tolist(), shifts.tolist()):
        norm = math.hypot(x - cx0, y - cy0)
        if norm == 0:
            continue
        nx, ny = (x - cx0) / norm, (y - cy0) / norm
        steps = min(int(round(abs(u))), h + w)  # a step past h + w lands outside the frame
        for s in range(1, steps + 1):
            px = int(round(x + math.copysign(s, u) * nx))
            py = int(round(y + math.copysign(s, u) * ny))
            if not (0 <= px < w and 0 <= py < h):
                continue
            if u > 0 and labels[py, px] == 0:
                labels[py, px] = cid
            elif u < 0 and labels[py, px] == cid:
                labels[py, px] = 0
