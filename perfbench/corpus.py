"""Seeded phantom corpora for the benchmark workloads.

Every input is rendered from the benchmark seed with ``phantom.random_scene``,
``phantom.render`` and ``phantom.perturb``, so ``phantom.analytic_biometry``
gives the exact AoP/HSD each frame should measure.  Files are written with
the benchmark's own writers, so a change to the program's writers cannot
change the inputs.  The same seed gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

from fetalbiometry import phantom

SIZE = 512

# Ensemble members: one-hot labels smoothed by a Gaussian, plus seeded noise,
# clipped and renormalised.  The noise flips argmax near the boundaries, so
# the decided masks carry speckle that component filtering must remove.
MEMBERS = 3
MEMBER_SIGMA_PX = 2.0
MEMBER_NOISE = 0.3


@dataclass(frozen=True)
class Workload:
    frames: int  # corpus size: fixed, so the report CSV hash is comparable across commits
    nominal_frame_ms: float  # mean request latency at the first baseline


# One pass over the corpus is the unit of work.  A run makes as many passes as
# fill --seconds at the nominal latency, at least one, so the work done does
# not depend on timing and the tail percentile keeps its label across commits.
# Corpus sizes are capped by the time one run may take: a protrusion frame
# costs 2 to 32 boundary fits (about 40% of scenes hit the prune cap), so it
# is five times dearer than a clean one.
WORKLOADS = {
    "clean": Workload(frames=32, nominal_frame_ms=140.0),
    "protrusion": Workload(frames=48, nominal_frame_ms=730.0),
    "ensemble": Workload(frames=20, nominal_frame_ms=280.0),
}


@dataclass(frozen=True)
class Frame:
    name: str
    aop_deg: float  # analytic ground truth
    hsd_px: float
    requests: tuple[tuple[str, ...], ...]  # cli.main argv lists making up one request
    measured: str  # the label mask the request measures; the batch input
    report: str  # the per-frame report CSV


def passes(workload: str, seconds: float, traced: bool = False) -> int:
    """Passes that fill `seconds`; a traced run sends each request twice, so half as many."""
    w = WORKLOADS[workload]
    n = max(1, round(seconds * 1000.0 / (w.frames * w.nominal_frame_ms)))
    return max(1, n // 2) if traced else n


def scene_seeds(seed: int, n: int) -> list[int]:
    rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0xBE]))
    return [int(s) for s in rng.integers(0, 2**62, size=n)]


def write_pgm(labels: np.ndarray, path: Path) -> None:
    palette = np.array([0, 127, 255], dtype=np.uint8)
    h, w = labels.shape
    path.write_bytes(b"P5\n%d %d\n255\n" % (w, h) + palette[labels].tobytes())


def write_fpm(p: np.ndarray, path: Path) -> None:
    h, w, c = p.shape
    path.write_bytes(b"FPM %d %d %d\n" % (w, h, c) + p.astype("<f4").tobytes())


def ensemble_members(labels: np.ndarray, seed: int) -> list[np.ndarray]:
    onehot = np.stack([labels == c for c in range(3)], axis=-1).astype(np.float64)
    smooth = ndimage.gaussian_filter(onehot, sigma=(MEMBER_SIGMA_PX, MEMBER_SIGMA_PX, 0))
    rng = np.random.Generator(np.random.Philox(key=[seed & 0xFFFFFFFFFFFFFFFF, 0xE5]))
    out = []
    for _ in range(MEMBERS):
        p = np.clip(smooth + rng.normal(0.0, MEMBER_NOISE, smooth.shape), 1e-6, None)
        p /= p.sum(axis=2, keepdims=True)
        out.append(p.astype(np.float32))
    return out


def build(workload: str, seed: int, root: Path, frames: int | None = None) -> list[Frame]:
    """Write the workload's inputs under root/inputs and return its frames."""
    n = WORKLOADS[workload].frames if frames is None else frames
    inputs, outputs = root / "inputs", root / "outputs"
    inputs.mkdir(parents=True)
    outputs.mkdir(parents=True)
    corpus = []
    for i, s in enumerate(scene_seeds(seed, n)):
        name = f"f{i:04d}"
        scene = phantom.random_scene(s, SIZE, SIZE)
        aop, hsd = phantom.analytic_biometry(scene)
        labels = phantom.render(scene)
        report = str(outputs / f"{name}.csv")
        if workload == "ensemble":
            members = []
            for m, p in enumerate(ensemble_members(labels, s)):
                path = inputs / f"{name}_m{m}.fpm"
                write_fpm(p, path)
                members.append(str(path))
            measured = str(outputs / f"{name}.pgm")
            avg = str(outputs / f"{name}.fpm")
            requests = (
                ("ensemble", *members, "--out", avg, "--decide-out", measured),
                ("measure", measured, "--out", report),
            )
        else:
            if workload == "protrusion":
                labels = phantom.perturb(labels, phantom.Perturbation(protrusions=1, seed=s))
            measured = str(inputs / f"{name}.pgm")
            write_pgm(labels, Path(measured))
            requests = (("measure", measured, "--out", report),)
        corpus.append(Frame(name, aop, hsd, requests, measured, report))
    return corpus
