"""In-memory span tracer for the measure path, installed from outside ``src/``.

``installed(tracer)`` replaces public functions of the measure-path modules by
wrappers that record a span (name, start, end, parent, frame id) and a few
counts, and restores the originals on exit.  Each name is patched where it is
looked up at call time: ``from x import y`` copies (``biometry.refine``,
``cli.measure_frame_detailed``) are patched in the importing module.  The
module ``fetalbiometry.refine`` is taken from ``sys.modules`` because the
package attribute of that name is the function.

``cli.cmd_measure`` runs frames on a thread pool even at ``--jobs 1``, so the
span stack is thread-local; a span opened with an empty stack is a child of
the request span the client has open.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# failure classes reported one by one; any other FetalBiometryError is "other"
FAIL_CLASSES = (
    "DegenerateInputError",
    "DimensionMismatchError",
    "EmptyShapeError",
    "FormatError",
    "InvalidClassError",
    "MissingStructureError",
    "NoEdgesError",
    "NoTangentError",
    "OverlapError",
)


def fail_key(error_class: str) -> str:
    return f"biometry.fail.{error_class if error_class in FAIL_CLASSES else 'other'}"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    frame: int | None
    start: float
    end: float
    done: float  # end plus the time spent taking counts, charged to the parent as tracing cost
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.frame: int | None = None
        self._request: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args=(), kwargs=None, count=None, request=False):
        """Run fn(*args, **kwargs) inside a span; a request span parents other threads' spans."""
        kwargs = kwargs or {}
        stack = self._stack()
        parent = stack[-1] if stack else self._request
        sid = next(self._ids)
        stack.append(sid)
        if request:
            self._request = sid
        error = result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            if request:
                self._request = None
            counts = count(args, kwargs, result) if count is not None and error is None else {}
            self.spans.append(Span(sid, parent, name, self.frame, start, end, time.perf_counter(), error, counts))


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _file_bytes(i, name):
    return lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, i, name))}


def _targets():
    """(module, attribute, span name, count function) for every wrapped function."""
    mods = sys.modules
    cli = mods["fetalbiometry.cli"]
    biometry = mods["fetalbiometry.biometry"]
    refine = mods["fetalbiometry.refine"]
    edges = mods["fetalbiometry.edges"]
    ellipse = mods["fetalbiometry.ellipse"]
    morphology = mods["fetalbiometry.morphology"]
    io_formats = mods["fetalbiometry.io_formats"]
    ensemble = mods["fetalbiometry.ensemble"]
    return [
        (cli, "measure_frame_detailed", "biometry.measure_frame_detailed", None),
        (biometry, "compute_aop", "biometry.compute_aop", None),
        (biometry, "compute_hsd", "biometry.compute_hsd", None),
        (biometry, "refine", "refine.refine", lambda a, k, r: {"used_ellipse": int(r.used_ellipse)}),
        (refine, "prune", "refine.prune", None),
        (refine, "protrusion_ratio", "refine.protrusion_ratio", None),
        (morphology, "largest_component", "morphology.largest_component", None),
        (morphology, "close", "morphology.close", lambda a, k, r: {"px": int(_arg(a, k, 0, "m").size)}),
        (edges, "canny", "edges.canny", lambda a, k, r: {"px": int(_arg(a, k, 0, "m").size)}),
        (
            edges,
            "extract_chains",
            "edges.extract_chains",
            lambda a, k, r: {"edge_px": int(np.count_nonzero(_arg(a, k, 0, "edges")))},
        ),
        (edges, "longest_chain", "edges.longest_chain", None),
        (ellipse, "fit_ams", "ellipse.fit_ams", lambda a, k, r: {"points": len(_arg(a, k, 0, "points"))}),
        (
            ellipse,
            "rasterize",
            "ellipse.rasterize",
            lambda a, k, r: {"px": int(_arg(a, k, 1, "width")) * int(_arg(a, k, 2, "height"))},
        ),
        (io_formats, "read_label_mask", "io_formats.read_label_mask", _file_bytes(0, "path")),
        (io_formats, "read_prob_map", "io_formats.read_prob_map", _file_bytes(0, "path")),
        (io_formats, "write_label_mask", "io_formats.write_label_mask", _file_bytes(1, "path")),
        (io_formats, "write_prob_map", "io_formats.write_prob_map", _file_bytes(1, "path")),
        (io_formats, "write_report_csv", "io_formats.write_report_csv", _file_bytes(1, "path")),
        (ensemble, "average", "ensemble.average", None),
        (ensemble, "decide", "ensemble.decide", None),
    ]


def _wrap(tracer, name, fn, count):
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the tracer; restore the originals on exit."""
    saved = []
    try:
        for module, attr, name, count in _targets():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            setattr(module, attr, _wrap(tracer, name, fn, count))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _covered(intervals) -> float:
    total, reach = 0.0, -float("inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover (seconds)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start, s.start), min(c.done, s.end)) for c in children[s.id]]
        out[s.id] = (s.end - s.start) - _covered([iv for iv in clipped if iv[1] > iv[0]])
    return out


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total self time (ms), summed counts and error classes."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "self_ms": 0.0, "counts": defaultdict(int), "errors": defaultdict(int)})
        row["calls"] += 1
        row["self_ms"] += selfs[s.id] * 1e3
        for k, v in s.counts.items():
            row["counts"][k] += v
        if s.error is not None:
            row["errors"][s.error] += 1
    return table


def frame_self_ms(spans: list[Span]) -> dict[int, float]:
    """Frame id -> sum of the self times of its spans (ms)."""
    selfs = self_times(spans)
    out: dict[int, float] = defaultdict(float)
    for s in spans:
        out[s.frame] += selfs[s.id] * 1e3
    return out


def dump(spans: list[Span], path) -> None:
    with open(path, "w") as f:
        for s in spans:
            f.write(json.dumps(s.__dict__, sort_keys=True) + "\n")
