"""Batch command-line front end.

Subcommands: measure, ensemble, metrics, phantom, augment, sample.
Machine output goes to files; diagnostics to stderr.  Exit codes: 0 success,
2 partial failure, 64 usage error, 65 data-format error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

# dataprep, metrics and overlay are imported by the commands that use them,
# so that measuring and ensembling do not load them
from . import ensemble, io_formats, phantom
from .biometry import measure_frame, measure_frame_detailed
from .errors import FetalBiometryError, FormatError, MemberError

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _usage(message: str) -> int:
    """Print a usage error; returns its exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _require_dirs(*paths) -> None:
    """Raise what writing would for the first output in a missing directory, before any is written."""
    for p in filter(None, paths):
        if not Path(p).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), p)


def _one_file(a, b) -> bool:
    """Whether two output paths name one file; False when either is not given."""
    return a is not None and b is not None and Path(a).resolve() == Path(b).resolve()


def _read(read, path):
    """``read(path)``, naming the path in a FormatError."""
    try:
        return read(path)
    except FormatError as e:
        raise FormatError(f"{path}: {e}") from e


def _load_labels(path):
    if Path(path).suffix.lower() != ".fpm":
        return io_formats.read_label_mask(path)
    try:  # decided as an ensemble of one, as `ensemble` decides it
        return ensemble.combine([path], False)[1]
    except MemberError as e:  # the one member is the frame
        raise e.__cause__


def cmd_measure(args) -> int:
    """Measure the inputs one at a time; only each frame's report row is kept.
    --jobs is accepted and ignored."""
    inputs = [Path(p) for p in args.inputs]
    if not inputs:
        return _usage("no inputs given")
    out_dir = Path(args.emit_overlays) if args.emit_overlays else None
    if out_dir:
        from . import overlay
        first = {}  # stem -> the first input with it: each input's overlay is <stem>.ppm
        for path in inputs:
            if path.stem in first:
                return _usage(f"--emit-overlays: {first[path.stem]} and {path} share a stem")
            first[path.stem] = path
            if _one_file(args.out, out_dir / f"{path.stem}.ppm"):
                return _usage(f"--out names the overlay of {path}")
        out_dir.mkdir(parents=True, exist_ok=True)
    _require_dirs(args.out)  # after the mkdir, which may create it
    rows = []
    for path in inputs:
        try:
            labels = _load_labels(path)
            res, ps_ref, fh_ref = measure_frame_detailed(labels)
            rows.append((path.stem, res))
        except (FetalBiometryError, OSError, ValueError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            continue
        if out_dir:
            io_formats.write_ppm(overlay.render_overlay(labels, res, (ps_ref, fh_ref)), out_dir / f"{path.stem}.ppm")
    io_formats.write_report_csv(rows, args.out)
    return EXIT_PARTIAL if len(rows) < len(inputs) else EXIT_OK


def cmd_ensemble(args) -> int:
    """Average the members and decide the average (``ensemble.combine``).

    --out is the float32 average and --decide-out its argmax label mask; one
    file named by both exits 64 before any member is opened.  Each output is
    written once, after the last strip, so a failure writes nothing and an
    output may replace a member.  The error names the first failure in read
    order: the member or the average, and any pixel in the frame's
    coordinates.
    """
    if not (args.out or args.decide_out):
        return _usage("give --out or --decide-out")
    if _one_file(args.out, args.decide_out):
        return _usage(f"--out and --decide-out both name {args.out}")
    if not args.members:
        return _usage("no ensemble members given")
    try:
        avg, labels, near = ensemble.combine(args.members, bool(args.out))
        _require_dirs(args.out, args.decide_out)
        if args.out:  # checked before the file is opened, unless no strip came near the tolerance
            io_formats.write_prob_map(avg, args.out, check=near)
    except MemberError as e:
        raise FormatError(f"{args.members[e.index]}: {e.__cause__}")
    except ValueError as e:  # the average failed a check: a strip as decided, or its float32 cast
        raise FormatError(f"ensemble average: {e}")
    if args.decide_out:
        io_formats.write_label_mask(labels, args.decide_out)
    return EXIT_OK


def cmd_metrics(args) -> int:
    from . import metrics
    if len(args.pred or []) != len(args.gt or []):
        return _usage("--pred and --gt must pair up")
    if not (args.scores or args.pred):
        return _usage("nothing to evaluate: give --scores, or --pred with --gt")
    out = {k: None for k in ("acc", "f1", "auc", "mcc", "dsc", "asd", "hd", "d_aop", "d_hsd")}
    failed = False
    if args.scores:
        records = _read(io_formats.read_frame_scores, args.scores)
        labelled = [(r.score, r.label) for r in records if r.score is not None and r.label is not None]
        if not labelled:
            failed = True
            print(f"warning: classification left null: {args.scores} holds no labelled score", file=sys.stderr)
        else:
            scores, labels = zip(*labelled)
            acc, f1, auc, mcc = metrics.classification_metrics(scores, labels)
            out.update(acc=acc, f1=f1, auc=auc, mcc=mcc)
            if auc is None:
                failed = True
                print(f"warning: auc left null: {args.scores} labels hold only one class", file=sys.stderr)
    if args.pred:
        seg_scores = {"dsc": [], "asd": [], "hd": []}
        d_aops, d_hsds = [], []
        for pp, gp in zip(args.pred, args.gt):
            try:
                pred = _read(io_formats.read_label_mask, pp)
                gt = _read(io_formats.read_label_mask, gp)
                s = metrics.segmentation_scores(pred, gt)
            except (FetalBiometryError, OSError) as e:
                failed = True
                print(f"warning: pair skipped for {pp}: {e}", file=sys.stderr)
                continue
            for k in seg_scores:
                seg_scores[k].append(s["mean"][k])
            try:
                rp = measure_frame(pred)
                rg = measure_frame(gt)
                da, dh = metrics.biometry_delta(rp, rg)
                d_aops.append(da)
                d_hsds.append(dh)
            except FetalBiometryError as e:
                failed = True
                print(f"warning: biometry skipped for {pp}: {e}", file=sys.stderr)
        if seg_scores["dsc"]:
            out.update({k: float(np.mean(v)) for k, v in seg_scores.items()})
        if d_aops:
            out.update(d_aop=float(np.mean(d_aops)), d_hsd=float(np.mean(d_hsds)))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_PARTIAL if failed else EXIT_OK


# --perturb keys and the Perturbation fields they set, typed like their defaults
_PERTURB_KEYS = {"holes": "holes", "protrusions": "protrusions", "noise": "boundary_noise", "seed": "seed"}


def _perturbation(spec: str) -> dict:
    """--perturb "holes=2,noise=1.5" as Perturbation keyword arguments."""
    kwargs = {}
    try:
        for part in filter(None, spec.split(",")):
            key, _, val = part.partition("=")
            name = _PERTURB_KEYS[key.strip()]
            kwargs[name] = type(getattr(phantom.Perturbation, name))(val)
        phantom.Perturbation(**kwargs)
    except KeyError as e:
        raise argparse.ArgumentTypeError(f"unknown key {e}, expected {', '.join(_PERTURB_KEYS)}")
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{spec!r}: {e}")
    return kwargs


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


# every frame is held in memory until the last is made: 1,024 frames at 512^2
_MAX_PHANTOM_PIXELS = 2**28


def cmd_phantom(args) -> int:
    if args.count * args.size**2 > _MAX_PHANTOM_PIXELS:
        return _usage(f"--count x --size^2 exceeds {_MAX_PHANTOM_PIXELS} pixels")
    try:  # every scene is placed before any file is written
        scenes = [phantom.random_scene(seed, args.size, args.size) for seed in range(args.seed, args.seed + args.count)]
    except RuntimeError as e:
        return _usage(f"{e} at --size {args.size}")
    frames = []  # every frame too, so a perturbation that cannot be placed leaves no file
    for seed, scene in enumerate(scenes, start=args.seed):
        aop, hsd = phantom.analytic_biometry(scene)
        sidecar = {"seed": seed, "scene": scene.to_dict(), "aop_deg": aop, "hsd_px": hsd}
        labels = phantom.render(scene)
        perturbed = None
        if args.perturb:
            perturbed = phantom.perturb(labels, phantom.Perturbation(**{"seed": seed, **args.perturb}))
        frames.append((sidecar, labels, perturbed))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for sidecar, labels, perturbed in frames:
        stem = out_dir / f"phantom_{sidecar['seed']:04d}"
        io_formats.write_label_mask(labels, f"{stem}.pgm")
        with open(f"{stem}.json", "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
            f.write("\n")
        if perturbed is not None:
            io_formats.write_label_mask(perturbed, f"{stem}_perturbed.pgm")
    return EXIT_OK


def cmd_augment(args) -> int:
    """Augment the image into --out, and the --mask into --mask-out (default
    ``<out>.mask.pgm``); --mask-out without --mask or naming the --out file,
    and an --index outside [-2**60, 2**60), exit 64 before any read."""
    from . import dataprep
    if args.mask_out and not args.mask:
        return _usage("--mask-out needs --mask")
    if _one_file(args.out, args.mask_out):
        return _usage(f"--out and --mask-out both name {args.out}")
    if not -(2**60) <= args.index < 2**60:
        return _usage(f"--index must lie in [-2**60, 2**60), got {args.index}")
    img = dataprep.normalize_intensity(_read(io_formats.read_greymap, args.image))
    mask = _read(io_formats.read_label_mask, args.mask) if args.mask else None
    out_img, out_mask = dataprep.augment(img, mask, dataprep.AugmentParams(seed=args.seed), args.index)
    mask_out = args.mask_out or f"{args.out}.mask.pgm"
    _require_dirs(args.out, mask_out if out_mask is not None else None)
    io_formats.write_greymap(np.clip(np.rint(out_img * 255), 0, 255).astype(np.uint8), args.out)
    if out_mask is not None:
        io_formats.write_label_mask(out_mask, mask_out)
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import dataprep
    videos = []
    listed = {}  # video id -> the line that lists it
    with open(args.videos, "rb") as f:  # split as text mode splits lines, then decoded line by line
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            parts = line.decode().strip().split(",")  # a line that is not UTF-8 is a bad line too
            if parts == [""]:
                continue
            # a length must fit the int64 frame indices the sampler draws
            if len(parts) != 3 or not 0 <= int(parts[1]) < 2**63:
                raise ValueError
            vid, length, label = parts[0], int(parts[1]), int(parts[2])
        except ValueError:
            problem = "expected video_id,length>=0,label"
        else:
            if label not in (0, 1):
                problem = f"label must be 0 or 1, got {label}"
            elif vid in listed:  # the sampler would keep only the later line's frames
                problem = f"video id {vid!r} is listed on line {listed[vid]} already"
            else:
                listed[vid] = lineno
                videos.append((vid, length, label))
                continue
        print(f"error: {args.videos}:{lineno}: {problem}", file=sys.stderr)
        return EXIT_DATA
    plan = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for vid, length, label in videos:  # one video per call, so that its warning can name its line
            plan.update(dataprep.sparse_sample([(vid, length, label)], args.seed).frames)
            for w in caught:
                print(f"warning: {args.videos}:{listed[vid]}: {w.message}", file=sys.stderr)
            caught.clear()
    with open(args.out, "w") as f:
        for vid, frames in plan.items():
            for idx in frames:
                f.write(f"{vid},{idx}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and reused: parse_args starts
    each call from a fresh namespace, so no value carries over."""
    parser = _Parser(prog="fetalbiometry")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure AoP/HSD over mask or probability-map files")
    m.add_argument("inputs", nargs="*")
    m.add_argument("--out", required=True)
    m.add_argument("--jobs", type=int, default=1, help="ignored: frames are measured one at a time")
    m.add_argument("--emit-overlays", metavar="DIR")
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("ensemble", help="average probability-map members and decide the average")
    e.add_argument("members", nargs="*")
    e.add_argument("--out")
    e.add_argument("--decide-out")
    e.set_defaults(func=cmd_ensemble)

    t = sub.add_parser("metrics", help="evaluate predictions against ground truth")
    t.add_argument("--pred", nargs="*")
    t.add_argument("--gt", nargs="*")
    t.add_argument("--scores", help="CSV of video_id,frame_index,score,label")
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_metrics)

    p = sub.add_parser("phantom", help="generate synthetic scenes with analytic biometry")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_positive_int, default=1)
    p.add_argument("--size", type=_positive_int, default=512)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--perturb", type=_perturbation, help="e.g. holes=2,protrusions=1,noise=1.5,seed=7")
    p.set_defaults(func=cmd_phantom)

    a = sub.add_parser("augment", help="apply the stochastic augmentation pipeline")
    a.add_argument("--image", required=True)
    a.add_argument("--mask")
    a.add_argument("--mask-out")
    a.add_argument("--seed", type=int, default=0, help="keys the transforms' random draws (default 0)")
    a.add_argument("--index", type=int, default=0)
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_augment)

    s = sub.add_parser("sample", help="sparse-sample frames from video listings")
    s.add_argument("--videos", required=True, help="CSV of video_id,length,label")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FetalBiometryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
