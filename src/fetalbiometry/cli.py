"""Batch command-line front end.

Subcommands: measure, ensemble, metrics, phantom, augment, sample.
Machine output goes to files; diagnostics to stderr.  Exit codes: 0 success,
2 partial failure, 64 usage error, 65 data-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import dataprep, ensemble, io_formats, metrics, overlay, phantom
from .biometry import measure_frame, measure_frame_detailed
from .errors import FetalBiometryError, FormatError
from .refine import RefineParams

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the config file's top-level keys, each the parameter object of the subcommands that read it
_CONFIG_KEYS = ("refine", "augment")


def _params(cls, key, args):
    """The ``cls`` parameters: the --config file's ``key`` object, then the
    flags given for its fields on top of it.

    A config that cannot be read, holds a top-level key other than
    ``_CONFIG_KEYS`` or a bad ``key`` object raises FormatError (exit 65); a
    flag value the class rejects exits 64.
    """
    config = {}
    if args.config is not None:
        try:
            with open(args.config, "rb") as f:
                config = json.load(f)
        except (OSError, ValueError) as e:  # ValueError: bad JSON or text encoding
            raise FormatError(f"cannot read config {args.config}: {e}")
        if not isinstance(config, dict):
            raise FormatError(f"config {args.config} must hold a JSON object, got {type(config).__name__}")
        unknown = ", ".join(k for k in config if k not in _CONFIG_KEYS)
        if unknown:
            raise FormatError(f"unknown config key(s) in {args.config}: {unknown}; expected {', '.join(_CONFIG_KEYS)}")
    params = io_formats.dataclass_from_json(cls, config.get(key, {}))
    flags = {f.name: v for f in dataclasses.fields(params) if (v := getattr(args, f.name, None)) is not None}
    try:
        return dataclasses.replace(params, **flags)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _require_dirs(*paths) -> None:
    """Raise what writing would for the first output in a missing directory, before any is written."""
    for p in filter(None, paths):
        if not Path(p).parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), p)


def _load_labels(path):
    p = str(path)
    if not p.endswith(".fpm"):
        return io_formats.read_label_mask(p)
    # decide checks each strip of the map, and measuring checks the labels
    try:
        with io_formats.prob_map_strips([p]) as (shape, strips):
            labels = np.empty(shape[:2], np.uint8)
            for rows, (strip,) in strips:
                labels[rows] = ensemble.decide(strip)
    except ValueError:
        io_formats.read_prob_map(p)  # raises the frame-level error
        raise
    return labels


def cmd_measure(args) -> int:
    """Measure the inputs one at a time; only each frame's report row is kept.
    --jobs is accepted and ignored."""
    params = _params(RefineParams, "refine", args)
    inputs = [Path(p) for p in args.inputs]
    if not inputs:
        print("error: no inputs given", file=sys.stderr)
        return EXIT_USAGE
    out_dir = Path(args.emit_overlays) if args.emit_overlays else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    _require_dirs(args.out)  # after the mkdir, which may create it
    rows = []
    for path in inputs:
        try:
            labels = _load_labels(path)
            res, ps_ref, fh_ref = measure_frame_detailed(labels, params)
            rows.append((path.stem, res))
        except (FetalBiometryError, OSError, ValueError) as e:
            print(f"error: {path}: {e}", file=sys.stderr)
            continue
        if out_dir:
            io_formats.write_ppm(overlay.render_overlay(labels, res, (ps_ref, fh_ref)), out_dir / f"{path.stem}.ppm")
    io_formats.write_report_csv(rows, args.out)
    return EXIT_PARTIAL if len(rows) < len(inputs) else EXIT_OK


def cmd_ensemble(args) -> int:
    """Average or vote the members, a strip of rows at a time.

    ``ensemble.average`` or ``ensemble.vote`` checks each member strip as it
    is combined, and ``ensemble.decide`` checks each strip of the average: a
    mean of maps that pass can miss the sum tolerance by a rounding step.
    The average is cast into one float32 map, which ``write_prob_map`` checks
    again (the cast rounds too), and decided into one label mask.  Each
    output is written once, after the last strip, so a failure writes
    nothing and an output that names a member is read in full before it is
    overwritten.  On a failure the members are read again whole, only to
    report the error as the frame-level path does.
    """
    if not (args.out or args.decide_out):
        print("error: give --out or --decide-out", file=sys.stderr)
        return EXIT_USAGE
    if not args.members:
        print("error: no ensemble members given", file=sys.stderr)
        return EXIT_USAGE
    try:
        avg, labels = _ensemble_strips(args.members, args.vote, bool(args.out))
    except (FetalBiometryError, OSError, ValueError) as e:  # a plain ValueError is a failed check
        _raise_frame_level_error(args.members, args.vote)
        raise e if isinstance(e, (FetalBiometryError, OSError)) else FormatError(str(e))
    if args.vote:
        io_formats.write_label_mask(labels, args.decide_out or args.out)
        return EXIT_OK
    _require_dirs(args.out, args.decide_out)
    if args.out:
        try:
            io_formats.write_prob_map(avg, args.out)
        except ValueError as e:  # checked before the file is opened
            raise FormatError(f"ensemble average: {e}")
    if args.decide_out:
        io_formats.write_label_mask(labels, args.decide_out)
    return EXIT_OK


def _ensemble_strips(paths, use_vote: bool, want_avg: bool):
    """(float32 average or None, label mask) of the members: the vote, or the
    average if asked for and its decision."""
    with io_formats.prob_map_strips(paths) as (shape, strips):
        avg = np.empty(shape, "<f4") if want_avg and not use_vote else None
        labels = np.empty(shape[:2], np.uint8)
        for rows, members in strips:
            if use_vote:
                labels[rows] = ensemble.vote(members)
                continue
            mean = ensemble.average(members)
            labels[rows] = ensemble.decide(mean)  # the average's one check, even when only --out is asked
            if avg is not None:
                avg[rows] = mean
    return avg, labels


def _raise_frame_level_error(paths, use_vote: bool) -> None:
    """Read the members whole, in order, and combine them as the request
    does, to raise the first failure as the frame-level path names it: the
    member, or the average's worst pixel over the whole frame.  Returns if
    nothing fails."""
    members = []
    for p in paths:
        try:
            members.append(io_formats.read_prob_map(p))
        except FormatError as e:
            raise FormatError(f"{p}: {e}")
    combined = (ensemble.vote if use_vote else ensemble.average)(members)
    if not use_vote:
        try:
            ensemble.decide(combined)
        except ValueError as e:
            raise FormatError(f"ensemble average: {e}")


def cmd_metrics(args) -> int:
    if len(args.pred or []) != len(args.gt or []):
        print("error: --pred and --gt must pair up", file=sys.stderr)
        return EXIT_USAGE
    if not (args.scores or args.pred):
        print("error: nothing to evaluate: give --scores, or --pred with --gt", file=sys.stderr)
        return EXIT_USAGE
    params = _params(RefineParams, "refine", args)
    out = {k: None for k in ("acc", "f1", "auc", "mcc", "dsc", "asd", "hd", "d_aop", "d_hsd")}
    failed = False
    if args.scores:
        records = io_formats.read_frame_scores(args.scores)
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
                pred = io_formats.read_label_mask(pp)
                gt = io_formats.read_label_mask(gp)
                s = metrics.segmentation_scores(pred, gt)
            except (FetalBiometryError, OSError) as e:
                failed = True
                print(f"warning: pair skipped for {pp}: {e}", file=sys.stderr)
                continue
            for k in seg_scores:
                seg_scores[k].append(s["mean"][k])
            try:
                rp = measure_frame(pred, params)
                rg = measure_frame(gt, params)
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


def cmd_phantom(args) -> int:
    try:  # every scene is placed before any file is written
        scenes = [phantom.random_scene(seed, args.size, args.size) for seed in range(args.seed, args.seed + args.count)]
    except RuntimeError as e:
        print(f"error: {e} at --size {args.size}", file=sys.stderr)
        return EXIT_USAGE
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
    p = _params(dataprep.AugmentParams, "augment", args)
    img = dataprep.normalize_intensity(io_formats.read_greymap(args.image))
    mask = io_formats.read_label_mask(args.mask) if args.mask else None
    out_img, out_mask = dataprep.augment(img, mask, p, args.index)
    mask_out = args.mask_out or f"{args.out}.mask.pgm"
    _require_dirs(args.out, mask_out if out_mask is not None else None)
    io_formats.write_greymap(np.clip(np.rint(out_img * 255), 0, 255).astype(np.uint8), args.out)
    if out_mask is not None:
        io_formats.write_label_mask(out_mask, mask_out)
    return EXIT_OK


def cmd_sample(args) -> int:
    videos = []
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
            videos.append((parts[0], int(parts[1]), int(parts[2])))
        except ValueError:
            print(f"error: {args.videos}:{lineno}: expected video_id,length>=0,label", file=sys.stderr)
            return EXIT_DATA
    plan = dataprep.sparse_sample(videos, args.npos, args.nneg, args.seed)
    with open(args.out, "w") as f:
        for vid, frames in plan.frames.items():
            for idx in frames:
                f.write(f"{vid},{idx}\n")
    return EXIT_OK


def _add_refine_flags(parser) -> None:
    """One optional flag per RefineParams field, typed like its default."""
    for f in dataclasses.fields(RefineParams):
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=type(f.default))


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and reused: parse_args starts
    each call from a fresh namespace, so no value carries over."""
    parser = _Parser(prog="fetalbiometry")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure AoP/HSD over mask or probability-map files")
    m.add_argument("inputs", nargs="*")
    m.add_argument("--config")
    m.add_argument("--out", required=True)
    m.add_argument("--jobs", type=int, default=1, help="ignored: frames are measured one at a time")
    m.add_argument("--emit-overlays", metavar="DIR")
    _add_refine_flags(m)
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("ensemble", help="average (or vote) probability-map members")
    e.add_argument("members", nargs="*")
    e.add_argument("--out")
    e.add_argument("--decide-out")
    e.add_argument("--vote", action="store_true")
    e.set_defaults(func=cmd_ensemble)

    t = sub.add_parser("metrics", help="evaluate predictions against ground truth")
    t.add_argument("--pred", nargs="*")
    t.add_argument("--gt", nargs="*")
    t.add_argument("--scores", help="CSV of video_id,frame_index,score,label")
    t.add_argument("--config")
    t.add_argument("--out", required=True)
    _add_refine_flags(t)
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
    a.add_argument("--seed", type=int, help="overrides the config's augment.seed (default 0)")
    a.add_argument("--index", type=int, default=0)
    a.add_argument("--config")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_augment)

    s = sub.add_parser("sample", help="sparse-sample frames from video listings")
    s.add_argument("--videos", required=True, help="CSV of video_id,length,label")
    s.add_argument("--npos", type=_positive_int, default=5)
    s.add_argument("--nneg", type=_positive_int, default=8)
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
