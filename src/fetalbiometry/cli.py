"""Batch command-line front end.

Subcommands: measure, ensemble, metrics, phantom, augment, sample.
Machine output goes to files; diagnostics to stderr.  Exit codes: 0 success,
2 partial failure, 64 usage error, 65 data-format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
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


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read config {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_DATA)


def _refine_params(config: dict, args) -> RefineParams:
    d = dict(config.get("refine", {}))
    for key in RefineParams.__dataclass_fields__:
        val = getattr(args, key, None)
        if val is not None:
            d[key] = val
    return RefineParams.from_dict(d)


def _load_labels(path):
    p = str(path)
    if p.endswith(".fpm"):
        prob = io_formats.read_prob_map(p)
        return ensemble.decide(prob)
    return io_formats.read_label_mask(p)


def cmd_measure(args) -> int:
    config = _load_config(args.config)
    params = _refine_params(config, args)
    inputs = [Path(p) for p in args.inputs]
    if not inputs:
        print("error: no inputs given", file=sys.stderr)
        return EXIT_USAGE

    def work(path):
        labels = _load_labels(path)
        return measure_frame_detailed(labels, params), labels

    failures = []
    results = [None] * len(inputs)
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as ex:
        futures = {i: ex.submit(work, p) for i, p in enumerate(inputs)}
        for i, fut in futures.items():
            try:
                results[i] = fut.result()
            except (FetalBiometryError, OSError, ValueError) as e:
                failures.append((inputs[i], e))
                print(f"error: {inputs[i]}: {e}", file=sys.stderr)

    rows = []
    for i, item in enumerate(results):
        if item is None:
            continue
        (res, ps_ref, fh_ref), labels = item
        rows.append(
            io_formats.MeasurementReport(
                frame=inputs[i].stem,
                aop_deg=res.aop_deg,
                hsd_px=res.hsd_px,
                used_ellipse_ps=res.used_ellipse_ps,
                used_ellipse_fh=res.used_ellipse_fh,
                prune_iters_ps=res.prune_iters_ps,
                prune_iters_fh=res.prune_iters_fh,
            )
        )
        if args.emit_overlays:
            out_dir = Path(args.emit_overlays)
            out_dir.mkdir(parents=True, exist_ok=True)
            img = overlay.render_overlay(labels, res, (ps_ref, fh_ref))
            overlay.write_ppm(img, out_dir / f"{inputs[i].stem}.ppm")
    io_formats.write_report_csv(rows, args.out)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_ensemble(args) -> int:
    config = _load_config(args.config)
    members_paths = list(args.members) or config.get("ensemble_members", [])
    if not members_paths:
        print("error: no ensemble members given", file=sys.stderr)
        return EXIT_USAGE
    members = []
    for p in members_paths:
        try:
            members.append(io_formats.read_prob_map(p))
        except FormatError as e:
            print(f"error: {p}: {e}", file=sys.stderr)
            return EXIT_DATA
    try:
        if args.vote:
            mask = ensemble.vote(members)
            io_formats.write_label_mask(mask, args.decide_out or args.out)
        else:
            avg = ensemble.average(members)
            if args.out:
                io_formats.write_prob_map(avg, args.out)
            if args.decide_out:
                io_formats.write_label_mask(ensemble.decide(avg), args.decide_out)
    except FetalBiometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def cmd_metrics(args) -> int:
    config = _load_config(args.config)
    params = _refine_params(config, args)
    out = {k: None for k in ("acc", "f1", "auc", "mcc", "dsc", "asd", "hd", "d_aop", "d_hsd")}
    if args.scores:
        records = io_formats.read_frame_scores(args.scores)
        labelled = [(r.score, r.label) for r in records if r.score is not None and r.label is not None]
        if labelled:
            scores, labels = zip(*labelled)
            acc, f1, auc, mcc = metrics.classification_metrics(scores, labels)
            out.update(acc=acc, f1=f1, auc=auc, mcc=mcc)
    if args.pred:
        if len(args.pred) != len(args.gt or []):
            print("error: --pred and --gt must pair up", file=sys.stderr)
            return EXIT_USAGE
        seg_scores = {"dsc": [], "asd": [], "hd": []}
        d_aops, d_hsds = [], []
        for pp, gp in zip(args.pred, args.gt):
            pred = io_formats.read_label_mask(pp)
            gt = io_formats.read_label_mask(gp)
            s = metrics.segmentation_scores(pred, gt)
            for k in seg_scores:
                seg_scores[k].append(s["mean"][k])
            try:
                rp = measure_frame(pred, params)
                rg = measure_frame(gt, params)
                da, dh = metrics.biometry_delta(rp, rg)
                d_aops.append(da)
                d_hsds.append(dh)
            except FetalBiometryError as e:
                print(f"warning: biometry skipped for {pp}: {e}", file=sys.stderr)
        out.update(
            dsc=float(np.mean(seg_scores["dsc"])),
            asd=float(np.mean(seg_scores["asd"])),
            hd=float(np.mean(seg_scores["hd"])),
        )
        if d_aops:
            out.update(d_aop=float(np.mean(d_aops)), d_hsd=float(np.mean(d_hsds)))
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")
    return EXIT_OK


def _parse_perturb(spec: str) -> dict:
    out = {}
    for part in spec.split(","):
        if not part:
            continue
        key, _, val = part.partition("=")
        out[key.strip()] = float(val)
    return out


def cmd_phantom(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seeds = range(args.seed, args.seed + args.count)
    for seed in seeds:
        scene = phantom.random_scene(seed, args.size, args.size)
        aop, hsd = phantom.analytic_biometry(scene)
        labels = phantom.render(scene)
        stem = out_dir / f"phantom_{seed:04d}"
        io_formats.write_label_mask(labels, f"{stem}.pgm")
        sidecar = {"seed": seed, "scene": scene.to_dict(), "aop_deg": aop, "hsd_px": hsd}
        with open(f"{stem}.json", "w") as f:
            json.dump(sidecar, f, indent=2, sort_keys=True)
            f.write("\n")
        if args.perturb:
            opts = _parse_perturb(args.perturb)
            p = phantom.Perturbation(
                holes=int(opts.get("holes", 0)),
                protrusions=int(opts.get("protrusions", 0)),
                boundary_noise=opts.get("noise", 0.0),
                seed=int(opts.get("seed", seed)),
            )
            io_formats.write_label_mask(phantom.perturb(labels, p), f"{stem}_perturbed.pgm")
    return EXIT_OK


def cmd_augment(args) -> int:
    config = _load_config(args.config)
    p = dataprep.AugmentParams.from_dict({**config.get("augment", {}), "seed": args.seed})
    img = dataprep.normalize_intensity(io_formats.read_greymap(args.image))
    mask = io_formats.read_label_mask(args.mask) if args.mask else None
    out_img, out_mask = dataprep.augment(img, mask, p, args.index)
    io_formats.write_greymap(np.clip(np.rint(out_img * 255), 0, 255).astype(np.uint8), args.out)
    if out_mask is not None:
        io_formats.write_label_mask(out_mask, args.mask_out or f"{args.out}.mask.pgm")
    return EXIT_OK


def cmd_sample(args) -> int:
    videos = []
    with open(args.videos) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                print(f"error: {args.videos}:{lineno}: expected video_id,length,label", file=sys.stderr)
                return EXIT_DATA
            videos.append((parts[0], int(parts[1]), int(parts[2])))
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


def build_parser() -> _Parser:
    parser = _Parser(prog="fetalbiometry")
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure AoP/HSD over mask or probability-map files")
    m.add_argument("inputs", nargs="*")
    m.add_argument("--config")
    m.add_argument("--out", required=True)
    m.add_argument("--jobs", type=int, default=1)
    m.add_argument("--emit-overlays", metavar="DIR")
    _add_refine_flags(m)
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("ensemble", help="average (or vote) probability-map members")
    e.add_argument("members", nargs="*")
    e.add_argument("--config")
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
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--size", type=int, default=512)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--perturb", help="e.g. holes=2,protrusions=1,noise=1.5")
    p.set_defaults(func=cmd_phantom)

    a = sub.add_parser("augment", help="apply the stochastic augmentation pipeline")
    a.add_argument("--image", required=True)
    a.add_argument("--mask")
    a.add_argument("--mask-out")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--index", type=int, default=0)
    a.add_argument("--config")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_augment)

    s = sub.add_parser("sample", help="sparse-sample frames from video listings")
    s.add_argument("--videos", required=True, help="CSV of video_id,length,label")
    s.add_argument("--npos", type=int, default=5)
    s.add_argument("--nneg", type=int, default=8)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except FetalBiometryError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
