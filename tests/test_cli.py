import argparse
import contextlib
import csv
import dataclasses
import io
import json
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fetalbiometry import cli, io_formats, phantom
from fetalbiometry.biometry import measure_frame, measure_frame_detailed
from fetalbiometry.dataprep import AugmentParams, sparse_sample
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from fetalbiometry.io_formats import (
    read_label_mask,
    read_prob_map,
    write_greymap,
    write_label_mask,
    write_prob_map,
)
from fetalbiometry.raster import PROB_SUM_TOL


def make_scene_file(tmp_path, name="frame0.pgm", seed=1):
    scene = phantom.random_scene(seed, 256, 256)
    path = tmp_path / name
    write_label_mask(phantom.render(scene), path)
    return path


def make_protrusion_file(tmp_path):
    """A frame whose PS is pruned in two rounds, the second a no-op, and keeps its ellipse at a ratio of 0.005."""
    labels = phantom.render(phantom.random_scene(1, 256, 256))
    path = tmp_path / "frame0.pgm"
    write_label_mask(phantom.perturb(labels, phantom.Perturbation(holes=2, protrusions=1, seed=1)), path)
    return path


class TestMeasure:
    def test_basic(self, tmp_path):
        inp = make_scene_file(tmp_path)
        out = tmp_path / "report.csv"
        assert main(["measure", str(inp), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("frame,AoP_deg,HSD_px")
        assert lines[1].startswith("frame0,")

    def test_prob_map_input(self, tmp_path):
        labels = read_label_mask(make_scene_file(tmp_path))
        prob = np.zeros(labels.shape + (3,), np.float64)
        for c in range(3):
            prob[..., c] = np.where(labels == c, 0.9, 0.05)
        fpm = tmp_path / "frame0.fpm"
        write_prob_map(prob, fpm)
        out = tmp_path / "report.csv"
        assert main(["measure", str(fpm), "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 2

    def test_prob_map_suffix_in_any_case(self, tmp_path):
        labels = read_label_mask(make_scene_file(tmp_path))
        prob = np.stack([np.where(labels == c, 0.9, 0.05) for c in range(3)], axis=-1)
        reports = []
        for suffix in (".fpm", ".FPM", ".Fpm"):
            (tmp_path / suffix).mkdir()
            fpm, out = tmp_path / suffix / f"f{suffix}", tmp_path / suffix / "report.csv"
            write_prob_map(prob, fpm)
            assert main(["measure", str(fpm), "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0].count(b"\n") == 2 and reports[1] == reports[0] and reports[2] == reports[0]

    def test_partial_failure(self, tmp_path, capsys):
        good = make_scene_file(tmp_path)
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n255\n" + bytes([9, 0, 0, 0]))
        out = tmp_path / "report.csv"
        assert main(["measure", str(good), str(bad), "--out", str(out)]) == EXIT_PARTIAL
        assert len(out.read_text().splitlines()) == 2  # the good frame still lands
        assert "bad.pgm" in capsys.readouterr().err

    def test_jobs_output_identical(self, tmp_path):
        inputs = [str(make_scene_file(tmp_path, f"f{i}.pgm", seed=i + 1)) for i in range(4)]
        out1 = tmp_path / "r1.csv"
        out8 = tmp_path / "r8.csv"
        assert main(["measure", *inputs, "--jobs", "1", "--out", str(out1)]) == EXIT_OK
        assert main(["measure", *inputs, "--jobs", "8", "--out", str(out8)]) == EXIT_OK
        assert out1.read_bytes() == out8.read_bytes()

    def test_frames_measured_on_the_calling_thread_in_input_order(self, tmp_path, monkeypatch):
        inputs = [make_scene_file(tmp_path, f"f{i}.pgm", seed=i + 1) for i in range(3)]
        calls = []

        def spy(labels):
            calls.append((threading.get_ident(), labels))
            return measure_frame_detailed(labels)

        monkeypatch.setattr(cli, "measure_frame_detailed", spy)
        assert main(["measure", *map(str, inputs), "--jobs", "2", "--out", str(tmp_path / "r.csv")]) == EXIT_OK
        assert [ident for ident, _ in calls] == [threading.get_ident()] * 3
        for (_, labels), path in zip(calls, inputs):
            assert np.array_equal(labels, read_label_mask(path))

    def test_peak_memory_does_not_grow_with_the_batch(self, tmp_path):
        # only report rows outlive their frame, so 8 frames peak like 1
        inputs = [str(make_scene_file(tmp_path, f"f{i}.pgm", seed=i + 1)) for i in range(8)]
        out = str(tmp_path / "r.csv")
        assert main(["measure", inputs[0], "--out", out]) == EXIT_OK  # warm-up: one-time allocations

        def peak(paths):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                assert main(["measure", *paths, "--out", out]) == EXIT_OK
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        assert peak(inputs) < 2 * peak(inputs[:1])

    def test_emit_overlays_one_per_good_frame(self, tmp_path):
        good = [make_scene_file(tmp_path, f"good{i}.pgm", seed=i + 1) for i in range(2)]
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n2 2\n255\n" + bytes([9, 0, 0, 0]))
        overlays = tmp_path / "overlays"
        argv = ["measure", str(good[0]), str(bad), str(good[1]), "--emit-overlays", str(overlays)]
        assert main([*argv, "--out", str(tmp_path / "r.csv")]) == EXIT_PARTIAL
        assert sorted(p.name for p in overlays.iterdir()) == ["good0.ppm", "good1.ppm"]
        for path in good:
            h, w = read_label_mask(path).shape
            header = b"P6\n%d %d\n255\n" % (w, h)
            data = (overlays / f"{path.stem}.ppm").read_bytes()
            assert data.startswith(header) and len(data) == len(header) + 3 * w * h

    def test_emit_overlays_onto_a_file_fails_before_measuring(self, tmp_path, monkeypatch, capsys):
        inp = make_scene_file(tmp_path)
        not_a_dir = tmp_path / "overlays"
        not_a_dir.write_text("")
        calls = []
        monkeypatch.setattr(cli, "measure_frame_detailed", lambda *a: calls.append(a))
        out = tmp_path / "r.csv"
        assert main(["measure", str(inp), "--emit-overlays", str(not_a_dir), "--out", str(out)]) == EXIT_DATA
        assert calls == [] and not out.exists()
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err

    def test_no_inputs_usage(self, tmp_path):
        assert main(["measure", "--out", str(tmp_path / "r.csv")]) == EXIT_USAGE

    def test_emit_overlays_shared_stem_usage(self, tmp_path, monkeypatch, capsys):
        # f.pgm and f.fpm would both write f.ppm
        first, second = str(tmp_path / "f.pgm"), str(tmp_path / "f.fpm")
        monkeypatch.setattr(cli, "_load_labels", lambda path: pytest.fail(f"{path} was read"))
        ov, out = tmp_path / "ov", tmp_path / "r.csv"
        assert main(["measure", first, second, "--emit-overlays", str(ov), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --emit-overlays: {first} and {second} share a stem\n"
        assert not ov.exists() and not out.exists()

    def test_out_into_a_missing_directory_fails_before_measuring(self, tmp_path, monkeypatch, capsys):
        inp = make_scene_file(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "measure_frame_detailed", lambda *a: calls.append(a))
        out = tmp_path / "missing" / "r.csv"
        argv = ["measure", str(inp), "--emit-overlays", str(tmp_path / "ov"), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert calls == [] and list((tmp_path / "ov").iterdir()) == []

    def test_out_into_the_overlay_directory(self, tmp_path):
        # the overlay directory is made before the report's directory is checked
        inp, ov = make_scene_file(tmp_path), tmp_path / "ov"
        assert main(["measure", str(inp), "--emit-overlays", str(ov), "--out", str(ov / "r.csv")]) == EXIT_OK
        assert sorted(p.name for p in ov.iterdir()) == ["frame0.ppm", "r.csv"]

    @pytest.mark.parametrize("out", ["ov/frame0.ppm", "ov/../ov/frame0.ppm"], ids=["same", "dotted"])
    def test_out_naming_an_overlay_usage(self, tmp_path, monkeypatch, capsys, out):
        # the report would replace the frame's overlay
        inp, ov = make_scene_file(tmp_path), tmp_path / "ov"
        monkeypatch.setattr(cli, "_load_labels", lambda path: pytest.fail(f"{path} was read"))
        assert main(["measure", str(inp), "--emit-overlays", str(ov), "--out", str(tmp_path / out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out names the overlay of {inp}\n"
        assert not ov.exists()

    def test_removed_flag_usage(self, tmp_path, monkeypatch):
        # refinement runs at the paper's constants: its former flags, and the
        # --config that held them, are usage errors raised before any input is read
        inp = make_scene_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        calls = []
        monkeypatch.setattr(io_formats, "read_label_mask", lambda p: calls.append(p))
        out = tmp_path / "r.csv"
        for command in (["measure", str(inp)], ["metrics", "--pred", str(inp), "--gt", str(inp)]):
            for flag in (
                ["--canny-min", "2"],
                ["--max-prune", "2"],
                ["--kernel-w", "5"],
                ["--kernel-h", "5"],
                ["--prune-distance", "2.5"],
                ["--ellipse-accept-ratio", "0.1"],
                ["--config", str(cfg)],
            ):
                with pytest.raises(SystemExit) as exc:
                    main([*command, *flag, "--out", str(out)])
                assert exc.value.code == EXIT_USAGE, (command, flag)
        assert calls == [] and not out.exists()

    def test_augment_config_flag_usage(self, tmp_path, monkeypatch):
        # augmentation runs at fixed constants: no subcommand reads a config file
        src = tmp_path / "img.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"augment": {"seed": 3}}))
        calls = []
        monkeypatch.setattr(io_formats, "read_greymap", lambda p: calls.append(p))
        out = tmp_path / "a.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--image", str(src), "--config", str(cfg), "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert calls == [] and not out.exists() and not Path(f"{out}.mask.pgm").exists()

    def test_prune_loop_ends_at_its_fixed_point(self, tmp_path):
        # the PS's second round keeps every point, and the loop stops there
        inp = make_protrusion_file(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["measure", str(inp), "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert (fields["prune_iters_ps"], fields["used_ellipse_ps"]) == ("2", "1")
        r = measure_frame(read_label_mask(inp))
        assert (r.aop_deg, r.hsd_px) == (160.33358517730477, 39.11521443121589)  # analytic 160.155 deg, 37.567 px

    def test_flag_does_not_leak_into_the_next_call(self, tmp_path):
        # the parser is built once per process; each call must parse afresh
        inp = make_scene_file(tmp_path)
        ov = tmp_path / "ov"
        assert main(["measure", str(inp), "--emit-overlays", str(ov), "--out", str(tmp_path / "a.csv")]) == EXIT_OK
        (ov / "frame0.ppm").unlink()
        assert main(["measure", str(inp), "--out", str(tmp_path / "b.csv")]) == EXIT_OK
        assert not any(ov.iterdir())
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


# a measurable 64x64 frame
SMALL_SCENE = phantom.render(phantom.random_scene(0).scaled(0.125))


@st.composite
def measure_input(draw):
    """(suffix, bytes) of one small `measure` input, good or broken in one way."""
    tiny = arrays(np.uint8, st.sampled_from([(1, 1), (2, 2)]), elements=st.integers(0, 2))
    labels = draw(st.one_of(st.just(SMALL_SCENE), tiny)) if draw(st.booleans()) else SMALL_SCENE
    broken = draw(st.booleans())
    h, w = labels.shape
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y, x = rng.integers(h), rng.integers(w)
    if draw(st.booleans()):
        kind = draw(st.sampled_from(["magic", "field", "truncated", "palette"])) if broken else "valid"
        fields = [b"%d" % w, b"%d" % h, b"255"]
        if kind == "field":  # a sign, an underscore or a non-digit in one field
            fields[rng.integers(3)] = draw(st.sampled_from([b"+2", b"2_0", b"-1", b"2a", b"0x2"]))
        magic = draw(st.sampled_from([b"P2", b"P6", b"P50", b"p5"])) if kind == "magic" else b"P5"
        payload = np.array([0, 127, 255], np.uint8)[labels]
        if kind == "palette":
            payload[y, x] = draw(st.sampled_from([3, 126, 128, 254]))
        data = magic + b"\n" + b" ".join(fields) + b"\n" + payload.tobytes()
        if kind == "truncated":
            data = data[: len(data) - draw(st.integers(1, payload.size))]
        return ".pgm", data
    kind = draw(st.sampled_from(["nan", "range", "sum"])) if broken else "valid"
    p = np.full((h, w, 3), 0.05) + 0.85 * (labels[..., None] == np.arange(3))
    if kind == "nan":
        p[y, x, rng.integers(3)] = np.nan
    elif kind == "range":
        p[y, x] = draw(st.sampled_from([(1.5, -0.25, -0.25), (-0.1, 0.55, 0.55)]))
    elif kind == "sum":  # one pixel's sum at the tolerance edge or just beyond it
        p[y, x] *= 1.0 + draw(st.sampled_from([-1, 1])) * draw(st.sampled_from([1.0, 1.01, 1.5])) * PROB_SUM_TOL
    return ".fpm", b"FPM %d %d 3\n" % (w, h) + p.astype("<f4").tobytes()


class TestMeasureFailureContract:
    """Every input becomes a report row or a stderr line naming it, and the
    exit code is 2 exactly when some input failed."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(measure_input(), min_size=1, max_size=4))
    def test_rows_errors_and_exit(self, inputs):
        with tempfile.TemporaryDirectory() as d:
            paths = [Path(d) / f"in{i}{suffix}" for i, (suffix, _) in enumerate(inputs)]
            for path, (_, data) in zip(paths, inputs):
                path.write_bytes(data)
            out = Path(d) / "report.csv"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["measure", *map(str, paths), "--out", str(out)])
            rows = {row[0] for row in list(csv.reader(out.read_text().splitlines()))[1:]}
            named = {path for path in paths if f"error: {path}: " in err.getvalue()}
        assert rc in (EXIT_OK, EXIT_PARTIAL)
        for path in paths:
            assert (path.stem in rows) != (path in named), err.getvalue()
        assert (rc == EXIT_PARTIAL) == bool(named)


class TestEnsemble:
    @staticmethod
    def member(tmp_path, name, seed):
        rng = np.random.default_rng(seed)
        raw = rng.random((8, 8, 3)) + 1e-3
        p = raw / raw.sum(axis=2, keepdims=True)
        path = tmp_path / name
        write_prob_map(p, path)
        return path, p

    def test_average(self, tmp_path):
        p1, a = self.member(tmp_path, "m1.fpm", 0)
        p2, b = self.member(tmp_path, "m2.fpm", 1)
        out = tmp_path / "avg.fpm"
        assert main(["ensemble", str(p1), str(p2), "--out", str(out)]) == EXIT_OK
        back = read_prob_map(out)
        want = (a.astype(np.float32).astype(np.float64) + b.astype(np.float32).astype(np.float64)) / 2
        assert np.abs(back - want).max() < 1e-6

    def test_decide_out(self, tmp_path):
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        decided = tmp_path / "labels.pgm"
        rc = main(["ensemble", str(p1), "--out", str(tmp_path / "a.fpm"), "--decide-out", str(decided)])
        assert rc == EXIT_OK
        assert set(np.unique(read_label_mask(decided))).issubset({0, 1, 2})

    def test_no_members_usage(self, tmp_path):
        assert main(["ensemble", "--out", str(tmp_path / "x.fpm")]) == EXIT_USAGE

    def test_missing_member_data_error(self, tmp_path):
        assert main(["ensemble", str(tmp_path / "absent.fpm"), "--out", str(tmp_path / "a.fpm")]) == EXIT_DATA

    def test_config_flag_usage(self, tmp_path):
        # members come only from argv: ensemble reads no config
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"ensemble_members": [str(p1)]}))
        out = tmp_path / "a.fpm"
        for argv in (["--config", str(cfg)], [str(p1), "--config", str(cfg)]):
            with pytest.raises(SystemExit) as exc:
                main(["ensemble", *argv, "--out", str(out)])
            assert exc.value.code == EXIT_USAGE
            assert not out.exists()

    def test_nan_member_data_error(self, tmp_path, capsys):
        good, _ = self.member(tmp_path, "m1.fpm", 0)
        nan = tmp_path / "nan.fpm"
        p = read_prob_map(good).copy()
        p[3, 4] = np.nan
        nan.write_bytes(b"FPM 8 8 3\n" + p.astype("<f4").tobytes())
        out = tmp_path / "avg.fpm"
        assert main(["ensemble", str(good), str(nan), "--out", str(out)]) == EXIT_DATA
        assert not out.exists()
        assert "nan.fpm" in capsys.readouterr().err
        report = tmp_path / "r.csv"
        assert main(["measure", str(nan), "--out", str(report)]) == EXIT_PARTIAL
        assert len(report.read_text().splitlines()) == 1

    def test_sum_within_file_tolerance_accepted(self, tmp_path):
        # one pixel sums to 1.0005: inside the documented 1e-3 file tolerance,
        # so every command that reads the map must accept it
        labels = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 2, 2], [0, 0, 2, 2]])
        p = np.where(labels[..., None] == np.arange(3), 0.9, 0.05)
        p[1, 1, 0] += 0.0005
        fpm = tmp_path / "f.fpm"
        fpm.write_bytes(b"FPM 4 4 3\n" + p.astype("<f4").tobytes())
        f = str(fpm)
        assert main(["ensemble", f, "--out", str(tmp_path / "o.fpm")]) == EXIT_OK
        assert main(["ensemble", f, "--decide-out", str(tmp_path / "d.pgm")]) == EXIT_OK
        assert main(["ensemble", f, f, f, "--decide-out", str(tmp_path / "d3.pgm")]) == EXIT_OK
        assert read_label_mask(tmp_path / "d.pgm").tolist() == labels.tolist()
        assert read_label_mask(tmp_path / "d3.pgm").tolist() == labels.tolist()
        assert main(["measure", f, "--out", str(tmp_path / "r.csv")]) == EXIT_OK

    def test_corrupt_member_data_error(self, tmp_path):
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM 2 2 3\n" + b"\x00" * 5)
        assert main(["ensemble", str(bad), "--out", str(tmp_path / "o.fpm")]) == EXIT_DATA

    def test_average_without_output_usage(self, tmp_path, capsys):
        # the member is never read, so even a missing one is a usage error
        assert main(["ensemble", str(tmp_path / "absent.fpm")]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: give --out or --decide-out\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_vote_flag_usage(self, tmp_path):
        # members are always averaged: --vote is gone, and exits 64 writing nothing
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        out = tmp_path / "v.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["ensemble", str(p1), "--vote", "--decide-out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert not out.exists()

    def test_decide_out_into_a_missing_directory_writes_nothing(self, tmp_path, capsys):
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        out, decided = tmp_path / "avg.fpm", tmp_path / "missing" / "d.pgm"
        assert main(["ensemble", str(p1), "--out", str(out), "--decide-out", str(decided)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{decided}'\n"
        assert not out.exists()


class TestMetrics:
    def test_segmentation_and_biometry(self, tmp_path):
        gt = make_scene_file(tmp_path, "gt.pgm", seed=2)
        pred = tmp_path / "pred.pgm"
        write_label_mask(read_label_mask(gt), pred)
        out = tmp_path / "metrics.json"
        rc = main(["metrics", "--pred", str(pred), "--gt", str(gt), "--out", str(out)])
        assert rc == EXIT_OK
        got = json.loads(out.read_text())
        assert got["dsc"] == 1.0
        assert got["asd"] == 0.0 and got["hd"] == 0.0
        assert got["d_aop"] == 0.0 and got["d_hsd"] == 0.0
        assert got["acc"] is None  # no classification scores supplied

    def test_classification(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text("v,0,0.9,1\nv,1,0.8,1\nv,2,0.2,0\nv,3,0.1,0\n")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--scores", str(scores), "--out", str(out)]) == EXIT_OK
        got = json.loads(out.read_text())
        assert got["acc"] == 1.0 and got["auc"] == 1.0 and got["mcc"] == 1.0
        assert got["dsc"] is None

    @pytest.mark.parametrize("label", [0, 1])
    def test_one_class_leaves_auc_null(self, tmp_path, capsys, label):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"v,0,0.9,{label}\nv,1,0.8,{label}\nv,2,0.2,{label}\nv,3,0.1,{label}\n")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--scores", str(scores), "--out", str(out)]) == EXIT_PARTIAL
        got = json.loads(out.read_text())
        assert got["auc"] is None
        assert (got["acc"], got["f1"], got["mcc"]) == (0.5, 2 / 3 if label else 0.0, 0.0)
        err = capsys.readouterr().err
        assert err.startswith("warning: ") and "auc" in err and "Traceback" not in err

    def test_pair_without_ps_skipped(self, tmp_path, capsys):
        gt = make_scene_file(tmp_path, "gt.pgm", seed=2)
        labels = read_label_mask(gt)
        write_label_mask(labels, tmp_path / "good.pgm")
        write_label_mask(np.where(labels == 1, 0, labels).astype(np.uint8), tmp_path / "no_ps.pgm")
        out = tmp_path / "metrics.json"
        pairs = ["--pred", str(tmp_path / "good.pgm"), str(tmp_path / "no_ps.pgm"), "--gt", str(gt), str(gt)]
        assert main(["metrics", *pairs, "--out", str(out)]) == EXIT_PARTIAL
        assert "no_ps.pgm" in capsys.readouterr().err
        got = json.loads(out.read_text())
        assert got["dsc"] == 1.0 and got["d_aop"] == 0.0  # the good pair alone

        only_bad = ["--pred", str(tmp_path / "no_ps.pgm"), "--gt", str(gt)]
        assert main(["metrics", *only_bad, "--out", str(out)]) == EXIT_PARTIAL
        got = json.loads(out.read_text())
        assert got["dsc"] is None and got["d_aop"] is None

    def test_unpaired_usage(self, tmp_path):
        gt = make_scene_file(tmp_path, "gt.pgm", seed=2)
        rc = main(["metrics", "--pred", str(gt), "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_USAGE

    @pytest.mark.parametrize("inputs", [[], ["--pred"], ["--pred", "--gt"]])
    def test_no_inputs_usage(self, tmp_path, capsys, inputs):
        out = tmp_path / "m.json"
        assert main(["metrics", *inputs, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_gt_without_pred_usage(self, tmp_path):
        gt = make_scene_file(tmp_path, "gt.pgm", seed=2)
        out = tmp_path / "m.json"
        assert main(["metrics", "--gt", str(gt), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_scores_read_error_names_the_file(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("v,0,0.9,1\nv,1\n")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--scores", str(scores), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {scores}: line 2: expected 3 or 4 fields, got 2\n"
        assert not out.exists()

    def test_pair_read_error_names_the_file(self, tmp_path, capsys):
        pred, gt = make_scene_file(tmp_path, "pred.pgm"), tmp_path / "gt.pgm"
        gt.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--pred", str(pred), "--gt", str(gt), "--out", str(out)]) == EXIT_PARTIAL
        assert capsys.readouterr().err == f"warning: pair skipped for {pred}: {gt}: bad magic, expected 'P5' (byte offset 0)\n"

    def test_unlabelled_scores_partial(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text("v,0,0.9\nv,1,0.2\nv,2,,1\n")  # no row holds both a score and a label
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--scores", str(scores), "--out", str(out)]) == EXIT_PARTIAL
        assert set(json.loads(out.read_text()).values()) == {None}
        err = capsys.readouterr().err
        assert err.startswith("warning: ") and "scores.csv" in err and "Traceback" not in err


class TestPhantom:
    def test_generates_and_validates(self, tmp_path):
        out_dir = tmp_path / "scenes"
        rc = main(["phantom", "--seed", "3", "--count", "2", "--size", "256", "--out-dir", str(out_dir)])
        assert rc == EXIT_OK
        for seed in (3, 4):
            labels = read_label_mask(out_dir / f"phantom_{seed:04d}.pgm")
            side = json.loads((out_dir / f"phantom_{seed:04d}.json").read_text())
            assert labels.shape == (256, 256)
            assert 95.0 <= side["aop_deg"] <= 170.0
            scene = phantom.PhantomScene.from_dict(side["scene"])
            aop, hsd = phantom.analytic_biometry(scene)
            assert abs(aop - side["aop_deg"]) < 1e-9
            assert abs(hsd - side["hsd_px"]) < 1e-9

    def test_protrusions_above_their_bound_usage(self, tmp_path, capsys, monkeypatch):
        # each protrusion is a Python loop: one past the bound is refused before any is attached
        def fail(*args):
            raise AssertionError("a protrusion was attached")

        monkeypatch.setattr(phantom, "_attach_protrusion", fail)
        out_dir = tmp_path / "scenes"
        rc, err = run_cli(["phantom", "--size", "256", "--out-dir", str(out_dir), "--perturb", "protrusions=101"])
        assert rc == EXIT_USAGE
        assert "at most 100 protrusions" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("argv", [["--count", "1025"], ["--size", "16385"]], ids=["count", "size"])
    def test_pixel_bound_usage(self, tmp_path, capsys, monkeypatch, argv):
        # frames are held in memory until the last is made: refused before any scene is placed
        def fail(*args):
            raise AssertionError("a scene was placed")

        monkeypatch.setattr(phantom, "random_scene", fail)
        out_dir = tmp_path / "scenes"
        rc, err = run_cli(["phantom", "--out-dir", str(out_dir), *argv])
        assert rc == EXIT_USAGE
        assert "exceeds 268435456 pixels" in err
        assert not out_dir.exists()

    def test_perturbed_variant(self, tmp_path):
        out_dir = tmp_path / "scenes"
        rc = main(
            ["phantom", "--seed", "5", "--size", "256", "--out-dir", str(out_dir),
             "--perturb", "protrusions=1,noise=1.0"]
        )
        assert rc == EXIT_OK
        clean = read_label_mask(out_dir / "phantom_0005.pgm")
        pert = read_label_mask(out_dir / "phantom_0005_perturbed.pgm")
        assert not np.array_equal(clean, pert)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--perturb", "holes=x"],
            ["--perturb", "holes=-1"],
            ["--perturb", "hole=2"],
            ["--perturb", "noise=nan"],
            ["--perturb", "noise=inf"],
            ["--perturb", "noise=1e308"],  # shifts are drawn from (-noise, noise)
            ["--size", "0"],
            ["--size", "40"],  # no scene fits
            ["--count", "-2"],
        ],
        ids=["holes=x", "holes=-1", "hole=2", "noise=nan", "noise=inf", "noise=1e308", "size0", "size40", "count-2"],
    )
    def test_bad_argument_writes_nothing(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "scenes"
        try:
            rc = main(["phantom", "--size", "256", "--out-dir", str(out_dir), *argv])
        except SystemExit as e:
            rc = e.code
        assert rc == EXIT_USAGE
        assert "error:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_noise_wider_than_the_frame(self, tmp_path):
        # each boundary pixel's shift stops at the frame, whatever the noise
        out_dir = tmp_path / "scenes"
        assert main(["phantom", "--size", "256", "--out-dir", str(out_dir), "--perturb", "noise=8e307"]) == EXIT_OK
        assert read_label_mask(out_dir / "phantom_0000_perturbed.pgm").shape == (256, 256)

    @pytest.mark.parametrize(
        "argv",
        [["--seed", "0", "--perturb", "holes=50"], ["--seed", "2", "--perturb", "holes=10"]],
        ids=["first-frame", "second-frame"],  # where the holes stop fitting
    )
    def test_unplaceable_perturbation_writes_nothing(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "scenes"
        assert main(["phantom", "--size", "256", "--count", "2", "--out-dir", str(out_dir), *argv]) == EXIT_DATA
        assert "no room" in capsys.readouterr().err
        assert not out_dir.exists() or not any(out_dir.iterdir())


class TestAugment:
    @pytest.mark.parametrize("bad", ["--image", "--mask"])
    def test_read_error_names_the_file(self, tmp_path, capsys, bad):
        files = {"--image": tmp_path / "img.pgm", "--mask": tmp_path / "mask.csv"}
        write_greymap(np.zeros((4, 4), np.uint8), files["--image"])
        write_label_mask(np.zeros((4, 4), np.uint8), files["--mask"])
        files[bad].write_text("v,0,0.5\n")
        out = tmp_path / "a.pgm"
        argv = ["augment", "--image", str(files["--image"]), "--mask", str(files["--mask"]), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {files[bad]}: bad magic, expected 'P5' (byte offset 0)\n"
        assert not out.exists()

    def test_round_trip_deterministic(self, tmp_path):
        rng = np.random.default_rng(0)
        img = (rng.random((32, 32)) * 255).astype(np.uint8)
        src = tmp_path / "img.pgm"
        write_greymap(img, src)
        out1 = tmp_path / "a1.pgm"
        out2 = tmp_path / "a2.pgm"
        for out in (out1, out2):
            rc = main(["augment", "--image", str(src), "--seed", "7", "--index", "2", "--out", str(out)])
            assert rc == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_with_mask(self, tmp_path):
        rng = np.random.default_rng(1)
        img = (rng.random((32, 32)) * 255).astype(np.uint8)
        mask = np.zeros((32, 32), np.uint8)
        mask[5:15, 5:15] = 1
        mask[18:28, 18:28] = 2
        src, msk = tmp_path / "img.pgm", tmp_path / "mask.pgm"
        write_greymap(img, src)
        write_label_mask(mask, msk)
        out = tmp_path / "aug.pgm"
        mask_out = tmp_path / "aug_mask.pgm"
        rc = main(
            ["augment", "--image", str(src), "--mask", str(msk), "--seed", "3",
             "--out", str(out), "--mask-out", str(mask_out)]
        )
        assert rc == EXIT_OK
        assert set(np.unique(read_label_mask(mask_out))).issubset({0, 1, 2})

    @pytest.mark.parametrize("index", [2**60, -(2**60) - 1, 5 + 2**61, -(2**70)])
    def test_index_outside_its_streams_usage(self, tmp_path, capsys, monkeypatch, index):
        # the transform id takes the low 3 bits of a 64-bit key word, so
        # indices equal mod 2**61 would share every stream
        src = tmp_path / "img.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)
        monkeypatch.setattr(io_formats, "read_greymap", lambda path: pytest.fail(f"{path} was read"))
        out = tmp_path / "a.pgm"
        assert main(["augment", "--image", str(src), "--index", str(index), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --index must lie in [-2**60, 2**60), got {index}\n"
        assert not out.exists()

    def test_index_range_ends(self, tmp_path):
        rng = np.random.default_rng(2)
        src = tmp_path / "img.pgm"
        write_greymap((rng.random((16, 16)) * 255).astype(np.uint8), src)
        out = str(tmp_path / "a.pgm")
        for index in (-(2**60), 2**60 - 1):
            assert main(["augment", "--image", str(src), "--index", str(index), "--out", out]) == EXIT_OK

    def test_mask_out_without_mask_usage(self, tmp_path, capsys, monkeypatch):
        # --mask-out names the augmented mask, so without --mask there is nothing to write there
        src = tmp_path / "img.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)

        def fail(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(io_formats, "read_greymap", fail)
        monkeypatch.setattr(io_formats, "read_label_mask", fail)
        out, mask_out = tmp_path / "a.pgm", tmp_path / "m.pgm"
        assert main(["augment", "--image", str(src), "--mask-out", str(mask_out), "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --mask-out needs --mask\n"
        assert not out.exists() and not mask_out.exists()

    @pytest.mark.parametrize("spelling", ["same", "dotted"])
    def test_mask_out_naming_out_usage(self, tmp_path, capsys, monkeypatch, spelling):
        # the mask would replace the image; the paths are compared resolved
        src, msk = tmp_path / "img.pgm", tmp_path / "mask.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)
        write_label_mask(np.zeros((8, 8), np.uint8), msk)
        (tmp_path / "sub").mkdir()

        def fail(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(io_formats, "read_greymap", fail)
        monkeypatch.setattr(io_formats, "read_label_mask", fail)
        out = tmp_path / "a.pgm"
        mask_out = out if spelling == "same" else tmp_path / "sub" / ".." / "a.pgm"
        argv = ["augment", "--image", str(src), "--mask", str(msk), "--mask-out", str(mask_out), "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: --out and --mask-out both name {out}\n"
        assert not out.exists()


    @pytest.mark.parametrize("seed", ["-1", "-500", str(2**64 - 1)])
    def test_far_seed_has_its_own_stream(self, tmp_path, seed):
        src = tmp_path / "img.pgm"
        write_greymap((np.random.default_rng(0).random((16, 16)) * 255).astype(np.uint8), src)
        outs = []
        for s in (seed, "0"):
            outs.append(tmp_path / f"a{s}.pgm")
            assert main(["augment", "--image", str(src), "--seed", s, "--out", str(outs[-1])]) == EXIT_OK
        assert outs[0].read_bytes() != outs[1].read_bytes()

    def test_zero_size_image_data_error(self, tmp_path):
        src = tmp_path / "empty.pgm"
        src.write_bytes(b"P5\n0 4\n255\n")
        out = tmp_path / "a.pgm"
        assert main(["augment", "--image", str(src), "--out", str(out)]) == EXIT_DATA
        assert not out.exists()


class TestSample:
    def test_plan_written(self, tmp_path):
        videos = tmp_path / "videos.csv"
        videos.write_text("vidA,120,1\nvidB,200,0\n")
        out = tmp_path / "plan.csv"
        assert main(["sample", "--videos", str(videos), "--seed", "4", "--out", str(out)]) == EXIT_OK
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert sum(1 for r in rows if r[0] == "vidA") == 5
        assert sum(1 for r in rows if r[0] == "vidB") == 8

    def test_deterministic(self, tmp_path):
        videos = tmp_path / "videos.csv"
        videos.write_text("vidA,120,1\nvidB,200,0\n")
        o1, o2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        main(["sample", "--videos", str(videos), "--seed", "4", "--out", str(o1)])
        main(["sample", "--videos", str(videos), "--seed", "4", "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_short_video_warns_naming_its_line(self, tmp_path, capsys):
        videos = tmp_path / "v.csv"
        videos.write_text("vidA,120,1\nv1,3,1\nvidB,200,0\n")
        out = tmp_path / "p.csv"
        assert main(["sample", "--videos", str(videos), "--out", str(out)]) == EXIT_OK
        warning = f"warning: {videos}:2: video 'v1' has 3 frames, fewer than the requested 5; taking all\n"
        assert capsys.readouterr().err == warning
        # the plan is the one the sampler draws for the whole listing
        with pytest.warns(UserWarning):
            plan = sparse_sample([("vidA", 120, 1), ("v1", 3, 1), ("vidB", 200, 0)])
        assert out.read_text() == "".join(f"{vid},{i}\n" for vid, frames in plan.frames.items() for i in frames)

    def test_malformed_csv(self, tmp_path):
        videos = tmp_path / "videos.csv"
        videos.write_text("vidA,120\n")
        rc = main(["sample", "--videos", str(videos), "--out", str(tmp_path / "p.csv")])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize(
        "listing, argv, code",
        [
            ("vidA,12.5,1\n", [], EXIT_DATA),
            ("vidA,-3,1\n", [], EXIT_DATA),
            # the frame counts are fixed at 5 and 8: the former flags are usage errors
            ("vidA,120,1\n", ["--npos", "3"], EXIT_USAGE),
            ("vidA,120,1\n", ["--nneg", "3"], EXIT_USAGE),
        ],
        ids=["non-integer-length", "negative-length", "removed-npos", "removed-nneg"],
    )
    def test_bad_input_writes_nothing(self, tmp_path, capsys, listing, argv, code):
        videos = tmp_path / "videos.csv"
        videos.write_text("vidB,200,0\n" + listing)
        out = tmp_path / "p.csv"
        try:
            rc = main(["sample", "--videos", str(videos), *argv, "--out", str(out)])
        except SystemExit as e:
            rc = e.code
        assert rc == code
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        if code == EXIT_DATA:
            assert f"{videos}:2:" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "listing, message",
        [
            ("v1,100,1\nv2,50,1\nv1,100,0\n", "video id 'v1' is listed on line 1 already"),
            ("v1,100,1\nv2,50,7\n", "label must be 0 or 1, got 7"),
        ],
        ids=["repeated-id", "label-7"],
    )
    def test_listing_error_names_the_line(self, tmp_path, capsys, listing, message):
        videos = tmp_path / "videos.csv"
        videos.write_text(listing)
        out = tmp_path / "p.csv"
        assert main(["sample", "--videos", str(videos), "--out", str(out)]) == EXIT_DATA
        lineno = listing.count("\n")
        assert capsys.readouterr().err == f"error: {videos}:{lineno}: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [b"v\xff1,10,1", b"v1,1\xff0,1", b"\xfe\xff"], ids=["id", "length", "bom"])
    def test_line_not_utf8_data_error(self, tmp_path, capsys, line):
        videos = tmp_path / "videos.csv"
        videos.write_bytes(b"vidB,200,0\r\n" + line + b"\nvidC,100,1\n")
        out = tmp_path / "p.csv"
        assert main(["sample", "--videos", str(videos), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {videos}:2: expected video_id,length>=0,label\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "length, code", [(2**63 - 1, EXIT_OK), (2**63, EXIT_DATA), (10**20, EXIT_DATA)], ids=["2**63-1", "2**63", "1e20"]
    )
    def test_length_fits_int64(self, tmp_path, capsys, length, code):
        videos = tmp_path / "videos.csv"
        videos.write_text(f"vidB,200,0\nv1,{length},1\n")
        out = tmp_path / "p.csv"
        assert main(["sample", "--videos", str(videos), "--out", str(out)]) == code
        if code == EXIT_OK:
            assert all(0 <= int(line.split(",")[1]) < length for line in out.read_text().splitlines()[8:])
        else:
            assert capsys.readouterr().err == f"error: {videos}:2: expected video_id,length>=0,label\n"
            assert not out.exists()


def run_cli(argv):
    """(exit code, stderr) of one in-process CLI run, usage errors included."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, err.getvalue()


def assert_contract(rc, err, outputs):
    """Exit 0, 2, 64 or 65, no traceback, and no output on 64 or 65."""
    assert rc in (EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, EXIT_DATA), err
    assert "Traceback" not in err
    if rc in (EXIT_USAGE, EXIT_DATA):
        assert not [p for p in outputs if p.exists()], err


# a field: any text but a separator, or bytes that need not be UTF-8
_FIELD = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=4).map(str.encode),
    st.binary(max_size=4).filter(lambda b: not set(b) & set(b",\n\r")),
)
_NUMBER = st.one_of(st.integers(-3, 40), st.integers(2**62, 2**65), st.sampled_from(["", "1.5", "x", " 7 "]))


@st.composite
def listing_line(draw):
    """One `sample` listing line: video_id,length,label, or some other field count."""
    number = str(draw(_NUMBER)).encode()
    fields = [draw(_FIELD), number, draw(st.one_of(st.integers(-1, 2).map(lambda i: b"%d" % i), _FIELD))]
    if draw(st.integers(0, 5)) == 0:
        fields = fields[: draw(st.integers(0, 2))] + draw(st.lists(_FIELD, max_size=2))
    return b",".join(fields)


class TestSampleFailureContract:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(listing_line(), max_size=4),
        st.integers(-(2**70), 2**70),
    )
    def test_exit_codes_and_outputs(self, lines, seed):
        with tempfile.TemporaryDirectory() as d:
            videos, out = Path(d) / "videos.csv", Path(d) / "plan.csv"
            videos.write_bytes(b"\n".join(lines) + b"\n")
            argv = ["--videos", str(videos), "--seed", str(seed)]
            assert_contract(*run_cli(["sample", *argv, "--out", str(out)]), [out])


@st.composite
def augment_request(draw, d):
    """The argv of one `augment` run under directory d, and the paths it may write."""
    img = draw(arrays(np.uint8, st.tuples(st.integers(1, 12), st.integers(1, 12))))
    src = d / "img.pgm"
    data = b"P5\n%d %d\n255\n" % img.shape[::-1] + img.tobytes()
    src.write_bytes(data[: draw(st.sampled_from([len(data), len(data) - 1]))])
    out = d / draw(st.sampled_from(["out.pgm", "missing/out.pgm"]))
    argv = ["augment", "--image", str(src), "--out", str(out)]
    written = [out, Path(f"{out}.mask.pgm")]
    if draw(st.booleans()):
        shape = draw(st.sampled_from([img.shape, (img.shape[0] + 1, img.shape[1])]))
        write_label_mask(draw(arrays(np.uint8, shape, elements=st.integers(0, 2))), d / "mask.pgm")
        argv += ["--mask", str(d / "mask.pgm")]
    if draw(st.booleans()):  # without --mask, a usage error
        mask_out = d / draw(st.sampled_from(["m.pgm", "missing/m.pgm"]))
        argv += ["--mask-out", str(mask_out)]
        written.append(mask_out)
    for flag in ("--seed", "--index"):
        if draw(st.booleans()):
            argv += [flag, str(draw(st.integers(-(2**70), 2**70)))]
    return argv, written


class TestAugmentFailureContract:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_exit_codes_and_outputs(self, data):
        with tempfile.TemporaryDirectory() as d:
            argv, written = data.draw(augment_request(Path(d)))
            assert_contract(*run_cli(argv), written)

    def test_mask_out_into_a_missing_directory_writes_nothing(self, tmp_path, capsys):
        src, msk = tmp_path / "img.pgm", tmp_path / "mask.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)
        write_label_mask(np.zeros((8, 8), np.uint8), msk)
        out, mask_out = tmp_path / "a.pgm", tmp_path / "missing" / "m.pgm"
        argv = ["augment", "--image", str(src), "--mask", str(msk), "--mask-out", str(mask_out), "--out", str(out)]
        assert main(argv) == EXIT_DATA
        assert "No such file or directory" in capsys.readouterr().err
        assert not out.exists()


def sometimes(draw, rare, usual):
    """A draw from ``rare`` about one time in eight, else from ``usual``."""
    return draw(rare if draw(st.sampled_from([False] * 7 + [True])) else usual)


@st.composite
def scores_csv(draw):
    """The bytes of a `metrics --scores` CSV: video_id,frame_index,score[,label]
    rows, some of one class only, with bad fields or counts, or not UTF-8."""
    one_class = draw(st.sampled_from([None, None, "0", "1"]))
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        index = sometimes(draw, st.sampled_from(["-1", "x", ""]), st.integers(0, 9).map(str))
        score = sometimes(draw, st.sampled_from(["", "nan", "inf", "x", "-0.5", "1.5"]), st.floats(0.0, 1.0).map(str))
        label = one_class or sometimes(draw, st.sampled_from(["", "x", "2", "1.0"]), st.sampled_from(["0", "1"]))
        n = sometimes(draw, st.sampled_from([2, 3, 5]), st.just(4))
        rows.append(",".join(["v", index, score, label, "extra"][:n]))
    return "\n".join(rows).encode() + sometimes(draw, st.just(b"\xff\n"), st.sampled_from([b"", b"\n"]))


@st.composite
def metrics_request(draw, d):
    """The argv of one `metrics` run under directory d, and the path it may write."""
    out = d / sometimes(draw, st.just("missing/m.json"), st.just("m.json"))
    argv = ["metrics"]
    scores, pairs = draw(st.sampled_from([(True, 0), (False, 1), (False, 2), (True, 1), (False, 0)]))
    if scores:
        (d / "scores.csv").write_bytes(draw(scores_csv()))
        argv += ["--scores", str(d / "scores.csv")]
    pairs = draw(st.lists(st.tuples(measure_input(), measure_input()), min_size=pairs, max_size=pairs))
    preds, gts = [], []
    for i, (pred, gt) in enumerate(pairs):
        (d / f"pred{i}.pgm").write_bytes(pred[1])
        (d / f"gt{i}.pgm").write_bytes(gt[1])
        preds.append(str(d / f"pred{i}.pgm"))
        gts.append(str(d / f"gt{i}.pgm"))
    if pairs and sometimes(draw, st.just(True), st.just(False)):  # unpaired
        (preds if draw(st.booleans()) else gts).pop()
    if preds or gts or draw(st.booleans()):
        argv += ["--pred", *preds, "--gt", *gts]
    return [*argv, "--out", str(out)], out


class TestMetricsFailureContract:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_exit_codes_and_outputs(self, data):
        with tempfile.TemporaryDirectory() as d:
            argv, out = data.draw(metrics_request(Path(d)))
            assert_contract(*run_cli(argv), [out])


@st.composite
def perturb_spec(draw):
    """A --perturb string: mostly known keys with small values, at times an
    unknown key, a bad value, a noise at the edge of its range or one
    protrusion past the bound."""
    good = {
        "holes": st.integers(0, 2).map(str),
        "protrusions": st.one_of(st.integers(0, 2), st.just(101)).map(str),
        "noise": st.sampled_from(["0", "0.5", "1.5", "8e307"]),
        "seed": st.integers(-(2**70), 2**70).map(str),
    }
    parts = []
    for key in draw(st.lists(st.sampled_from(list(good)), max_size=3, unique=True)):
        value = sometimes(draw, st.sampled_from(["-1", "1e308", "nan", "x", "", "1.5"]), good[key])
        parts.append(f"{sometimes(draw, st.sampled_from(['hole', ' noise', '']), st.just(key))}={value}")
    return ",".join(parts)


@st.composite
def phantom_request(draw, d):
    """The argv of one `phantom` run under directory d, and its output directory."""
    out_dir = d / sometimes(draw, st.just("file"), st.sampled_from(["scenes", "a/b"]))
    argv = [
        "phantom",
        f"--size={sometimes(draw, st.sampled_from([-1, 0, 1, 40]), st.integers(250, 260))}",
        f"--count={sometimes(draw, st.integers(-1, 0), st.integers(1, 3))}",
        f"--seed={draw(st.integers(-(2**70), 2**70))}",
        f"--out-dir={out_dir}",
    ]
    if draw(st.booleans()):
        argv.append(f"--perturb={draw(perturb_spec())}")
    return argv, out_dir


class TestPhantomFailureContract:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exit_codes_and_outputs(self, data):
        with tempfile.TemporaryDirectory() as d:
            (Path(d) / "file").write_text("")
            argv, out_dir = data.draw(phantom_request(Path(d)))
            rc, err = run_cli(argv)
            assert_contract(rc, err, list(out_dir.iterdir()) if out_dir.is_dir() else [])


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["phantom"])
        assert exc.value.code == EXIT_USAGE


# Every value a user can set: each subcommand's option strings, and the one
# field of AugmentParams, which --seed sets.  A new flag or field fails here
# until it is listed on purpose.
SETTABLE = {
    "measure": ["--emit-overlays", "--help", "--jobs", "--out", "-h"],
    "ensemble": ["--decide-out", "--help", "--out", "-h"],
    "metrics": ["--gt", "--help", "--out", "--pred", "--scores", "-h"],
    "phantom": ["--count", "--help", "--out-dir", "--perturb", "--seed", "--size", "-h"],
    "augment": ["--help", "--image", "--index", "--mask", "--mask-out", "--out", "--seed", "-h"],
    "sample": ["--help", "--out", "--seed", "--videos", "-h"],
}


def test_settable_surface():
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: sorted(o for a in p._actions for o in a.option_strings) for name, p in sub.choices.items()}
    assert options == SETTABLE
    assert [f.name for f in dataclasses.fields(AugmentParams)] == ["seed"]
