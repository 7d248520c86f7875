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

from fetalbiometry import cli, phantom
from fetalbiometry.biometry import measure_frame, measure_frame_detailed
from fetalbiometry.dataprep import AugmentParams
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from fetalbiometry.io_formats import (
    read_label_mask,
    read_prob_map,
    write_greymap,
    write_label_mask,
    write_prob_map,
    write_report_csv,
)
from fetalbiometry.raster import PROB_SUM_TOL
from fetalbiometry.refine import RefineParams


def make_scene_file(tmp_path, name="frame0.pgm", seed=1):
    scene = phantom.random_scene(seed, 256, 256)
    path = tmp_path / name
    write_label_mask(phantom.render(scene), path)
    return path


def make_protrusion_file(tmp_path):
    """A frame whose PS protrusion needs more than 15 prune rounds."""
    labels = phantom.render(phantom.random_scene(0, 256, 256))
    path = tmp_path / "frame0.pgm"
    write_label_mask(phantom.perturb(labels, phantom.Perturbation(protrusions=1, seed=0)), path)
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

        def spy(labels, params):
            calls.append((threading.get_ident(), labels))
            return measure_frame_detailed(labels, params)

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

    def test_config_overridden_by_flag(self, tmp_path):
        # on this protrusion frame max_prune 1 changes the row (see below)
        inp = make_protrusion_file(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refine": {"max_prune": 1}}))
        reports = {}
        for name, argv in [
            ("both", ["--config", str(cfg), "--max-prune", "15"]),
            ("config", ["--config", str(cfg)]),
            ("default", []),
        ]:
            out = tmp_path / f"{name}.csv"
            assert main(["measure", str(inp), *argv, "--out", str(out)]) == EXIT_OK
            reports[name] = out.read_bytes()
        assert reports["both"] == reports["default"] != reports["config"]

    @pytest.mark.parametrize(
        "config",
        [
            {"refine": {"max_prune": "3"}},
            {"refine": [1, 2]},
            [1],
            {"refine": {"max_prun": 3}},
            {"refine": {"canny_max": 5}},  # a removed knob
            {"refin": {"max_prune": 3}},  # a mistyped top-level key
            {"ensemble_members": []},  # a removed top-level key
        ],
    )
    def test_bad_config_data_error(self, tmp_path, capsys, monkeypatch, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        inp = make_scene_file(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "_load_labels", lambda p: calls.append(p))
        out = tmp_path / "r.csv"
        rc = main(["measure", str(inp), "--config", str(cfg), "--out", str(out)])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert calls == [] and not out.exists()
        if isinstance(config, dict):  # an unknown top-level key is named
            assert all(key in err for key in set(config) - {"refine"})

    def test_bad_flag_value_usage(self, tmp_path):
        inp = make_scene_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["measure", str(inp), "--max-prune", "0", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_non_finite_prune_distance_usage(self, tmp_path, monkeypatch, value):
        inp = make_scene_file(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "_load_labels", lambda p: calls.append(p))
        out = tmp_path / "r.csv"
        with pytest.raises(SystemExit) as exc:
            main(["measure", str(inp), "--prune-distance", value, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert calls == [] and not out.exists()

    def test_removed_flag_usage(self, tmp_path):
        inp = make_scene_file(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["measure", str(inp), "--canny-min", "2", "--out", str(tmp_path / "r.csv")])
        assert exc.value.code == EXIT_USAGE

    def test_max_prune_above_default_cap_reported(self, tmp_path):
        # this frame's PS protrusion needs more than 15 prune rounds
        inp = make_protrusion_file(tmp_path)
        out = tmp_path / "r.csv"
        assert main(["measure", str(inp), "--max-prune", "40", "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert int(fields["prune_iters_ps"]) > 15

    def test_flag_does_not_leak_into_the_next_call(self, tmp_path):
        # the parser is built once per process; each call must parse afresh.
        # On this frame --max-prune 40 changes the row (see the test above).
        inp = make_protrusion_file(tmp_path)
        labels = read_label_mask(inp)
        rows = []
        for argv, params in [(["--max-prune", "40"], RefineParams(max_prune=40)), ([], RefineParams())]:
            want = tmp_path / "want.csv"
            write_report_csv([("frame0", measure_frame(labels, params))], want)
            out = tmp_path / "r.csv"
            assert main(["measure", str(inp), *argv, "--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == want.read_bytes()
            rows.append(out.read_bytes())
        assert rows[0] != rows[1]


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

    def test_vote(self, tmp_path):
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        p2, _ = self.member(tmp_path, "m2.fpm", 1)
        out = tmp_path / "vote.pgm"
        assert main(["ensemble", str(p1), str(p2), "--vote", "--out", str(out)]) == EXIT_OK
        assert read_label_mask(out).shape == (8, 8)

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
        assert main(["ensemble", f, "--vote", "--out", str(tmp_path / "v.pgm")]) == EXIT_OK
        assert read_label_mask(tmp_path / "d.pgm").tolist() == labels.tolist()
        assert main(["measure", f, "--out", str(tmp_path / "r.csv")]) == EXIT_OK

    def test_corrupt_member_data_error(self, tmp_path):
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM 2 2 3\n" + b"\x00" * 5)
        assert main(["ensemble", str(bad), "--out", str(tmp_path / "o.fpm")]) == EXIT_DATA

    def test_vote_without_output_usage(self, tmp_path, capsys):
        p1, _ = self.member(tmp_path, "m1.fpm", 0)
        assert main(["ensemble", str(p1), "--vote"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_average_without_output_usage(self, tmp_path):
        # the member is never read, so even a missing one is a usage error
        assert main(["ensemble", str(tmp_path / "absent.fpm")]) == EXIT_USAGE
        assert sorted(tmp_path.iterdir()) == []

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


    @pytest.mark.parametrize("seed", ["-1", "-500", str(2**64 - 1)])
    def test_far_seed_has_its_own_stream(self, tmp_path, seed):
        src = tmp_path / "img.pgm"
        write_greymap((np.random.default_rng(0).random((16, 16)) * 255).astype(np.uint8), src)
        outs = []
        for s in (seed, "0"):
            outs.append(tmp_path / f"a{s}.pgm")
            assert main(["augment", "--image", str(src), "--seed", s, "--out", str(outs[-1])]) == EXIT_OK
        assert outs[0].read_bytes() != outs[1].read_bytes()

    def test_bad_config_data_error(self, tmp_path, capsys):
        src = tmp_path / "img.pgm"
        write_greymap(np.zeros((8, 8), np.uint8), src)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"augment": {"flip_prob": "0.5"}}))
        rc = main(["augment", "--image", str(src), "--config", str(cfg), "--out", str(tmp_path / "a.pgm")])
        assert rc == EXIT_DATA
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_zero_size_image_data_error(self, tmp_path):
        src = tmp_path / "empty.pgm"
        src.write_bytes(b"P5\n0 4\n255\n")
        out = tmp_path / "a.pgm"
        assert main(["augment", "--image", str(src), "--out", str(out)]) == EXIT_DATA
        assert not out.exists()


# every transform fires, so each AugmentParams key has something to change
ALL_ON = {"flip_prob": 1.0, "noise_prob": 1.0, "gamma_prob": 1.0, "contrast_prob": 1.0, "affine_prob": 1.0}
# one value per AugmentParams key, away from ALL_ON and the defaults
CHANGED = {
    "flip_prob": 0.0,
    "noise_prob": 0.0,
    "noise_sigma_range": [0.2, 0.3],
    "gamma_prob": 0.0,
    "gamma_range": [1.5, 2.0],
    "contrast_prob": 0.0,
    "contrast_range": [0.3, 0.5],
    "affine_prob": 0.0,
    "translate_range": 0.4,
    "rotate_range": 90.0,
    "scale_range": [0.5, 0.6],
    "seed": 5,
}


class TestAugmentConfig:
    """The config's augment object, then the flags on top of it."""

    @pytest.fixture
    def run(self, tmp_path):
        src = tmp_path / "img.pgm"
        write_greymap((np.random.default_rng(2).random((32, 32)) * 255).astype(np.uint8), src)

        def run(config, *argv):
            cfg, out = tmp_path / "cfg.json", tmp_path / "out.pgm"
            cfg.write_text(json.dumps({"augment": config}))
            assert main(["augment", "--image", str(src), "--config", str(cfg), *argv, "--out", str(out)]) == EXIT_OK
            return out.read_bytes()

        return run

    def test_every_key_is_covered(self):
        assert set(CHANGED) == {f.name for f in dataclasses.fields(AugmentParams)}

    @pytest.mark.parametrize("key", list(CHANGED))
    def test_each_key_changes_the_output(self, run, key):
        assert run({**ALL_ON, key: CHANGED[key]}) != run(ALL_ON)

    def test_seed_flag_beats_the_config(self, run):
        assert run({**ALL_ON, "seed": 5}, "--seed", "7") == run({**ALL_ON, "seed": 7})
        assert run({**ALL_ON, "seed": 5}, "--seed", "7") != run({**ALL_ON, "seed": 5})
        assert run(ALL_ON) == run(ALL_ON, "--seed", "0")


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
            ("vidA,120,1\n", ["--npos", "-1"], EXIT_USAGE),
            ("vidA,120,1\n", ["--nneg", "0"], EXIT_USAGE),
        ],
        ids=["non-integer-length", "negative-length", "npos-1", "nneg0"],
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
    st.text(st.characters(exclude_characters=",\n\r"), max_size=4).map(str.encode),
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
        st.integers(-1, 4),
        st.integers(-1, 4),
        st.integers(-(2**70), 2**70),
    )
    def test_exit_codes_and_outputs(self, lines, npos, nneg, seed):
        with tempfile.TemporaryDirectory() as d:
            videos, out = Path(d) / "videos.csv", Path(d) / "plan.csv"
            videos.write_bytes(b"\n".join(lines) + b"\n")
            argv = ["--videos", str(videos), "--npos", str(npos), "--nneg", str(nneg), "--seed", str(seed)]
            assert_contract(*run_cli(["sample", *argv, "--out", str(out)]), [out])


_EDGE = st.sampled_from([0.0, 0.5, 1.0, 2.0, 90.0, 1e308, -0.5, -1e308])


def augment_value(field):
    """Config values for an AugmentParams field: valid ones, ones at or past
    its edges, and a mistyped one for the probabilities."""
    if field.name == "seed":
        return st.integers(-(2**70), 2**70)
    if isinstance(field.default, tuple):
        return st.lists(st.one_of(_EDGE, st.floats(-2.0, 2.0)), min_size=2, max_size=2)
    if field.name.endswith("_prob"):  # leaning to 1, so that the transforms they gate run
        return st.one_of(st.just(1.0), _EDGE, st.just("0.5"))
    return st.one_of(_EDGE, st.floats(-2.0, 2.0))


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
        if draw(st.booleans()):
            mask_out = d / draw(st.sampled_from(["m.pgm", "missing/m.pgm"]))
            argv += ["--mask-out", str(mask_out)]
            written.append(mask_out)
    if draw(st.booleans()):
        fields = draw(st.lists(st.sampled_from(dataclasses.fields(AugmentParams)), unique=True))
        config = {f.name: draw(augment_value(f)) for f in fields}
        (d / "cfg.json").write_text(json.dumps({"augment": config}))
        argv += ["--config", str(d / "cfg.json")]
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


# RefineParams values: valid ones, and ones past their edges or mistyped
_REFINE_VALUES = {
    "kernel_w": (st.integers(1, 12), st.sampled_from([0, "3", 2.0])),
    "kernel_h": (st.integers(1, 12), st.sampled_from([0, "3", 2.0])),
    "prune_distance": (st.floats(0.5, 10.0), st.sampled_from([0, -1.0, 1e308, "3", None])),
    "max_prune": (st.integers(1, 40), st.sampled_from([0, True, 2.5])),
    "ellipse_accept_ratio": (st.floats(0.01, 0.99), st.sampled_from([0, 1, "0.2"])),
}


@st.composite
def refine_config(draw):
    """A config object: some refine keys, at times a bad value, an unknown
    refine key or an unknown top-level key, and at times an augment object."""
    refine = {k: draw(good) for k, (good, _) in _REFINE_VALUES.items() if draw(st.booleans())}
    bad = draw(st.sampled_from([None] * 7 + [0, 1, 2]))
    if bad == 0:
        key = draw(st.sampled_from(list(_REFINE_VALUES)))
        refine[key] = draw(_REFINE_VALUES[key][1])
    elif bad == 1:
        refine[draw(st.sampled_from(["max_prun", "canny_min", "kernel"]))] = 3
    config = {"refine": refine}
    if draw(st.booleans()):
        config["augment"] = {}
    if bad == 2:
        config[draw(st.sampled_from(["refin", "ensemble_members", "Refine"]))] = {}
    return config


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
    if draw(st.booleans()):
        (d / "cfg.json").write_text(json.dumps(draw(refine_config())))
        argv += ["--config", str(d / "cfg.json")]
    if draw(st.booleans()):
        argv.append(f"--max-prune={sometimes(draw, st.integers(-1, 0), st.integers(1, 40))}")
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
    unknown key, a bad value or a noise at the edge of its range."""
    good = {
        "holes": st.integers(0, 2).map(str),
        "protrusions": st.integers(0, 2).map(str),
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
