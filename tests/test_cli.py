import json

import numpy as np
import pytest

from fetalbiometry import phantom
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from fetalbiometry.io_formats import (
    read_label_mask,
    read_prob_map,
    write_greymap,
    write_label_mask,
    write_prob_map,
)


def make_scene_file(tmp_path, name="frame0.pgm", seed=1):
    scene = phantom.random_scene(seed, 256, 256)
    path = tmp_path / name
    write_label_mask(phantom.render(scene), path)
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

    def test_no_inputs_usage(self, tmp_path):
        assert main(["measure", "--out", str(tmp_path / "r.csv")]) == EXIT_USAGE

    def test_config_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"refine": {"max_prune": 1}}))
        inp = make_scene_file(tmp_path)
        out = tmp_path / "r.csv"
        rc = main(["measure", str(inp), "--config", str(cfg), "--max-prune", "15", "--out", str(out)])
        assert rc == EXIT_OK

    def test_max_prune_above_default_cap_reported(self, tmp_path):
        # this frame's PS protrusion needs more than 15 prune rounds
        labels = phantom.render(phantom.random_scene(0, 256, 256))
        labels = phantom.perturb(labels, phantom.Perturbation(protrusions=1, seed=0))
        inp = tmp_path / "frame0.pgm"
        write_label_mask(labels, inp)
        out = tmp_path / "r.csv"
        assert main(["measure", str(inp), "--max-prune", "40", "--out", str(out)]) == EXIT_OK
        header, row = out.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert int(fields["prune_iters_ps"]) > 15


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

    def test_corrupt_member_data_error(self, tmp_path):
        bad = tmp_path / "bad.fpm"
        bad.write_bytes(b"FPM 2 2 3\n" + b"\x00" * 5)
        assert main(["ensemble", str(bad), "--out", str(tmp_path / "o.fpm")]) == EXIT_DATA


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

    def test_unpaired_usage(self, tmp_path):
        gt = make_scene_file(tmp_path, "gt.pgm", seed=2)
        rc = main(["metrics", "--pred", str(gt), "--out", str(tmp_path / "m.json")])
        assert rc == EXIT_USAGE


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


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["phantom"])
        assert exc.value.code == EXIT_USAGE
