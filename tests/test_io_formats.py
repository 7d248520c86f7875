import numpy as np
import pytest

from fetalbiometry.errors import FormatError
from fetalbiometry.io_formats import (
    FrameRecord,
    MeasurementReport,
    read_frame_scores,
    read_label_mask,
    read_prob_map,
    write_frame_scores,
    write_label_mask,
    write_prob_map,
    write_report_csv,
)


class TestLabelMask:
    def test_round_trip(self, tmp_path):
        m = np.array([[0, 1], [2, 0], [1, 2], [0, 0]], np.uint8)
        path = tmp_path / "m.pgm"
        write_label_mask(m, path)
        assert np.array_equal(read_label_mask(path), m)

    def test_palette_read(self, tmp_path):
        path = tmp_path / "p.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([127, 255]))
        assert read_label_mask(path).tolist() == [[1, 2]]

    def test_out_of_palette_value(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([0, 200]))
        with pytest.raises(FormatError, match="200"):
            read_label_mask(path)
        try:
            read_label_mask(path)
        except FormatError as e:
            assert e.byte_offset == 12  # second payload byte

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P4\n2 1\n255\n\x00\x00")
        with pytest.raises(FormatError, match="magic"):
            read_label_mask(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
        with pytest.raises(FormatError, match="truncated"):
            read_label_mask(path)


class TestProbMap:
    def test_round_trip(self, tmp_path):
        p = np.dstack([[[0.25]], [[0.75]]]).astype(np.float32)
        path = tmp_path / "p.fpm"
        write_prob_map(p, path)
        back = read_prob_map(path)
        assert np.array_equal(back.astype(np.float32), p)

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(7)
        raw = rng.random((5, 4, 3)).astype(np.float32)
        p = (raw / raw.sum(axis=2, keepdims=True)).astype(np.float32)
        # renormalize in float32 until within write tolerance
        p = p / p.sum(axis=2, keepdims=True)
        path = tmp_path / "p.fpm"
        write_prob_map(p, path)
        back = read_prob_map(path)
        assert np.array_equal(back.astype(np.float32), p.astype(np.float32))

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.fpm"
        path.write_bytes(b"FPM 2 2 2\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated"):
            read_prob_map(path)

    def test_bad_sum(self, tmp_path):
        path = tmp_path / "s.fpm"
        payload = np.array([0.5, 0.4], "<f4").tobytes()
        path.write_bytes(b"FPM 1 1 2\n" + payload)
        with pytest.raises(FormatError, match="worst pixel"):
            read_prob_map(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.fpm"
        path.write_bytes(b"XPM 1 1 2\n" + bytes(8))
        with pytest.raises(FormatError, match="magic"):
            read_prob_map(path)


class TestReportCsv:
    def test_empty(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([], path)
        assert path.read_text() == (
            "frame,AoP_deg,HSD_px,used_ellipse_ps,used_ellipse_fh,prune_iters_ps,prune_iters_fh\n"
        )

    def test_one_row(self, tmp_path):
        path = tmp_path / "r.csv"
        row = MeasurementReport("f0", 150.0, 50.0, True, False, 2, 0)
        write_report_csv([row], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",") == ["f0", "150", "50", "1", "0", "2", "0"]

    def test_order_stable(self, tmp_path):
        rows = [
            MeasurementReport("b", 120.0, 10.0, False, False, 0, 0),
            MeasurementReport("a", 130.0, 20.0, False, False, 0, 0),
        ]
        path = tmp_path / "r.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("b,") and lines[2].startswith("a,")

    def test_invariants(self):
        with pytest.raises(ValueError):
            MeasurementReport("f", 200.0, 1.0, False, False, 0, 0)
        with pytest.raises(ValueError):
            MeasurementReport("f", 150.0, 1.0, False, False, -1, 0)


class TestFrameScores:
    def test_round_trip(self, tmp_path):
        recs = [
            FrameRecord("v1", 0, 0.25, 1),
            FrameRecord("v1", 3, 0.5, 0),
            FrameRecord("v2", 7, None, None),
        ]
        path = tmp_path / "scores.csv"
        write_frame_scores(recs, path)
        assert read_frame_scores(path) == recs

    def test_score_range(self):
        with pytest.raises(ValueError):
            FrameRecord("v", 0, 1.5)
