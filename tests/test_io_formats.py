import numpy as np
import pytest

from fetalbiometry.biometry import BiometryResult
from fetalbiometry.errors import FormatError
from fetalbiometry.io_formats import (
    FrameRecord,
    read_frame_scores,
    read_label_mask,
    read_prob_map,
    write_label_mask,
    write_prob_map,
    write_report_csv,
)
from fetalbiometry.raster import PROB_SUM_TOL, Point, validate_prob_map


def result(aop, hsd, used_ps=False, used_fh=False, iters_ps=0, iters_fh=0):
    """A BiometryResult with these report fields and placeholder landmarks."""
    pts = Point(0.0, 0.0), Point(1.0, 0.0), Point(2.0, 2.0), Point(3.0, 3.0)
    return BiometryResult(aop, hsd, *pts, used_ps, used_fh, iters_ps, iters_fh)


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

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"P512 2 255\n" + bytes(24), "magic", 0),  # int() would read a 12x2 mask
            (b"P5\n+2 1\n255\n" + bytes(2), "non-integer", 3),
            (b"P5\n2_0 1\n255\n" + bytes(20), "non-integer", 3),
        ],
        ids=["magic-run-on", "sign", "underscore"],
    )
    def test_header_fields_are_decimal_digits(self, tmp_path, data, message, offset):
        path = tmp_path / "h.pgm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message) as exc:
            read_label_mask(path)
        assert exc.value.byte_offset == offset

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

    def test_read_keeps_float32(self, tmp_path):
        path = tmp_path / "p.fpm"
        write_prob_map(np.dstack([[[0.25]], [[0.75]]]), path)
        assert read_prob_map(path).dtype == np.float32

    def test_nan(self, tmp_path):
        path = tmp_path / "n.fpm"
        path.write_bytes(b"FPM 2 1 2\n" + np.array([0.5, 0.5, np.nan, 1.0], "<f4").tobytes())
        with pytest.raises(FormatError, match="must lie in"):
            read_prob_map(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.fpm"
        path.write_bytes(b"FPM 2 2 2\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="truncated"):
            read_prob_map(path)

    def test_truncated_reports_bytes_and_offset(self, tmp_path):
        path = tmp_path / "t.fpm"
        path.write_bytes(b"FPM 2 2 2\n" + b"\x00" * 10)
        with pytest.raises(FormatError, match="expected 32 bytes, got 10") as exc:
            read_prob_map(path)
        assert exc.value.byte_offset == 20  # end of file

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, ">f4"])
    def test_written_bytes_are_the_little_endian_payload(self, tmp_path, dtype):
        rng = np.random.default_rng(3)
        raw = rng.random((6, 9, 3)) + 1e-3
        p = (raw / raw.sum(axis=2, keepdims=True)).astype(dtype)[::2, ::3]  # strided view
        path = tmp_path / "p.fpm"
        write_prob_map(p, path)
        assert path.read_bytes() == b"FPM 3 3 3\n" + p.astype("<f4").tobytes()

    def test_write_checks_the_float32_cast(self, tmp_path):
        # the float64 sum sits at the tolerance edge; the cast rounds it over
        p = np.array([[[0.1, 1.0 + PROB_SUM_TOL - 0.1]]])
        validate_prob_map(p)
        path = tmp_path / "p.fpm"
        with pytest.raises(ValueError, match="worst pixel"):
            write_prob_map(p, path)
        assert not path.exists()

    def test_write_accepts_what_the_cast_brings_into_range(self, tmp_path):
        p = np.array([[[1.0 + 1e-12, 0.0]]])
        with pytest.raises(ValueError):
            validate_prob_map(p)
        path = tmp_path / "p.fpm"
        write_prob_map(p, path)
        assert read_prob_map(path).tolist() == [[[1.0, 0.0]]]

    def test_write_rejects_a_value_past_the_float32_range(self, tmp_path):
        # the cast makes it inf, quietly: a RuntimeWarning fails the suite
        path = tmp_path / "p.fpm"
        with pytest.raises(ValueError, match="must lie in"):
            write_prob_map(np.array([[[1e300, 0.0]]]), path)
        assert not path.exists()

    def test_bad_sum(self, tmp_path):
        path = tmp_path / "s.fpm"
        payload = np.array([0.5, 0.4], "<f4").tobytes()
        path.write_bytes(b"FPM 1 1 2\n" + payload)
        with pytest.raises(FormatError, match="worst pixel"):
            read_prob_map(path)

    @pytest.mark.parametrize(
        "data, message, offset",
        [
            (b"FPM512 1 2\n" + bytes(4096), "magic", 0),
            (b"FPM +2 1 2\n" + bytes(16), "non-integer", 4),
            (b"FPM 2_0 1 3\n" + bytes(240), "non-integer", 4),  # int() would read 20 px wide
        ],
        ids=["magic-run-on", "sign", "underscore"],
    )
    def test_header_fields_are_decimal_digits(self, tmp_path, data, message, offset):
        path = tmp_path / "h.fpm"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message) as exc:
            read_prob_map(path)
        assert exc.value.byte_offset == offset

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
        write_report_csv([("f0", result(150.0, 50.0, True, False, 2, 0))], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",") == ["f0", "150", "50", "1", "0", "2", "0"]

    def test_order_stable(self, tmp_path):
        rows = [("b", result(120.0, 10.0)), ("a", result(130.0, 20.0))]
        path = tmp_path / "r.csv"
        write_report_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("b,") and lines[2].startswith("a,")

    def test_six_significant_digits(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report_csv([("f", result(127.19345678, 0.000140357))], path)
        assert path.read_text().splitlines()[1] == "f,127.193,0.000140357,0,0,0,0"


class TestFrameScores:
    def test_round_trip(self, tmp_path):
        recs = [
            FrameRecord("v1", 0, 0.25, 1),
            FrameRecord("v1", 3, 0.5, 0),
            FrameRecord("v2", 7, None, None),
        ]
        path = tmp_path / "scores.csv"
        path.write_text("v1,0,0.25,1\nv1,3,0.5,0\nv2,7,\n")
        assert read_frame_scores(path) == recs

    def test_score_range(self):
        with pytest.raises(ValueError):
            FrameRecord("v", 0, 1.5)
