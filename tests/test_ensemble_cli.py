"""The ensemble path of the CLI: each strip of the members is checked once,
all members together, as it is read.  A strip that comes near the tolerance
is checked again member by member, and then its average, and the float32
average written to --out is then checked whole; the files written equal what
the public functions compute, and what checking every strip in full writes,
and an error names the first failure in read order.  ``measure`` decides an
.fpm input as an ensemble of one, on the same strip loop."""

import builtins
import collections
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalbiometry import cli, ensemble, io_formats, phantom, raster
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from fetalbiometry.ensemble import SUM_MARGIN, average, decide, passes_with_margin
from fetalbiometry.errors import FetalBiometryError, FormatError, MemberError
from fetalbiometry.io_formats import read_prob_map, write_label_mask, write_prob_map
from fetalbiometry.raster import PROB_SUM_TOL, validate_prob_map

ULP = 2.0**-52  # spacing of float64 just above 1


def sum_excess(p):
    """How far the channel sums of ``p``, summed as validate_prob_map sums
    them, lie outside the tolerance (<= 0 when they pass)."""
    sums = np.add(p[..., 0], p[..., 1], dtype=np.float64)
    for c in range(2, p.shape[2]):
        sums += p[..., c]
    return max(sums.max() - 1.0, 1.0 - sums.min()) - PROB_SUM_TOL


def edge_map(rng, shape, channels, side):
    """A float32 map whose channel sums lie at the tolerance edge on ``side``
    (+1 or -1), each just inside it."""
    raw = rng.random((*shape, channels)) + 1e-3
    p = (raw / raw.sum(axis=2, keepdims=True) * (1.0 + side * PROB_SUM_TOL)).astype(np.float32)
    rows = p.reshape(-1, channels)
    big = rows.argmax(axis=1)
    for _ in range(64):  # the float32 cast moves a sum by a few float32 steps
        sums = rows.astype(np.float64).sum(axis=1)
        out = np.abs(sums - 1.0) > PROB_SUM_TOL
        if not out.any():
            break
        i = np.flatnonzero(out)
        rows[i, big[i]] = np.nextafter(rows[i, big[i]], np.float32(1.0 - side))
    assert sum_excess(p) <= 0.0
    return p


def rounding_counterexample():
    """Three 1x1 float32 members that pass validate_prob_map while their
    float64 average misses the sum tolerance by one rounding step.

    Each member is (1, a, b): ``1 + a`` is exact, adding ``b`` rounds to the
    largest float64 sum that passes.  Averaging ``a`` over the members rounds
    ``1 + mean(a)`` up by a third of a step, which tips the sum over.
    """
    k = int(PROB_SUM_TOL / ULP)  # largest passing sum is 1 + k * ULP
    a0 = (k // 2**19) * 2**19  # a float32 near 1e-3 is a multiple of 2**19 ULP
    a1 = a0 - 2**20
    return [np.array([[[1.0, a * ULP, (k + 0.5 - a) * ULP]]], np.float32) for a in (a0, a0, a1)]


def passes(p):
    try:
        validate_prob_map(p)
    except ValueError:
        return False
    return True


def cast_counterexample():
    """Two 1x1 float32 members that pass, whose float64 average passes too,
    while that average cast to float32 misses the sum tolerance.

    The members are A = (u0+, u1+, u2) and B = (u0, u1, u2+), where + is the
    next float32 up and u sums to just under 1 + PROB_SUM_TOL.  Each channel
    of the average is a float32 midpoint, which the cast rounds to its even
    neighbour: where that is up in every channel, the cast sums like
    (u0+, u1+, u2+), above both members.  Seeded search, a few draws deep.
    """
    rng = np.random.default_rng(0)
    for _ in range(100):
        raw = rng.random(3) + 0.1
        u = (raw / raw.sum() * (1.0 + PROB_SUM_TOL)).astype(np.float32)
        big = int(u.argmax())
        while True:
            up = np.nextafter(u, np.float32(1))
            members = [np.array([[[up[0], up[1], u[2]]]], np.float32), np.array([[[u[0], u[1], up[2]]]], np.float32)]
            if all(map(passes, members)):
                break
            u[big] = np.nextafter(u[big], np.float32(0))
        mean = average(members)
        if passes(mean) and not passes(mean.astype(np.float32)):
            return members
    raise AssertionError("no counterexample in 100 draws")


class TestAverageTolerance:
    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 7),
        st.sampled_from([2, 3]),
        st.sampled_from([-1, 1]),
        st.integers(1, 8),
    )
    def test_average_misses_by_rounding_at_most(self, seed, n, channels, side, width):
        rng = np.random.default_rng(seed)
        members = [edge_map(rng, (3, width), channels, side) for _ in range(n)]
        for m in members:
            validate_prob_map(m)
        assert sum_excess(average(members)) <= 4 * ULP

    def test_average_of_passing_members_can_fail(self):
        members = rounding_counterexample()
        for m in members:
            validate_prob_map(m)
        excess = sum_excess(average(members))
        assert 0.0 < excess <= ULP
        with pytest.raises(ValueError, match="channel sums"):
            validate_prob_map(average(members))

    def test_cli_rejects_the_average(self, tmp_path, capsys):
        paths = []
        for i, m in enumerate(rounding_counterexample()):
            paths.append(str(tmp_path / f"m{i}.fpm"))
            write_prob_map(m, paths[-1])
        for flag, name in (("--out", "avg.fpm"), ("--decide-out", "labels.pgm")):
            assert main(["ensemble", *paths, flag, str(tmp_path / name)]) == EXIT_DATA
            assert not (tmp_path / name).exists()
            assert "ensemble average" in capsys.readouterr().err

    def test_cli_rejects_the_float32_average(self, tmp_path, capsys):
        # the float64 average passes, its float32 cast would not read back
        paths = []
        for i, m in enumerate(cast_counterexample()):
            paths.append(str(tmp_path / f"m{i}.fpm"))
            write_prob_map(m, paths[-1])
        avg, labels = tmp_path / "avg.fpm", tmp_path / "labels.pgm"
        assert main(["ensemble", *paths, "--out", str(avg), "--decide-out", str(labels)]) == EXIT_DATA
        assert not avg.exists() and not labels.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ensemble average: ") and "worst pixel (0, 0)" in err
        assert main(["ensemble", *paths, "--decide-out", str(labels)]) == EXIT_OK


@pytest.fixture
def prob_map_checks(monkeypatch):
    """Record the (dtype, shape) of each validate_prob_map call wherever a
    package module looks it up."""
    calls = []
    real = raster.validate_prob_map

    def counting(p, *args, **kwargs):
        calls.append((np.asarray(p).dtype, np.shape(p)))
        return real(p, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("fetalbiometry.") and getattr(module, "validate_prob_map", None) is real:
            monkeypatch.setattr(module, "validate_prob_map", counting)
    return calls


@pytest.fixture
def margin_checks(monkeypatch):
    """Record the shape of each stack ``passes_with_margin`` is called on."""
    calls = []
    real = ensemble.passes_with_margin

    def counting(maps):
        calls.append(maps.shape)
        return real(maps)

    monkeypatch.setattr(ensemble, "passes_with_margin", counting)
    return calls


def set_sum(m, y, x, excess):
    """Scale pixel (x, y) of the float32 map ``m`` in place so that its
    channels, summed in float64, come within 6e-8 of 1 + excess."""
    target = 1.0 + excess
    px = m[y, x]
    px[:] = (px / px.astype(np.float64).sum() * target).astype(np.float32)
    big = int(px.argmax())
    for _ in range(64):  # float32 steps of the largest channel, each at most 6e-8 near 1
        s = px.astype(np.float64).sum()
        if abs(s - target) <= 6e-8:
            return
        px[big] = np.nextafter(px[big], np.float32(2 if s < target else -1))
    raise AssertionError("no float32 pixel sums to the target")


# a pixel sum that passes the check but not the margin, and one that fails
NEAR = PROB_SUM_TOL - 4e-7
OVER = PROB_SUM_TOL + 4e-7


def write_members(dirpath, n, shape=(6, 5), channels=3, seed=0):
    rng = np.random.default_rng(seed)
    paths = []
    for i in range(n):
        raw = rng.random((*shape, channels)) + 1e-3
        paths.append(str(Path(dirpath) / f"m{i}.fpm"))
        write_prob_map(raw / raw.sum(axis=2, keepdims=True), paths[-1])
    return paths


class TestChecksOnce:
    @pytest.mark.parametrize("n", [1, 3])
    def test_average_request(self, tmp_path, prob_map_checks, margin_checks, n):
        # one check of the members' one strip, all together; members that
        # clear the margin leave the average and its float32 cast unchecked
        paths = write_members(tmp_path, n)
        prob_map_checks.clear()
        argv = ["ensemble", *paths, "--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(argv) == EXIT_OK
        assert margin_checks == [(n, 6, 5, 3)]
        assert prob_map_checks == []

    @pytest.mark.parametrize("n", [1, 3])
    def test_average_request_near_the_tolerance(self, tmp_path, prob_map_checks, margin_checks, n):
        # a member near the tolerance: then one check per member, one for the
        # average and one for its float32 cast as it is written, as before
        paths = write_members(tmp_path, n)
        m = read_prob_map(paths[-1]).copy()
        set_sum(m, 2, 3, NEAR)
        write_prob_map(m, paths[-1])
        prob_map_checks.clear()
        argv = ["ensemble", *paths, "--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(argv) == EXIT_OK
        assert margin_checks == [(n, 6, 5, 3)]
        assert prob_map_checks == [(np.float32, (6, 5, 3))] * n + [(np.float64, (6, 5, 3)), (np.float32, (6, 5, 3))]

    def test_measure_request(self, tmp_path, prob_map_checks, margin_checks):
        # an .fpm input is an ensemble of one: its one strip is checked once,
        # and a map that clears the margin is decided unchecked
        labels = np.zeros((64, 64), np.uint8)
        labels[10:20, 10:30] = 1
        labels[30:60, 20:50] = 2
        p = np.where(labels[..., None] == np.arange(3), 0.9, 0.05)
        fpm = tmp_path / "f.fpm"
        write_prob_map(p, fpm)
        prob_map_checks.clear()
        main(["measure", str(fpm), "--out", str(tmp_path / "r.csv")])
        assert margin_checks == [(1, 64, 64, 3)]
        assert prob_map_checks == []


def strip_rows(width, channels):
    """Rows per strip of the reader for frames of this width and channel count."""
    return max(1, io_formats.STRIP_BYTES // (width * channels * 4))


@st.composite
def tall_frames(draw):
    """(n, channels, height, width, seed) of a frame that spans three or four
    strips, the last one partial."""
    channels = draw(st.sampled_from([2, 3]))
    width = draw(st.integers(600, 2000))
    rows = strip_rows(width, channels)
    height = draw(st.integers(2, 3)) * rows + draw(st.integers(1, rows - 1))
    return draw(st.integers(1, 4)), channels, height, width, draw(st.integers(0, 2**16))


def assert_same_files(n, channels, h, w, seed):
    """The average, decided and measure-loaded outputs of the CLI equal
    the public functions' outputs written by the public writers."""
    with tempfile.TemporaryDirectory() as d:
        out = Path(d)
        paths = write_members(out, n, (h, w), channels, seed)
        ms = [read_prob_map(p) for p in paths]
        argv = ["ensemble", *paths, "--out", str(out / "a.fpm"), "--decide-out", str(out / "d.pgm")]
        assert main(argv) == EXIT_OK
        write_prob_map(average(ms), out / "a_ref.fpm")
        write_label_mask(decide(average(ms)), out / "d_ref.pgm")
        for name in ("a.fpm", "d.pgm"):
            ref = name.replace(".", "_ref.")
            assert (out / name).read_bytes() == (out / ref).read_bytes(), name
        # what measure takes from an .fpm input
        assert np.array_equal(cli._load_labels(paths[0]), decide(ms[0]))


class TestSameFiles:
    """The files ``ensemble`` writes equal the public functions' output."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([2, 3]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
    def test_bytes(self, n, channels, h, w, seed):
        assert_same_files(n, channels, h, w, seed)

    @settings(max_examples=15, deadline=None)
    @given(tall_frames())
    def test_bytes_across_strips(self, frame):
        assert_same_files(*frame)

    def test_measure_across_strips(self, tmp_path):
        # a 256x256x3 map spans four strips, the last one row high
        assert 256 % strip_rows(256, 3) != 0 and 256 // strip_rows(256, 3) >= 3
        labels = phantom.render(phantom.random_scene(0, 256, 256))
        rng = np.random.default_rng(0)
        raw = np.where(labels[..., None] == np.arange(3), 0.6, 0.2) + rng.random((256, 256, 3)) * 0.3
        fpm = tmp_path / "f.fpm"
        write_prob_map(raw / raw.sum(axis=2, keepdims=True), fpm)
        (tmp_path / "ref").mkdir()
        write_label_mask(decide(read_prob_map(fpm)), tmp_path / "ref" / "f.pgm")
        assert main(["measure", str(fpm), "--out", str(tmp_path / "r.csv")]) == EXIT_OK
        assert main(["measure", str(tmp_path / "ref" / "f.pgm"), "--out", str(tmp_path / "r_ref.csv")]) == EXIT_OK
        assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "r_ref.csv").read_bytes()

    def test_mismatched_members(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = write_members(tmp_path / "a", 1, (4, 4), 3) + write_members(tmp_path / "b", 1, (4, 5), 3)
        out = tmp_path / "o"
        assert main(["ensemble", *paths, "--out", str(out)]) == EXIT_DATA
        assert not out.exists()
        assert capsys.readouterr().err == f"error: {paths[1]}: shape (4, 5, 3), expected (4, 4, 3)\n"


@st.composite
def fpm_bytes(draw):
    """The bytes of a small FPM file, good or broken in one way; None for a
    file that does not exist."""
    kind = draw(st.sampled_from(["good", "inside", "outside", "nan", "header", "truncated", "missing"]))
    h, w, c = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    raw = rng.random((h, w, c)) + 1e-3
    p = raw / raw.sum(axis=2, keepdims=True)
    y, x = rng.integers(h), rng.integers(w)
    if kind in ("inside", "outside"):  # one pixel's sum just inside or outside the tolerance
        p[y, x] *= 1.0 + draw(st.sampled_from([-1, 1])) * (0.9 if kind == "inside" else 1.5) * PROB_SUM_TOL
    elif kind == "nan":
        p[y, x, rng.integers(c)] = np.nan
    header = b"FPM %d %d %d\n" % (w, h, c)
    payload = p.astype("<f4").tobytes()
    if kind == "header":
        header = draw(
            st.sampled_from(
                [b"", b"FPM 1 1 2", b"FPX 1 1 2\n", b"FPM 1 1\n", b"FPM a 1 2\n", b"FPM 1 1 4\n", b"FPM 0 1 2\n"]
            )
        )
    elif kind == "truncated":
        payload = payload[: draw(st.integers(0, len(payload) - 1))]
    return None if kind == "missing" else header + payload


_OUTPUTS = {"--out": "out", "--decide-out": "decided.pgm"}


def expected_exit(paths, outputs):
    """The exit code the public functions imply for an ensemble call."""
    if not outputs:
        return EXIT_USAGE
    try:
        ms = [read_prob_map(p) for p in paths]
        validate_prob_map(average(ms))
        if "--out" in outputs:  # written as float32
            validate_prob_map(average(ms).astype(np.float32))
    except (FetalBiometryError, OSError, ValueError):
        return EXIT_DATA
    return EXIT_OK


class TestFailureContract:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(fpm_bytes(), min_size=1, max_size=3),
        st.sampled_from([(), ("--out",), ("--decide-out",), ("--out", "--decide-out")]),
    )
    def test_exit_codes_and_outputs(self, files, outputs):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            paths = [str(d / f"m{i}.fpm") for i in range(len(files))]
            for path, data in zip(paths, files):
                if data is not None:
                    Path(path).write_bytes(data)
            argv = ["ensemble", *paths]
            for flag in outputs:
                argv += [flag, str(d / _OUTPUTS[flag])]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == expected_exit(paths, outputs), err.getvalue()
            assert "Traceback" not in err.getvalue()
            written = {flag for flag in outputs if (d / _OUTPUTS[flag]).exists()}
            assert written == (set(outputs) if rc == EXIT_OK else set())


# 4 strips of 10, 10, 10 and 5 rows at this geometry
TALL = (35, 2048)


class TestRowsCheckedOnce:
    """Across strips, each member row is checked once, all members' rows of
    a strip together, strip by strip in order.  Only a strip near the
    tolerance is checked again, each member's rows and then the average's,
    and only then is the float32 average written to --out checked whole."""

    @pytest.mark.parametrize("n", [1, 3])
    def test_ensemble(self, tmp_path, prob_map_checks, margin_checks, n):
        paths = write_members(tmp_path, n, TALL, 3)
        prob_map_checks.clear()
        outputs = ["--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(["ensemble", *paths, *outputs]) == EXIT_OK
        strips = [10, 10, 10, 5]
        assert margin_checks == [(n, r, *TALL[1:], 3) for r in strips]
        assert prob_map_checks == []

    @pytest.mark.parametrize("n", [1, 3])
    def test_ensemble_near_the_tolerance(self, tmp_path, prob_map_checks, margin_checks, n):
        # the third strip, rows 20-29, comes near the tolerance in its last member
        paths = write_members(tmp_path, n, TALL, 3)
        m = read_prob_map(paths[-1]).copy()
        set_sum(m, 22, 7, -NEAR)
        write_prob_map(m, paths[-1])
        prob_map_checks.clear()
        outputs = ["--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(["ensemble", *paths, *outputs]) == EXIT_OK
        assert len(margin_checks) == 4
        written = [TALL[0]]  # the float32 average, checked whole as --out writes it
        assert [s[0] for t, s in prob_map_checks if t == np.float32] == [10] * n + written
        assert [s[0] for t, s in prob_map_checks if t == np.float64] == [10]

    def test_measure(self, tmp_path, prob_map_checks, margin_checks):
        # an .fpm input is an ensemble of one: one margin check per strip
        (path,) = write_members(tmp_path, 1, TALL, 3)
        prob_map_checks.clear()
        main(["measure", path, "--out", str(tmp_path / "r.csv")])
        assert margin_checks == [(1, r, *TALL[1:], 3) for r in [10, 10, 10, 5]]
        assert prob_map_checks == []

    def test_measure_near_the_tolerance(self, tmp_path, prob_map_checks, margin_checks):
        # the third strip comes near the tolerance: its rows are checked as
        # the member and then as their float64 mean
        (path,) = write_members(tmp_path, 1, TALL, 3)
        m = read_prob_map(path).copy()
        set_sum(m, 22, 7, NEAR)
        write_prob_map(m, path)
        prob_map_checks.clear()
        main(["measure", path, "--out", str(tmp_path / "r.csv")])
        assert len(margin_checks) == 4
        assert prob_map_checks == [(np.float32, (10, *TALL[1:], 3)), (np.float64, (10, *TALL[1:], 3))]


def unchecked_map(path):
    """The float32 map of an FPM file as written, unchecked; None when its
    header or payload length is bad."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    fields = line.split()
    if len(fields) != 4 or fields[0] != b"FPM" or not all(f.isdigit() for f in fields[1:]):
        return None
    w, h, c = map(int, fields[1:])
    if len(payload) < w * h * c * 4:
        return None
    return np.frombuffer(payload, "<f4", w * h * c).reshape(h, w, c)


def strip_error(strip, y0, height):
    """validate_prob_map's message for a strip that starts at row ``y0`` of a
    frame ``height`` rows high, with its pixel in the frame, or None: the
    frame's other rows are one-hot, which sum to exactly 1, so the worst pixel
    lies in the strip."""
    frame = np.zeros((height, *strip.shape[1:]), strip.dtype)
    frame[..., 0] = 1
    frame[y0 : y0 + len(strip)] = strip
    try:
        validate_prob_map(frame)
    except ValueError as e:
        return str(e)
    return None


def strip_order_stderr(paths):
    """What the CLI prints for these members: the first failure in read order.
    Every header, payload length and shape, in the order given; then strip by
    strip, each member's rows in order and then the rows of their average;
    then the float32 cast of the average, which --out writes.  For one
    member, the map ``measure`` decides, the average fails only where the
    member does, so this is also what ``measure`` prints for it."""
    members = []
    for p in paths:
        m = unchecked_map(p)
        if m is None:
            with pytest.raises(FormatError) as e:  # the reader's own message for a bad header
                read_prob_map(p)
            return f"error: {p}: {e.value}\n"
        if members and m.shape != members[0].shape:
            return f"error: {p}: shape {m.shape}, expected {members[0].shape}\n"
        members.append(m)
    h, w, c = members[0].shape
    for y0 in range(0, h, strip_rows(w, c)):
        strips = [m[y0 : y0 + strip_rows(w, c)] for m in members]
        for p, strip in zip(paths, strips):
            if (e := strip_error(strip, y0, h)) is not None:
                return f"error: {p}: {e}\n"
        if (e := strip_error(average(strips), y0, h)) is not None:
            return f"error: ensemble average: {e}\n"
    if (e := strip_error(average(members).astype(np.float32), 0, h)) is not None:
        return f"error: ensemble average: {e}\n"
    return ""


def tall_members(n):
    rng = np.random.default_rng(0)
    raw = rng.random((n, *TALL, 3)) + 1e-3
    return list((raw / raw.sum(axis=3, keepdims=True)).astype(np.float32))


def fpm_file(m):
    """A map's FPM bytes: its float32 values as they are, unchecked."""
    return b"FPM %d %d %d\n" % (m.shape[1], m.shape[0], m.shape[2]) + m.astype("<f4").tobytes()


def write_planted(ms, dirpath):
    """Write each member, a map or the bytes of a file, to its own file."""
    paths = [str(Path(dirpath) / f"m{i}.fpm") for i in range(len(ms))]
    for m, p in zip(ms, paths):
        Path(p).write_bytes(m if isinstance(m, bytes) else fpm_file(m))
    return paths


# Each plant breaks members of tall_members(3) and returns the member its
# error names (None: the average) and the pixel, if it names one.


def plant_nan(ms):
    ms[1][23, 7, 2] = np.nan
    return 1, None


def plant_range(ms):
    ms[2][14, 2000, 0] = 1.5
    return 2, None


def plant_sums(ms):
    # member 0 misses a little in the third strip and most in the last, but
    # member 2 fails earlier, in the second strip: member 2 is named
    ms[0][22, 3] *= 1.002
    ms[0][34, 5] *= 1.004
    ms[2][11, 9, 0] = np.nan
    return 2, None


def plant_strip_worst(ms):
    # member 0 alone, as in plant_sums: its third strip fails first, so the
    # worst pixel of that strip is named, not the frame's worst at (5, 34)
    ms[0][22, 3] *= 1.002
    ms[0][34, 5] *= 1.004
    return 0, (3, 22)


def plant_rounding(ms):
    # members that pass but whose average misses the tolerance by one
    # rounding step, at two pixels below the first strip
    for m, bad in zip(ms, rounding_counterexample()):
        m[17, 100] = bad[0, 0]
        m[31, 40] = bad[0, 0]
    return None, (100, 17)


def plant_header(ms):
    # member 0 fails in the first strip, but every header is read first
    ms[0][3, 5, 0] = np.nan
    ms[2] = b"FPX" + fpm_file(ms[2])[3:]
    return 2, None


def plant_shape(ms):
    ms[0][3, 5, 0] = np.nan
    ms[1] = ms[1][:, :-1]
    return 1, None


PLANTS = {
    "nan": plant_nan,
    "range": plant_range,
    "sums": plant_sums,
    "strip_worst": plant_strip_worst,
    "rounding": plant_rounding,
    "header": plant_header,
    "shape": plant_shape,
}


class TestFailuresBelowTheFirstStrip:
    """The error names the first failure in read order, and its pixel in frame coordinates."""

    @pytest.mark.parametrize("plant", list(PLANTS))
    def test_frame_level_report(self, tmp_path, capsys, plant):
        ms = tall_members(3)
        member, pixel = PLANTS[plant](ms)
        paths = write_planted(ms, tmp_path)
        want = strip_order_stderr(paths)
        outputs = ["--decide-out", str(tmp_path / "d.pgm"), "--out", str(tmp_path / "o")]
        rc = main(["ensemble", *paths, *outputs])
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == want
        assert want.startswith(f"error: {paths[member]}: " if member is not None else "error: ensemble average: ")
        if pixel is not None:
            assert f"worst pixel ({pixel[0]}, {pixel[1]})" in want
        assert not (tmp_path / "o").exists() and not (tmp_path / "d.pgm").exists()

    def test_truncated_member(self, tmp_path, capsys):
        paths = write_members(tmp_path, 3, TALL, 3)
        data = Path(paths[1]).read_bytes()
        Path(paths[1]).write_bytes(data[: len(data) - 4 * TALL[1] * 3])  # drops the last row
        want = strip_order_stderr(paths)
        assert want.startswith(f"error: {paths[1]}: truncated payload")
        out = tmp_path / "o"
        assert main(["ensemble", *paths, "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("plant", ["nan", "sums"])
    def test_measure(self, tmp_path, capsys, plant):
        # each failing member measured alone: the map is its one member
        ms = tall_members(3)
        PLANTS[plant](ms)
        wants = {p: strip_order_stderr([p]) for p in write_planted(ms, tmp_path)}
        failing = [p for p, want in wants.items() if want]
        assert main(["measure", *failing, "--out", str(tmp_path / "r.csv")]) == EXIT_PARTIAL
        assert capsys.readouterr().err == "".join(wants[p] for p in failing)
        if plant == "sums":  # the worst pixel of the failing strip, not of the whole frame at (5, 34)
            assert "worst pixel (3, 22)" in wants[failing[0]]


@pytest.fixture
def opens(monkeypatch):
    """The number of times each path is opened, through the builtin open."""
    counts = collections.Counter()
    real = builtins.open

    def counting(file, *args, **kwargs):
        counts[str(file)] += 1
        return real(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting)
    return counts


@pytest.mark.parametrize("plant", ["nan", "range", "sums", "rounding", "header"])
def test_failure_opens_each_member_once(tmp_path, opens, plant):
    # the error comes from the one read, not from reading the members again
    ms = tall_members(3)
    PLANTS[plant](ms)
    paths = write_planted(ms, tmp_path)
    outputs = ["--out", str(tmp_path / "o"), "--decide-out", str(tmp_path / "d.pgm")]
    assert main(["ensemble", *paths, *outputs]) == EXIT_DATA
    assert [opens[p] for p in paths] == [1, 1, 1]
    for p in paths:
        if strip_order_stderr([p]):  # a map that fails on its own
            opens.clear()
            assert main(["measure", p, "--out", str(tmp_path / "r.csv")]) == EXIT_PARTIAL
            assert opens[p] == 1


@pytest.mark.parametrize("flags", [["--out"], ["--decide-out"]])
def test_out_names_a_member(tmp_path, flags):
    # every member is read in full before the output replaces one of them
    paths = write_members(tmp_path, 3, TALL, 3)
    ms = [read_prob_map(p) for p in paths]
    ref = tmp_path / "ref"
    if "--decide-out" in flags:
        write_label_mask(decide(average(ms)), ref)
    else:
        write_prob_map(average(ms), ref)
    assert main(["ensemble", *paths, *flags, paths[1]]) == EXIT_OK
    assert Path(paths[1]).read_bytes() == ref.read_bytes()


@pytest.fixture
def no_member_opened(monkeypatch):
    """Fail the test if any probability map is opened."""

    def fail(*args, **kwargs):
        raise AssertionError("a member was opened")

    monkeypatch.setattr(io_formats, "prob_map_strips", fail)
    monkeypatch.setattr(io_formats, "read_prob_map", fail)


@pytest.mark.parametrize("spelling", ["same", "dotted"])
def test_out_and_decide_out_name_one_file_usage(tmp_path, capsys, no_member_opened, spelling):
    # the decided mask would replace the average; the paths are compared resolved
    paths = write_members(tmp_path, 2)
    (tmp_path / "sub").mkdir()
    before = sorted(tmp_path.iterdir())
    out = tmp_path / "x"
    other = out if spelling == "same" else tmp_path / "sub" / ".." / "x"
    assert main(["ensemble", *paths, "--out", str(out), "--decide-out", str(other)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: --out and --decide-out both name {out}\n"
    assert sorted(tmp_path.iterdir()) == before


# A reference that checks everything in full, written out here: a float64
# check of one map, the pairwise-tree mean of the members and their argmax,
# strip by strip.


def full_check(p, origin=(0, 0)):
    """The float64 check of one map: None when it passes, else its message."""
    p = np.asarray(p)
    if p.dtype != np.float32:
        p = np.asarray(p, dtype=np.float64)
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        return "probability values must lie in [0, 1]"
    sums = np.add(p[..., 0], p[..., 1], dtype=np.float64)
    for c in range(2, p.shape[2]):
        sums += p[..., c]
    if max(sums.max() - 1.0, 1.0 - sums.min()) > PROB_SUM_TOL:
        err = np.abs(sums - 1.0)
        y, x = np.unravel_index(int(err.argmax()), err.shape)
        return (
            f"channel sums must equal 1 within {PROB_SUM_TOL}; "
            f"worst pixel ({x + origin[0]}, {y + origin[1]}) sums to {sums[y, x]:.6g}"
        )
    return None


def full_mean(maps):
    sums = [np.add(maps[i], maps[i + 1], dtype=np.float64) for i in range(0, len(maps) - 1, 2)]
    if len(maps) % 2:
        sums.append(np.asarray(maps[-1], np.float64))
    while len(sums) > 1:
        sums = [sums[i] + sums[i + 1] if i + 1 < len(sums) else sums[i] for i in range(0, len(sums), 2)]
    return sums[0] / len(maps)


def full_member_check(maps, origin=(0, 0)):
    """(index, message) of the first member the float64 check fails, or None."""
    for i, m in enumerate(maps):
        if (e := full_check(m, origin)) is not None:
            return i, e
    return None


def member_check(maps, origin=(0, 0)):
    """(index, message) of the first member the ensemble's checks fail, or None:
    the stack clears the margin, or each member is checked in order."""
    if passes_with_margin(maps):
        return None
    try:
        average(maps, origin)
    except MemberError as e:
        return e.index, str(e.__cause__)
    return None


@st.composite
def stacks_near_the_tolerance(draw):
    """(n, h, w, c) float32 stacks with one pixel's channel sum drawn within
    2e-6 of the tolerance, above or below 1; sometimes a second pixel is near
    too, or a pixel that sums to about 1 holds a value at or past [0, 1]'s
    ends."""
    n, c = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.random((n, h, w, c)) + 1e-3
    maps = (raw / raw.sum(axis=3, keepdims=True)).astype(np.float32)
    for _ in range(draw(st.integers(1, 2))):
        i, y, x = draw(st.integers(0, n - 1)), draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        side = draw(st.sampled_from([-1, 1]))
        set_sum(maps[i], y, x, side * (PROB_SUM_TOL + draw(st.floats(-2e-6, 2e-6))))
    if draw(st.integers(0, 3)) == 0:
        i, y, x = (draw(st.integers(0, s - 1)) for s in maps.shape[:3])
        maps[i, y, x] = 0
        maps[i, y, x, :2] = draw(st.sampled_from(list(EDGE_PIXELS.values())))
    return maps


# the first two channels of a pixel summing to about 1, with a value at or
# past an end of [0, 1]
EDGE_PIXELS = {
    "nan": (np.nan, 1),
    "negative": (-(2.0**-30), 1),
    "minus-zero": (-0.0, 1),  # passes the check
    "one": (0, 1),
    "above-one": (np.nextafter(np.float32(1), np.float32(2)), 0),
}


class TestMarginCheck:
    """The one check of a strip's members gives the float64 check's verdict
    and message, and a stack that clears the margin has a mean, and a float32
    cast of it, that pass the float64 check."""

    @settings(max_examples=400, deadline=None)
    @given(stacks_near_the_tolerance(), st.integers(0, 1000))
    def test_same_verdict_and_message(self, maps, y0):
        assert member_check(maps, (0, y0)) == full_member_check(maps, (0, y0))
        if passes_with_margin(maps):
            mean = full_mean(maps)
            assert full_check(mean) is None and full_check(mean.astype(np.float32)) is None

    @pytest.mark.parametrize("pixel", list(EDGE_PIXELS))
    def test_values_at_the_ends_of_the_range(self, pixel):
        maps = np.zeros((2, 1, 3, 3), np.float32)
        maps[..., 0] = 1
        maps[1, 0, 1, :2] = EDGE_PIXELS[pixel]
        if pixel == "one":
            assert passes_with_margin(maps)
        elif pixel != "minus-zero":  # -0.0 may go either way
            assert not passes_with_margin(maps)
        assert member_check(maps) == full_member_check(maps)

    @pytest.mark.parametrize("side", [-1, 1])
    def test_margin_is_where_the_fast_check_stops(self, side):
        # a pixel 3e-7 inside the margin clears it; 3e-7 outside it does not,
        # though the map still passes
        maps = tall_members(1)[0][None, :3, :4]
        for excess, clears in ((PROB_SUM_TOL - SUM_MARGIN - 3e-7, True), (PROB_SUM_TOL - SUM_MARGIN + 3e-7, False)):
            set_sum(maps[0], 1, 2, side * excess)
            assert passes_with_margin(maps) is clears
            assert full_check(maps[0]) is None


def full_ensemble(paths, out=None, decide_out=None):
    """(exit code, stderr, {output: bytes}) of the ensemble command with every
    check run in full, on members with good headers of one shape: strip by
    strip, each member checked in order, then their mean, decided by argmax;
    after the last strip the float32 cast of the mean, if --out is asked
    for; the outputs are written only when every check passes."""
    members = [unchecked_map(p) for p in paths]
    h, w, c = members[0].shape
    rows = strip_rows(w, c)
    avg, labels = np.empty((h, w, c), "<f4"), np.empty((h, w), np.uint8)
    for y0 in range(0, h, rows):
        strips = [m[y0 : y0 + rows] for m in members]
        if (failed := full_member_check(strips, (0, y0))) is not None:
            return EXIT_DATA, f"error: {paths[failed[0]]}: {failed[1]}\n", {}
        mean = full_mean(strips)
        if (e := full_check(mean, (0, y0))) is not None:
            return EXIT_DATA, f"error: ensemble average: {e}\n", {}
        labels[y0 : y0 + rows] = mean.argmax(axis=2)
        avg[y0 : y0 + rows] = mean
    files = {}
    if out:
        if (e := full_check(avg)) is not None:
            return EXIT_DATA, f"error: ensemble average: {e}\n", {}
        files[out] = b"FPM %d %d %d\n" % (w, h, c) + avg.tobytes()
    if decide_out:
        files[decide_out] = b"P5\n%d %d\n255\n" % (w, h) + np.array([0, 127, 255], np.uint8)[labels].tobytes()
    return EXIT_OK, "", files


def near_plant(n):
    """Members near the tolerance in the third strip and in the last one."""
    ms = tall_members(n)
    set_sum(ms[-1], 22, 7, NEAR)
    set_sum(ms[0], 33, 2000, -NEAR)
    return ms


def over_plant(n):
    """A member near the tolerance in the second strip, another over it in the third."""
    ms = near_plant(n)
    set_sum(ms[0], 12, 40, NEAR)
    set_sum(ms[n // 2], 25, 3, -OVER)
    return ms


def rounding_plant():
    ms = tall_members(3)
    plant_rounding(ms)
    return ms


FULL_CASES = {
    **{f"clear-{n}": (lambda n=n: tall_members(n)) for n in (1, 2, 3, 4)},
    **{f"near-{n}": (lambda n=n: near_plant(n)) for n in (1, 2, 3, 4)},
    **{f"over-{n}": (lambda n=n: over_plant(n)) for n in (1, 2, 3, 4)},
    "rounding-3": rounding_plant,
    "cast": cast_counterexample,
}


@pytest.mark.parametrize("outputs", [("--out", "--decide-out"), ("--out",), ("--decide-out",)])
@pytest.mark.parametrize("case", list(FULL_CASES))
def test_same_as_checking_in_full(tmp_path, capsys, case, outputs):
    paths = write_planted(FULL_CASES[case](), tmp_path)
    names = {"--out": str(tmp_path / "a.fpm"), "--decide-out": str(tmp_path / "d.pgm")}
    want_rc, want_err, want_files = full_ensemble(paths, *(names[f] if f in outputs else None for f in names))
    rc = main(["ensemble", *paths, *(arg for f in outputs for arg in (f, names[f]))])
    assert (rc, capsys.readouterr().err) == (want_rc, want_err)
    assert {p: Path(p).read_bytes() for p in names.values() if Path(p).exists()} == want_files


@pytest.mark.parametrize("case", [c for c in FULL_CASES if c.endswith("-1")])
def test_measure_same_as_checking_in_full(tmp_path, capsys, case):
    # measure decides an .fpm input as an ensemble of one: the reference
    # decides it with every check in full and measures the decided mask,
    # which has the same stem; a failed check is the input's one error
    (path,) = write_planted(FULL_CASES[case](), tmp_path)
    (tmp_path / "ref").mkdir()
    decided, report = tmp_path / "ref" / "m0.pgm", tmp_path / "ref" / "r.csv"
    want_rc, want_err, files = full_ensemble([path], decide_out=decided)
    if want_rc == EXIT_OK:
        decided.write_bytes(files[decided])
        want_rc = main(["measure", str(decided), "--out", str(report)])
        want_err = capsys.readouterr().err.replace(str(decided), path)
    else:
        want_rc = EXIT_PARTIAL
        io_formats.write_report_csv([], report)
    rc = main(["measure", path, "--out", str(tmp_path / "r.csv")])
    assert (rc, capsys.readouterr().err) == (want_rc, want_err)
    assert (tmp_path / "r.csv").read_bytes() == report.read_bytes()
