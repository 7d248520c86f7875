"""The ensemble path of the CLI: each member row is checked once, as it is
read strip by strip, and each average row once more, and the float32 average
written to --out is checked whole; the files written equal what the public
functions compute, and a failure is reported as the frame-level path reports
it."""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalbiometry import cli, io_formats, phantom, raster
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from fetalbiometry.ensemble import average, decide, vote
from fetalbiometry.errors import FetalBiometryError, FormatError
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
        assert main(["ensemble", *paths, "--vote", "--out", str(tmp_path / "vote.pgm")]) == EXIT_OK

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
    def test_average_request(self, tmp_path, prob_map_checks, n):
        # one check per member as it is read, one for the average, one for
        # its float32 cast as it is written
        paths = write_members(tmp_path, n)
        prob_map_checks.clear()
        argv = ["ensemble", *paths, "--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(argv) == EXIT_OK
        assert len(prob_map_checks) == n + 2

    @pytest.mark.parametrize("n", [1, 3])
    def test_vote_request(self, tmp_path, prob_map_checks, n):
        paths = write_members(tmp_path, n)
        prob_map_checks.clear()
        assert main(["ensemble", *paths, "--vote", "--out", str(tmp_path / "v.pgm")]) == EXIT_OK
        assert len(prob_map_checks) == n

    def test_measure_request(self, tmp_path, prob_map_checks):
        labels = np.zeros((64, 64), np.uint8)
        labels[10:20, 10:30] = 1
        labels[30:60, 20:50] = 2
        p = np.where(labels[..., None] == np.arange(3), 0.9, 0.05)
        fpm = tmp_path / "f.fpm"
        write_prob_map(p, fpm)
        prob_map_checks.clear()
        main(["measure", str(fpm), "--out", str(tmp_path / "r.csv")])
        assert len(prob_map_checks) == 1


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
    """The average, decided, voted and measure-loaded outputs of the CLI equal
    the public functions' outputs written by the public writers."""
    with tempfile.TemporaryDirectory() as d:
        out = Path(d)
        paths = write_members(out, n, (h, w), channels, seed)
        ms = [read_prob_map(p) for p in paths]
        argv = ["ensemble", *paths, "--out", str(out / "a.fpm"), "--decide-out", str(out / "d.pgm")]
        assert main(argv) == EXIT_OK
        assert main(["ensemble", *paths, "--vote", "--out", str(out / "v.pgm")]) == EXIT_OK
        write_prob_map(average(ms), out / "a_ref.fpm")
        write_label_mask(decide(average(ms)), out / "d_ref.pgm")
        write_label_mask(vote(ms), out / "v_ref.pgm")
        for name in ("a.fpm", "d.pgm", "v.pgm"):
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

    @pytest.mark.parametrize("vote_flag", [[], ["--vote"]])
    def test_mismatched_members(self, tmp_path, capsys, vote_flag):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        paths = write_members(tmp_path / "a", 1, (4, 4), 3) + write_members(tmp_path / "b", 1, (4, 5), 3)
        out = tmp_path / "o"
        assert main(["ensemble", *paths, *vote_flag, "--out", str(out)]) == EXIT_DATA
        assert not out.exists()
        assert "member 1 has shape" in capsys.readouterr().err


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


def expected_exit(paths, use_vote, outputs):
    """The exit code the public functions imply for an ensemble call."""
    if not outputs:
        return EXIT_USAGE
    try:
        ms = [read_prob_map(p) for p in paths]
        if use_vote:
            vote(ms)
        else:
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
        st.booleans(),
        st.sampled_from([(), ("--out",), ("--decide-out",), ("--out", "--decide-out")]),
    )
    def test_exit_codes_and_outputs(self, files, use_vote, outputs):
        with tempfile.TemporaryDirectory() as d:
            d = Path(d)
            paths = [str(d / f"m{i}.fpm") for i in range(len(files))]
            for path, data in zip(paths, files):
                if data is not None:
                    Path(path).write_bytes(data)
            argv = ["ensemble", *paths, *(["--vote"] if use_vote else [])]
            for flag in outputs:
                argv += [flag, str(d / _OUTPUTS[flag])]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(argv)
            assert rc == expected_exit(paths, use_vote, outputs), err.getvalue()
            assert "Traceback" not in err.getvalue()
            written = {flag for flag in outputs if (d / _OUTPUTS[flag]).exists()}
            if rc != EXIT_OK:
                assert not written
            elif use_vote:  # the vote goes to --decide-out, else to --out
                assert written == {"--decide-out" if "--decide-out" in outputs else "--out"}
            else:
                assert written == set(outputs)


# 4 strips of 10, 10, 10 and 5 rows at this geometry
TALL = (35, 2048)


class TestRowsCheckedOnce:
    """Across strips, validate_prob_map sees each member row and each average
    row exactly once, strip by strip in order; the float32 average written
    to --out is checked whole, once more."""

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("use_vote", [False, True])
    def test_ensemble(self, tmp_path, prob_map_checks, n, use_vote):
        paths = write_members(tmp_path, n, TALL, 3)
        prob_map_checks.clear()
        if use_vote:
            outputs = ["--vote", "--out", str(tmp_path / "v.pgm")]
        else:
            outputs = ["--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(["ensemble", *paths, *outputs]) == EXIT_OK
        strips = [10, 10, 10, 5]
        written = [] if use_vote else [TALL[0]]
        assert [s[0] for t, s in prob_map_checks if t == np.float32] == [r for r in strips for _ in range(n)] + written
        assert [s[0] for t, s in prob_map_checks if t == np.float64] == ([] if use_vote else strips)

    def test_measure(self, tmp_path, prob_map_checks):
        (path,) = write_members(tmp_path, 1, TALL, 3)
        prob_map_checks.clear()
        main(["measure", path, "--out", str(tmp_path / "r.csv")])
        assert [s[0] for t, s in prob_map_checks] == [10, 10, 10, 5]


def frame_level_stderr(paths, use_vote):
    """What the frame-level path prints: members read whole and in order, then
    the whole average checked."""
    members = []
    for p in paths:
        try:
            members.append(read_prob_map(p))
        except FormatError as e:
            return f"error: {p}: {e}\n"
    if not use_vote:
        try:
            validate_prob_map(average(members))
        except ValueError as e:
            return f"error: ensemble average: {e}\n"
    return ""


def tall_members(n):
    rng = np.random.default_rng(0)
    raw = rng.random((n, *TALL, 3)) + 1e-3
    return list((raw / raw.sum(axis=3, keepdims=True)).astype(np.float32))


def write_raw(m, path):
    """Write a map's float32 bytes as they are, unchecked."""
    Path(path).write_bytes(b"FPM %d %d %d\n" % (m.shape[1], m.shape[0], m.shape[2]) + m.astype("<f4").tobytes())


def plant_nan(ms):
    ms[1][23, 7, 2] = np.nan
    return 1, None


def plant_range(ms):
    ms[2][14, 2000, 0] = 1.5
    return 2, None


def plant_sums(ms):
    # member 0 misses a little in the third strip and most in the last, and
    # member 2 fails earlier, in the second strip: member 0 and (5, 34) are named
    ms[0][22, 3] *= 1.002
    ms[0][34, 5] *= 1.004
    ms[2][11, 9, 0] = np.nan
    return 0, (5, 34)


def plant_rounding(ms):
    # members that pass but whose average misses the tolerance by one
    # rounding step, at two pixels below the first strip
    for m, bad in zip(ms, rounding_counterexample()):
        m[17, 100] = bad[0, 0]
        m[31, 40] = bad[0, 0]
    return None, (100, 17)


PLANTS = {"nan": plant_nan, "range": plant_range, "sums": plant_sums, "rounding": plant_rounding}


class TestFailuresBelowTheFirstStrip:
    @pytest.mark.parametrize("use_vote", [False, True])
    @pytest.mark.parametrize("plant", list(PLANTS))
    def test_frame_level_report(self, tmp_path, capsys, plant, use_vote):
        ms = tall_members(3)
        member, pixel = PLANTS[plant](ms)
        paths = [str(tmp_path / f"m{i}.fpm") for i in range(len(ms))]
        for m, p in zip(ms, paths):
            write_raw(m, p)
        want = frame_level_stderr(paths, use_vote)
        outputs = ["--out", str(tmp_path / "o"), "--decide-out", str(tmp_path / "d.pgm")]
        rc = main(["ensemble", *paths, *(["--vote"] if use_vote else []), *outputs])
        if use_vote and member is None:  # the vote has no average to check
            assert rc == EXIT_OK and want == ""
            return
        assert rc == EXIT_DATA
        assert capsys.readouterr().err == want
        assert want.startswith(f"error: {paths[member]}: " if member is not None else "error: ensemble average: ")
        if pixel is not None:
            assert f"worst pixel ({pixel[0]}, {pixel[1]})" in want
        assert not (tmp_path / "o").exists() and not (tmp_path / "d.pgm").exists()

    @pytest.mark.parametrize("use_vote", [False, True])
    def test_truncated_member(self, tmp_path, capsys, use_vote):
        paths = write_members(tmp_path, 3, TALL, 3)
        data = Path(paths[1]).read_bytes()
        Path(paths[1]).write_bytes(data[: len(data) - 4 * TALL[1] * 3])  # drops the last row
        want = frame_level_stderr(paths, use_vote)
        assert want.startswith(f"error: {paths[1]}: truncated payload")
        out = tmp_path / "o"
        assert main(["ensemble", *paths, *(["--vote"] if use_vote else []), "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err == want
        assert not out.exists()

    @pytest.mark.parametrize("plant", ["nan", "sums"])
    def test_measure(self, tmp_path, capsys, plant):
        ms = tall_members(3)
        member, _ = PLANTS[plant](ms)
        path = tmp_path / "f.fpm"
        write_raw(ms[member], path)
        with pytest.raises(FormatError) as want:
            read_prob_map(path)
        assert main(["measure", str(path), "--out", str(tmp_path / "r.csv")]) == EXIT_PARTIAL
        assert capsys.readouterr().err == f"error: {path}: {want.value}\n"


@pytest.mark.parametrize("flags", [["--out"], ["--vote", "--out"]])
def test_out_names_a_member(tmp_path, flags):
    # every member is read in full before the output replaces one of them
    paths = write_members(tmp_path, 3, TALL, 3)
    ms = [read_prob_map(p) for p in paths]
    ref = tmp_path / "ref"
    if "--vote" in flags:
        write_label_mask(vote(ms), ref)
    else:
        write_prob_map(average(ms), ref)
    assert main(["ensemble", *paths, *flags, paths[1]]) == EXIT_OK
    assert Path(paths[1]).read_bytes() == ref.read_bytes()
