"""The ensemble path of the CLI: each member is checked once, as it is read,
and the average once more; the files written equal what the public functions
compute."""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fetalbiometry import raster
from fetalbiometry.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from fetalbiometry.ensemble import average, decide, vote
from fetalbiometry.errors import FetalBiometryError
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


@pytest.fixture
def prob_map_checks(monkeypatch):
    """Count validate_prob_map calls wherever a package module looks it up."""
    calls = []
    real = raster.validate_prob_map

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

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
        # one check per member as it is read, one for the average
        paths = write_members(tmp_path, n)
        prob_map_checks.clear()
        argv = ["ensemble", *paths, "--out", str(tmp_path / "a.fpm"), "--decide-out", str(tmp_path / "d.pgm")]
        assert main(argv) == EXIT_OK
        assert len(prob_map_checks) == n + 1

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


class TestSameFiles:
    """The files ``ensemble`` writes equal the public functions' output."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.sampled_from([2, 3]), st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**16))
    def test_bytes(self, n, channels, h, w, seed):
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
