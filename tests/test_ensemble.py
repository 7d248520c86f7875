import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fetalbiometry.ensemble import average, combine, decide
from fetalbiometry.errors import DimensionMismatchError, MemberError
from fetalbiometry.raster import PROB_SUM_TOL, validate_label_mask, validate_prob_map

# Reference implementations: every map upcast to a float64 copy, channel sums
# and decisions as reductions over axis 2.  The production code must match
# them bit for bit on every map they accept and raise the same errors.


def ref_validate_prob_map(p):
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 3 or p.shape[2] not in (2, 3):
        raise ValueError(f"probability map must be (H, W, C) with C in {{2, 3}}, got {p.shape}")
    if p.size:
        if p.min() < 0.0 or p.max() > 1.0:
            raise ValueError("probability values must lie in [0, 1]")
        sums = p.sum(axis=2, dtype=np.float64)
        err = np.abs(sums - 1.0)
        if err.max() > PROB_SUM_TOL:
            y, x = np.unravel_index(int(err.argmax()), err.shape)
            raise ValueError(
                f"channel sums must equal 1 within {PROB_SUM_TOL}; worst pixel ({x}, {y}) sums to {sums[y, x]:.6g}"
            )
    return p


def _ref_check_members(members):
    if not members:
        raise ValueError("ensemble needs at least one member")
    checked = []
    for i, m in enumerate(members):
        try:
            checked.append(ref_validate_prob_map(m))
        except ValueError as e:
            raise MemberError(i, e) from e
    shape = checked[0].shape
    for i, m in enumerate(checked[1:], start=1):
        if m.shape != shape:
            raise DimensionMismatchError(f"member {i} has shape {m.shape}, expected {shape}")
    return checked


def _ref_pairwise_sum(arrays):
    while len(arrays) > 1:
        arrays = [
            arrays[i] + arrays[i + 1] if i + 1 < len(arrays) else arrays[i]
            for i in range(0, len(arrays), 2)
        ]
    return arrays[0]


def ref_average(members):
    members = _ref_check_members(members)
    acc = _ref_pairwise_sum([m.astype(np.float64) for m in members])
    return acc / len(members)


def ref_decide(p):
    p = ref_validate_prob_map(p)
    return validate_label_mask(p.argmax(axis=2).astype(np.uint8))


def outcome(f, *args):
    """The array ``f`` returns, or the type and message of what it raises,
    and for a MemberError the member's index and its cause's message."""
    try:
        return f(*args)
    except MemberError as e:
        return MemberError, str(e), e.index, str(e.__cause__)
    except (ValueError, DimensionMismatchError) as e:
        return type(e), str(e)


def assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and got == want, got
    else:
        assert isinstance(got, np.ndarray), got
        assert got.shape == want.shape
        assert got.astype(want.dtype).tobytes() == want.tobytes()


@st.composite
def prob_maps(draw, shape, channels, delta=0.0):
    """A probability map on a coarse grid, so that ties and exact sums occur.

    "grid" maps hold multiples of 1/8 whose channels sum to exactly 1;
    "noisy" maps are random rows normalised in float64, whose sums are off by
    rounding, more so after a cast to float32.  A nonzero ``delta`` is added
    to one drawn entry.
    """
    h, w = shape
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    if draw(st.booleans()):
        n = h * w * (channels - 1)
        k = np.array(draw(st.lists(st.integers(0, 8 // (channels - 1)), min_size=n, max_size=n)))
        k = k.reshape(h, w, channels - 1)
        p = np.concatenate([k, 8 - k.sum(axis=2, keepdims=True)], axis=2) / 8
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        raw = rng.random((h, w, channels)) + 1e-3
        p = raw / raw.sum(axis=2, keepdims=True)
    p = p.astype(dtype)
    if delta:
        y, x, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1)), draw(st.integers(0, channels - 1))
        p[y, x, c] += delta
    return p


# Moves of one entry: exact and inexact sum errors on both sides of the
# tolerance, and values outside [0, 1].  Zero is drawn half the time.
_DELTAS = st.one_of(
    st.just(0.0), st.sampled_from([5e-5, -5e-5, 2e-4, -2e-4, 2e-3, -1 / 8, 1 / 8, 1.5, -0.25])
)


@st.composite
def shapes(draw):
    return (draw(st.integers(1, 8)), draw(st.integers(1, 8))), draw(st.sampled_from([2, 3]))


@st.composite
def single_maps(draw):
    return draw(prob_maps(*draw(shapes()), delta=draw(_DELTAS)))


@st.composite
def member_lists(draw):
    """1-9 members of one shape; at most one of them moved by a delta."""
    shape, channels = draw(shapes())
    n = draw(st.integers(1, 9))
    moved = draw(st.integers(0, n - 1))
    delta = draw(_DELTAS)
    return [draw(prob_maps(shape, channels, delta if i == moved else 0.0)) for i in range(n)]


def prob_map(rng, h=6, w=5, c=3):
    raw = rng.random((h, w, c)) + 1e-3
    return raw / raw.sum(axis=2, keepdims=True)


class TestAverage:
    def test_identity_single_member(self):
        rng = np.random.default_rng(0)
        p = prob_map(rng)
        assert np.array_equal(average([p]), p)

    def test_mean_of_two(self):
        a = np.dstack([np.full((2, 2), 0.2), np.full((2, 2), 0.8)])
        b = np.dstack([np.full((2, 2), 0.6), np.full((2, 2), 0.4)])
        out = average([a, b])
        assert np.allclose(out[..., 0], 0.4) and np.allclose(out[..., 1], 0.6)

    def test_rows_stay_normalized(self):
        rng = np.random.default_rng(1)
        out = average([prob_map(rng) for _ in range(5)])
        assert np.allclose(out.sum(axis=2), 1.0, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        ms = [prob_map(rng) for _ in range(4)]
        assert np.array_equal(average(ms), average(ms[::-1]))

    def test_shape_mismatch(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DimensionMismatchError):
            average([prob_map(rng, 4, 4), prob_map(rng, 4, 5)])

    def test_empty_list(self):
        with pytest.raises(ValueError):
            average([])

    def test_combine_no_files(self):
        # as average says, not an IndexError from the reader's empty shape list
        with pytest.raises(ValueError, match="at least one member"):
            combine([], True)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 9), st.integers(0, 10_000))
    def test_linearity(self, m, seed):
        rng = np.random.default_rng(seed)
        ms = [prob_map(rng, 4, 4) for _ in range(m)]
        manual = np.zeros((4, 4, 3))
        for p in ms:
            manual += p
        manual /= m
        assert np.abs(average(ms) - manual).max() < 1e-12


class TestDecide:
    def test_argmax(self):
        p = np.zeros((2, 2, 3))
        p[..., 0] = [[0.6, 0.2], [0.1, 0.3]]
        p[..., 1] = [[0.3, 0.7], [0.2, 0.4]]
        p[..., 2] = [[0.1, 0.1], [0.7, 0.3]]
        assert decide(p).tolist() == [[0, 1], [2, 1]]

    def test_tie_lowest_index(self):
        p = np.full((1, 1, 2), 0.5)
        assert decide(p)[0, 0] == 0


class TestParentEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(single_maps())
    def test_validate(self, p):
        assert_same_outcome(outcome(validate_prob_map, p), outcome(ref_validate_prob_map, p))

    @settings(max_examples=300, deadline=None)
    @given(member_lists())
    def test_average(self, members):
        got, want = outcome(average, members), outcome(ref_average, members)
        assert_same_outcome(got, want)
        if not isinstance(want, tuple):
            assert got.dtype == np.float64

    @settings(max_examples=300, deadline=None)
    @given(single_maps())
    def test_decide(self, p):
        assert_same_outcome(outcome(decide, p), outcome(ref_decide, p))

    @settings(max_examples=200, deadline=None)
    @given(member_lists())
    def test_decide_average(self, members):
        want = outcome(ref_average, members)
        assume(not isinstance(want, tuple))
        assert_same_outcome(decide(average(members)), ref_decide(want))


class TestNoCopies:
    """The float32 maps are neither copied nor aliased where the layer promises so."""

    @staticmethod
    def members(n):
        rng = np.random.default_rng(n)
        return [prob_map(rng).astype(np.float32) for _ in range(n)]

    def test_validate_keeps_float32(self):
        p = self.members(1)[0]
        out = validate_prob_map(p)
        assert out.dtype == np.float32
        assert np.shares_memory(out, p)

    def test_other_inputs_become_float64(self):
        assert validate_prob_map([[[0.25, 0.75]]]).dtype == np.float64
        assert validate_prob_map(np.array([[[0, 1]]])).dtype == np.float64

    @pytest.mark.parametrize("n", [1, 3])
    def test_average_owns_float64(self, n):
        ms = self.members(n)
        out = average(ms)
        assert out.dtype == np.float64
        assert not any(np.shares_memory(out, m) for m in ms)
