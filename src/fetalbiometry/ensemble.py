"""Uniformly weighted ensembling of per-pixel class probabilities: the
members' average, the argmax decision that turns it into a label mask, and
``combine``, which does both for FPM files a strip of rows at a time."""

from __future__ import annotations

import numpy as np

from . import io_formats
from .errors import DimensionMismatchError, MemberError
from .raster import PROB_SUM_TOL, validate_prob_map

# a stack of maps whose float32 channel sums lie this far inside PROB_SUM_TOL
# passes validate_prob_map, and so do the maps' mean and its float32 cast
SUM_MARGIN = 1e-6


def average(members: list[np.ndarray], origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Per-pixel, per-channel arithmetic mean of the members, as float64.

    Every member is checked first (a failed check raises MemberError), and
    then all must have one shape.  The result never aliases a member, and is
    not checked itself: a mean of maps that pass can miss the sum tolerance
    by a rounding step, so ``decide`` checks it.  The members are summed as
    ``mean_into`` sums them.
    """
    if len(members) == 0:
        raise ValueError("ensemble needs at least one member")
    checked = []
    for i, m in enumerate(members):
        try:
            checked.append(validate_prob_map(m, origin))
        except ValueError as e:
            raise MemberError(i, e)
    shape = checked[0].shape
    for i, m in enumerate(checked[1:], start=1):
        if m.shape != shape:
            raise DimensionMismatchError(f"member {i} has shape {m.shape}, expected {shape}")
    return mean_into(checked, np.empty(shape))


def mean_into(maps, out: np.ndarray) -> np.ndarray:
    """Per-pixel, per-channel mean of one or more maps of ``out``'s shape,
    unchecked, into the float64 array ``out``; returns ``out``.

    The maps are summed in a fixed pairwise tree, so the result does not
    depend on accumulation order: the first level adds each pair in float64,
    the first pair straight into ``out`` and the others into new arrays;
    later levels add in place into those arrays.  An odd last map joins a
    later level as it is, always as the right operand of ``+=``; its cast to
    float64 there is exact, so no copy of it is made.  Up to three maps need
    no array but ``out``.
    """
    n = len(maps)
    np.copyto(out, maps[0])  # exact; adding the second map in place beats np.add's casting loop
    if n == 1:
        return out
    out += maps[1]
    sums = [out]
    sums += [np.add(maps[i], maps[i + 1], dtype=np.float64) for i in range(2, n - 1, 2)]
    if n % 2:
        sums.append(maps[-1])
    while len(sums) > 1:
        for i in range(0, len(sums) - 1, 2):
            sums[i] += sums[i + 1]
        sums = sums[::2]
    out /= n
    return out


def decide(p: np.ndarray, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Per-pixel argmax label mask of ``p``, checked first, as uint8 (see ``argmax_into``)."""
    p = validate_prob_map(p, origin)
    return argmax_into(p, np.empty(p.shape[:2], np.uint8))


def argmax_into(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-pixel argmax of an unchecked (H, W, C) map, C in {2, 3}, into the
    (H, W) uint8 array ``out``; returns ``out``.

    Ties go to the lowest index: a later channel wins only when strictly
    greater, as ``argmax`` decides.  Labels are in {0, 1, 2}.
    """
    one = p[..., 1] > p[..., 0]
    if p.shape[2] == 2:
        np.copyto(out, one)
        return out
    two = p[..., 2] > np.maximum(p[..., 0], p[..., 1])
    np.maximum(one, two * np.uint8(2), out=out)
    return out


def passes_with_margin(maps: np.ndarray) -> bool:
    """Whether every map of an (n, H, W, C) little-endian float32 stack passes
    ``validate_prob_map`` with ``SUM_MARGIN`` to spare.

    True when every value lies in [0, 1] and every channel sum, taken in
    float32, lies within ``PROB_SUM_TOL - SUM_MARGIN`` of 1.  A float32 sum
    of at most 3 values in [0, 1], added in any order, lies within 2.5e-7 of
    the float64 sum that ``validate_prob_map`` takes, so each map passes it
    with 7.5e-7 to spare.  The float64 mean of such maps passes too: its sums
    lie within the members' bound up to float64 rounding.  So does the mean's
    float32 cast, which moves each channel by at most 2**-25.  False proves
    nothing: such a stack is checked map by map.
    """
    # read as unsigned integers, the float32 values from +0.0 to 1.0 are the
    # bits up to those of 1.0; NaN and every negative value, -0.0 too, lie above
    if maps.view("<u4").max() > 0x3F800000:
        return False
    sums = maps @ np.ones(maps.shape[-1], np.float32)  # twice as fast as strided adds
    return max(float(sums.max()) - 1.0, 1.0 - float(sums.min())) <= PROB_SUM_TOL - SUM_MARGIN


def combine(paths, want_avg: bool):
    """(float32 average if ``want_avg``, else None; the average's decision;
    whether a strip came near the tolerance) of the FPM files ``paths``.

    A strip of rows whose members pass with ``SUM_MARGIN`` to spare is
    averaged and decided unchecked: its mean, and the mean's float32 cast,
    pass the checks by that margin.  Any other strip is checked as
    ``average`` and ``decide`` check it, each member in order (MemberError)
    and then the mean (ValueError).
    """
    if len(paths) == 0:
        raise ValueError("ensemble needs at least one member")
    with io_formats.prob_map_strips(paths) as (shape, strips):
        avg = np.empty(shape, "<f4") if want_avg else None
        labels = np.empty(shape[:2], np.uint8)
        buffer, near = None, False
        for rows, maps in strips:
            if passes_with_margin(maps):
                if buffer is None:  # reused for every strip; the first is the tallest
                    buffer = np.empty(maps.shape[1:])
                mean = mean_into(maps, buffer[: maps.shape[1]])
                argmax_into(mean, labels[rows])
            else:
                near = True
                origin = (0, rows.start)
                mean = average(maps, origin)
                labels[rows] = decide(mean, origin)
            if avg is not None:
                avg[rows] = mean
    return avg, labels, near
