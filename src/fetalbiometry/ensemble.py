"""Uniformly weighted ensembling of per-pixel class probabilities: the
members' average, and the argmax decision that turns it into a label mask."""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, MemberError
from .raster import validate_prob_map


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
