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
    by a rounding step, so ``decide`` checks it.  The members are summed in a
    fixed pairwise tree, so the result does not depend on accumulation order:
    the first level adds each pair straight into a new float64 array, later
    levels add in place into those arrays.  An odd last member joins a later
    level as it is, always as the right operand of ``+=``; its cast to
    float64 there is exact, so no copy of it is made.
    """
    if not members:
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
    n = len(checked)
    if n == 1:
        return checked[0].astype(np.float64)
    sums = [np.add(checked[i], checked[i + 1], dtype=np.float64) for i in range(0, n - 1, 2)]
    if n % 2:
        sums.append(checked[-1])
    while len(sums) > 1:
        for i in range(0, len(sums) - 1, 2):
            sums[i] += sums[i + 1]
        sums = sums[::2]
    mean = sums[0]
    mean /= n
    return mean


def decide(p: np.ndarray, origin: tuple[int, int] = (0, 0)) -> np.ndarray:
    """Per-pixel argmax label mask of ``p``, checked first, as uint8.

    Ties go to the lowest index: a later channel wins only when strictly
    greater, as ``argmax`` decides.  The C <= 3 channels of a checked map give
    labels in {0, 1, 2}, so they are returned unchecked.
    """
    p = validate_prob_map(p, origin)
    labels = np.zeros(p.shape[:2], np.uint8)
    best = p[..., 0]
    for c in range(1, p.shape[2]):
        win = p[..., c] > best
        # labels holds indices below c, so raising it to c * win sets exactly the winners
        np.maximum(labels, win * np.uint8(c), out=labels)
        best = np.maximum(best, p[..., c])
    return labels
