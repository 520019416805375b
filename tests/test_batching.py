"""The packed layout's index helpers against their definitions, written as
loops.  When every post runs every step, as one post always does,
``PackedSteps`` takes shortcuts (integer steps into a (T, B) view, whole-row
slices, a reversed view as the mirror) that must select exactly what the
general index arrays select.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toxicspans.batching import PackedSteps
from toxicspans.errors import ValidationError

MIXED = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(lambda ls: sorted(ls, reverse=True))
EQUAL = st.builds(lambda T, B: [T] * B, st.integers(1, 9), st.integers(1, 6))
LENGTHS = (MIXED | EQUAL).map(np.array)


def time_major(lengths):
    """A (T, B, 2) array of distinct values for posts of these lengths."""
    T, B = int(lengths[0]), len(lengths)
    return np.arange(T * B * 2.0).reshape(T, B, 2)


def packed_rows(a, lengths):
    """The real slots of ``a`` through ``PackedSteps.pack``: given post by
    post, post 0's steps then post 1's and so on."""
    steps = PackedSteps(lengths)
    return steps, steps.pack(np.concatenate([a[:n, b] for b, n in enumerate(lengths)]))


@given(LENGTHS)
def test_step_index_selects_the_posts_still_running(lengths):
    a = time_major(lengths)
    steps, rows = packed_rows(a, lengths)
    expected = [a[s, j] for s in range(steps.T) for j in range(steps.B) if lengths[j] > s]
    assert np.array_equal(rows, np.array(expected))
    assert steps.N == len(rows) == lengths.sum()
    prev = rows[steps.prev()]
    by_step = steps.by_step(rows)
    offsets = np.asarray(steps.offsets)
    for s in range(steps.T):
        n = int(np.count_nonzero(lengths > s))  # posts longer than s are the first n
        assert steps.counts[s] == n
        assert np.array_equal(by_step[steps.rows[s]], a[s, :n])
        if s:
            assert np.array_equal(by_step[steps.prev_rows[s]], a[s - 1, :n])
            # prev() lists the same rows for every row from step 1 on
            lo = steps.offsets[s] - steps.B
            assert np.array_equal(prev[lo : lo + n], a[s - 1, :n])
    for b, n in enumerate(lengths):  # post b is rows offsets[:n] + b
        assert np.array_equal(rows[offsets[:n] + b], a[:n, b])
    # unpack gives the rows back post by post
    assert np.array_equal(steps.unpack(rows), np.concatenate([a[:n, b] for b, n in enumerate(lengths)]))


@given(LENGTHS, st.booleans())
def test_reverse_prefixes_matches_the_general_formula(lengths, reverse):
    a = time_major(lengths)
    steps, rows = packed_rows(a, lengths)
    pass_rows = rows[steps.mirror] if reverse else rows
    expected = [
        a[int(lengths[j]) - 1 - s if reverse else s, j]
        for s in range(steps.T)
        for j in range(steps.B)
        if lengths[j] > s
    ]
    assert np.array_equal(pass_rows, np.array(expected))
    # the mirror is an involution: it takes a reversed pass's rows back
    assert np.array_equal(pass_rows[steps.mirror][steps.mirror], pass_rows)


@pytest.mark.parametrize(
    "lengths",
    [[], [3, 4], [2, 0], [0], [[2, 1]], [3, 1, 2]],
    ids=["empty", "unsorted", "zero-last", "zero-only", "two-dimensional", "unsorted-tail"],
)
def test_bad_lengths_are_rejected(lengths):
    with pytest.raises(ValidationError):
        PackedSteps(lengths)
