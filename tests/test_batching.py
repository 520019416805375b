"""The packed layout's index helpers against their definitions, written as
loops.  When every post runs every step, as one post always does,
``PackedSteps`` takes shortcuts (integer steps into a (T, B) view, whole-grid
slices, a reversed view) that
must select exactly what the general index arrays select.
"""

import numpy as np
from hypothesis import given, strategies as st

from toxicspans.batching import PackedSteps

MIXED = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(lambda ls: sorted(ls, reverse=True))
EQUAL = st.builds(lambda T, B: [T] * B, st.integers(1, 9), st.integers(1, 6))
LENGTHS = (MIXED | EQUAL).map(np.array)


def time_major(lengths):
    """A (T, B, 2) array of distinct values for posts of these lengths."""
    T, B = int(lengths[0]), len(lengths)
    return np.arange(T * B * 2.0).reshape(T, B, 2)


def packed(a, steps, reverse):
    return a.reshape(steps.T * steps.B, -1)[steps.slots(reverse)]


@given(LENGTHS)
def test_step_index_selects_the_posts_still_running(lengths):
    a = time_major(lengths)
    steps = PackedSteps(lengths)
    rows = packed(a, steps, reverse=False)
    assert steps.N == len(rows) == lengths.sum()
    prev = rows[steps.prev()]
    by_step = steps.by_step(rows)
    for s in range(steps.T):
        n = int(np.count_nonzero(lengths > s))  # posts longer than s are the first n
        assert steps.counts[s] == n
        assert np.array_equal(by_step[steps.rows[s]], a[s, :n])
        if s:
            assert np.array_equal(by_step[steps.prev_rows[s]], a[s - 1, :n])
            # prev() lists the same rows for every row from step 1 on
            lo = steps.offsets[s] - steps.B
            assert np.array_equal(prev[lo : lo + n], a[s - 1, :n])


@given(LENGTHS, st.booleans())
def test_reverse_prefixes_matches_the_general_formula(lengths, reverse):
    a = time_major(lengths)
    steps = PackedSteps(lengths)
    rows = packed(a, steps, reverse)
    expected = [
        a[int(lengths[j]) - 1 - s if reverse else s, j]
        for s in range(steps.T)
        for j in range(steps.B)
        if lengths[j] > s
    ]
    assert np.array_equal(rows, np.array(expected))
    grid = steps.grid(2)
    grid[steps.slots(reverse)] = rows
    valid = np.arange(steps.T)[:, None] < lengths
    assert np.array_equal(grid.reshape(a.shape)[valid], a[valid])
    assert not grid.reshape(a.shape)[~valid].any()
