"""The batch layout's index helpers against their general formulas.  When
every post runs every step, as one post always does, ``step_index`` and
``reverse_prefixes`` take a shortcut (plain integer steps, whole rows, a
reversed view) that must select exactly what the general formulas select.
"""

import numpy as np
from hypothesis import given, strategies as st

from toxicspans.batching import reverse_prefixes, step_index

MIXED = st.lists(st.integers(1, 9), min_size=1, max_size=6).map(lambda ls: sorted(ls, reverse=True))
EQUAL = st.builds(lambda T, B: [T] * B, st.integers(1, 9), st.integers(1, 6))
LENGTHS = (MIXED | EQUAL).map(np.array)


def time_major(lengths):
    """A (T, B, 2) array of distinct values for posts of these lengths."""
    T, B = int(lengths[0]), len(lengths)
    return np.arange(T * B * 2.0).reshape(T, B, 2)


@given(LENGTHS)
def test_step_index_selects_the_posts_still_running(lengths):
    a = time_major(lengths)
    T = len(a)
    rows, now, prev = step_index(lengths, T)
    for s in range(T):
        n = int(np.count_nonzero(lengths > s))  # posts longer than s are the first n
        assert np.array_equal(a[now[s]], a[s, :n])
        assert np.array_equal(a[s][rows[s]], a[s, :n])
        if s:
            assert np.array_equal(a[prev[s]], a[s - 1, :n])


@given(LENGTHS)
def test_reverse_prefixes_matches_the_general_formula(lengths):
    a = time_major(lengths)
    t = np.arange(len(a))[:, None]
    src = np.where(t < lengths, lengths - 1 - t, t)
    expected = a[src, np.arange(len(lengths))]
    assert np.array_equal(reverse_prefixes(a, lengths), expected)
    assert np.array_equal(reverse_prefixes(expected, lengths), a)
