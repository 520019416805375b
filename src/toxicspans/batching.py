"""The time-major, length-sorted minibatch layout shared by the kernels.

A batch of B posts is a ``(T, B, ...)`` array: axis 0 is the time step,
axis 1 the post.  Posts are sorted by length, longest first, so
``T == lengths[0]`` and the posts still running at step ``s`` are always the
first ``counts[s]`` rows.  A recurrence therefore touches only
``a[s, :counts[s]]`` at step ``s``: no padded position is computed and no
mask enters the arithmetic.  Slots past a post's length are padding.

This is the kernels' only layout: one post runs as a batch of one.  When
every post runs every step, as one post always does, the per-step indexes
are plain integers and whole rows, numpy's fastest.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def check_lengths(lengths, T: int, B: int) -> np.ndarray:
    """Validate the lengths of a sorted batch of B posts, T steps long."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (B,) or B < 1:
        raise ValidationError(f"need one length per post for {B} posts, got shape {lengths.shape}")
    if lengths[-1] < 1 or lengths[0] != T or np.any(lengths[1:] > lengths[:-1]):
        raise ValidationError(
            f"lengths must be >= 1, sorted longest first and start at T={T}, got {lengths.tolist()}"
        )
    return lengths


def step_index(lengths: np.ndarray, T: int) -> tuple[list, list, list]:
    """Per step ``s``: the row selector ``rows[s]`` of the posts longer than
    ``s``, the index ``now[s]`` of those rows at step ``s`` of a time-major
    array, and the index ``prev[s]`` of the same posts at step ``s - 1``."""
    if lengths[-1] == T:
        return [slice(None)] * T, list(range(T)), list(range(-1, T - 1))
    counts = np.count_nonzero(lengths[None, :] > np.arange(T)[:, None], axis=1)
    rows = [slice(0, int(n)) for n in counts]
    now = [(s, r) for s, r in enumerate(rows)]
    prev = [(s - 1, r) for s, r in enumerate(rows)]
    return rows, now, prev


def valid_mask(lengths: np.ndarray, T: int) -> np.ndarray:
    """(T, B) booleans: True where step ``t`` lies inside post ``b``."""
    return np.arange(T)[:, None] < lengths[None, :]


def reverse_prefixes(a: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Each post's own prefix in reverse time order; padding stays put.

    The map is its own inverse, so it also turns a reversed pass back into
    original order.
    """
    if lengths[-1] == a.shape[0]:
        return a[::-1]
    t = np.arange(a.shape[0])[:, None]
    src = np.where(t < lengths, lengths - 1 - t, t)
    return a[src, np.arange(len(lengths))]


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis of a time-major array as one 2-D
    product of all its rows; numpy's stacked product is slower."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (b.shape[-1],))
