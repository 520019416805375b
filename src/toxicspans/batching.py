"""The time-major, length-sorted minibatch layout shared by the kernels.

A batch of B posts is a ``(T, B, ...)`` array: axis 0 is the time step,
axis 1 the post.  Posts are sorted by length, longest first, so
``T == lengths[0]`` and the posts still running at step ``s`` are always the
first ``counts[s]`` rows.  A recurrence therefore touches only
``a[s, :counts[s]]`` at step ``s``: no padded position is computed and no
mask enters the arithmetic.  Slots past a post's length are padding.

This is the kernels' only layout at their boundaries: one post runs as a
batch of one.  Inside, the LSTM keeps its state *packed*
(:class:`PackedSteps`): only the N = sum(lengths) real slots, time-major,
so step ``s`` is one contiguous block of ``counts[s]`` rows and the same
posts' previous step is the first ``counts[s]`` rows of the block before
it.  This is the layout of PyTorch's ``PackedSequence``.  When every post
runs every step, as one post always does, the packed rows are the (T, B)
grid itself and packing is a reshape.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add

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


def step_counts(lengths: np.ndarray) -> list[int]:
    """``counts[s]``: the posts longer than ``s``, which are the first
    ``counts[s]`` posts of the sorted batch."""
    T, B = int(lengths[0]), len(lengths)
    if lengths[-1] == T:
        return [B] * T
    return np.count_nonzero(lengths[None, :] > np.arange(T)[:, None], axis=1).tolist()


class PackedSteps:
    """The N real slots of a sorted batch, packed time-major.

    Packed row ``offsets[s] + j`` is post ``j`` at its step ``s``: rows
    ``offsets[s]:offsets[s + 1]`` hold step ``s`` of its ``counts[s]``
    posts.  A reversed pass packs each post's own prefix back to front: its
    step ``s`` reads time ``lengths[j] - 1 - s``.
    """

    def __init__(self, lengths: np.ndarray):
        self.lengths = lengths
        self.T, self.B = T, B = int(lengths[0]), len(lengths)
        self.counts = counts = step_counts(lengths)
        self.full = counts[-1] == B  # every post runs every step
        # Per step s: the index of its rows and (from step 1 on) of the rows
        # of step s - 1 of the posts running at step s, in an array seen
        # through by_step, and the selector of those first counts[s] posts
        # in a (B, ...) array.  When every post runs every step the steps
        # are plain integers into a (T, B, ...) view and the posts whole
        # rows, which numpy indexes fastest.
        if self.full:
            self.offsets = range(0, T * B + 1, B)
            self.rows, self.prev_rows = range(T), range(-1, T - 1)
            self.heads = [slice(None)] * T
        else:
            self.offsets = offsets = list(accumulate(counts, initial=0))
            self.rows = list(map(slice, offsets, offsets[1:]))
            self.prev_rows = [None, *map(slice, offsets, map(add, offsets, counts[1:]))]
            self.heads = list(map(slice, counts))
        self.N = self.offsets[-1]

    def by_step(self, a: np.ndarray) -> np.ndarray:
        """A view of packed ``a`` to index with :attr:`rows` and
        :attr:`prev_rows`."""
        return a.reshape((self.T, self.B) + a.shape[1:]) if self.full else a

    def prev(self) -> slice | np.ndarray:
        """For every packed row from step 1 on, in order, the packed row of
        the same post one step earlier."""
        if self.full:
            return slice(0, self.N - self.B)
        return np.arange(self.B, self.N) - np.repeat(self.counts[:-1], self.counts[1:])

    @cached_property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """For every packed row, in order, its step ``s`` and its post."""
        steps = np.repeat(np.arange(self.T), self.counts)
        posts = np.arange(self.N) - np.repeat(self.offsets[:-1], self.counts)
        return steps, posts

    def slots(self, reverse: bool) -> slice | np.ndarray:
        """For every packed row, in order, its slot ``t * B + b`` in the
        (T * B, ...) flattening of a (T, B, ...) array; index that with it
        to pack the array, assign through it to unpack."""
        if self.full and not reverse:
            return slice(None)
        if self.B == 1:
            return slice(None, None, -1)
        t, b = self.coords
        if reverse:
            t = self.lengths[b] - 1 - t
        return t * self.B + b

    def grid(self, width: int) -> np.ndarray:
        """A new (T * B, width) array to scatter packed rows into, at their
        :meth:`slots`; zero on padding."""
        return (np.empty if self.full else np.zeros)((self.T * self.B, width))


def matmul_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over the last axis of a time-major array as one 2-D
    product of all its rows; numpy's stacked product is slower."""
    return (a.reshape(-1, a.shape[-1]) @ b).reshape(a.shape[:-1] + (b.shape[-1],))
