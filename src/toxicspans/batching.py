"""The packed layout every layer of the tagger reads and writes.

A batch of B posts is sorted by length, longest first, and held as its
N = sum(lengths) real slots, packed time-major in forward order: packed
row ``offsets[s] + b`` is post ``b`` at step ``s``, so rows
``offsets[s]:offsets[s + 1]`` hold step ``s`` of the ``counts[s]`` posts
longer than ``s``, which are the first ``counts[s]`` posts of the batch,
and the same posts' previous step is the first ``counts[s]`` rows of the
block before it.  A recurrence therefore touches one contiguous block per
step: no padded slot exists, so none is computed and no mask enters the
arithmetic.  This is the layout of PyTorch's ``PackedSequence``.

A reversed pass reads each post's own prefix back to front: its step ``s``
of post ``b`` is time ``lengths[b] - 1 - s``.  Its packed rows are the
forward rows permuted by :attr:`PackedSteps.mirror`, an involution, so the
same index takes forward rows to reversed ones and back.  Values given
post by post (post 0's rows, then post 1's, ...) enter the layout through
:meth:`PackedSteps.pack` and leave it through :meth:`PackedSteps.unpack`.
When every post runs every step, as one post always does, the packed rows
are the (T, B) steps themselves and a step is a plain index into their
(T, B) view.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from operator import add

import numpy as np

from .errors import ValidationError


class PackedSteps:
    """The N real slots of a batch of posts with the given ``lengths``,
    packed time-major (see the module docstring).

    Raises :class:`ValidationError` unless there is at least one length,
    every length is at least 1 and they are sorted longest first.
    """

    def __init__(self, lengths):
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.ndim != 1 or not len(lengths):
            raise ValidationError(f"need one length per post for at least one post, got shape {lengths.shape}")
        if lengths[-1] < 1 or np.any(lengths[1:] > lengths[:-1]):
            raise ValidationError(f"lengths must be >= 1 and sorted longest first, got {lengths.tolist()}")
        self.lengths = lengths
        self.T, self.B = T, B = int(lengths[0]), len(lengths)
        self.full = lengths[-1] == T  # every post runs every step
        # counts[s]: the posts longer than s, the first counts[s] of the batch
        self.counts = counts = [B] * T if self.full else (
            np.count_nonzero(lengths[None, :] > np.arange(T)[:, None], axis=1).tolist()
        )
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

    @cached_property
    def mirror(self) -> slice | np.ndarray:
        """For every packed row, in order, the row of the same post at the
        mirrored time, ``lengths[b] - 1 - s``.  Index forward rows with it
        to get a reversed pass's rows, and those to get forward rows back.
        One post's mirror is a reversed view."""
        if self.B == 1:
            return slice(None, None, -1)
        t, b = self.coords
        return np.asarray(self.offsets)[self.lengths[b] - 1 - t] + b

    def pack(self, values: np.ndarray) -> np.ndarray:
        """Values given post by post, post 0's rows then post 1's and so
        on, as packed rows; one post's values are already packed."""
        if self.B == 1:
            return values
        t, b = self.coords
        return values[(np.cumsum(self.lengths) - self.lengths)[b] + t]

    def unpack(self, rows: np.ndarray) -> np.ndarray:
        """Packed rows back post by post: :meth:`pack` undone."""
        return rows if self.B == 1 else rows[np.argsort(self.coords[1], kind="stable")]
