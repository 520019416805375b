"""Buffers that outlive one pass: memory the caller owns.

Allocated afresh, a training step's megabytes are freed at its end, the C
library hands the freed top of the heap back to the kernel, and the next
step page-faults it in again.  An :class:`Arena` keeps one flat buffer
per role instead, all of one dtype (float64 unless the caller asks for
another: inference passes run in a float32 arena), and hands out each
array as a C-contiguous view of its buffer's first elements.  A view
starts where its buffer starts, so a kernel writing into it sees the
layout, and sums in the order, of a fresh array of that shape.  Every
pass runs in the caller's arena; only the entry points ``training.train``,
``model.tag_posts`` and ``model.predict`` make one.

A buffer is first made at the size asked for.  It grows only when a larger
batch asks for more, and then to a power-of-two length, so it grows a few
times in a run and the buffers that one run frees fit the next run's;
untouched pages past the prefixes in use cost no memory.  Only growth
rounds: a one-off arena, as one ``predict`` uses, keeps exact sizes,
because equal power-of-two buffers start a multiple of 4 KB apart and the
rows that the one-post loop touches together then share cache sets.

As cuDNN's RNN calls split their memory into a reserve space, which
carries the forward pass's results to the backward pass, and a workspace,
which lives only during one call, an arena has two kinds of role.  A named
role (:meth:`Arena.take`) holds what one call hands to another, such as a
forward cache or a batch's gradients.  A numbered scratch slot
(:meth:`Arena.scratch`) holds one call's scratch; every call's slot ``i``
is one buffer, so the forward loop's weight copy, the backward pass's dZ
and the optimizer's scratch take the memory of the largest of them.  Like
a cuDNN workspace, scratch lives for one call: no caller holds a scratch
array across a call that takes scratch from the same arena.
"""

from __future__ import annotations

import math

import numpy as np


class Arena:
    """Growable flat buffers of one ``dtype``, one per role.  Whatever a
    call returns in them is valid until the next call that uses the arena."""

    def __init__(self, dtype: np.dtype | type = np.float64) -> None:
        self.dtype = np.dtype(dtype)
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised C-contiguous array of ``shape`` and the arena's
        dtype: the first elements of ``role``'s buffer, grown first if too
        small."""
        buffer = self._buffers.get(role)
        if buffer is None:
            array = np.empty(shape, self.dtype)
            self._buffers[role] = array.reshape(-1)
            return array
        n = math.prod(shape)
        if buffer.size < n:
            buffer = self._buffers[role] = np.empty(1 << (n - 1).bit_length(), self.dtype)
        return buffer[:n].reshape(shape)

    def scratch(self, slot: int, shape: tuple[int, ...]) -> np.ndarray:
        """:meth:`take` of scratch slot ``slot``, which every call shares:
        a call drops its scratch arrays when it returns, and holds none
        across a call that takes scratch from the same arena."""
        return self.take(f"scratch {slot}", shape)
