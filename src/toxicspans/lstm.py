"""BiLSTM forward pass and manual backward pass, both directions in lockstep.

Gate order in the stacked 4H parameter blocks is fixed: input, forget, cell
candidate, output.  Each direction's recurrence starts from zero hidden and
cell state:

    z_t = W_in x_t + W_rec h_{t-1} + b
    i, f, o = sigmoid of their blocks;  g = tanh of the cell block
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Both kernels take and return the packed rows of :mod:`batching`, described
by one :class:`batching.PackedSteps`: step ``s`` is one contiguous block of
rows, so padding is never computed, stored or multiplied.  The backward
direction reads its inputs and writes its outputs through the involution
:attr:`batching.PackedSteps.mirror`, so ``a[mirror] = b`` mirrors ``b``
into ``a`` with no temporary.

:class:`LstmParams` stacks the weights of the BiLSTM's two directions on
a leading axis (:data:`DIRECTIONS`): direction 0 reads each post front to
back, direction 1 back to front.  The packed arrays interleave them as
(N, 2, ·), so a step's rows are one (rows, 2, ·) block: the activations,
the cell update and the backward pass's scaling are each one numpy call
for both directions, and the recurrent product is one stacked
(2, rows, H) x (2, H, 4H) product.

Only ``W_rec h_{t-1}`` depends on the previous step, so each direction's
input projection of all N rows is one product taken before the
recurrence, and each step adds its recurrent product to its rows of
``gates`` and activates them in place.  The backward pass takes the local
derivatives of all rows at once; its loop carries only the hidden and
cell gradients and scales each step's rows of dZ, the pre-activation
gradient, in place.  Each direction's parameter gradients are then
products over the N rows, written straight into the caller's block:
dZ^T X, dZ^T H_prev (H_prev gathered through
:attr:`batching.PackedSteps.prev`) and sum(dZ).  The input gradient
dZ W_in is formed only when the caller asks for it, which the model does
only when fine-tuning embeddings.

Two time loops run the recurrence with the same operations on the same
values, so they give the same bits.  Every pass that keeps a cache, and
every pass over several posts, runs the packed loop; at B = 1 it
multiplies each step's row against a strided view of W_rec, which sums
in the one-post loop's order.  One post with no cache (B = 1, which is
how inference tags a post on its own) runs a loop of its own over its
(T, 2, ·) rows that works gate-major, because a numpy call on a strided
(2, H) gate view costs about twice one on a contiguous block.  It copies
the pre-activations once into a (T, 4, 2, H) scratch array, and keeps
tanh(g_t) next to c_{t-1} in one (2, 2, H) block, so one multiply by the
adjacent i and f blocks gives both terms of c_t, which then overwrites
c_{t-1}.

Inference runs no backward pass, so it asks :func:`lstm_forward` for no
cache, as cuDNN's inference mode writes no reserve space: no ``cell`` or
``tanh_cell`` array is taken, the packed loop keeps the cells of alternate
steps in two (B, 2, H) scratch blocks, as each step's rows are the first
rows of the step before (the one-post loop keeps only the current step's),
and each step's tanh(c) goes into a scratch block.  The arithmetic is the
same, and so are the bits.

Every array of more than one step lives in the caller's
:class:`arena.Arena`.  Named roles hold the mirrored inputs, the cache,
the (N, 2H) output and the input gradient; scratch slots hold what one
loop or pass uses and drops before it returns: the packed loop's
contiguous copy of W_rec (for several posts) and per-step product (and,
with no cache, its cells and tanh(c)), the one-post loop's gate-major
rows, and the backward pass's dZ, dc/dh, upstream gradients in
processing order and gathered c_{t-1} and h_{t-1} rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arena import Arena
from .batching import PackedSteps
from .errors import NonFiniteError, ValidationError

# The stacked directions: 0 reads each post front to back, 1 back to front.
DIRECTIONS = 2


@dataclass
class LstmParams:
    """Weights of the :data:`DIRECTIONS` directions stacked on a leading axis."""

    W_in: np.ndarray  # (2, 4H, D)
    W_rec: np.ndarray  # (2, 4H, H)
    b: np.ndarray  # (2, 4H)

    @property
    def hidden_size(self) -> int:
        return self.b.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.W_in.shape[2]


@dataclass
class LstmCache:
    """Forward-pass intermediates over the packed rows, in processing order."""

    inputs: list[np.ndarray]  # per direction (N, D)
    gates: np.ndarray  # (N, 2, 4H) activated i, f, g, o
    cell: np.ndarray  # (N, 2, H)
    tanh_cell: np.ndarray
    hidden: np.ndarray
    steps: PackedSteps


def _sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic sigmoid; exp overflow saturates to 0 (caller
    ignores the overflow warning)."""
    np.negative(x, x)
    np.exp(x, x)
    x += 1.0
    np.reciprocal(x, x)


def lstm_forward(
    inputs: np.ndarray,
    params: LstmParams,
    steps: PackedSteps,
    arena: Arena,
    keep_cache: bool = True,
) -> tuple[np.ndarray, LstmCache | None]:
    """Run both directions of ``params`` over the (N, D) packed input rows
    of the batch ``steps``: direction 0 reads each post front to back,
    direction 1 back to front.

    Returns the (N, 2H) packed hidden states in forward order, direction k
    in columns k*H to (k+1)*H, plus the cache needed by
    :func:`lstm_backward`, or None unless ``keep_cache``: a caller that
    will not run the backward pass builds no cache.  Both live in
    ``arena``.  Raises :class:`ValidationError` unless
    ``params`` stacks exactly :data:`DIRECTIONS` directions in the arena's
    dtype, and :class:`NonFiniteError` if any hidden state diverges, which
    happens only when parameters or inputs are already non-finite or when
    products that overflow the dtype meet as inf - inf (the activations
    themselves are bounded).
    """
    if inputs.shape != (steps.N, params.input_size):
        raise ValidationError(
            f"inputs must be the batch's {steps.N} packed rows of width {params.input_size}, got {inputs.shape}"
        )
    if params.W_in.shape[0] != DIRECTIONS:
        raise ValidationError(
            f"an LSTM stack of {params.W_in.shape[0]} directions; the BiLSTM runs {DIRECTIONS}, forward then backward"
        )
    if arena.dtype != params.W_rec.dtype:
        raise ValidationError(f"an arena of {arena.dtype} for LSTM tensors of {params.W_rec.dtype}")
    N, K, H = steps.N, DIRECTIONS, params.hidden_size
    mirrored = arena.take("lstm.mirrored", inputs.shape)
    mirrored[steps.mirror] = inputs
    xs = [inputs, mirrored]

    gates = arena.take("lstm.gates", (N, K, 4 * H))  # pre-activations until a row is activated
    if keep_cache:
        cell, tanh_cell = (arena.take(role, (N, K, H)) for role in ("lstm.cell", "lstm.tanh_cell"))
    else:
        cell = tanh_cell = None
    hidden = arena.take("lstm.hidden", (N, K, H))
    # an infinite pre-activation saturates its gate, and a NaN one (inf -
    # inf) is the non-finite check's to report
    with np.errstate(over="ignore", invalid="ignore"):
        for k, x in enumerate(xs):
            np.matmul(x, params.W_in[k].T, out=gates[:, k])
        gates += params.b
        if steps.B == 1 and not keep_cache:
            _one_post_steps(params.W_rec, gates, hidden, arena)
        else:
            _packed_steps(params.W_rec, steps, gates, cell, tanh_cell, hidden, arena)

    # every finite state lies in [-1, 1], so the sum is finite exactly when
    # every state is
    if not math.isfinite(hidden.sum()):
        raise NonFiniteError("LSTM hidden state is non-finite; inputs or parameters diverged")

    out = arena.take("lstm.out", (N, K * H))
    out[:, :H] = hidden[:, 0]
    out[steps.mirror, H:] = hidden[:, 1]
    if not keep_cache:
        return out, None
    return out, LstmCache(inputs=xs, gates=gates, cell=cell, tanh_cell=tanh_cell, hidden=hidden, steps=steps)


def _packed_steps(
    W_rec: np.ndarray,
    steps: PackedSteps,
    gates: np.ndarray,
    cell: np.ndarray | None,
    tanh_cell: np.ndarray | None,
    hidden: np.ndarray,
    arena: Arena,
) -> None:
    """The recurrence over the packed rows of a batch, one post's included:
    activates ``gates`` in place and fills the states.  With no cache
    (``cell`` and ``tanh_cell`` None) the cells of alternate steps go into
    two scratch blocks, and each step's tanh(c) into a third."""
    B, counts = steps.B, steps.counts
    K, H = hidden.shape[1:]
    i_, f_, g_, o_ = ((Ellipsis, slice(k * H, (k + 1) * H)) for k in range(4))
    # Several rows per step multiply faster against a contiguous copy,
    # which this loop makes in its own scratch on every call.  For one row
    # the copy costs more than it saves, and BLAS would sum the product in
    # another order than the one-post loop's.
    W_rec_T = W_rec.transpose(0, 2, 1)
    if B > 1:
        W_rec_T = arena.scratch(0, (K, H, 4 * H))
        np.copyto(W_rec_T, W_rec.transpose(0, 2, 1))
    product = arena.scratch(1, (B, K, 4 * H))  # each step's recurrent product
    if cell is None:
        cells, tanh_step = arena.scratch(2, (2, B, K, H)), arena.scratch(3, (B, K, H))
    for s, (r, q) in enumerate(zip(steps.rows, steps.prev_rows)):
        n, z = counts[s], gates[r]
        if s:
            step = product[:n]
            np.matmul(hidden[q].transpose(1, 0, 2), W_rec_T, out=step.transpose(1, 0, 2))
            z += step
        g = np.tanh(z[g_])
        _sigmoid_inplace(z)
        z[g_] = g
        c = cells[s % 2, :n] if cell is None else cell[r]
        np.multiply(z[i_], g, out=c)
        if s:  # the posts running at s are the first n of those at s - 1
            c += z[f_] * c_prev[:n]
        tc = tanh_step[:n] if tanh_cell is None else tanh_cell[r]
        np.tanh(c, out=tc)
        np.multiply(z[o_], tc, out=hidden[r])
        c_prev = c


def _one_post_steps(W_rec: np.ndarray, gates: np.ndarray, hidden: np.ndarray, arena: Arena) -> None:
    """The recurrence of one post over its (T, K, ·) rows, one per step,
    with no cache: :func:`_packed_steps`'s arithmetic on the same values,
    so the same bits, on gate-major copies of the rows (see the module
    docstring).  It fills only ``hidden``."""
    T, K, H = hidden.shape
    W_rec_T = W_rec.transpose(0, 2, 1)  # as _packed_steps multiplies one row
    # Gate-major rows, in this loop's own scratch: step t's i, f, g and o
    # are contiguous (K, H) blocks.
    by_gate = arena.scratch(1, (T, 4, K, H))
    np.copyto(by_gate.transpose(0, 2, 1, 3), gates.reshape(T, K, 4, H))
    # tanh(g_t), then c_{t-1}, so one multiply by step t's i and f blocks
    # gives both terms of c_t, which then takes c_{t-1}'s place.
    g_c = np.empty((2, K, H), W_rec.dtype)
    tg, c = g_c
    product = np.empty((K, 1, 4 * H), W_rec.dtype)  # each step's recurrent product
    rec = product.reshape(K, 4, H).transpose(1, 0, 2)  # gate-major view
    terms = np.empty((2, K, H), W_rec.dtype)  # i * g, f * c_{t-1}
    ig, fc = terms
    tc = np.empty((K, H), W_rec.dtype)
    h_prev = None
    for z, z_if, zg, zo, h, h_row in zip(
        by_gate, by_gate[:, :2], by_gate[:, 2], by_gate[:, 3], hidden, hidden[:, :, None]
    ):
        if h_prev is not None:
            np.matmul(h_prev, W_rec_T, product)
            np.add(z, rec, z)
        np.tanh(zg, tg)
        _sigmoid_inplace(z)
        if h_prev is None:  # c_{-1} = 0
            np.multiply(z_if[0], tg, c)
        else:
            np.multiply(z_if, g_c, terms)
            np.add(ig, fc, c)
        np.tanh(c, tc)
        np.multiply(zo, tc, h)
        h_prev = h_row


def lstm_backward(
    d_hidden: np.ndarray, params: LstmParams, cache: LstmCache, grads: LstmParams, arena: Arena,
    input_grad: bool = True,
) -> np.ndarray | None:
    """Backpropagate upstream hidden-state gradients through the recurrence.

    ``d_hidden`` has the (N, 2H) shape of the forward pass's output, in
    forward order.  Writes the parameter gradients, summed over the batch,
    into ``grads`` (shaped like ``params``; views are fine).  Returns the
    (N, D) input gradients in forward order, summed over the directions,
    or None unless ``input_grad``.  The input gradients live in ``arena``
    and the intermediates in its scratch slots, so ``cache`` and
    ``d_hidden`` must not lie in those; the forward pass's arena holds
    them in named roles.
    """
    steps = cache.steps
    T, B, N, counts = steps.T, steps.B, steps.N, steps.counts
    K, H = cache.hidden.shape[1:]
    if d_hidden.shape != (N, K * H):
        raise ValidationError(f"upstream gradient shape {d_hidden.shape} != {(N, K * H)}")
    # slot 0, the largest, shares its buffer with the other large scratch
    # arrays: the forward loop's weight copy and the optimizer's
    dZ = arena.scratch(0, (N, K, 4, H))
    d_h_seq = arena.scratch(1, (N, K, H))
    d_rows = d_hidden.reshape(N, K, H)
    d_h_seq[:, 0] = d_rows[:, 0]
    d_h_seq[steps.mirror, 1] = d_rows[:, 1]
    # rows from step 1 on: the previous step's states of the same posts;
    # c_prev is read once, before dc_dh takes its slot
    c_prev, h_prev = (
        np.take(state, steps.prev, axis=0, out=arena.scratch(slot, (N - B, K, H)), mode="clip")
        for state, slot in ((cache.cell, 2), (cache.hidden, 3))
    )

    # Local derivatives of every step, taken over whole arrays and written
    # into dZ, which the loop then scales in place (no separate arrays to
    # hold): dz for the i, f, g blocks is dc times the local derivative,
    # for the o block dh times it.
    i, f, g, o = (cache.gates[..., k * H : (k + 1) * H] for k in range(4))
    tc = cache.tanh_cell
    di, df, dg, do = (dZ[..., k, :] for k in range(4))
    np.subtract(1.0, i, out=di)
    di *= i
    di *= g
    df[:B] = 0.0  # c_{-1} = 0
    np.subtract(1.0, f[B:], out=df[B:])
    df[B:] *= f[B:]
    df[B:] *= c_prev
    np.multiply(g, g, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= i
    np.subtract(1.0, o, out=do)
    do *= o
    do *= tc
    dc_dh = np.multiply(tc, tc, out=arena.scratch(2, (N, K, H)))
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    dZ_flat = dZ.reshape(N, K, 4 * H)
    product = arena.scratch(4, (B, K, H))  # each step's recurrent product
    rows = steps.rows
    dh = d_h_seq[rows[-1]]
    dc = dh * dc_dh[rows[-1]]
    for s in range(T - 1, -1, -1):
        r = rows[s]
        dz = dZ[r]
        dz[..., :3, :] *= dc[..., None, :]
        dz[..., 3, :] *= dh
        if s:
            # the posts running at s are the first n rows of those at s - 1
            q, n = rows[s - 1], counts[s]
            dh = d_h_seq[q].copy()
            step = product[:n]
            np.matmul(dZ_flat[r].transpose(1, 0, 2), params.W_rec, out=step.transpose(1, 0, 2))
            dh[:n] += step
            dc_prev = dh * dc_dh[q]
            dc_prev[:n] += dc * f[r]
            dc = dc_prev

    for k, x in enumerate(cache.inputs):
        dZ_rows = dZ_flat[:, k]
        h_prev_k = h_prev[:, k]  # h_{-1} = 0 adds nothing
        if H == 1:
            # a BLAS vector, whose stride would change the summation order
            h_prev_k = h_prev_k.copy()
        np.matmul(dZ_rows.T, x, out=grads.W_in[k])
        np.matmul(dZ_rows[B:].T, h_prev_k, out=grads.W_rec[k])
        dZ_rows.sum(axis=0, out=grads.b[k])
    if not input_grad:
        return None
    shape = (N, params.input_size)
    d_x = np.matmul(dZ_flat[:, 0], params.W_in[0], out=arena.take("lstm.d_inputs", shape))
    d_back = arena.scratch(5, shape)
    d_back[steps.mirror] = np.matmul(dZ_flat[:, 1], params.W_in[1], out=arena.scratch(4, shape))
    d_x += d_back
    return d_x
