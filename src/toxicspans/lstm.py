"""LSTM forward pass and manual backward pass, K directions in lockstep.

Gate order in the stacked 4H parameter blocks is fixed: input, forget, cell
candidate, output.  Each direction's recurrence starts from zero hidden and
cell state:

    z_t = W_in x_t + W_rec h_{t-1} + b
    i, f, o = sigmoid of their blocks;  g = tanh of the cell block
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Both kernels take and return the packed rows of :mod:`batching`: the N =
sum(lengths) real slots of length-sorted posts, time-major in forward
order, described by one :class:`batching.PackedSteps`.  Step ``s`` is one
contiguous block of rows, so padding is never computed, stored or
multiplied.  A reversed direction reads its inputs and writes its outputs
through the involution :attr:`batching.PackedSteps.mirror`.

:class:`LstmParams` stacks the weights of K directions on a leading axis
(the BiLSTM has K = 2: forward, then backward), and every direction runs
in the same time loop.  Step ``s`` of every direction touches the same
rows, so the packed arrays interleave the directions as (N, K, ·): the
rows of a step are one contiguous (rows, K, ·) block, and the
activations, the cell update and the backward pass's scaling are each one
numpy call for all directions.  The recurrent product is one stacked
(K, rows, H) x (K, H, 4H) product.  Each direction does the same
arithmetic in the same order as it would alone, so results do not depend
on K.

Only ``W_rec h_{t-1}`` depends on the previous step, so each direction's
input projection of all steps is one (N, D) x (D, 4H) product taken
before the recurrence, and each step adds its recurrent product to its
rows of the ``gates`` array and activates them in place.  The backward
pass mirrors this: the local derivatives of all N rows are taken at once,
the loop carries only the hidden and cell gradients and scales each
step's rows of dZ, the pre-activation gradient, in place; each
direction's parameter gradients are then products over the N rows: dZ^T
X, dZ^T H_prev (H_prev gathered from the previous step's rows), and
sum(dZ).  The input gradient dZ W_in is formed only when the caller asks
for it, which the model does only when fine-tuning embeddings.

Two time loops run that recurrence with the same numpy calls in the same
order, so they give the same bits.  A batch of several posts runs the
packed loop.  One post (B = 1, which is how inference tags a post on its
own) runs a loop of its own over its (T, K, ·) rows.  At B = 1 a step is
about 13 numpy calls on K * 4H elements, and numpy's per-call cost has no
batch axis to spread over, so the packed loop's indexing, temporaries and
keyword arguments are a large share of each step.  The one-post loop
builds each gate block's view once and writes into scratch arrays
instead, which cuts a step by about 15% at H = 32.

:class:`LstmCache` holds the packed rows in processing order: each
direction's inputs (D), and the activated ``gates`` (4H, blocks in gate
order) and the ``cell``, ``tanh_cell`` and ``hidden`` states (H) of all
directions as (N, K, ·), plus the :class:`batching.PackedSteps` and which
directions run reversed.  A reversed direction consumes its post back to
front but reports hidden states in forward order.  All arithmetic is
float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import iadd
from typing import Sequence

import numpy as np

from .batching import PackedSteps
from .errors import NonFiniteError, ValidationError


@dataclass
class LstmDirectionParams:
    """Weights of one LSTM direction; rows stack the four gates."""

    W_in: np.ndarray  # (4H, D)
    W_rec: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.b.shape[0] // 4


@dataclass
class LstmParams:
    """Weights of K directions stacked on a leading axis."""

    W_in: np.ndarray  # (K, 4H, D)
    W_rec: np.ndarray  # (K, 4H, H)
    b: np.ndarray  # (K, 4H)

    def direction(self, k: int) -> LstmDirectionParams:
        """Direction ``k``'s weights as views into the block."""
        return LstmDirectionParams(self.W_in[k], self.W_rec[k], self.b[k])

    @property
    def hidden_size(self) -> int:
        return self.b.shape[1] // 4

    @property
    def input_size(self) -> int:
        return self.W_in.shape[2]


@dataclass
class LstmCache:
    """Forward-pass intermediates over the packed rows, in processing order."""

    inputs: list[np.ndarray]  # K arrays (N, D)
    gates: np.ndarray  # (N, K, 4H) activated i, f, g, o
    cell: np.ndarray  # (N, K, H)
    tanh_cell: np.ndarray
    hidden: np.ndarray
    steps: PackedSteps
    reverse: tuple[bool, ...]  # per direction: whether it reads posts back to front


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
    reverse: Sequence[bool],
) -> tuple[np.ndarray, LstmCache]:
    """Run the K directions of ``params`` over the (N, D) packed input rows
    of the batch ``steps``; direction ``k`` reads each post back to front
    if ``reverse[k]``.

    Returns the (N, K*H) packed hidden states in forward order, direction k
    in columns k*H to (k+1)*H, plus the cache needed by
    :func:`lstm_backward`.  Raises :class:`NonFiniteError` if any hidden
    state diverges, which only happens when parameters or inputs are
    already non-finite (the activations themselves are bounded).
    """
    if inputs.shape != (steps.N, params.input_size):
        raise ValidationError(
            f"inputs must be the batch's {steps.N} packed rows of width {params.input_size}, got {inputs.shape}"
        )
    reverse = tuple(bool(rev) for rev in reverse)
    K, H = params.W_in.shape[0], params.hidden_size
    if len(reverse) != K:
        raise ValidationError(f"{len(reverse)} directions to run for {K} stacked directions")
    N = steps.N
    xs = [inputs[steps.mirror] if rev else inputs for rev in reverse]

    gates = np.empty((N, K, 4 * H))  # pre-activations until a row is activated
    for k, x in enumerate(xs):
        np.matmul(x, params.W_in[k].T, out=gates[:, k])
    gates += params.b
    cell = np.empty((N, K, H))
    tanh_cell = np.empty_like(cell)
    hidden = np.empty_like(cell)
    with np.errstate(over="ignore"):
        if steps.B == 1:
            _one_post_steps(params.W_rec, gates, cell, tanh_cell, hidden)
        else:
            _packed_steps(params.W_rec, steps, gates, cell, tanh_cell, hidden)

    # every finite state lies in [-1, 1], so the sum is finite exactly when
    # every state is
    if not math.isfinite(hidden.sum()):
        raise NonFiniteError("LSTM hidden state is non-finite; inputs or parameters diverged")

    out = np.empty((N, K * H))
    for k, rev in enumerate(reverse):
        out[:, k * H : (k + 1) * H] = hidden[steps.mirror, k] if rev else hidden[:, k]
    cache = LstmCache(
        inputs=xs,
        gates=gates,
        cell=cell,
        tanh_cell=tanh_cell,
        hidden=hidden,
        steps=steps,
        reverse=reverse,
    )
    return out, cache


def _packed_steps(
    W_rec: np.ndarray,
    steps: PackedSteps,
    gates: np.ndarray,
    cell: np.ndarray,
    tanh_cell: np.ndarray,
    hidden: np.ndarray,
) -> None:
    """The recurrence over the packed rows of a batch of several posts:
    activates ``gates`` in place and fills the states."""
    B, heads = steps.B, steps.heads
    K, H = cell.shape[1:]
    i_, f_, g_, o_ = ((Ellipsis, slice(k * H, (k + 1) * H)) for k in range(4))
    # several rows per step multiply faster against a contiguous copy
    W_rec_T = np.ascontiguousarray(W_rec.transpose(0, 2, 1))
    product = np.empty((B, K, 4 * H))  # each step's recurrent product
    zs, cells, tanhs, hs = map(steps.by_step, (gates, cell, tanh_cell, hidden))
    for s, (r, q) in enumerate(zip(steps.rows, steps.prev_rows)):
        z = zs[r]
        if s:
            step = product[heads[s]]
            np.matmul(hs[q].transpose(1, 0, 2), W_rec_T, out=step.transpose(1, 0, 2))
            z += step
        g = np.tanh(z[g_])
        _sigmoid_inplace(z)
        z[g_] = g
        c = cells[r]
        np.multiply(z[i_], g, out=c)
        if s:
            c += z[f_] * cells[q]
        tc = tanhs[r]
        np.tanh(c, out=tc)
        np.multiply(z[o_], tc, out=hs[r])


def _one_post_steps(
    W_rec: np.ndarray, gates: np.ndarray, cell: np.ndarray, tanh_cell: np.ndarray, hidden: np.ndarray
) -> None:
    """The recurrence of one post over its (T, K, ·) rows, one per step:
    :func:`_packed_steps`'s numpy calls in its order, so the same bits, with
    less overhead around them (see the module docstring)."""
    K, H = cell.shape[1:]
    # For one row a contiguous copy costs more than it saves, and BLAS
    # would sum its product in another order.
    W_rec_T = W_rec.transpose(0, 2, 1)
    i_, f_, g_, o_ = (gates[..., k * H : (k + 1) * H] for k in range(4))
    product = np.empty((K, 1, 4 * H))  # each step's recurrent product
    rec = product[:, 0]
    tanh_g = np.empty((K, H))
    f_c = np.empty((K, H))  # f * c_{t-1}
    h_prev = c_prev = None
    for z, zi, zf, zg, zo, c, tc, h, h_row in zip(
        gates, i_, f_, g_, o_, cell, tanh_cell, hidden, hidden[:, :, None]
    ):
        if h_prev is not None:
            np.matmul(h_prev, W_rec_T, product)
            np.add(z, rec, z)
        np.tanh(zg, tanh_g)
        _sigmoid_inplace(z)
        zg[...] = tanh_g
        np.multiply(zi, tanh_g, c)
        if c_prev is not None:
            np.multiply(zf, c_prev, f_c)
            np.add(c, f_c, c)
        np.tanh(c, tc)
        np.multiply(zo, tc, h)
        h_prev, c_prev = h_row, c


def lstm_backward(
    d_hidden: np.ndarray, params: LstmParams, cache: LstmCache, input_grad: bool = True
) -> tuple[np.ndarray | None, list[dict[str, np.ndarray]]]:
    """Backpropagate upstream hidden-state gradients through the recurrence.

    ``d_hidden`` has the (N, K*H) shape of the forward pass's output, in
    forward order.  Returns the (N, D) input gradients in forward order,
    summed over the directions, or None unless ``input_grad``; and one dict
    of parameter gradients per direction keyed ``W_in`` / ``W_rec`` / ``b``,
    each summed over the batch.
    """
    steps = cache.steps
    T, B, N, heads = steps.T, steps.B, steps.N, steps.heads
    K, H = cache.hidden.shape[1:]
    if d_hidden.shape != (N, K * H):
        raise ValidationError(f"upstream gradient shape {d_hidden.shape} != {(N, K * H)}")
    d_h_seq = np.empty((N, K, H))
    d_rows = d_hidden.reshape(N, K, H)
    for k, rev in enumerate(cache.reverse):
        d_h_seq[:, k] = d_rows[steps.mirror, k] if rev else d_rows[:, k]
    prev = steps.prev()
    # rows from step 1 on: the previous step's states of the same posts
    c_prev = cache.cell[prev]
    h_prev = cache.hidden[prev]

    # Local derivatives of every step, taken over whole arrays and written
    # into dZ, which the loop then scales in place (no separate arrays to
    # hold): dz for the i, f, g blocks is dc times the local derivative,
    # for the o block dh times it.
    i, f, g, o = (cache.gates[..., k * H : (k + 1) * H] for k in range(4))
    tc = cache.tanh_cell
    dZ = np.empty((N, K, 4, H))
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
    dc_dh = tc * tc
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o

    dZ_flat = dZ.reshape(N, K, 4 * H)
    product = np.empty((B, K, H))  # each step's recurrent product
    rows = steps.rows
    dZs, dZ_flats, d_hs, dc_dhs, fs = map(steps.by_step, (dZ, dZ_flat, d_h_seq, dc_dh, f))
    dh = d_hs[rows[-1]]
    dc = dh * dc_dhs[rows[-1]]
    for s in range(T - 1, -1, -1):
        r = rows[s]
        dz = dZs[r]
        dz[..., :3, :] *= dc[..., None, :]
        dz[..., 3, :] *= dh
        if s:
            # the posts running at s are the first rows of those at s - 1
            q = rows[s - 1]
            head = heads[s]
            dh = d_hs[q].copy()
            step = product[head]
            np.matmul(dZ_flats[r].transpose(1, 0, 2), params.W_rec, out=step.transpose(1, 0, 2))
            dh[head] += step
            dc_prev = dh * dc_dhs[q]
            dc_prev[head] += dc * fs[r]
            dc = dc_prev

    grads = []
    for k, x in enumerate(cache.inputs):
        dZ_rows = dZ_flat[:, k]
        h_prev_k = h_prev[:, k]  # h_{-1} = 0 adds nothing
        if H == 1:
            # a BLAS vector, whose stride would change the summation order
            h_prev_k = h_prev_k.copy()
        grads.append({
            "W_in": dZ_rows.T @ x,
            "W_rec": dZ_rows[B:].T @ h_prev_k,
            "b": dZ_rows.sum(axis=0),
        })
    if not input_grad:
        return None, grads
    d_xs = [dZ_flat[:, k] @ params.W_in[k] for k in range(K)]
    d_xs = [d_x[steps.mirror] if rev else d_x for d_x, rev in zip(d_xs, cache.reverse)]
    return reduce(iadd, d_xs), grads  # summed into the first direction's array
