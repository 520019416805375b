"""LSTM forward pass and manual backward pass, K directions in lockstep.

Gate order in the stacked 4H parameter blocks is fixed: input, forget, cell
candidate, output.  Each direction's recurrence starts from zero hidden and
cell state:

    z_t = W_in x_t + W_rec h_{t-1} + b
    i, f, o = sigmoid of their blocks;  g = tanh of the cell block
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Both kernels take a minibatch in the time-major, length-sorted layout of
:mod:`batching`: a (T, B, D) array plus the B post lengths, longest first;
one post is a batch of one.  Step ``s`` runs only the posts longer than
``s`` (the first rows of the step), and a reversed direction reads each
post's own prefix back to front, so padding is never computed.

:class:`LstmParams` stacks the weights of K directions on a leading axis
(the BiLSTM has K = 2: forward, then backward), and every direction runs
in the same time loop.  Step ``s`` of every direction touches the same
rows, so the state arrays interleave the directions as (T, B, K, ·): the
active rows of a step are one contiguous (rows, K, ·) block, and the
activations, the cell update and the backward pass's scaling are each one
numpy call for all directions.  The recurrent product is one stacked
(K, rows, H) x (K, H, 4H) product.  Each direction does the same
arithmetic in the same order as it would alone, so results do not depend
on K.

Only ``W_rec h_{t-1}`` depends on the previous step, so each direction's
input projection of all steps is one (T*B, D) x (D, 4H) product taken
before the recurrence, and each step adds its recurrent product to its
rows of the ``gates`` array and activates them in place.  The backward
pass mirrors this: the loop carries only the hidden and cell gradients and
writes each step's pre-activation gradient into a buffer dZ that is zero
on padding; each direction's parameter and input gradients are then
products over all T*B rows: dZ^T X, dZ^T H_prev, sum(dZ) and dZ W_in.

:class:`LstmCache` holds, in processing order, each direction's inputs
(D), and the activated ``gates`` (4H, blocks in gate order) and the
``cell``, ``tanh_cell`` and ``hidden`` states (H) of all directions as
(T, B, K, ·), zero on padding.  A reversed direction consumes the inputs
back-to-front but reports hidden states in original order.  All
arithmetic is float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .batching import check_lengths, matmul_rows, reverse_prefixes, step_index, valid_mask
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

    @classmethod
    def stack(cls, directions: Sequence[LstmDirectionParams]) -> "LstmParams":
        """A new block holding copies of the given directions' weights."""
        return cls(*(np.stack([getattr(d, name) for d in directions]) for name in ("W_in", "W_rec", "b")))

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
    """Forward-pass intermediates, all in processing order."""

    inputs: list[np.ndarray]  # K arrays (T, B, D)
    gates: np.ndarray  # (T, B, K, 4H) activated i, f, g, o
    cell: np.ndarray  # (T, B, K, H)
    tanh_cell: np.ndarray
    hidden: np.ndarray
    reverse: tuple[bool, ...]  # (K,)
    lengths: np.ndarray  # (B,)


def _sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic sigmoid; exp overflow saturates to 0 (caller
    ignores the overflow warning)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def _flip(a: np.ndarray, lengths: np.ndarray, reverse: tuple[bool, ...]) -> np.ndarray:
    """A (T, B, K, ·) array with each reversed direction's posts in reverse
    time order (:func:`batching.reverse_prefixes`; its own inverse)."""
    if not any(reverse):
        return a
    out = np.empty_like(a)
    for k, rev in enumerate(reverse):
        out[:, :, k] = reverse_prefixes(a[:, :, k], lengths) if rev else a[:, :, k]
    return out


def lstm_forward(
    inputs: np.ndarray,
    params: LstmParams,
    lengths: np.ndarray,
    reverse: Sequence[bool],
) -> tuple[np.ndarray, LstmCache]:
    """Run the K directions of ``params`` over a sorted (T, B, D) batch of
    posts with the given ``lengths``; direction ``k`` reads each post back
    to front if ``reverse[k]``.

    Returns the (T, B, K*H) hidden states in original order (zero on
    padding), direction k in columns k*H to (k+1)*H, plus the cache needed
    by :func:`lstm_backward`.  Raises :class:`NonFiniteError` if any hidden
    state diverges, which only happens when parameters or inputs are
    already non-finite (the activations themselves are bounded).
    """
    if inputs.ndim != 3 or inputs.shape[0] < 1:
        raise ValidationError(f"inputs must be T x B x D with T >= 1, got {inputs.shape}")
    if inputs.shape[-1] != params.input_size:
        raise ValidationError(
            f"input width {inputs.shape[-1]} != parameter input size {params.input_size}"
        )
    reverse = tuple(bool(rev) for rev in reverse)
    K, H = params.W_in.shape[0], params.hidden_size
    if len(reverse) != K:
        raise ValidationError(f"{len(reverse)} directions to run for {K} stacked directions")
    T, B, D = inputs.shape
    lengths = check_lengths(lengths, T, B)
    rows, now, prev = step_index(lengths, T)
    i_, f_, g_, o_ = ((Ellipsis, slice(k * H, (k + 1) * H)) for k in range(4))
    xs = [reverse_prefixes(inputs, lengths) if rev else inputs for rev in reverse]

    gates = np.empty((T, B, K, 4 * H))  # pre-activations until a row is activated
    for k, x in enumerate(xs):
        np.matmul(x.reshape(-1, D), params.W_in[k].T, out=gates.reshape(-1, K, 4 * H)[:, k])
    gates += params.b
    cell = np.zeros(gates.shape[:-1] + (H,))
    tanh_cell = np.zeros_like(cell)
    hidden = np.zeros_like(cell)
    # Several rows per step multiply faster against a contiguous copy; for
    # a batch of one the copy costs more than it saves.
    W_rec_T = params.W_rec.transpose(0, 2, 1)
    if B > 1:
        W_rec_T = np.ascontiguousarray(W_rec_T)
    product = np.empty((B, K, 4 * H))  # each step's recurrent product
    with np.errstate(over="ignore"):
        for s in range(T):
            r, q = now[s], prev[s]
            z = gates[r]
            if s:
                step = product[rows[s]]
                np.matmul(hidden[q].transpose(1, 0, 2), W_rec_T, out=step.transpose(1, 0, 2))
                z += step
            g = np.tanh(z[g_])
            _sigmoid_inplace(z)
            z[g_] = g
            c = cell[r]
            np.multiply(z[i_], g, out=c)
            if s:
                c += z[f_] * cell[q]
            tc = tanh_cell[r]
            np.tanh(c, out=tc)
            np.multiply(z[o_], tc, out=hidden[r])

    # every finite state lies in [-1, 1], so the sum is finite exactly when
    # every state is
    if not math.isfinite(hidden.sum()):
        raise NonFiniteError("LSTM hidden state is non-finite; inputs or parameters diverged")

    out = _flip(hidden, lengths, reverse).reshape(T, B, K * H)
    cache = LstmCache(
        inputs=xs,
        gates=gates,
        cell=cell,
        tanh_cell=tanh_cell,
        hidden=hidden,
        reverse=reverse,
        lengths=lengths,
    )
    return out, cache


def lstm_backward(
    d_hidden: np.ndarray, params: LstmParams, cache: LstmCache
) -> tuple[np.ndarray, list[dict[str, np.ndarray]]]:
    """Backpropagate upstream hidden-state gradients through the recurrence.

    ``d_hidden`` has the (T, B, K*H) shape of the forward pass's output, in
    original order; its padded rows are ignored.  Returns the input
    gradients in original order (zero on padding), summed over the
    directions, and one dict of parameter gradients per direction keyed
    ``W_in`` / ``W_rec`` / ``b``, each summed over the batch.
    """
    T, B, K, H = shape = cache.hidden.shape
    if d_hidden.shape != (T, B, K * H):
        raise ValidationError(f"upstream gradient shape {d_hidden.shape} != {(T, B, K * H)}")
    lengths = cache.lengths
    rows, now, _ = step_index(lengths, T)
    d_h_seq = _flip(d_hidden.reshape(shape), lengths, cache.reverse)

    # Local derivatives of every step, taken over whole arrays and written
    # into dZ, which the loop then scales in place (no separate arrays to
    # hold): dz for the i, f, g blocks is dc times the local derivative,
    # for the o block dh times it.
    i, f, g, o = (cache.gates[..., k * H : (k + 1) * H] for k in range(4))
    tc = cache.tanh_cell
    dZ = np.empty(shape[:-1] + (4, H))
    di, df, dg, do = (dZ[..., k, :] for k in range(4))
    np.subtract(1.0, i, out=di)
    di *= i
    di *= g
    df[0] = 0.0  # c_{-1} = 0
    np.subtract(1.0, f[1:], out=df[1:])
    df[1:] *= f[1:]
    df[1:] *= cache.cell[:-1]
    np.multiply(g, g, out=dg)
    np.subtract(1.0, dg, out=dg)
    dg *= i
    np.subtract(1.0, o, out=do)
    do *= o
    do *= tc
    dc_dh = tc * tc
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    dZ[~valid_mask(lengths, T)] = 0.0  # padding adds nothing below

    dZ_flat = dZ.reshape(cache.gates.shape)
    product = np.empty((B, K, H))  # each step's recurrent product
    dh = d_h_seq[now[T - 1]]
    dc = dh * dc_dh[now[T - 1]]
    for s in range(T - 1, -1, -1):
        r = now[s]
        dz = dZ[r]
        dz[..., :3, :] *= dc[..., None, :]
        dz[..., 3, :] *= dh
        if s:
            # the posts active at s are the first rows of those active at s - 1
            q = now[s - 1]
            head = rows[s]
            dh = d_h_seq[q].copy()
            step = product[head]
            np.matmul(dZ_flat[r].transpose(1, 0, 2), params.W_rec, out=step.transpose(1, 0, 2))
            dh[head] += step
            dc_prev = dh * dc_dh[q]
            dc_prev[head] += dc * f[r]
            dc = dc_prev

    D = params.input_size
    d_x = None
    grads = []
    for k, x in enumerate(cache.inputs):
        dZ_rows = dZ_flat[:, :, k].reshape(-1, 4 * H)
        h_prev = cache.hidden[:-1, :, k].reshape(-1, H)  # h_{-1} = 0 adds nothing
        if H == 1:
            # a BLAS vector, whose stride would change the summation order
            h_prev = h_prev.copy()
        grads.append({
            "W_in": dZ_rows.T @ x.reshape(-1, D),
            "W_rec": dZ_flat[1:, :, k].reshape(-1, 4 * H).T @ h_prev,
            "b": dZ_rows.sum(axis=0),
        })
        d_x_k = matmul_rows(dZ_flat[:, :, k], params.W_in[k])
        if cache.reverse[k]:
            d_x_k = reverse_prefixes(d_x_k, lengths)
        d_x = d_x_k if d_x is None else d_x + d_x_k
    return np.ascontiguousarray(d_x), grads
