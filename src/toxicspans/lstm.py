"""Single-direction LSTM forward pass and manual backward pass.

Gate order in the stacked 4H parameter blocks is fixed: input, forget, cell
candidate, output.  The recurrence starts from zero hidden and cell state:

    z_t = W_in x_t + W_rec h_{t-1} + b
    i, f, o = sigmoid of their blocks;  g = tanh of the cell block
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Both kernels take a minibatch in the time-major, length-sorted layout of
:mod:`batching`: a (T, B, D) array plus the B post lengths, longest first;
one post is a batch of one.  Step ``s`` runs only the posts longer than
``s`` (the first rows of the step), and a reversed pass reads each post's
own prefix back to front, so padding is never computed.

Only ``W_rec h_{t-1}`` depends on the previous step, so the input
projection of all steps is one (T*B, D) x (D, 4H) product taken before the
recurrence, and each step adds one (rows, H) x (H, 4H) product to its rows
of the ``gates`` array and activates them in place.  The backward pass
mirrors this: the loop carries only the hidden and cell gradients and writes
each step's pre-activation gradient into a buffer dZ that is zero on
padding; the parameter and input gradients are then products over all T*B
rows: dZ^T X, dZ^T H_prev, sum(dZ) and dZ W_in.

:class:`LstmCache` holds, in processing order, the inputs, the activated
``gates`` (4H, blocks in gate order), and the ``cell``, ``tanh_cell`` and
``hidden`` states (H), zero on padding.  A reversed pass consumes the inputs
back-to-front but reports hidden states in original order.  All arithmetic
is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def input_size(self) -> int:
        return self.W_in.shape[1]


@dataclass
class LstmCache:
    """Forward-pass intermediates, all in processing order."""

    inputs: np.ndarray  # (T, B, D)
    gates: np.ndarray  # (T, B, 4H) activated i, f, g, o
    cell: np.ndarray  # (T, B, H)
    tanh_cell: np.ndarray
    hidden: np.ndarray
    reverse: bool
    lengths: np.ndarray  # (B,)


def _sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic sigmoid; exp overflow saturates to 0 (caller
    ignores the overflow warning)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def lstm_forward(
    inputs: np.ndarray,
    params: LstmDirectionParams,
    lengths: np.ndarray,
    reverse: bool = False,
) -> tuple[np.ndarray, LstmCache]:
    """Run the recurrence over a sorted (T, B, D) batch of posts with the
    given ``lengths``.

    Returns the hidden states in original order (zero on padding) plus the
    cache needed by :func:`lstm_backward`.  Raises :class:`NonFiniteError`
    if any hidden state diverges, which only happens when parameters or
    inputs are already non-finite (the activations themselves are bounded).
    """
    if inputs.ndim != 3 or inputs.shape[0] < 1:
        raise ValidationError(f"inputs must be T x B x D with T >= 1, got {inputs.shape}")
    if inputs.shape[-1] != params.input_size:
        raise ValidationError(
            f"input width {inputs.shape[-1]} != parameter input size {params.input_size}"
        )
    T, B = inputs.shape[:2]
    H = params.hidden_size
    lengths = check_lengths(lengths, T, B)
    _, now, prev = step_index(lengths, T)
    i_, f_, g_, o_ = ((slice(None), slice(k * H, (k + 1) * H)) for k in range(4))
    xs = reverse_prefixes(inputs, lengths) if reverse else inputs

    gates = matmul_rows(xs, params.W_in.T)  # pre-activations until a row is activated
    gates += params.b
    state = gates.shape[:-1] + (H,)
    cell = np.zeros(state)
    tanh_cell = np.zeros(state)
    hidden = np.zeros(state)
    # Several rows per step multiply faster against a contiguous copy; for
    # a batch of one the copy costs more than it saves.
    W_rec_T = params.W_rec.T if B == 1 else np.ascontiguousarray(params.W_rec.T)
    with np.errstate(over="ignore"):
        for s in range(T):
            r, q = now[s], prev[s]
            z = gates[r]
            if s:
                z += hidden[q] @ W_rec_T
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

    if not np.all(np.isfinite(hidden)):
        raise NonFiniteError("LSTM hidden state is non-finite; inputs or parameters diverged")

    out = np.ascontiguousarray(reverse_prefixes(hidden, lengths)) if reverse else hidden
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
    d_hidden: np.ndarray, params: LstmDirectionParams, cache: LstmCache
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate upstream hidden-state gradients through the recurrence.

    ``d_hidden`` has the shape of the forward pass's hidden states, in
    original order; its padded rows are ignored.  Returns the input
    gradients in original order (zero on padding) and the parameter
    gradients keyed ``W_in`` / ``W_rec`` / ``b``, summed over a batch.
    """
    shape = cache.hidden.shape
    if d_hidden.shape != shape:
        raise ValidationError(f"upstream gradient shape {d_hidden.shape} != {shape}")
    T, H = shape[0], shape[-1]
    rows, now, _ = step_index(cache.lengths, T)
    d_h_seq = reverse_prefixes(d_hidden, cache.lengths) if cache.reverse else d_hidden

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
    dZ[~valid_mask(cache.lengths, T)] = 0.0  # padding adds nothing below

    dZ_flat = dZ.reshape(cache.gates.shape)
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
            dh[head] += dZ_flat[r] @ params.W_rec
            dc_prev = dh * dc_dh[q]
            dc_prev[head] += dc * f[r]
            dc = dc_prev

    D = cache.inputs.shape[-1]
    dZ_rows = dZ_flat.reshape(-1, 4 * H)
    d_W_in = dZ_rows.T @ cache.inputs.reshape(-1, D)
    # h_{-1} = 0 adds nothing
    d_W_rec = dZ_flat[1:].reshape(-1, 4 * H).T @ cache.hidden[:-1].reshape(-1, H)
    d_b = dZ_rows.sum(axis=0)
    d_x = matmul_rows(dZ_flat, params.W_in)
    if cache.reverse:
        d_x = np.ascontiguousarray(reverse_prefixes(d_x, cache.lengths))
    return d_x, {"W_in": d_W_in, "W_rec": d_W_rec, "b": d_b}
