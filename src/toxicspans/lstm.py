"""Single-direction LSTM forward pass and manual backward pass.

Gate order in the stacked 4H parameter blocks is fixed: input, forget, cell
candidate, output.  The recurrence starts from zero hidden and cell state:

    z_t = W_in x_t + W_rec h_{t-1} + b
    i, f, o = sigmoid of their blocks;  g = tanh of the cell block
    c_t = f * c_{t-1} + i * g
    h_t = o * tanh(c_t)

Only ``W_rec h_{t-1}`` depends on the previous step, so the input
projection of all T steps is one (T, D) x (D, 4H) product taken before the
recurrence, and each step adds one matrix-vector product to its row of the
(T, 4H) ``gates`` array and activates that row in place.  The backward pass
mirrors this: the loop carries only the hidden and cell gradients and writes
each step's pre-activation gradient into a (T, 4H) buffer dZ; the parameter
and input gradients are then dZ^T X, dZ^T H_prev, sum(dZ) and dZ W_in.

:class:`LstmCache` holds, in processing order, the inputs, the activated
``gates`` (T, 4H, blocks in gate order), and the (T, H) ``cell``,
``tanh_cell`` and ``hidden`` states.  A reversed pass consumes the inputs
back-to-front but reports hidden states in original order.  All arithmetic
is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    inputs: np.ndarray  # (T, D)
    gates: np.ndarray  # (T, 4H) activated i, f, g, o
    cell: np.ndarray  # (T, H)
    tanh_cell: np.ndarray
    hidden: np.ndarray
    reverse: bool


def _sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic sigmoid; exp overflow saturates to 0 (caller
    ignores the overflow warning)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def lstm_forward(
    inputs: np.ndarray, params: LstmDirectionParams, reverse: bool = False
) -> tuple[np.ndarray, LstmCache]:
    """Run the recurrence over a (T, D) input matrix.

    Returns the (T, H) hidden states in original order plus the cache needed
    by :func:`lstm_backward`.  Raises :class:`NonFiniteError` if any hidden
    state diverges, which only happens when parameters or inputs are already
    non-finite (the activations themselves are bounded).
    """
    if inputs.ndim != 2 or inputs.shape[0] < 1:
        raise ValidationError(f"inputs must be T x D with T >= 1, got {inputs.shape}")
    if inputs.shape[1] != params.input_size:
        raise ValidationError(
            f"input width {inputs.shape[1]} != parameter input size {params.input_size}"
        )
    T = inputs.shape[0]
    H = params.hidden_size
    xs = inputs[::-1] if reverse else inputs

    gates = xs @ params.W_in.T + params.b  # pre-activations until row s is activated
    cell = np.empty((T, H))
    tanh_cell = np.empty((T, H))
    hidden = np.empty((T, H))
    W_rec_T = params.W_rec.T
    with np.errstate(over="ignore"):
        for s in range(T):
            z = gates[s]
            if s:
                z += hidden[s - 1] @ W_rec_T
            g = np.tanh(z[2 * H : 3 * H])
            _sigmoid_inplace(z)
            z[2 * H : 3 * H] = g
            c = cell[s]
            np.multiply(z[:H], g, out=c)
            if s:
                c += z[H : 2 * H] * cell[s - 1]
            np.tanh(c, out=tanh_cell[s])
            np.multiply(z[3 * H :], tanh_cell[s], out=hidden[s])

    if not np.all(np.isfinite(hidden)):
        raise NonFiniteError("LSTM hidden state is non-finite; inputs or parameters diverged")

    out = hidden[::-1].copy() if reverse else hidden
    cache = LstmCache(
        inputs=xs,
        gates=gates,
        cell=cell,
        tanh_cell=tanh_cell,
        hidden=hidden,
        reverse=reverse,
    )
    return out, cache


def lstm_backward(
    d_hidden: np.ndarray, params: LstmDirectionParams, cache: LstmCache
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Backpropagate upstream hidden-state gradients through the recurrence.

    ``d_hidden`` is (T, H) in original order.  Returns the (T, D) input
    gradients in original order and the parameter gradients keyed
    ``W_in`` / ``W_rec`` / ``b``.
    """
    T, H = cache.hidden.shape
    if d_hidden.shape != (T, H):
        raise ValidationError(f"upstream gradient shape {d_hidden.shape} != {(T, H)}")
    d_h_seq = d_hidden[::-1] if cache.reverse else d_hidden

    # Local derivatives of every step, taken over whole arrays: dz for the
    # i, f, g blocks is dc times dz_dc, for the o block dh times dz_dh.
    i, f, g, o = (cache.gates[:, k * H : (k + 1) * H] for k in range(4))
    tc = cache.tanh_cell
    dz_dc = np.empty((T, 3, H))
    np.multiply(g, i * (1.0 - i), out=dz_dc[:, 0])
    dz_dc[0, 1] = 0.0  # c_{-1} = 0
    np.multiply(cache.cell[:-1], f[1:] * (1.0 - f[1:]), out=dz_dc[1:, 1])
    np.multiply(i, 1.0 - g * g, out=dz_dc[:, 2])
    dz_dh = tc * o * (1.0 - o)
    dc_dh = o * (1.0 - tc * tc)

    dZ = np.empty((T, 4 * H))
    dh = d_h_seq[T - 1]
    dc = dh * dc_dh[T - 1]
    for s in range(T - 1, -1, -1):
        np.multiply(dz_dc[s], dc, out=dZ[s, : 3 * H].reshape(3, H))
        np.multiply(dz_dh[s], dh, out=dZ[s, 3 * H :])
        if s:
            dh = d_h_seq[s - 1] + dZ[s] @ params.W_rec
            dc *= f[s]
            dc += dh * dc_dh[s - 1]

    d_W_in = dZ.T @ cache.inputs
    d_W_rec = dZ[1:].T @ cache.hidden[:-1]  # h_{-1} = 0 adds nothing
    d_b = dZ.sum(axis=0)
    d_x = dZ @ params.W_in
    d_inputs = d_x[::-1].copy() if cache.reverse else d_x
    return d_inputs, {"W_in": d_W_in, "W_rec": d_W_rec, "b": d_b}
