"""Independent brute-force oracles used by the tests.

The brute-force oracles deliberately avoid the library's dynamic programs:
path sums are explicit enumerations over all label sequences, and gradients
come from central finite differences.  Keep them slow and obvious.

The loop-form kernels at the end are the step-by-step LSTM recurrence and
CRF forward-backward that the library's fused kernels must reproduce: one
matrix-vector product and one outer product per time step, one transition
table per position.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def path_score(em, trans, start, stop, labels) -> float:
    score = start[labels[0]] + em[0][labels[0]]
    for t in range(1, len(labels)):
        score += trans[labels[t - 1]][labels[t]] + em[t][labels[t]]
    return float(score + stop[labels[-1]])


def all_paths(T: int, L: int):
    return itertools.product(range(L), repeat=T)


def brute_log_partition(em, trans, start, stop) -> float:
    T, L = np.asarray(em).shape
    scores = [path_score(em, trans, start, stop, p) for p in all_paths(T, L)]
    m = max(scores)
    return m + math.log(sum(math.exp(s - m) for s in scores))


def brute_marginals(em, trans, start, stop):
    """Per-position marginals and expected transition counts by enumeration."""
    em = np.asarray(em)
    T, L = em.shape
    log_z = brute_log_partition(em, trans, start, stop)
    marginals = np.zeros((T, L))
    expected = np.zeros((L, L))
    for p in all_paths(T, L):
        weight = math.exp(path_score(em, trans, start, stop, p) - log_z)
        for t, y in enumerate(p):
            marginals[t, y] += weight
        for t in range(T - 1):
            expected[p[t], p[t + 1]] += weight
    return marginals, expected


def brute_best_path(em, trans, start, stop):
    """(best score, one argmax path) by enumeration."""
    em = np.asarray(em)
    T, L = em.shape
    best_score, best = -math.inf, None
    for p in all_paths(T, L):
        s = path_score(em, trans, start, stop, p)
        if s > best_score:
            best_score, best = s, list(p)
    return best_score, best


def finite_difference(loss_fn, arrays: dict[str, np.ndarray], h: float = 1e-5):
    """Central finite-difference gradient of ``loss_fn()`` wrt every entry of
    every array, perturbing the arrays in place and restoring them."""
    grads = {}
    for name, arr in arrays.items():
        grad = np.zeros_like(arr)
        flat = arr.reshape(-1)
        flat_grad = grad.reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + h
            up = loss_fn()
            flat[k] = original - h
            down = loss_fn()
            flat[k] = original
            flat_grad[k] = (up - down) / (2.0 * h)
        grads[name] = grad
    return grads


def max_relative_error(analytic: dict, numeric: dict) -> float:
    """Max over tensors of |a - n| / max(|a|, |n|, 1e-8)."""
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name])
        n = np.asarray(numeric[name])
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def loop_lstm_forward(inputs, params, reverse=False):
    """Step-by-step LSTM recurrence: (T, H) hidden states in original order
    plus a cache dict in processing order for :func:`loop_lstm_backward`."""
    T = inputs.shape[0]
    H = params.hidden_size
    xs = inputs[::-1] if reverse else inputs
    cache = {name: np.empty((T, H)) for name in ("i", "f", "g", "o", "c", "tc", "h")}
    h = np.zeros(H)
    c = np.zeros(H)
    for s in range(T):
        z = params.W_in @ xs[s] + params.W_rec @ h + params.b
        i = _sigmoid(z[:H])
        f = _sigmoid(z[H : 2 * H])
        g = np.tanh(z[2 * H : 3 * H])
        o = _sigmoid(z[3 * H :])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for name, value in (("i", i), ("f", f), ("g", g), ("o", o), ("c", c), ("tc", tc), ("h", h)):
            cache[name][s] = value
    cache["inputs"] = xs
    cache["reverse"] = reverse
    hidden = cache["h"]
    return (hidden[::-1].copy() if reverse else hidden), cache


def loop_lstm_backward(d_hidden, params, cache):
    """Backpropagation through time, one outer product per step and tensor."""
    T, H = cache["h"].shape
    d_h_seq = d_hidden[::-1] if cache["reverse"] else d_hidden
    d_W_in = np.zeros_like(params.W_in)
    d_W_rec = np.zeros_like(params.W_rec)
    d_b = np.zeros_like(params.b)
    d_x = np.empty_like(cache["inputs"])
    dh_next = np.zeros(H)
    dc_next = np.zeros(H)
    for s in range(T - 1, -1, -1):
        i, f, g, o, tc = (cache[name][s] for name in ("i", "f", "g", "o", "tc"))
        c_prev = cache["c"][s - 1] if s > 0 else np.zeros(H)
        h_prev = cache["h"][s - 1] if s > 0 else np.zeros(H)
        dh = d_h_seq[s] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dz = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)]
        )
        d_W_in += np.outer(dz, cache["inputs"][s])
        d_W_rec += np.outer(dz, h_prev)
        d_b += dz
        d_x[s] = params.W_in.T @ dz
        dh_next = params.W_rec.T @ dz
        dc_next = dc * f
    d_inputs = d_x[::-1].copy() if cache["reverse"] else d_x
    return d_inputs, {"W_in": d_W_in, "W_rec": d_W_rec, "b": d_b}


def _logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m + np.log(np.sum(np.exp(a - m), axis=axis, keepdims=True)), axis=axis)


def loop_crf_nll_grad(em, trans, start, stop, labels):
    """CRF NLL and its (em, trans, start, stop) gradients from max-shifted
    alpha/beta recursions and one transition table per position."""
    T = em.shape[0]
    alphas = np.empty_like(em)
    alphas[0] = start + em[0]
    for t in range(1, T):
        alphas[t] = _logsumexp(alphas[t - 1][:, None] + trans, axis=0) + em[t]
    betas = np.empty_like(em)
    betas[T - 1] = stop
    for t in range(T - 2, -1, -1):
        betas[t] = _logsumexp(trans + (em[t + 1] + betas[t + 1])[None, :], axis=1)
    log_z = float(_logsumexp(alphas[-1] + stop, axis=0))
    marginals = np.exp(alphas + betas - log_z)

    d_em = marginals.copy()
    d_em[np.arange(T), labels] -= 1.0
    d_trans = np.zeros_like(trans)
    for t in range(T - 1):
        d_trans += np.exp(
            alphas[t][:, None] + trans + (em[t + 1] + betas[t + 1])[None, :] - log_z
        )
        d_trans[labels[t], labels[t + 1]] -= 1.0
    d_start = marginals[0].copy()
    d_start[labels[0]] -= 1.0
    d_stop = marginals[-1].copy()
    d_stop[labels[-1]] -= 1.0
    nll = log_z - path_score(em, trans, start, stop, labels)
    return nll, d_em, d_trans, d_start, d_stop
