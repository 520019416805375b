"""Independent brute-force oracles used by the tests.

The brute-force oracles deliberately avoid the library's dynamic programs:
path sums are explicit enumerations over all label sequences, and gradients
come from central finite differences.  Keep them slow and obvious.

The loop-form kernels at the end are the step-by-step LSTM recurrence and
CRF forward-backward that the library's fused kernels must reproduce: one
matrix-vector product and one outer product per time step, one transition
table per position.  The numpy Viterbi decoder and the Adam step written as
one expression per moment are the references of the library's scalar
decoder and in-place update, which must match them exactly.  The padded
CRF kernel and the training loop over the tensors are the references of
the packed CRF kernel and of training on one parameter vector, which must
return their bits.  The single-post CRF quantities (log-partition, gold
score, NLL, marginals) run one post as a batch of one through the
library's kernels, for the tests that check them against the brute-force
oracles.  :func:`crf_grads` and :func:`lstm_grads` call the library's
backward kernels, which write their parameter gradients into a buffer the
caller passes, with a fresh NaN-filled buffer (so an entry left unwritten
shows), and return those gradients.  ``reference_lstm_forward`` is the
lockstep LSTM forward pass that ran every batch, one post included,
through the packed loop, and took and returned the padded (T, B, ·) grid;
the library's kernels, which take and return packed rows, must return its
bits on every real slot.  The padded
grid lives only here: :func:`padded` and :func:`packed` move rows between
it and the library's packed layout.

The span-set functions at the very end are the regex span-literal parser,
the grammar-only parser that read every literal before the json scanner's
fast path, and the per-index set loops that the library's parser, span set
and span codec must reproduce, outputs and errors alike.

``scan_tokenize`` is the character-by-character scanner whose tokens the
library's one-pattern tokenizer must reproduce exactly.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from itertools import pairwise
from types import SimpleNamespace
from typing import Sequence

import numpy as np

from toxicspans.batching import PackedSteps
from toxicspans.crf import CrfParams, _check_emissions, crf_nll_grad
from toxicspans.crf import _forward_backward as _packed_forward_backward
from toxicspans.dataio import CharSpanSet
from toxicspans.errors import DataFormatError, NonFiniteError, ValidationError
from toxicspans.lstm import LstmCache, LstmParams, lstm_backward
from toxicspans.tokenizer import Token, TokenSeq


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
    """Step-by-step LSTM recurrence of the one direction of a K = 1
    ``LstmParams``: (T, H) hidden states in original order plus a cache
    dict in processing order for :func:`loop_lstm_backward`."""
    T = inputs.shape[0]
    H = params.hidden_size
    W_in, W_rec, b = params.W_in[0], params.W_rec[0], params.b[0]
    xs = inputs[::-1] if reverse else inputs
    cache = {name: np.empty((T, H)) for name in ("i", "f", "g", "o", "c", "tc", "h")}
    h = np.zeros(H)
    c = np.zeros(H)
    for s in range(T):
        z = W_in @ xs[s] + W_rec @ h + b
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
    """Backpropagation through time, one outer product per step and tensor;
    the gradients are those of the direction, (4H, ·) each."""
    T, H = cache["h"].shape
    W_in, W_rec = params.W_in[0], params.W_rec[0]
    d_h_seq = d_hidden[::-1] if cache["reverse"] else d_hidden
    d_W_in = np.zeros_like(W_in)
    d_W_rec = np.zeros_like(W_rec)
    d_b = np.zeros_like(params.b[0])
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
        d_x[s] = W_in.T @ dz
        dh_next = W_rec.T @ dz
        dc_next = dc * f
    d_inputs = d_x[::-1].copy() if cache["reverse"] else d_x
    return d_inputs, {"W_in": d_W_in, "W_rec": d_W_rec, "b": d_b}


def _slots(steps: PackedSteps, reverse: bool) -> slice | np.ndarray:
    """For every packed row of the batch (of its reversed pass if
    ``reverse``), in order, its slot ``t * B + b`` in the (T * B, ...)
    flattening of a padded (T, B, ...) grid; index the grid with it to pack
    it, assign through it to unpack."""
    if steps.lengths[-1] == steps.T and not reverse:  # every post runs every step
        return slice(None)
    if steps.B == 1:
        return slice(None, None, -1)
    t, b = steps.coords
    if reverse:
        t = steps.lengths[b] - 1 - t
    return t * steps.B + b


def _grid(steps: PackedSteps, width: int) -> np.ndarray:
    """A new (T * B, width) array to scatter packed rows into, at their
    :func:`_slots`; zero on padding."""
    return (np.empty if steps.lengths[-1] == steps.T else np.zeros)((steps.T * steps.B, width))


def padded(rows: np.ndarray, steps: PackedSteps, fill: np.ndarray | None = None) -> np.ndarray:
    """Packed (N, width) rows as a padded (T, B, width) grid: zero past each
    post's length, or the values of ``fill`` there if given."""
    width = rows.shape[1]
    grid = _grid(steps, width) if fill is None else fill.reshape(-1, width).copy()
    grid[_slots(steps, False)] = rows
    return grid.reshape(steps.T, steps.B, width)


def packed(grid: np.ndarray, steps: PackedSteps) -> np.ndarray:
    """The real slots of a padded (T, B, width) grid as packed rows."""
    return grid.reshape(steps.T * steps.B, -1)[_slots(steps, False)]


def _check_grid_lengths(lengths, T: int, B: int) -> PackedSteps:
    steps = PackedSteps(lengths)
    if (steps.T, steps.B) != (T, B):
        raise ValidationError(f"lengths {steps.lengths.tolist()} do not fit a {T} x {B} grid")
    return steps


def _reference_sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic sigmoid; exp overflow saturates to 0 (caller
    ignores the overflow warning)."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.reciprocal(x, out=x)


def reference_lstm_forward(
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
    steps = _check_grid_lengths(lengths, T, B)
    N, counts = steps.N, steps.counts
    i_, f_, g_, o_ = ((Ellipsis, slice(k * H, (k + 1) * H)) for k in range(4))
    slots = [_slots(steps, rev) for rev in reverse]
    xs = [inputs.reshape(T * B, D)[sl] for sl in slots]

    gates = np.empty((N, K, 4 * H))  # pre-activations until a row is activated
    for k, x in enumerate(xs):
        np.matmul(x, params.W_in[k].T, out=gates[:, k])
    gates += params.b
    cell = np.empty((N, K, H))
    tanh_cell = np.empty_like(cell)
    hidden = np.empty_like(cell)
    # Several rows per step multiply faster against a contiguous copy; for
    # a batch of one the copy costs more than it saves.
    W_rec_T = params.W_rec.transpose(0, 2, 1)
    if B > 1:
        W_rec_T = np.ascontiguousarray(W_rec_T)
    product = np.empty((B, K, 4 * H))  # each step's recurrent product
    with np.errstate(over="ignore"):
        for s, (r, q) in enumerate(zip(steps.rows, steps.prev_rows)):
            z = gates[r]
            if s:
                step = product[: counts[s]]
                np.matmul(hidden[q].transpose(1, 0, 2), W_rec_T, out=step.transpose(1, 0, 2))
                z += step
            g = np.tanh(z[g_])
            _reference_sigmoid_inplace(z)
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

    out = _grid(steps, K * H)
    for k, sl in enumerate(slots):
        out[sl, k * H : (k + 1) * H] = hidden[:, k]
    cache = LstmCache(
        inputs=xs,
        gates=gates,
        cell=cell,
        tanh_cell=tanh_cell,
        hidden=hidden,
        steps=steps,
        reverse=reverse,
    )
    return out.reshape(T, B, K * H), cache


def packed_reference_lstm_forward(
    inputs: np.ndarray, params: LstmParams, steps: PackedSteps, reverse: Sequence[bool], arena=None,
    keep_cache: bool = True,
) -> tuple[np.ndarray, LstmCache | None]:
    """:func:`reference_lstm_forward` with ``lstm_forward``'s packed
    signature: the rows go through the padded grid and back, with the
    cache or, unless ``keep_cache``, None.  It allocates its own arrays
    and ignores ``arena``."""
    hidden, cache = reference_lstm_forward(padded(inputs, steps), params, steps.lengths, reverse)
    return packed(hidden, steps), cache if keep_cache else None


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


# The padded CRF: forward-backward over the whole (T, B) grid, padding
# carried as -inf alphas and betas.  Kept as it was before the CRF moved to
# packed rows; the packed kernel must return exactly its bits.


def valid_mask(lengths: np.ndarray, T: int) -> np.ndarray:
    """(T, B) booleans: True where step ``t`` lies inside post ``b``."""
    return np.arange(T)[:, None] < lengths[None, :]


def _label_array(labels, length: int, num_labels: int) -> np.ndarray:
    if len(labels) != length:
        raise ValidationError(f"label count {len(labels)} != sequence length {length}")
    y = np.asarray(labels, dtype=np.int64)
    bad = (y < 0) | (y >= num_labels)
    if bad.any():
        raise ValidationError(f"label {y[bad][0]} outside [0, {num_labels})")
    return y


def _gold_score(em: np.ndarray, crf: CrfParams, y: np.ndarray, lengths: np.ndarray) -> float:
    """Summed path score of the (T, B) label grid ``y`` of a sorted batch."""
    valid = valid_mask(lengths, len(y))
    return float(
        crf.start[y[0]].sum()
        + np.take_along_axis(em, y[:, :, None], axis=2)[valid].sum()
        + crf.trans[y[:-1], y[1:]][valid[1:]].sum()
        + crf.stop[y[lengths - 1, np.arange(len(lengths))]].sum()
    )


@dataclass
class _ForwardBackward:
    """Forward-backward quantities of a sorted (T, B, L) batch."""

    alphas: np.ndarray  # (T, B, L) log-scores of all prefixes ending in each label
    betas: np.ndarray  # (T, B, L) log-scores of all suffixes after each label
    log_z: np.ndarray  # (B,)
    marginals: np.ndarray  # (T, B, L), zero on padding
    expected: np.ndarray  # (L, L) expected transition counts, summed over the batch


def _forward_backward(em: np.ndarray, crf: CrfParams, lengths: np.ndarray) -> _ForwardBackward:
    """The one forward-backward pass every CRF quantity is read from.

    ``em`` is a sorted batch with finite padding.  The recursions touch only
    the rows of each step's active posts; every padded alpha and beta stays
    -inf, so padding adds exp(-inf) = 0 to the marginals and transitions.
    """
    T, B, _ = em.shape
    rows = [slice(0, n) for n in PackedSteps(lengths).counts]  # each step's running posts
    last, cols = lengths - 1, np.arange(B)
    alphas = np.full_like(em, -np.inf)
    alphas[0] = crf.start + em[0]
    for t in range(1, T):
        r = rows[t]
        alphas[t, r] = np.logaddexp.reduce(alphas[t - 1, r, :, None] + crf.trans, axis=1)
        alphas[t, r] += em[t, r]
    betas = np.full_like(em, -np.inf)
    betas[last, cols] = crf.stop
    for t in range(T - 2, -1, -1):
        r = rows[t + 1]
        betas[t, r] = np.logaddexp.reduce(
            crf.trans + (em[t + 1, r] + betas[t + 1, r])[:, None, :], axis=2
        )
    log_z = np.logaddexp.reduce(alphas[last, cols] + crf.stop, axis=1)
    marginals = np.exp(alphas + betas - log_z[:, None])
    # log-probability of label pair (i, j) at positions (t, t + 1), all t at once
    pair = alphas[:-1, :, :, None] + crf.trans + (em[1:] + betas[1:])[:, :, None, :]
    pair -= log_z[:, None, None]
    expected = np.exp(pair).sum(axis=(0, 1))
    return _ForwardBackward(alphas, betas, log_z, marginals, expected)


def padded_crf_nll_grad(
    em: np.ndarray, crf: CrfParams, labels, lengths: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL and its gradients wrt emissions, trans, start, and stop.

    Takes a sorted batch: (T, B, L) emissions (any finite values as
    padding), one label list per post and the post lengths.  Returns the
    summed NLL, per-post emission gradients (zero on padding) and the
    summed trans, start and stop gradients.  Each gradient is the marginal
    expectation minus the gold indicator.
    """
    if em.ndim != 3 or em.shape[2] != crf.num_labels:
        raise ValidationError(
            f"emissions must be T x B x {crf.num_labels}, got shape {em.shape}"
        )
    lengths = _check_grid_lengths(lengths, em.shape[0], em.shape[1]).lengths
    if len(labels) != len(lengths):
        raise ValidationError(f"{len(labels)} label lists for {len(lengths)} posts")
    T, B, L = em.shape
    valid = valid_mask(lengths, T)
    y = np.zeros((T, B), dtype=np.int64)
    for b, (labs, n) in enumerate(zip(labels, lengths)):
        y[:n, b] = _label_array(labs, int(n), L)

    fb = _forward_backward(em, crf, lengths)
    t_idx, b_idx = np.nonzero(valid)
    d_em = fb.marginals
    d_em[t_idx, b_idx, y[t_idx, b_idx]] -= 1.0
    # gold transitions: pairs (t, t + 1) inside a post
    pairs = (y[:-1] * L + y[1:])[valid[1:]]
    d_trans = fb.expected - np.bincount(pairs, minlength=L * L).reshape(L, L)
    # start and stop gradients are the first and last emission gradient rows
    d_start = d_em[0].sum(axis=0)
    d_stop = d_em[lengths - 1, np.arange(B)].sum(axis=0)
    nll = float(fb.log_z.sum()) - _gold_score(em, crf, y, lengths)
    return nll, d_em, d_trans, d_start, d_stop


# The single-post CRF quantities, each a batch of one through the
# library's packed kernels.


def _single(em, crf):
    """Forward-backward of one (T, L) post, as a batch of one: its marginals,
    log-partition and expected transition counts."""
    _check_emissions(em, crf)
    marginals, _, log_z, expected = _packed_forward_backward(em, crf, PackedSteps([len(em)]))
    return marginals, float(log_z[0]), expected


def crf_log_partition(em, crf) -> float:
    """log sum over all label sequences of exp(path score)."""
    return _single(em, crf)[1]


def crf_nll(em, crf, labels) -> float:
    """Negative log-likelihood of the gold sequence: logZ - gold score >= 0."""
    _check_emissions(em, crf)
    return crf_grads(em, crf, [labels], PackedSteps([len(em)]))[0]


def _nan_like(*arrays):
    return [np.full_like(a, np.nan) for a in arrays]


def crf_grads(em, crf, labels, steps):
    """``crf_nll_grad``'s NLL and packed emission gradients, then the trans,
    start and stop gradients it wrote."""
    grads = CrfParams(*_nan_like(crf.trans, crf.start, crf.stop))
    nll, d_em = crf_nll_grad(em, crf, labels, steps, grads)
    return nll, d_em, grads.trans, grads.start, grads.stop


def lstm_grads(d_hidden, params, cache, input_grad=True):
    """``lstm_backward``'s input gradients, then one dict of the parameter
    gradients it wrote per direction, keyed ``W_in`` / ``W_rec`` / ``b``."""
    grads = LstmParams(*_nan_like(params.W_in, params.W_rec, params.b))
    d_inputs = lstm_backward(d_hidden, params, cache, grads, input_grad)
    names = ("W_in", "W_rec", "b")
    return d_inputs, [{name: getattr(grads, name)[k] for name in names} for k in range(len(grads.b))]


def crf_gold_score(em, crf, labels) -> float:
    """Path score of one label sequence: logZ - NLL."""
    return crf_log_partition(em, crf) - crf_nll(em, crf, labels)


def crf_marginals(em, crf):
    """Per-position label marginals and expected transition counts.

    Marginals sum to 1 at every position; the L x L expected transition
    counts sum to T - 1.
    """
    marginals, _, expected = _single(em, crf)
    return marginals, expected


def numpy_viterbi_decode(em, trans, start, stop):
    """Max-plus Viterbi with one numpy step per position; np.argmax returns
    the first maximum, the lower-index tie-break."""
    T, L = em.shape
    score = start + em[0]
    backptr = np.empty((T, L), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + trans  # (prev, next)
        backptr[t] = np.argmax(cand, axis=0)
        score = cand.max(axis=0) + em[t]
    best = int(np.argmax(score + stop))
    path = [best]
    for t in range(T - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    path.reverse()
    return path


def per_tensor_adam_state(params, learning_rate):
    """A fresh :class:`training.AdamState`'s fields, with a zero moment
    pair per array of ``params``, for :func:`expression_adam_step`."""
    from toxicspans.training import AdamState

    state = SimpleNamespace(**vars(AdamState(learning_rate, np.zeros(0), np.zeros(0))))
    state.m = {name: np.zeros_like(a) for name, a in params.items()}
    state.v = {name: np.zeros_like(a) for name, a in params.items()}
    return state


def expression_adam_step(params, grads, state):
    """One Adam update with a fresh temporary for every operation, of each
    array of ``params`` on its own (state from :func:`per_tensor_adam_state`)."""
    from toxicspans.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON

    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for name, param in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        param -= state.learning_rate * (m / correct1) / (np.sqrt(v / correct2) + ADAM_EPSILON)


def per_tensor_clip(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """The global-norm clip as a loop over the tensors: each tensor's squares
    summed on its own, in the dict's order, then every tensor scaled; a
    non-finite norm leaves them as they are.  Returns the pre-clip norm."""
    total = 0.0
    for arr in grads.values():
        total += float(np.sum(arr * arr))
    norm = float(np.sqrt(total))
    if max_norm < norm < math.inf:
        for arr in grads.values():
            arr *= max_norm / norm
    return norm


def reference_train(examples, cfg, table, policy):
    """``training.train`` as a loop over the tensors: each step scales every
    gradient tensor on its own, clips them with :func:`per_tensor_clip` in
    ``TENSOR_NAMES`` order, then the embedding matrix, and updates every
    parameter tensor with :func:`expression_adam_step`.  The seeded draws,
    batches, early stopping and history are ``train``'s."""
    from conftest import named_tensors
    from toxicspans.model import init_params, nll_and_gradients
    from toxicspans.training import EpochStats, dev_char_f1

    rng = np.random.default_rng(cfg.seed)
    params = init_params(table, cfg.hidden_size, rng, cfg.finetune_embeddings)
    n = len(examples)
    order = rng.permutation(n)
    dev_count = min(max(1, int(round(n * cfg.dev_fraction))), n - 1)
    dev = [examples[i] for i in sorted(int(i) for i in order[:dev_count])]
    train_idx = sorted(int(i) for i in order[dev_count:])
    trainable = [i for i in train_idx if examples[i].encoded.effective_len > 0]
    param_arrays = named_tensors(params)
    state = per_tensor_adam_state(param_arrays, cfg.learning_rate)
    history, best_f1, waited = [], -np.inf, 0
    best = params.clone()
    for epoch in range(1, cfg.epochs + 1):
        shuffled = rng.permutation(len(trainable))
        nll_total, norms, tokens = 0.0, [], 0
        for lo in range(0, len(shuffled), cfg.batch_size):
            batch = [examples[i] for i in sorted(trainable[k] for k in shuffled[lo : lo + cfg.batch_size])]
            batch_nll, grads = nll_and_gradients(
                [ex.encoded for ex in batch],
                [ex.labels[: ex.encoded.effective_len] for ex in batch],
                params,
            )
            grads = named_tensors(grads)
            for arr in grads.values():
                arr *= 1.0 / len(batch)
            norms.append(per_tensor_clip(grads, cfg.gradient_clip_norm))
            expression_adam_step(param_arrays, grads, state)
            nll_total += batch_nll
            tokens += sum(ex.encoded.effective_len for ex in batch)
        stats = EpochStats(
            epoch=epoch,
            train_nll=nll_total / len(trainable),
            dev_f1=dev_char_f1(dev, params, policy),
            grad_norm_mean=math.fsum(norms) / len(norms),
            grad_norm_max=max(norms),
            steps=len(norms),
            clipped_steps=sum(norm > cfg.gradient_clip_norm for norm in norms),
            tokens=tokens,
        )
        history.append(stats)
        if stats.dev_f1 > best_f1:
            best_f1, waited = stats.dev_f1, 0
            best = params.clone()
        else:
            waited += 1
            if waited >= cfg.early_stop_patience:
                break
    return best, history


_SPAN_LITERAL_RE = re.compile(r"\A\s*\[\s*(?:-?\d+(?:\s*,\s*-?\d+)*\s*)?\]\s*\Z")
_INT_RE = re.compile(r"-?\d+")


def normalize_indexes(indexes) -> tuple[int, ...]:
    """A span set's stored form: sorted, deduplicated ints."""
    return tuple(sorted({int(i) for i in indexes}))


def regex_parse_span_literal(literal: str) -> tuple[int, ...]:
    """Validate the whole literal with one regex, then int() each match."""
    if not _SPAN_LITERAL_RE.match(literal):
        raise DataFormatError(f"malformed span literal: {literal!r}")
    return normalize_indexes(int(tok) for tok in _INT_RE.findall(literal))


# the characters allowed between the brackets, as in the library's parser
_SPAN_BODY_RE = re.compile(r"[\d\s,-]*")


def grammar_parse_span_literal(literal: str) -> CharSpanSet:
    """Parse a bracketed integer-list literal like ``[7, 8, 9]`` (grammar in
    the ``toxicspans.dataio`` docstring) by that grammar alone."""
    body = literal.strip()
    inner = body[1:-1]
    if len(body) >= 2 and body[0] == "[" and body[-1] == "]" and _SPAN_BODY_RE.fullmatch(inner):
        if not inner.strip():
            return CharSpanSet()
        try:
            return CharSpanSet(map(int, inner.split(",")))
        except ValueError:  # a malformed item, or an int over the digit limit
            pass
    # a long literal is quoted by its head, so the error stays one short line
    shown = repr(literal) if len(literal) <= 60 else f"{literal[:40]!r}... ({len(literal)} characters)"
    raise DataFormatError(f"malformed span literal: {shown}")


def loop_spans_to_labels(toks, gold_indexes) -> list[int]:
    """Any-overlap labels by scanning every character of every token."""
    for index in gold_indexes:
        if index < 0 or index >= toks.source_len:
            raise ValidationError(f"gold index {index} outside [0, {toks.source_len})")
    gold_set = set(gold_indexes)
    return [1 if any(c in gold_set for c in range(tok.start, tok.end)) else 0 for tok in toks]


def loop_labels_to_spans(toks, labels, policy) -> tuple[int, ...]:
    """Union of toxic token ranges plus, when bridging, the bridged gaps of
    adjacent toxic pairs, gathered in a set."""
    chars: set[int] = set()
    for tok, label in zip(toks, labels):
        if label:
            chars.update(range(tok.start, tok.end))
    if policy.bridge_gaps:
        for (left, l_label), (right, r_label) in pairwise(zip(toks, labels)):
            if l_label and r_label and right.start - left.end <= policy.max_gap:
                chars.update(range(left.end, right.start))
    return normalize_indexes(chars)


def _wordish(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def _token(text: str, start: int, end: int) -> Token:
    surface = text[start:end]
    return Token(surface=surface, lower=surface.lower(), start=start, end=end)


def _split_chunk(text: str, start: int, end: int, out: list[Token]) -> None:
    # Leading punctuation, one token per run of identical characters.
    i = start
    while i < end and not _wordish(text[i]):
        j = i + 1
        while j < end and text[j] == text[i]:
            j += 1
        out.append(_token(text, i, j))
        i = j
    # Trailing punctuation region; the core in between stays one token.
    k = end
    while k > i and not _wordish(text[k - 1]):
        k -= 1
    if i < k:
        out.append(_token(text, i, k))
    while k < end:
        j = k + 1
        while j < end and text[j] == text[k]:
            j += 1
        out.append(_token(text, k, j))
        k = j


def scan_tokenize(text: str) -> TokenSeq:
    """Segment ``text`` by scanning it one character at a time: whitespace
    chunks, then leading and trailing punctuation runs around each core."""
    tokens: list[Token] = []
    n = len(text)
    i = 0
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        _split_chunk(text, i, j, tokens)
        i = j
    return TokenSeq(tokens=tuple(tokens), source_len=n)
