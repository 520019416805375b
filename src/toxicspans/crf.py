"""Linear-chain CRF: log-partition, gold path score, marginals, Viterbi.

A label sequence ``y`` over emissions ``em`` (T x L) scores

    start[y_0] + sum_t em[t][y_t] + sum_t trans[y_{t-1}][y_t] + stop[y_{T-1}]

and the CRF normalizes over all L^T sequences.  Everything runs in log space
(``np.logaddexp`` reductions), so arbitrarily large scores cannot overflow.
The forward-backward marginals double as the analytic gradient of the
negative log-likelihood: d NLL / d em[t][l] = marginal[t][l] - 1{gold_t = l},
and likewise expected-minus-observed for transitions, start, and stop.

Forward-backward runs on the time-major, length-sorted batch layout of
:mod:`batching`: (T, B, L) emissions, whose alpha and beta recursions touch
only each step's active posts.  :func:`crf_nll_grad` takes such a batch;
the single-post (T, L) helpers below run their post as a batch of one.
Viterbi decoding is per post.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batching import check_lengths, step_counts, valid_mask
from .errors import ValidationError


@dataclass
class CrfParams:
    """Transition table plus start/stop scores; trans[i][j] scores i -> j."""

    trans: np.ndarray  # (L, L)
    start: np.ndarray  # (L,)
    stop: np.ndarray  # (L,)

    @property
    def num_labels(self) -> int:
        return self.start.shape[0]


def _check_emissions(em: np.ndarray, crf: CrfParams) -> None:
    if em.ndim != 2 or em.shape[0] < 1:
        raise ValidationError(f"emissions must be T x L with T >= 1, got shape {em.shape}")
    if em.shape[1] != crf.num_labels:
        raise ValidationError(
            f"emission width {em.shape[1]} != label count {crf.num_labels}"
        )


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
    rows = [slice(0, n) for n in step_counts(lengths)]  # each step's running posts
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


def _single(em: np.ndarray, crf: CrfParams) -> _ForwardBackward:
    """Forward-backward of one (T, L) post, as a batch of one."""
    _check_emissions(em, crf)
    return _forward_backward(em[:, None, :], crf, np.array([em.shape[0]]))


def crf_log_partition(em: np.ndarray, crf: CrfParams) -> float:
    """log sum over all label sequences of exp(path score)."""
    return float(_single(em, crf).log_z[0])


def crf_gold_score(em: np.ndarray, crf: CrfParams, labels: list[int]) -> float:
    """Path score of one label sequence."""
    _check_emissions(em, crf)
    y = _label_array(labels, em.shape[0], crf.num_labels)
    return _gold_score(em[:, None, :], crf, y[:, None], np.array([len(y)]))


def crf_nll(em: np.ndarray, crf: CrfParams, labels: list[int]) -> float:
    """Negative log-likelihood of the gold sequence: logZ - gold score >= 0."""
    return crf_log_partition(em, crf) - crf_gold_score(em, crf, labels)


def crf_marginals(em: np.ndarray, crf: CrfParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals and expected transition counts.

    Marginals sum to 1 at every position; the L x L expected transition
    counts sum to T - 1.
    """
    fb = _single(em, crf)
    return fb.marginals[:, 0], fb.expected


def crf_nll_grad(
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
    lengths = check_lengths(lengths, em.shape[0], em.shape[1])
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


def viterbi_decode(em: np.ndarray, crf: CrfParams) -> list[int]:
    """Maximum-score label sequence; ties break toward the lower label index.

    Runs on Python floats: at L = 2 a numpy call per position costs far more
    than its arithmetic.  Each candidate score is ``score[i] + trans[i][j]``
    and a later label replaces the best only if strictly greater, which is
    the lower-index tie-break; the additions are the ones, in the order, a
    vectorized max-plus step would make.
    """
    _check_emissions(em, crf)
    rows = em.tolist()
    trans = crf.trans.tolist()
    L = len(trans)
    score = [s + e for s, e in zip(crf.start.tolist(), rows[0])]
    backptrs = []
    for row in rows[1:]:
        ptr = []
        nxt = []
        for j in range(L):
            best_i, best = 0, score[0] + trans[0][j]
            for i in range(1, L):
                cand = score[i] + trans[i][j]
                if cand > best:
                    best_i, best = i, cand
            ptr.append(best_i)
            nxt.append(best + row[j])
        backptrs.append(ptr)
        score = nxt
    final = [s + p for s, p in zip(score, crf.stop.tolist())]
    best = 0
    for j in range(1, L):
        if final[j] > final[best]:
            best = j
    path = [best]
    for ptr in reversed(backptrs):
        best = ptr[best]
        path.append(best)
    path.reverse()
    return path
