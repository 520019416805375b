"""Linear-chain CRF: log-partition, gold path score, marginals, Viterbi.

A label sequence ``y`` over emissions ``em`` (T x L) scores

    start[y_0] + sum_t em[t][y_t] + sum_t trans[y_{t-1}][y_t] + stop[y_{T-1}]

and the CRF normalizes over all L^T sequences.  Everything runs in log space
(``np.logaddexp`` reductions), so arbitrarily large scores cannot overflow.
The forward-backward marginals double as the analytic gradient of the
negative log-likelihood: d NLL / d em[t][l] = marginal[t][l] - 1{gold_t = l},
and likewise expected-minus-observed for transitions, start, and stop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _gold_score(em: np.ndarray, crf: CrfParams, y: np.ndarray) -> float:
    return float(
        crf.start[y[0]]
        + em[np.arange(len(y)), y].sum()
        + crf.trans[y[:-1], y[1:]].sum()
        + crf.stop[y[-1]]
    )


@dataclass
class _ForwardBackward:
    alphas: np.ndarray  # (T, L) log-scores of all prefixes ending in each label
    betas: np.ndarray  # (T, L) log-scores of all suffixes after each label
    log_z: float
    marginals: np.ndarray  # (T, L)
    expected: np.ndarray  # (L, L) expected transition counts


def _forward_backward(em: np.ndarray, crf: CrfParams) -> _ForwardBackward:
    """The one forward-backward pass every CRF quantity is read from."""
    _check_emissions(em, crf)
    T = em.shape[0]
    alphas = np.empty_like(em)
    alphas[0] = crf.start + em[0]
    for t in range(1, T):
        alphas[t] = np.logaddexp.reduce(alphas[t - 1][:, None] + crf.trans, axis=0)
        alphas[t] += em[t]
    betas = np.empty_like(em)
    betas[T - 1] = crf.stop
    for t in range(T - 2, -1, -1):
        betas[t] = np.logaddexp.reduce(crf.trans + (em[t + 1] + betas[t + 1]), axis=1)
    log_z = float(np.logaddexp.reduce(alphas[-1] + crf.stop))
    marginals = np.exp(alphas + betas - log_z)
    # log-probability of label pair (i, j) at positions (t, t + 1), all t at once
    pair = alphas[:-1, :, None] + crf.trans + (em[1:] + betas[1:])[:, None, :]
    pair -= log_z
    expected = np.exp(pair).sum(axis=0)
    return _ForwardBackward(alphas, betas, log_z, marginals, expected)


def crf_log_partition(em: np.ndarray, crf: CrfParams) -> float:
    """log sum over all label sequences of exp(path score)."""
    return _forward_backward(em, crf).log_z


def crf_gold_score(em: np.ndarray, crf: CrfParams, labels: list[int]) -> float:
    """Path score of one label sequence."""
    _check_emissions(em, crf)
    return _gold_score(em, crf, _label_array(labels, em.shape[0], crf.num_labels))


def crf_nll(em: np.ndarray, crf: CrfParams, labels: list[int]) -> float:
    """Negative log-likelihood of the gold sequence: logZ - gold score >= 0."""
    return crf_log_partition(em, crf) - crf_gold_score(em, crf, labels)


def crf_marginals(em: np.ndarray, crf: CrfParams) -> tuple[np.ndarray, np.ndarray]:
    """Per-position label marginals and expected transition counts.

    Marginals sum to 1 at every position; the L x L expected transition
    counts sum to T - 1.
    """
    fb = _forward_backward(em, crf)
    return fb.marginals, fb.expected


def crf_nll_grad(
    em: np.ndarray, crf: CrfParams, labels: list[int]
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL and its gradients wrt emissions, trans, start, and stop.

    Each gradient is the marginal expectation minus the gold indicator.
    """
    fb = _forward_backward(em, crf)
    T, L = em.shape
    y = _label_array(labels, T, L)
    d_em = fb.marginals
    d_em[np.arange(T), y] -= 1.0
    d_trans = fb.expected - np.bincount(y[:-1] * L + y[1:], minlength=L * L).reshape(L, L)
    # start and stop gradients are the first and last emission gradient rows
    d_start = d_em[0].copy()
    d_stop = d_em[-1].copy()
    nll = fb.log_z - _gold_score(em, crf, y)
    return nll, d_em, d_trans, d_start, d_stop


def viterbi_decode(em: np.ndarray, crf: CrfParams) -> list[int]:
    """Maximum-score label sequence; ties break toward the lower label index.

    np.argmax returns the first maximum, which is exactly the lower-index
    tie-break.
    """
    _check_emissions(em, crf)
    T, L = em.shape
    score = crf.start + em[0]
    backptr = np.empty((T, L), dtype=np.int64)
    for t in range(1, T):
        cand = score[:, None] + crf.trans  # (prev, next)
        backptr[t] = np.argmax(cand, axis=0)
        score = cand.max(axis=0) + em[t]
    final = score + crf.stop
    best = int(np.argmax(final))
    path = [best]
    for t in range(T - 1, 0, -1):
        best = int(backptr[t, best])
        path.append(best)
    path.reverse()
    return path
