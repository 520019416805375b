"""Linear-chain CRF: negative log-likelihood, its gradients, and Viterbi.

A label sequence ``y`` over emissions ``em`` (T x L) scores

    start[y_0] + sum_t em[t][y_t] + sum_t trans[y_{t-1}][y_t] + stop[y_{T-1}]

and the CRF normalizes over all L^T sequences.  Everything runs in log space
(``np.logaddexp`` reductions), so arbitrarily large scores cannot overflow.
The forward-backward marginals double as the analytic gradient of the
negative log-likelihood: d NLL / d em[t][l] = marginal[t][l] - 1{gold_t = l},
and likewise expected-minus-observed for transitions, start, and stop.

:func:`crf_nll_grad` takes the (N, L) emissions of a batch in the packed
layout of :mod:`batching`, as the LSTM returns its states, and returns
their gradients in the same rows.  Beta is the alpha recursion run over
each post's reversed prefix with ``trans.T``, so both run as K = 2 stacked
recursions in one loop; the reversed rows are the forward rows through
:attr:`batching.PackedSteps.mirror`.  Marginals, pair terms and the gold
score run on the rows in forward (t, b) order, so every sum adds the terms
of a padded (T, B) pass in its order, and keeps its bits.  Viterbi
decoding is per post, on that post's rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .batching import PackedSteps
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


def _forward_backward(em: np.ndarray, crf: CrfParams, steps: PackedSteps):
    """The one forward-backward pass every CRF quantity is read from, over
    the packed (N, L) emissions of the batch ``steps``.

    Returns, in forward (t, b) row order, the marginals; the
    :attr:`batching.PackedSteps.mirror` of every row as an index array
    (``mirror[:B]`` are the posts' last rows); the B log-partitions; and
    the expected transition counts of the batch.
    """
    B, L = steps.B, crf.num_labels
    N, rows, prev_rows, heads = steps.N, steps.rows, steps.prev_rows, steps.heads
    mirror = np.arange(N)[steps.mirror]
    ems = np.empty((N, 2, L))
    ems[:, 0] = em
    ems[:, 1] = em[mirror]
    trans = np.stack([crf.trans, crf.trans.T])
    # scores[:, 0] are the alphas and scores[:, 1] em + beta; reduced is
    # each step's reduction before its emissions are added, so
    # reduced[:, 1] are the betas
    reduced, scores = np.empty((N, 2, L)), np.empty((N, 2, L))
    reduceds, scoress, emss = map(steps.by_step, (reduced, scores, ems))
    reduceds[rows[0]] = (crf.start, crf.stop)
    np.add(reduceds[rows[0]], emss[rows[0]], out=scoress[rows[0]])
    pairs = np.empty((B, 2, L, L))
    for s in range(1, steps.T):
        r, step = rows[s], pairs[heads[s]]
        np.add(scoress[prev_rows[s]][..., None], trans, out=step)
        np.logaddexp.reduce(step, axis=2, out=reduceds[r])
        np.add(reduceds[r], emss[r], out=scoress[r])

    alphas = scores[:, 0]
    log_z = np.logaddexp.reduce(alphas[mirror[:B]] + crf.stop, axis=1)
    log_z_rows = log_z[steps.coords[1], None]
    marginals = alphas + reduced[mirror, 1]
    marginals -= log_z_rows
    np.exp(marginals, out=marginals)
    # log-probability of label pair (i, j) at each row from step 1 on and
    # its previous row
    pair = alphas[steps.prev(), :, None] + crf.trans
    pair += scores[mirror[B:], 1, None, :]
    pair -= log_z_rows[B:, :, None]
    expected = np.exp(pair, out=pair).sum(axis=0)
    return marginals, mirror, log_z, expected


def crf_nll_grad(
    em: np.ndarray, crf: CrfParams, labels, steps: PackedSteps
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL and its gradients wrt emissions, trans, start, and stop.

    Takes the (N, L) packed emissions of the batch ``steps`` and one label
    list per post, in the batch's order.  Returns the summed NLL, the
    packed emission gradients and the summed trans, start and stop
    gradients.  Each gradient is the marginal expectation minus the gold
    indicator.
    """
    L = crf.num_labels
    if em.shape != (steps.N, L):
        raise ValidationError(f"emissions must be the {steps.N} packed rows x {L} labels, got shape {em.shape}")
    B = steps.B
    if len(labels) != B:
        raise ValidationError(f"{len(labels)} label lists for {B} posts")
    for labs, n in zip(labels, steps.lengths.tolist()):
        if len(labs) != n:
            raise ValidationError(f"label count {len(labs)} != sequence length {n}")
    y = np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=steps.N)
    bad = (y < 0) | (y >= L)
    if bad.any():
        raise ValidationError(f"label {y[bad][0]} outside [0, {L})")
    y = steps.pack(y)

    d_em, mirror, log_z, expected = _forward_backward(em, crf, steps)
    at_gold, y_prev, last = (np.arange(steps.N), y), y[steps.prev()], mirror[:B]
    gold = float(
        crf.start[y[:B]].sum()
        + em[at_gold].sum()
        + crf.trans[y_prev, y[B:]].sum()
        + crf.stop[y[last]].sum()
    )
    d_em[at_gold] -= 1.0
    # gold transitions: each row from step 1 on and its previous row
    d_trans = expected - np.bincount(y_prev * L + y[B:], minlength=L * L).reshape(L, L)
    # start and stop gradients are the first and last emission gradient rows
    d_start = d_em[:B].sum(axis=0)
    d_stop = d_em[last].sum(axis=0)
    return float(log_z.sum()) - gold, d_em, d_trans, d_start, d_stop


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
