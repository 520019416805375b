"""Linear-chain CRF: negative log-likelihood, its gradients, and Viterbi.

A label sequence ``y`` over emissions ``em`` (T x L) scores

    start[y_0] + sum_t em[t][y_t] + sum_t trans[y_{t-1}][y_t] + stop[y_{T-1}]

and the CRF normalizes over all L^T sequences.  Everything runs in log space
(``np.logaddexp`` reductions), so arbitrarily large scores cannot overflow.
The forward-backward marginals double as the analytic gradient of the
negative log-likelihood: d NLL / d em[t][l] = marginal[t][l] - 1{gold_t = l},
and likewise expected-minus-observed for transitions, start, and stop.

:func:`crf_nll_grad` takes a (T, B, L) batch in the layout of
:mod:`batching` and runs on its N packed rows, as the LSTM does.  Beta is
the alpha recursion run over each post's reversed prefix with ``trans.T``,
so both run as K = 2 stacked recursions in one loop.  Marginals, pair terms
and the gold score run on the rows in forward (t, b) order, so every sum
adds the terms a padded (T, B) pass adds, in its order, and keeps its bits.
Viterbi decoding is per post.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .batching import PackedSteps, check_lengths
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


def _forward_backward(em: np.ndarray, crf: CrfParams, steps: PackedSteps, fwd, rev):
    """The one forward-backward pass every CRF quantity is read from, over
    a sorted (T, B, L) batch's packed rows and its forward and reversed
    :meth:`batching.PackedSteps.slots`.

    Returns, in forward (t, b) row order, the emissions and the marginals;
    each row's ``mirror``, the row of its slot in the reversed layout (an
    involution, so ``mirror[:B]`` are the posts' last rows); the B
    log-partitions; and the expected transition counts of the batch.
    """
    T, B, L = em.shape
    N, rows, prev_rows, heads = steps.N, steps.rows, steps.prev_rows, steps.heads
    grid = em.reshape(T * B, L)
    ems = np.empty((N, 2, L))
    ems[:, 0] = grid[fwd]
    ems[:, 1] = grid[rev]
    trans = np.stack([crf.trans, crf.trans.T])
    # scores[:, 0] are the alphas and scores[:, 1] em + beta; reduced is
    # each step's reduction before its emissions are added, so
    # reduced[:, 1] are the betas
    reduced, scores = np.empty((N, 2, L)), np.empty((N, 2, L))
    reduceds, scoress, emss = map(steps.by_step, (reduced, scores, ems))
    reduceds[rows[0]] = (crf.start, crf.stop)
    np.add(reduceds[rows[0]], emss[rows[0]], out=scoress[rows[0]])
    pairs = np.empty((B, 2, L, L))
    for s in range(1, T):
        r, step = rows[s], pairs[heads[s]]
        np.add(scoress[prev_rows[s]][..., None], trans, out=step)
        np.logaddexp.reduce(step, axis=2, out=reduceds[r])
        np.add(reduceds[r], emss[r], out=scoress[r])

    mirror = np.empty(T * B, dtype=np.intp)
    mirror[rev] = np.arange(N)
    mirror = mirror[fwd]
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
    return ems[:, 0], marginals, mirror, log_z, expected


def crf_nll_grad(
    em: np.ndarray, crf: CrfParams, labels, lengths: np.ndarray, *, packed=None
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """NLL and its gradients wrt emissions, trans, start, and stop.

    Takes a sorted batch: (T, B, L) emissions (any finite values as
    padding), one label list per post and the post lengths.  Returns the
    summed NLL, per-post emission gradients (zero on padding) and the
    summed trans, start and stop gradients.  Each gradient is the marginal
    expectation minus the gold indicator.  A caller that has built the
    batch's layout passes it as ``packed``: the
    :class:`batching.PackedSteps` and the forward and reversed slots.
    """
    if em.ndim != 3 or em.shape[2] != crf.num_labels:
        raise ValidationError(
            f"emissions must be T x B x {crf.num_labels}, got shape {em.shape}"
        )
    T, B, L = em.shape
    if packed is None:
        steps = PackedSteps(check_lengths(lengths, T, B))
        packed = steps, steps.slots(False), steps.slots(True)
    steps = packed[0]
    if len(labels) != B:
        raise ValidationError(f"{len(labels)} label lists for {B} posts")
    for labs, n in zip(labels, steps.lengths.tolist()):
        if len(labs) != n:
            raise ValidationError(f"label count {len(labs)} != sequence length {n}")
    y = np.fromiter(chain.from_iterable(labels), dtype=np.int64, count=steps.N)
    bad = (y < 0) | (y >= L)
    if bad.any():
        raise ValidationError(f"label {y[bad][0]} outside [0, {L})")
    t, b = steps.coords
    y = y[(np.cumsum(steps.lengths) - steps.lengths)[b] + t]  # post by post to row order

    em_rows, d_em, mirror, log_z, expected = _forward_backward(em, crf, *packed)
    at_gold, y_prev, last = (np.arange(steps.N), y), y[steps.prev()], mirror[:B]
    gold = float(
        crf.start[y[:B]].sum()
        + em_rows[at_gold].sum()
        + crf.trans[y_prev, y[B:]].sum()
        + crf.stop[y[last]].sum()
    )
    d_em[at_gold] -= 1.0
    # gold transitions: each row from step 1 on and its previous row
    d_trans = expected - np.bincount(y_prev * L + y[B:], minlength=L * L).reshape(L, L)
    # start and stop gradients are the first and last emission gradient rows
    d_start = d_em[:B].sum(axis=0)
    d_stop = d_em[last].sum(axis=0)
    d_grid = steps.grid(L)
    d_grid[packed[1]] = d_em
    return float(log_z.sum()) - gold, d_grid.reshape(T, B, L), d_trans, d_start, d_stop


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
