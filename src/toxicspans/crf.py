"""Linear-chain CRF over the tagger's two labels (:data:`NUM_LABELS`):
negative log-likelihood, its gradients, and Viterbi.

A label sequence ``y`` over emissions ``em`` (T x 2) scores

    start[y_0] + sum_t em[t][y_t] + sum_t trans[y_{t-1}][y_t] + stop[y_{T-1}]

and the CRF normalizes over all 2^T sequences.  Everything runs in log space
(binary ``np.logaddexp`` steps), so arbitrarily large scores cannot overflow.
The forward-backward marginals double as the analytic gradient of the
negative log-likelihood: d NLL / d em[t][l] = marginal[t][l] - 1{gold_t = l},
and likewise expected-minus-observed for transitions, start, and stop.
Emissions of another width, or a CRF whose tables are not (2, 2), (2,) and
(2,), raise :class:`ValidationError`.

:func:`crf_nll_grad` takes the (N, 2) emissions of a batch in the packed
layout of :mod:`batching`, as the LSTM returns its states, and returns
their gradients in the same rows; it writes the transition, start and stop
gradients into the caller's buffer.  Beta is the alpha recursion run over
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

NUM_LABELS = 2  # 0 = non-toxic, 1 = toxic
_SHAPES = ((NUM_LABELS, NUM_LABELS), (NUM_LABELS,), (NUM_LABELS,))


@dataclass
class CrfParams:
    """Transition table plus start/stop scores; trans[i][j] scores i -> j."""

    trans: np.ndarray  # (2, 2)
    start: np.ndarray  # (2,)
    stop: np.ndarray  # (2,)


def _check_emissions(em: np.ndarray, crf: CrfParams) -> None:
    if (shapes := (crf.trans.shape, crf.start.shape, crf.stop.shape)) != _SHAPES:
        raise ValidationError(f"CRF trans, start and stop shapes must be {_SHAPES} for {NUM_LABELS} labels, got {shapes}")
    if em.ndim != 2 or em.shape[0] < 1:
        raise ValidationError(f"emissions must be T x L with T >= 1, got shape {em.shape}")
    if em.shape[1] != NUM_LABELS:
        raise ValidationError(f"emission width {em.shape[1]} != label count {NUM_LABELS}")


def _forward_backward(em: np.ndarray, crf: CrfParams, steps: PackedSteps):
    """The one forward-backward pass every CRF quantity is read from, over
    the packed (N, 2) emissions of the batch ``steps``.

    Returns, in forward (t, b) row order, the marginals; the
    :attr:`batching.PackedSteps.mirror` of every row as an index array
    (``mirror[:B]`` are the posts' last rows); the B log-partitions; and
    the expected transition counts of the batch.
    """
    B, L = steps.B, NUM_LABELS
    N, rows, prev_rows, counts = steps.N, steps.rows, steps.prev_rows, steps.counts
    mirror = np.arange(N)[steps.mirror]
    ems = np.empty((N, 2, L))
    ems[:, 0] = em
    ems[:, 1] = em[mirror]
    trans = np.stack([crf.trans, crf.trans.T])
    # scores[:, 0] are the alphas and scores[:, 1] em + beta; reduced is
    # each step's log-sum-exp over the previous label before its emissions
    # are added, so reduced[:, 1] are the betas
    reduced, scores = np.empty((N, 2, L)), np.empty((N, 2, L))
    reduced[rows[0]] = (crf.start, crf.stop)
    np.add(reduced[rows[0]], ems[rows[0]], out=scores[rows[0]])
    pairs = np.empty((B, 2, L, L))
    for s in range(1, steps.T):
        r, step = rows[s], pairs[: counts[s]]
        np.add(scores[prev_rows[s]][..., None], trans, out=step)
        np.logaddexp(step[..., 0, :], step[..., 1, :], out=reduced[r])
        np.add(reduced[r], ems[r], out=scores[r])

    alphas = scores[:, 0]
    final = alphas[mirror[:B]] + crf.stop
    log_z = np.logaddexp(final[:, 0], final[:, 1])
    log_z_rows = log_z[steps.coords[1], None]
    marginals = alphas + reduced[mirror, 1]
    marginals -= log_z_rows
    np.exp(marginals, out=marginals)
    # log-probability of label pair (i, j) at each row from step 1 on and
    # its previous row
    pair = alphas[steps.prev, :, None] + crf.trans
    pair += scores[mirror[B:], 1, None, :]
    pair -= log_z_rows[B:, :, None]
    expected = np.exp(pair, out=pair).sum(axis=0)
    return marginals, mirror, log_z, expected


def crf_nll_grad(
    em: np.ndarray, crf: CrfParams, labels, steps: PackedSteps, grads: CrfParams
) -> tuple[float, np.ndarray]:
    """NLL and its gradients wrt emissions, trans, start, and stop.

    Takes the (N, 2) packed emissions of the batch ``steps`` and one label
    list per post, in the batch's order.  Returns the summed NLL and the
    packed emission gradients, and writes the summed trans, start and stop
    gradients into ``grads``.  Each gradient is the marginal expectation
    minus the gold indicator.
    """
    L = NUM_LABELS
    _check_emissions(em, crf)
    if len(em) != steps.N:
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
    at_gold, y_prev, last = (np.arange(steps.N), y), y[steps.prev], mirror[:B]
    gold = float(
        crf.start[y[:B]].sum()
        + em[at_gold].sum()
        + crf.trans[y_prev, y[B:]].sum()
        + crf.stop[y[last]].sum()
    )
    d_em[at_gold] -= 1.0
    # gold transitions: each row from step 1 on and its previous row
    np.subtract(expected, np.bincount(y_prev * L + y[B:], minlength=L * L).reshape(L, L), out=grads.trans)
    # start and stop gradients are the first and last emission gradient rows
    d_em[:B].sum(axis=0, out=grads.start)
    d_em[last].sum(axis=0, out=grads.stop)
    return float(log_z.sum()) - gold, d_em


def viterbi_decode(em: np.ndarray, crf: CrfParams) -> list[int]:
    """Maximum-score label sequence of (T, 2) emissions; ties break toward
    label 0.

    Runs on Python floats: a numpy call per position costs far more than
    its arithmetic.  Each candidate score is ``score[i] + trans[i][j]``,
    and label 1's candidate replaces label 0's only if strictly greater (a
    NaN candidate never replaces, and a NaN best is never replaced); the
    additions are the ones, in the order, a vectorized max-plus step would
    make.  A position's two back-pointers are one int, bit j the best
    predecessor of label j.
    """
    _check_emissions(em, crf)
    return _viterbi_two_labels(em.tolist(), crf.trans.tolist(), crf.start.tolist(), crf.stop.tolist())


def _viterbi_two_labels(rows: list, trans: list, start: list, stop: list) -> list[int]:
    (t00, t01), (t10, t11) = trans
    positions = iter(rows)
    e0, e1 = next(positions)
    s0, s1 = start[0] + e0, start[1] + e1
    backptrs = []
    for e0, e1 in positions:
        best0, ptr = s0 + t00, 0
        if (cand := s1 + t10) > best0:
            best0, ptr = cand, 1
        best1 = s0 + t01
        if (cand := s1 + t11) > best1:
            best1, ptr = cand, ptr | 2
        backptrs.append(ptr)
        s0, s1 = best0 + e0, best1 + e1
    best = 1 if s1 + stop[1] > s0 + stop[0] else 0
    path = [best]
    for ptr in reversed(backptrs):
        best = ptr >> best & 1
        path.append(best)
    path.reverse()
    return path
