"""Character-level span F1: per-post precision/recall/F1 over character-index
sets, averaged (unweighted) over the dataset.

Empty-set conventions: both sets empty scores a perfect 1; exactly one empty
scores 0.  Indexes are treated as opaque integers with no validation against
the text, so faulty submissions (negative or out-of-range positions) are
scored rather than rejected: such indexes enlarge the prediction's
cardinality but can never land in the intersection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dataio import CharSpanSet, LabeledPost, PostPrediction
from .errors import ValidationError


@dataclass(frozen=True)
class PostScore:
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    per_post: list[PostScore]
    mean_f1: float


# the scores of the empty-set cases, shared by every post that has one
_BOTH_EMPTY = PostScore(precision=1.0, recall=1.0, f1=1.0)
_ONE_EMPTY = PostScore(precision=0.0, recall=0.0, f1=0.0)


def per_post_scores(pred: CharSpanSet, gold: CharSpanSet) -> PostScore:
    """Precision, recall, and F1 of one post's predicted character set."""
    predicted, actual = pred.indexes, gold.indexes
    if not predicted:
        return _ONE_EMPTY if actual else _BOTH_EMPTY
    if not actual:
        return _ONE_EMPTY
    overlap = len(set(predicted).intersection(actual))
    precision = overlap / len(predicted)
    recall = overlap / len(actual)
    if precision + recall == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return PostScore(precision=precision, recall=recall, f1=f1)


def check_aligned(preds: Sequence[PostPrediction], golds: Sequence[LabeledPost]) -> None:
    """Reject predictions whose count, or id at any position, differs from the gold posts'."""
    if len(preds) != len(golds):
        raise ValidationError(f"prediction count {len(preds)} != gold count {len(golds)}")
    for pred, gold in zip(preds, golds):
        if pred.id != gold.id:
            raise ValidationError(f"id mismatch: prediction {pred.id} vs gold {gold.id}")


def evaluate(
    preds: Sequence[PostPrediction], golds: Sequence[LabeledPost]
) -> EvalReport:
    """Score a full prediction list against aligned gold posts."""
    check_aligned(preds, golds)
    if not preds:
        raise ValidationError("nothing to evaluate: empty prediction list")
    per_post = [per_post_scores(pred.spans, gold.gold) for pred, gold in zip(preds, golds)]
    mean_f1 = sum(s.f1 for s in per_post) / len(per_post)
    return EvalReport(per_post=per_post, mean_f1=mean_f1)
