"""Dataset statistics and prediction error categorization.

The span-length histogram counts, per post, how many tokens the gold span
set touches (0 for non-toxic posts).  Error buckets partition evaluated
posts into five disjoint categories covering the classic failure shapes:
firing on a clean post, missing everything, recovering only part of a span,
and plain offset errors.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .dataio import LabeledPost, PostPrediction
from .metric import check_aligned
from .span_codec import spans_to_labels
from .tokenizer import tokenize

CATEGORIES = ("exact", "spurious-on-clean", "missed-all", "partial-span", "wrong-offsets")


@dataclass
class SpanWordHistogram:
    """Posts per toxic-word count, as counts and as percentage shares."""

    counts: dict[int, int]
    percentages: dict[int, float]


@dataclass
class ErrorBucket:
    category: str
    post_ids: list[int]


def toxic_word_count(post: LabeledPost) -> int:
    """Number of tokens whose character range intersects the gold set."""
    return sum(spans_to_labels(tokenize(post.text), post.gold))


def span_word_histogram(data: Sequence[LabeledPost]) -> SpanWordHistogram:
    """Histogram of toxic-word counts over a dataset."""
    counts = Counter(toxic_word_count(post) for post in data)
    total = sum(counts.values())
    percentages = {
        k: 100.0 * v / total for k, v in counts.items()
    } if total else {}
    return SpanWordHistogram(counts=dict(sorted(counts.items())),
                             percentages=dict(sorted(percentages.items())))


def categorize_errors(
    preds: Sequence[PostPrediction],
    golds: Sequence[LabeledPost],
) -> list[ErrorBucket]:
    """Partition posts into the five disjoint error buckets.

    exact: prediction equals gold (including both empty);
    spurious-on-clean: gold empty, prediction not;
    missed-all: gold non-empty, prediction empty;
    partial-span: overlapping proper subset of gold;
    wrong-offsets: everything else (shifted or partly spurious spans).
    """
    check_aligned(preds, golds)
    buckets = {category: [] for category in CATEGORIES}
    for pred, gold_post in zip(preds, golds):
        predicted = pred.spans
        gold = gold_post.gold
        if predicted == gold:
            category = "exact"
        elif not gold:
            category = "spurious-on-clean"
        elif not predicted:
            category = "missed-all"
        elif predicted.issubset(gold):  # a non-empty subset of gold overlaps it
            category = "partial-span"
        else:
            category = "wrong-offsets"
        buckets[category].append(pred.id)
    return [ErrorBucket(category=c, post_ids=buckets[c]) for c in CATEGORIES]
