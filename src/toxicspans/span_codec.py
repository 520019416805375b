"""Conversion between character-index span sets and per-token binary labels.

Encoding uses the any-overlap rule: a token is toxic (label 1) when its
character range intersects the gold set at all.  Decoding takes the union of
toxic token ranges and, with bridging enabled, also the small character gaps
between adjacent toxic tokens, which recovers contiguous multi-word phrases
whose gold spans include the separating spaces.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .dataio import CharSpanSet
from .errors import ValidationError
from .tokenizer import TokenSeq

# Per-token binary labels: 0 = non-toxic, 1 = toxic.
LabelSeq = list[int]


@dataclass(frozen=True)
class BridgePolicy:
    """Decode behavior for the characters between adjacent toxic tokens."""

    bridge_gaps: bool = True
    max_gap: int = 1

    def __post_init__(self) -> None:
        if self.max_gap < 0:
            raise ValidationError(f"max_gap must be >= 0, got {self.max_gap}")


def spans_to_labels(toks: TokenSeq, gold: CharSpanSet) -> LabelSeq:
    """Label each token 1 iff its ``[start, end)`` range intersects ``gold``."""
    indexes = gold.indexes
    if indexes and (indexes[0] < 0 or indexes[-1] >= toks.source_len):
        bad = indexes[0] if indexes[0] < 0 else indexes[bisect_left(indexes, toks.source_len)]
        raise ValidationError(f"gold index {bad} outside [0, {toks.source_len})")
    labels = []
    for tok in toks:
        # the first gold index at or after the token's start decides
        pos = bisect_left(indexes, tok.start)
        labels.append(1 if pos < len(indexes) and indexes[pos] < tok.end else 0)
    return labels


def labels_to_spans(
    toks: TokenSeq, labels: LabelSeq, policy: BridgePolicy = BridgePolicy()
) -> CharSpanSet:
    """Decode per-token labels back to a character-index span set."""
    if len(labels) != len(toks):
        raise ValidationError(
            f"label count {len(labels)} does not match token count {len(toks)}"
        )
    chars: list[int] = []  # ascending, as the tokens' ranges ascend
    toxic_end = None  # end of the previous token while it is toxic
    for tok, label in zip(toks, labels):
        if not label:
            toxic_end = None
            continue
        if policy.bridge_gaps and toxic_end is not None and tok.start - toxic_end <= policy.max_gap:
            chars.extend(range(toxic_end, tok.start))
        chars.extend(range(tok.start, tok.end))
        toxic_end = tok.end
    return CharSpanSet._of_sorted(chars)


def round_trip_loss(
    toks: TokenSeq, gold: CharSpanSet, policy: BridgePolicy = BridgePolicy()
) -> tuple[CharSpanSet, CharSpanSet]:
    """Diagnose encode/decode fidelity for a gold span set.

    Returns ``(missed, added)``: gold characters lost by the round trip and
    characters invented by it (sub-token gold inflates to whole tokens).
    """
    decoded = labels_to_spans(toks, spans_to_labels(toks, gold), policy)
    return gold - decoded, decoded - gold
