import re

import pytest
from hypothesis import given, strategies as st

from oracles import loop_labels_to_spans, loop_spans_to_labels
from toxicspans.dataio import CharSpanSet
from toxicspans.errors import ValidationError
from toxicspans.span_codec import (
    BridgePolicy,
    labels_to_spans,
    round_trip_loss,
    spans_to_labels,
)
from toxicspans.tokenizer import Token, TokenSeq, tokenize

HAOLE = (
    "I only use the word haole when stupidity and arrogance is involved and "
    "not all the time.  Excluding the POTUS of course."
)
HAOLE_GOLD = CharSpanSet(tuple(range(31, 40)) + tuple(range(45, 54)))


@st.composite
def spaced_tokens(draw):
    """Ordered, non-overlapping tokens of 1-5 characters with gaps of 0-3."""
    toks = []
    pos = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 12))):
        end = pos + draw(st.integers(1, 5))
        toks.append(Token(surface="x" * (end - pos), lower="x" * (end - pos), start=pos, end=end))
        pos = end + draw(st.integers(0, 3))
    return TokenSeq(tuple(toks), source_len=pos)


token_seqs = spaced_tokens() | st.text(alphabet="ab c.!'\n", max_size=40).map(tokenize)


class TestSpansToLabels:
    def test_haole_one_hot_vector(self):
        toks = tokenize(HAOLE)
        labels = spans_to_labels(toks, HAOLE_GOLD)
        assert labels[:12] == [0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0]
        assert sum(labels) == 2

    def test_empty_gold_all_zero(self):
        toks = tokenize("nothing wrong here at all")
        assert spans_to_labels(toks, CharSpanSet(())) == [0] * len(toks)

    def test_single_character_overlap_marks_whole_token(self):
        toks = tokenize("one knucklehead two")
        gold = CharSpanSet((6,))  # one char inside "knucklehead"
        assert spans_to_labels(toks, gold) == loop_spans_to_labels(toks, gold.indexes)
        assert spans_to_labels(toks, gold) == [0, 1, 0]

    def test_out_of_range_gold_rejected(self):
        toks = tokenize("short")
        with pytest.raises(ValidationError):
            spans_to_labels(toks, CharSpanSet((99,)))
        with pytest.raises(ValidationError):
            spans_to_labels(toks, CharSpanSet((-1,)))

    @given(st.data())
    def test_matches_brute_force_on_random_cases(self, data):
        text = data.draw(st.text(alphabet="ab c.!", min_size=0, max_size=40))
        toks = tokenize(text)
        if toks.source_len == 0:
            return
        gold = CharSpanSet(
            tuple(data.draw(st.sets(st.integers(0, toks.source_len - 1), max_size=15)))
        )
        assert spans_to_labels(toks, gold) == loop_spans_to_labels(toks, gold.indexes)

    @given(st.data())
    def test_monotone_in_gold(self, data):
        text = data.draw(st.text(alphabet="xy z-", min_size=1, max_size=40))
        toks = tokenize(text)
        if toks.source_len == 0:
            return
        base = data.draw(st.sets(st.integers(0, toks.source_len - 1), max_size=10))
        extra = data.draw(st.sets(st.integers(0, toks.source_len - 1), max_size=10))
        small = spans_to_labels(toks, CharSpanSet(tuple(base)))
        large = spans_to_labels(toks, CharSpanSet(tuple(base | extra)))
        assert all(b <= a for b, a in zip(small, large))

    @given(token_seqs, st.data())
    def test_matches_the_loop_oracle(self, toks, data):
        in_range = (0, max(toks.source_len - 1, 0))
        lo, hi = data.draw(st.sampled_from([in_range, (-2, toks.source_len + 1)]))
        gold = CharSpanSet(data.draw(st.lists(st.integers(lo, hi), max_size=20)))
        try:
            expected = loop_spans_to_labels(toks, gold.indexes)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                spans_to_labels(toks, gold)
        else:
            assert spans_to_labels(toks, gold) == expected


class TestLabelsToSpans:
    def test_single_token_decodes_to_its_characters(self):
        text = "Indeed, people the world over, all know that President Trump is a loser!"
        toks = tokenize(text)
        labels = [1 if t.surface == "loser" else 0 for t in toks]
        spans = labels_to_spans(toks, labels)
        assert spans.indexes == (66, 67, 68, 69, 70)

    def test_all_zero_labels(self):
        toks = tokenize("quiet words only")
        assert labels_to_spans(toks, [0] * len(toks)) == CharSpanSet(())

    def test_bridging_fills_single_spaces(self):
        toks = tokenize("Such garbage logic by republicans")
        labels = [1, 1, 1, 0, 0]
        spans = labels_to_spans(toks, labels, BridgePolicy(bridge_gaps=True, max_gap=1))
        assert spans.indexes == tuple(range(0, 18))

    def test_bridging_off_leaves_gaps(self):
        toks = tokenize("Such garbage logic by republicans")
        labels = [1, 1, 1, 0, 0]
        spans = labels_to_spans(toks, labels, BridgePolicy(bridge_gaps=False))
        assert 4 not in spans and 12 not in spans
        assert set(range(0, 4)) <= set(spans.indexes)

    def test_gap_wider_than_max_not_bridged(self):
        toks = tokenize("bad  bad")  # two spaces between
        spans = labels_to_spans(toks, [1, 1], BridgePolicy(bridge_gaps=True, max_gap=1))
        assert spans.indexes == (0, 1, 2, 5, 6, 7)
        spans2 = labels_to_spans(toks, [1, 1], BridgePolicy(bridge_gaps=True, max_gap=2))
        assert spans2.indexes == tuple(range(8))

    def test_no_bridge_across_non_toxic_token(self):
        toks = tokenize("bad ok bad")
        spans = labels_to_spans(toks, [1, 0, 1], BridgePolicy(bridge_gaps=True, max_gap=1))
        assert spans.indexes == (0, 1, 2, 7, 8, 9)

    def test_length_mismatch_rejected(self):
        toks = tokenize("a b c")
        with pytest.raises(ValidationError):
            labels_to_spans(toks, [1, 0])

    def test_negative_max_gap_rejected(self):
        with pytest.raises(ValidationError):
            BridgePolicy(bridge_gaps=True, max_gap=-1)

    @given(st.data())
    def test_decode_covers_gold_token_characters(self, data):
        text = data.draw(st.text(alphabet="mn o.', ", min_size=1, max_size=40))
        toks = tokenize(text)
        if toks.source_len == 0:
            return
        gold = CharSpanSet(
            tuple(data.draw(st.sets(st.integers(0, toks.source_len - 1), max_size=12)))
        )
        decoded = labels_to_spans(toks, spans_to_labels(toks, gold))
        token_chars = set()
        for tok in toks:
            token_chars |= set(range(tok.start, tok.end))
        assert set(gold.indexes) & token_chars <= set(decoded.indexes)

    @given(st.data())
    def test_without_bridging_decode_stays_inside_tokens(self, data):
        text = data.draw(st.text(alphabet="pq r!", min_size=1, max_size=40))
        toks = tokenize(text)
        labels = data.draw(
            st.lists(st.integers(0, 1), min_size=len(toks), max_size=len(toks))
        )
        decoded = labels_to_spans(toks, labels, BridgePolicy(bridge_gaps=False))
        token_chars = set()
        for tok in toks:
            token_chars |= set(range(tok.start, tok.end))
        assert set(decoded.indexes) <= token_chars

    @given(token_seqs, st.data())
    def test_matches_the_loop_oracle(self, toks, data):
        labels = data.draw(
            st.lists(st.sampled_from([0, 1, 2]), min_size=len(toks), max_size=len(toks))
        )
        policy = BridgePolicy(
            bridge_gaps=data.draw(st.booleans()), max_gap=data.draw(st.integers(0, 4))
        )
        decoded = labels_to_spans(toks, labels, policy)
        assert decoded.indexes == loop_labels_to_spans(toks, labels, policy)


class TestRoundTripLoss:
    def test_word_aligned_gold_is_lossless(self):
        toks = tokenize("What a knucklehead. How can anyone not know this")
        gold = CharSpanSet(tuple(range(7, 18)))
        missed, added = round_trip_loss(toks, gold)
        assert missed == CharSpanSet(()) and added == CharSpanSet(())

    def test_empty_gold(self):
        toks = tokenize("anything at all")
        assert round_trip_loss(toks, CharSpanSet(())) == (CharSpanSet(()), CharSpanSet(()))

    def test_half_token_gold_reports_inflation(self):
        toks = tokenize("knucklehead")
        gold = CharSpanSet(tuple(range(0, 5)))
        missed, added = round_trip_loss(toks, gold)
        assert missed == CharSpanSet(())
        assert added.indexes == tuple(range(5, 11))
