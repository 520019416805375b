import random

import pytest
from hypothesis import given, strategies as st

from oracles import fresh_per_post_scores
from toxicspans.dataio import NO_SPANS, CharSpanSet, LabeledPost, PostPrediction
from toxicspans.errors import ValidationError
from toxicspans.metric import evaluate, per_post_scores

span_sets = st.frozensets(st.integers(-5, 120), max_size=40).map(
    lambda s: CharSpanSet(tuple(s))
)


def reference_scores(pred, gold):
    """Second, independent implementation used to cross-check evaluate()."""
    p_set, g_set = set(pred.indexes), set(gold.indexes)
    if not p_set and not g_set:
        return 1.0
    if not p_set or not g_set:
        return 0.0
    overlap = len(p_set & g_set)
    precision = overlap / len(p_set)
    recall = overlap / len(g_set)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestPerPostScores:
    def test_identity_scores_one(self):
        s = CharSpanSet((3, 4, 5))
        score = per_post_scores(s, s)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_shifted_prediction_with_negative_index(self):
        gold = CharSpanSet((0, 1, 2, 3, 4))
        pred = CharSpanSet((-1, 0, 1, 2, 3))
        score = per_post_scores(pred, gold)
        assert score.precision == pytest.approx(0.8, abs=1e-12)
        assert score.recall == pytest.approx(0.8, abs=1e-12)
        assert score.f1 == pytest.approx(0.8, abs=1e-12)

    def test_empty_set_conventions(self):
        empty = CharSpanSet(())
        some = CharSpanSet((1, 2))
        assert per_post_scores(empty, empty).f1 == 1.0
        assert per_post_scores(some, empty).f1 == 0.0
        assert per_post_scores(empty, some).f1 == 0.0

    def test_empty_prediction_against_nonempty_gold(self):
        gold = CharSpanSet(tuple(range(49, 63)))
        score = per_post_scores(CharSpanSet(()), gold)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_disjoint_sets_score_zero(self):
        score = per_post_scores(CharSpanSet((0, 1)), CharSpanSet((5, 6)))
        assert score.f1 == 0.0

    @given(span_sets, span_sets)
    def test_swap_exchanges_precision_and_recall(self, a, b):
        ab = per_post_scores(a, b)
        ba = per_post_scores(b, a)
        assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
        assert ab.recall == pytest.approx(ba.precision, abs=1e-12)
        assert ab.f1 == pytest.approx(ba.f1, abs=1e-12)

    @given(span_sets, span_sets)
    def test_scores_bounded_and_consistent(self, pred, gold):
        score = per_post_scores(pred, gold)
        for v in (score.precision, score.recall, score.f1):
            assert 0.0 <= v <= 1.0
        if score.precision + score.recall > 0:
            expected = (
                2 * score.precision * score.recall / (score.precision + score.recall)
            )
            assert score.f1 == pytest.approx(expected, abs=1e-12)
        else:
            assert score.f1 == 0.0

    @given(span_sets, span_sets)
    def test_against_reference_implementation(self, pred, gold):
        assert per_post_scores(pred, gold).f1 == pytest.approx(
            reference_scores(pred, gold), abs=1e-12
        )


class TestEvaluate:
    @staticmethod
    def dataset(pairs):
        preds, golds = [], []
        for i, (pred, gold) in enumerate(pairs):
            preds.append(PostPrediction(i, CharSpanSet(tuple(pred))))
            golds.append(LabeledPost(i, "x" * 200, CharSpanSet(tuple(gold))))
        return preds, golds

    def test_mean_of_perfect_and_zero_is_half(self):
        preds, golds = self.dataset([({1, 2}, {1, 2}), ({3}, {9})])
        assert evaluate(preds, golds).mean_f1 == pytest.approx(0.5)

    def test_all_perfect_scores_one(self):
        preds, golds = self.dataset([({1}, {1}), (set(), set()), ({5, 6}, {5, 6})])
        assert evaluate(preds, golds).mean_f1 == 1.0

    def test_length_mismatch_rejected(self):
        preds, golds = self.dataset([({1}, {1})])
        with pytest.raises(ValidationError):
            evaluate(preds, golds + golds)

    def test_id_mismatch_rejected(self):
        preds, golds = self.dataset([({1}, {1}), ({2}, {2})])
        preds[1] = PostPrediction(7, preds[1].spans)
        with pytest.raises(ValidationError, match="id mismatch"):
            evaluate(preds, golds)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([], [])

    @given(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 60), max_size=15),
                st.frozensets(st.integers(0, 60), max_size=15),
            ),
            min_size=1,
            max_size=15,
        )
    )
    def test_mean_equals_independently_recomputed_scores(self, pairs):
        preds, golds = self.dataset(pairs)
        report = evaluate(preds, golds)
        expected = [
            reference_scores(p.spans, g.gold) for p, g in zip(preds, golds)
        ]
        assert report.mean_f1 == pytest.approx(sum(expected) / len(expected), abs=1e-12)
        assert [s.f1 for s in report.per_post] == pytest.approx(expected, abs=1e-12)

    def test_bitwise_the_fresh_score_reference(self):
        """Per-post scores and ``mean_f1`` equal, bit for bit, those of a
        scorer that builds a new score for every post, over random pairs of
        every kind: both empty (the shared empty set and a constructed one),
        one empty, disjoint, overlapping, and with indexes outside any text."""
        rng = random.Random(2021)

        def spans(kind: str) -> CharSpanSet:
            if kind == "empty":
                return rng.choice([NO_SPANS, CharSpanSet(())])
            low, high = {"low": (0, 60), "high": (200, 260), "outside": (-40, 10**6)}[kind]
            return CharSpanSet(tuple(rng.randint(low, high) for _ in range(rng.randint(1, 120))))

        kinds = [("empty", "empty"), ("empty", "low"), ("low", "empty"), ("low", "high"),
                 ("low", "low"), ("outside", "low"), ("low", "outside"), ("outside", "outside")]
        for round_no in range(40):
            pairs = [(spans(p), spans(g)) for p, g in (rng.choice(kinds) for _ in range(rng.randint(1, 60)))]
            preds = [PostPrediction(i, pred) for i, (pred, _) in enumerate(pairs)]
            golds = [LabeledPost(i, "x" * 200, gold) for i, (_, gold) in enumerate(pairs)]
            report = evaluate(preds, golds)
            expected = [fresh_per_post_scores(pred, gold) for pred, gold in pairs]
            bits = lambda scores: [(s.precision.hex(), s.recall.hex(), s.f1.hex()) for s in scores]
            assert bits(report.per_post) == bits(expected)
            assert report.mean_f1.hex() == (sum(s.f1 for s in expected) / len(expected)).hex()
