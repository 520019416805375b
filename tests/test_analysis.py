import pytest
from hypothesis import given, strategies as st

from toxicspans.analysis import (
    CATEGORIES,
    categorize_errors,
    span_word_histogram,
    toxic_word_count,
)
from toxicspans.dataio import CharSpanSet, LabeledPost, PostPrediction
from toxicspans.errors import ValidationError


def post(i, text, gold):
    return LabeledPost(i, text, CharSpanSet(tuple(gold)))


class TestHistogram:
    def test_all_empty_gold_is_one_hundred_percent_bucket_zero(self):
        data = [post(i, "totally fine words", ()) for i in range(4)]
        hist = span_word_histogram(data)
        assert hist.counts == {0: 4}
        assert hist.percentages == {0: 100.0}

    def test_gold_covering_two_tokens_lands_in_bucket_two(self):
        data = [post(0, "you utter nitwit here", set(range(4, 16)))]  # "utter nitwit"
        hist = span_word_histogram(data)
        assert hist.counts == {2: 1}
        assert hist.percentages[2] == 100.0

    def test_mixed_dataset_percentages_sum_to_hundred(self):
        data = [
            post(0, "clean words", ()),
            post(1, "one bad word", {4, 5, 6}),
            post(2, "two bad words here", set(range(4, 13))),
            post(3, "also clean", ()),
        ]
        hist = span_word_histogram(data)
        assert sum(hist.counts.values()) == 4
        assert sum(hist.percentages.values()) == pytest.approx(100.0, abs=0.01)
        assert hist.counts == {0: 2, 1: 1, 2: 1}

    def test_gold_on_whitespace_only_counts_zero_words(self):
        data = [post(0, "ab cd", {2})]  # the space between tokens
        assert span_word_histogram(data).counts == {0: 1}

    def test_toxic_word_count_uses_any_overlap(self):
        p = post(0, "What a knucklehead. How", set(range(7, 18)))
        assert toxic_word_count(p) == 1
        p2 = post(0, "What a knucklehead. How", {17, 18})  # touches '.' too
        assert toxic_word_count(p2) == 2

    def test_empty_dataset(self):
        hist = span_word_histogram([])
        assert hist.counts == {} and hist.percentages == {}


def prediction_fixture():
    """The five error-analysis shapes as (text, gold, predicted) rows."""
    rows = [
        # clean post, model fired anyway
        ("Indeed, people the world over, all know that President Trump is a loser!",
         (), range(66, 71)),
        # shifted prediction including index -1
        ('Idiot "miner" in the photo', range(0, 5), [-1, 0, 1, 2, 3]),
        # non-empty gold, empty prediction
        ("People who are anti-immigration are weak, lying, racist whiners.",
         range(49, 63), ()),
        # correct span plus a spurious extra span
        ("Uh-No, keep voting for failed Liberal idiocy that guarantees results",
         range(38, 44), list(range(38, 44)) + [60, 61, 62]),
        # proper subset of a long gold span
        ("What is he going to do about those toxic mercury florescent bulbs "
         "Bush and Gore pushed on the stupid American public?",
         range(94, 116), range(94, 100)),
        # exact match
        ("the stupid public", range(4, 10), range(4, 10)),
        # both empty: also exact
        ("nothing here", (), ()),
    ]
    preds, golds = [], []
    for i, (text, gold, predicted) in enumerate(rows):
        golds.append(post(i, text, gold))
        preds.append(PostPrediction(i, CharSpanSet(tuple(predicted))))
    return preds, golds


class TestCategorizeErrors:
    def test_fixture_rows_land_in_expected_buckets(self):
        preds, golds = prediction_fixture()
        buckets = {b.category: b.post_ids for b in categorize_errors(preds, golds)}
        assert buckets["spurious-on-clean"] == [0]
        assert buckets["wrong-offsets"] == [1, 3]
        assert buckets["missed-all"] == [2]
        assert buckets["partial-span"] == [4]
        assert buckets["exact"] == [5, 6]

    def test_shifted_by_one_is_wrong_offsets(self):
        golds = [post(0, "abcdef", {0, 1, 2})]
        preds = [PostPrediction(0, CharSpanSet((1, 2, 3)))]
        buckets = {b.category: b.post_ids for b in categorize_errors(preds, golds)}
        assert buckets["wrong-offsets"] == [0]

    def test_misalignment_rejected(self):
        preds, golds = prediction_fixture()
        with pytest.raises(ValidationError):
            categorize_errors(preds[:-1], golds)
        preds[0] = PostPrediction(99, preds[0].spans)
        with pytest.raises(ValidationError):
            categorize_errors(preds, golds)

    @given(
        st.lists(
            st.tuples(
                st.frozensets(st.integers(0, 30), max_size=10),
                st.frozensets(st.integers(0, 30), max_size=10),
            ),
            max_size=20,
        )
    )
    def test_buckets_partition_the_posts(self, pairs):
        golds = [post(i, "z" * 40, g) for i, (_, g) in enumerate(pairs)]
        preds = [PostPrediction(i, CharSpanSet(tuple(p))) for i, (p, _) in enumerate(pairs)]
        buckets = categorize_errors(preds, golds)
        assert [b.category for b in buckets] == list(CATEGORIES)
        seen = [i for b in buckets for i in b.post_ids]
        assert sorted(seen) == list(range(len(pairs)))


def bucket_of(predicted: set, gold: set) -> str:
    """The bucket rule written with Python sets, overlap test included."""
    if predicted == gold:
        return "exact"
    if not gold:
        return "spurious-on-clean"
    if not predicted:
        return "missed-all"
    if (predicted & gold) and predicted <= gold:
        return "partial-span"
    return "wrong-offsets"


@st.composite
def set_pairs(draw):
    """A (predicted, gold) pair of small int sets in one of the shapes the
    buckets tell apart: any, equal, subset, superset or disjoint."""
    gold = draw(st.frozensets(st.integers(0, 20), max_size=8))
    shape = draw(st.sampled_from(["any", "equal", "subset", "superset", "disjoint"]))
    if shape == "equal":
        return gold, gold
    if shape == "subset":
        return frozenset(draw(st.sets(st.sampled_from(sorted(gold))))) if gold else frozenset(), gold
    if shape == "superset":
        return gold | draw(st.frozensets(st.integers(0, 30), max_size=8)), gold
    if shape == "disjoint":
        return draw(st.frozensets(st.integers(21, 30), max_size=8)), gold
    return draw(st.frozensets(st.integers(0, 20), max_size=8)), gold


@given(st.lists(set_pairs(), max_size=12))
def test_categorize_errors_matches_the_set_rule(pairs):
    golds = [post(i, "z" * 40, gold) for i, (_, gold) in enumerate(pairs)]
    preds = [PostPrediction(i, CharSpanSet(tuple(predicted))) for i, (predicted, _) in enumerate(pairs)]
    found = {post_id: bucket.category for bucket in categorize_errors(preds, golds) for post_id in bucket.post_ids}
    assert found == {i: bucket_of(set(predicted), set(gold)) for i, (predicted, gold) in enumerate(pairs)}
