import re
import sys

import pytest
from hypothesis import given, strategies as st

from oracles import scan_tokenize
from toxicspans.tokenizer import _TOKEN, Token, tokenize

KNUCKLEHEAD = "What a knucklehead. How can anyone not know this would be offensive??"
HAOLE = (
    "I only use the word haole when stupidity and arrogance is involved and "
    "not all the time.  Excluding the POTUS of course."
)


def surfaces(text):
    return [t.surface for t in tokenize(text)]


class TestRuleSet:
    def test_knucklehead_offsets_match_gold_span(self):
        toks = tokenize(KNUCKLEHEAD)
        assert Token("knucklehead", "knucklehead", 7, 18) in toks.tokens

    def test_repeated_question_marks_detach_as_one_token(self):
        toks = tokenize(KNUCKLEHEAD)
        assert toks[-1].surface == "??"
        assert toks[-2].surface == "offensive"

    def test_empty_text(self):
        toks = tokenize("")
        assert len(toks) == 0 and toks.source_len == 0

    def test_whitespace_only(self):
        assert len(tokenize(" \t\n ")) == 0

    def test_haole_sentence_token_positions(self):
        toks = tokenize(HAOLE)
        assert (toks[7].lower, toks[7].start, toks[7].end) == ("stupidity", 31, 40)
        assert (toks[9].lower, toks[9].start, toks[9].end) == ("arrogance", 45, 54)

    def test_internal_apostrophe_kept(self):
        assert surfaces("it isn't fair") == ["it", "isn't", "fair"]

    def test_internal_hyphen_kept(self):
        assert surfaces("anti-immigration stance") == ["anti-immigration", "stance"]

    def test_ellipsis_is_one_token(self):
        assert surfaces("well... fine") == ["well", "...", "fine"]

    def test_mixed_trailing_punctuation_splits_by_run(self):
        assert surfaces("really?!") == ["really", "?", "!"]

    def test_leading_punctuation_detached(self):
        assert surfaces('"quoted" words') == ['"', "quoted", '"', "words"]

    def test_all_punctuation_chunk(self):
        assert surfaces("bs ,, more") == ["bs", ",,", "more"]

    def test_double_dash_edges(self):
        assert surfaces("--well--") == ["--", "well", "--"]

    def test_lowercase_form(self):
        toks = tokenize("The POTUS")
        assert [t.lower for t in toks] == ["the", "potus"]
        assert [t.surface for t in toks] == ["The", "POTUS"]

    def test_lowercasing_never_moves_offsets(self):
        text = "İstanbul is İstanbul"  # lowercases to a longer string
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.surface


class TestInvariants:
    @given(st.text(max_size=120))
    def test_offset_fidelity(self, text):
        for tok in tokenize(text):
            assert text[tok.start : tok.end] == tok.surface
            assert tok.lower == tok.surface.lower()

    @given(st.text(max_size=120))
    def test_tokens_strictly_ordered_and_disjoint(self, text):
        toks = tokenize(text)
        for left, right in zip(toks, toks.tokens[1:]):
            assert left.end <= right.start
        for tok in toks:
            assert 0 <= tok.start < tok.end <= toks.source_len

    @given(st.text(max_size=120))
    def test_every_non_whitespace_char_is_covered_once(self, text):
        covered = set()
        for tok in tokenize(text):
            span = set(range(tok.start, tok.end))
            assert not span & covered
            covered |= span
        expected = {i for i, ch in enumerate(text) if not ch.isspace()}
        assert covered == expected


# Edge cases of the character classes: runs of punctuation, the underscore,
# combining marks, non-ASCII digits and numerics, a letter whose lowercase is
# longer, Unicode whitespace and the zero-width space, which is not space.
PIECES = [
    *"!?.,-'\"", "!!", "??", "...", "--", "''", "_", "__",
    "\u0301", "\u0300", "\u0663", "\u00b2", "\u00bd", "\u0130",
    " ", "\xa0", "\u2028", "\u3000", "\x1c", "\u200b",
    "a", "b", "Z", "7", "isn't",
]


class TestScannerOracle:
    @given(st.text(max_size=120))
    def test_matches_the_scanner_on_any_text(self, text):
        assert tokenize(text) == scan_tokenize(text)

    @given(st.lists(st.sampled_from(PIECES), max_size=40).map("".join))
    def test_matches_the_scanner_on_edge_characters(self, text):
        assert tokenize(text) == scan_tokenize(text)

    def test_token_is_a_plain_tuple(self):
        assert tokenize("Hi!")[0] == ("Hi", "hi", 0, 2)

    @pytest.mark.parametrize(
        "text", [KNUCKLEHEAD, HAOLE, "İstanbul is İstanbul", '"quoted" words', "".join(PIECES)],
        ids=["knucklehead", "haole", "longer-lowercase", "quoted", "pieces"],
    )
    def test_each_token_is_the_named_tuple_of_its_match(self, text):
        """``tokenize`` builds each token past ``Token``'s constructor; it
        must still be exactly a ``Token``, equal to the constructor's."""
        matches = list(_TOKEN.finditer(text))
        tokens = tokenize(text).tokens
        assert len(tokens) == len(matches) > 0
        for token, m in zip(tokens, matches):
            assert type(token) is Token
            assert token == Token(m[0], m[0].lower(), *m.span())

    def test_re_classes_match_the_string_predicates_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        word = {m.start() for m in re.finditer(r"\w", every)}
        space = {m.start() for m in re.finditer(r"\s", every)}
        assert word ^ {i for i, ch in enumerate(every) if ch.isalnum() or ch == "_"} == set()
        assert space ^ {i for i, ch in enumerate(every) if ch.isspace()} == set()
