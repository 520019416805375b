import io
import random
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import csv_bytes
from oracles import (
    grammar_parse_span_literal,
    normalize_indexes,
    regex_parse_span_literal,
    sorting_parse_span_literal,
)
from toxicspans.dataio import (
    CharSpanSet,
    DataFormatError,
    PostPrediction,
    format_span_literal,
    parse_dataset,
    parse_span_literal,
    read_predictions,
    write_predictions,
)
from toxicspans.errors import ValidationError
from toxicspans.gate import read_score_file
from toxicspans.span_codec import BridgePolicy, labels_to_spans
from toxicspans.tokenizer import tokenize

KNUCKLEHEAD = "What a knucklehead. How can anyone not know this would be offensive??"
HAOLE = (
    "I only use the word haole when stupidity and arrogance is involved and "
    "not all the time.  Excluding the POTUS of course."
)

# What the span-literal grammar reads, and near misses of it: ASCII and other
# Unicode decimal digits, digits that are not decimal (² ½ Ⅳ), Unicode
# whitespace and a zero-width space that is not, separators, signs, letters.
LITERAL_ALPHABET = (
    "0123456789٣۷߀０𝟙²½Ⅳ \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000\u200b[],-+_aé"
)
SPACES = st.text(" \t\n\x85\xa0\u3000", max_size=2)
WELL_FORMED_LITERALS = st.builds(
    lambda head, items, tail: head + "[" + ",".join(items) + "]" + tail,
    SPACES,
    st.lists(
        st.builds(
            lambda before, sign, digits, after: before + sign + digits + after,
            SPACES,
            st.sampled_from(["", "-"]),
            st.text("0123456789٣۷߀０𝟙", min_size=1, max_size=4),
            SPACES,
        ),
        max_size=6,
    ),
    SPACES,
)
NEAR_LITERALS = st.builds(
    lambda head, parts, tail: head + "[" + "".join(parts) + "]" + tail,
    st.sampled_from(["", " ", "\n", "x"]),
    st.lists(
        st.sampled_from(
            ["1", "23", "٣", "-", ",", ", ", " ", "\u3000", "+", "_", "a", "²", "[", "]"]
        ),
        max_size=12,
    ),
    st.sampled_from(["", " ", "\u2028", "]"]),
)

# Literals on both sides of the json scanner's fast path.  JSON arrays of
# ints, which the scanner reads; and their near misses: other Unicode digits,
# every Unicode whitespace character and leading zeros, which only the
# grammar reads, JSON values that are no span literal, trailing commas and
# text.  Items come unsorted, and some repeat.
WHITESPACE = "".join(chr(c) for c in range(0x3001) if chr(c).isspace()) + "\u200b"
JSON_ONLY = ["1.0", "1e3", "-0.0", "true", "false", "null", "NaN", "Infinity", "-Infinity",
             '"1"', "[1]", "[[1]]", "[]", "{}", '{"1": 1}']
ASCII_INTS = st.integers(-(10**6), 10**6).map(str)
JSON_SPACES = st.text(" \t\r\n", max_size=2)
SPACE_KINDS = st.text(WHITESPACE, max_size=2)


def array_literals(spaces, items, commas=st.just(""), ends=None):
    """``[item, ...]`` with ``spaces`` around the brackets and items, the
    first few items repeated at the end, and one of ``commas`` before "]"."""
    padded = st.builds("{}{}{}".format, spaces, items, spaces)
    return st.builds(
        lambda head, items, repeat, comma, tail: (
            head + "[" + ",".join(items + items[:repeat]) + comma + "]" + tail
        ),
        spaces if ends is None else ends,
        st.lists(padded, max_size=8),
        st.integers(0, 3),
        commas,
        spaces if ends is None else ends,
    )


JSON_ARRAYS = array_literals(JSON_SPACES, ASCII_INTS)
JSON_VALUE_ARRAYS = array_literals(JSON_SPACES, ASCII_INTS | st.sampled_from(JSON_ONLY))
NEAR_ARRAYS = array_literals(
    JSON_SPACES | SPACE_KINDS,
    ASCII_INTS
    | st.text("0123456789٣۷߀０𝟙", min_size=1, max_size=3)
    | st.sampled_from(["0", "-0", "00", "-00", "007", "-", *JSON_ONLY]),
    st.sampled_from(["", ",", " ,", "\n"]),
    SPACE_KINDS | st.sampled_from(["x", "]", ",", "[1]", "0", "{"]),
)


def assert_parses_like_the_grammar(literal: str) -> None:
    """The parser gives the grammar-only parser's set, or its error message."""
    try:
        expected = grammar_parse_span_literal(literal)
    except DataFormatError as exc:
        with pytest.raises(DataFormatError) as raised:
            parse_span_literal(literal)
        assert str(raised.value) == str(exc)
    else:
        parsed = parse_span_literal(literal)
        assert parsed == expected
        assert_normalized(parsed)


def assert_normalized(spans: CharSpanSet) -> None:
    """Sorted, unique, plain ints: the stored form of every span set."""
    assert type(spans.indexes) is tuple
    assert all(type(i) is int for i in spans.indexes)
    assert all(a < b for a, b in pairwise(spans.indexes))


class TestCharSpanSet:
    def test_sorted_and_deduplicated(self):
        s = CharSpanSet((5, 1, 3, 1, 5))
        assert s.indexes == (1, 3, 5)

    def test_empty_is_falsy(self):
        assert not CharSpanSet(())
        assert CharSpanSet((0,))

    def test_set_operations(self):
        a = CharSpanSet((1, 2, 3))
        b = CharSpanSet((3, 4))
        assert (a & b).indexes == (3,)
        assert (a - b).indexes == (1, 2)

    @given(st.lists(st.integers(-50, 500)))
    def test_construction_normalizes(self, values):
        s = CharSpanSet(tuple(values))
        assert list(s.indexes) == sorted(set(values))

    @given(st.lists(st.integers(-50, 500)), st.integers(-60, 510))
    def test_membership_matches_set_membership(self, values, probe):
        assert (probe in CharSpanSet(tuple(values))) == (probe in set(values))

    @given(st.lists(st.integers() | st.booleans()))
    def test_normalization_matches_set_comprehension(self, values):
        assert CharSpanSet(values).indexes == normalize_indexes(values)

    @pytest.mark.parametrize("bad", [7.9, 7.0, "7", b"7", None, (7,)])
    def test_non_integer_index_rejected(self, bad):
        with pytest.raises(ValidationError, match="span indexes must be integers"):
            CharSpanSet((1, bad))

    def test_numpy_integers_and_bools_become_plain_ints(self):
        spans = CharSpanSet((np.int64(5), np.uint8(2), True, np.int32(5)))
        assert spans.indexes == (1, 2, 5)
        assert_normalized(spans)

    @given(
        st.lists(st.integers(-20, 60) | st.booleans()),
        st.lists(st.integers(-20, 60) | st.booleans()),
    )
    def test_operators_return_normalized_sets(self, left, right):
        a, b = CharSpanSet(left), CharSpanSet(right)
        for result, expected in (
            (a & b, set(a) & set(b)), (a - b, set(a) - set(b))
        ):
            assert_normalized(result)
            assert result == CharSpanSet(tuple(expected))

    @given(
        st.text("ab !?\n", max_size=30),
        st.data(),
        st.booleans(),
        st.integers(0, 3),
    )
    def test_decoded_spans_are_normalized(self, text, data, bridge, max_gap):
        toks = tokenize(text)
        labels = data.draw(st.lists(st.integers(0, 1), min_size=len(toks), max_size=len(toks)))
        assert_normalized(labels_to_spans(toks, labels, BridgePolicy(bridge, max_gap)))


class TestParseDataset:
    def test_table_row_with_contiguous_span(self):
        spans = "[7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17]"
        posts = parse_dataset(csv_bytes([(spans, KNUCKLEHEAD)]))
        assert len(posts) == 1
        assert posts[0].id == 0
        assert posts[0].text == KNUCKLEHEAD
        assert posts[0].gold.indexes == tuple(range(7, 18))

    def test_empty_span_literal(self):
        posts = parse_dataset(csv_bytes([("[]", "Good job!")]))
        assert posts[0].gold == CharSpanSet(())

    def test_two_disjoint_spans_stored_sorted(self):
        spans = "[45, 46, 47, 48, 49, 50, 51, 52, 53, 31, 32, 33, 34, 35, 36, 37, 38, 39]"
        posts = parse_dataset(csv_bytes([(spans, HAOLE)]))
        expected = tuple(range(31, 40)) + tuple(range(45, 54))
        assert posts[0].gold.indexes == expected

    def test_quoted_commas_newlines_and_quotes(self):
        text = 'He said "no, thanks",\nthen left.'
        posts = parse_dataset(csv_bytes([("[0, 1]", text)]))
        assert posts[0].text == text

    def test_ids_follow_file_order(self):
        rows = [("[]", f"post number {k}") for k in range(5)]
        posts = parse_dataset(csv_bytes(rows))
        assert [p.id for p in posts] == list(range(5))

    def test_blind_format_without_gold(self):
        source = io.BytesIO(b"text\nhello there\n")
        posts = parse_dataset(source, has_gold=False)
        assert posts[0].gold == CharSpanSet(())

    def test_spans_column_ignored_when_has_gold_false(self):
        posts = parse_dataset(csv_bytes([("[0]", "hello")]), has_gold=False)
        assert posts[0].gold == CharSpanSet(())

    def test_malformed_span_literal_names_record(self):
        with pytest.raises(DataFormatError, match="record 2"):
            parse_dataset(csv_bytes([("[]", "ok"), ("[1, oops]", "bad")]))

    def test_non_list_literal_rejected(self):
        for bad in ("1, 2", "[1; 2]", "[[1]]", "[1.5]", "", "[1 2]"):
            with pytest.raises(DataFormatError):
                parse_dataset(csv_bytes([(bad, "some text")]))

    def test_out_of_range_index_rejected_by_default(self):
        with pytest.raises(DataFormatError, match="record 1"):
            parse_dataset(csv_bytes([("[99]", "short")]))
        with pytest.raises(DataFormatError, match="record 1"):
            parse_dataset(csv_bytes([("[-1]", "short")]))

    def test_lenient_drops_out_of_range_with_warning(self, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            posts = parse_dataset(csv_bytes([("[0, 1, 99]", "short")]), lenient=True)
        assert posts[0].gold.indexes == (0, 1)
        assert any("out-of-range" in rec.message for rec in caplog.records)

    def test_missing_text_column(self):
        with pytest.raises(DataFormatError, match="text"):
            parse_dataset(io.BytesIO(b"spans,body\n[],hi\n"))

    def test_missing_spans_column_when_gold_required(self):
        with pytest.raises(DataFormatError, match="spans"):
            parse_dataset(io.BytesIO(b"text\nhi\n"))

    def test_empty_text_rejected(self):
        with pytest.raises(DataFormatError, match="record 1"):
            parse_dataset(csv_bytes([("[]", "")]))

    def test_wrong_field_count_names_record(self):
        raw = b'spans,text\n"[]",ok\n"[]"\n'
        with pytest.raises(DataFormatError, match="record 2"):
            parse_dataset(io.BytesIO(raw))

    def test_empty_file(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_dataset(io.BytesIO(b""))

    def test_field_over_csv_limit_names_record(self):
        import csv

        limit = csv.field_size_limit()
        rows = [("[]", "ok"), ("[]", "x" * (limit + 10))]
        with pytest.raises(DataFormatError, match="record 2"):
            parse_dataset(csv_bytes(rows))
        assert csv.field_size_limit() == limit

    def test_unicode_indexes_count_characters_not_bytes(self):
        text = "héllo wörld"  # 11 characters, more bytes in utf-8
        posts = parse_dataset(csv_bytes([("[10]", text)]))
        assert posts[0].gold.indexes == (10,)

    def test_non_utf8_bytes_name_the_byte_offset(self):
        raw = 'spans,text\n"[0]",caf'.encode() + b"\xe9\n"
        with pytest.raises(DataFormatError, match="UTF-8 at byte 20"):
            parse_dataset(io.BytesIO(raw))
        with pytest.raises(DataFormatError, match="UTF-8 at byte 23"):
            parse_dataset(io.BytesIO(b"\xef\xbb\xbf" + raw))  # the BOM counts

    def test_non_utf8_bytes_in_an_unseekable_stream(self):
        class Pipe(io.BytesIO):
            def seekable(self):
                return False

        with pytest.raises(DataFormatError, match="not valid UTF-8: invalid start byte"):
            parse_dataset(Pipe(b"spans,text\n[],\xff\n"))


class TestSpanLiteral:
    def test_whitespace_tolerated(self):
        assert parse_span_literal(" [ 1 ,2,  3 ] ").indexes == (1, 2, 3)

    def test_negative_integers_allowed(self):
        assert parse_span_literal("[-1, 0, 1]").indexes == (-1, 0, 1)

    def test_format_round_trip(self):
        s = CharSpanSet((66, 67, 68, 69, 70))
        assert format_span_literal(s) == "[66, 67, 68, 69, 70]"
        assert parse_span_literal(format_span_literal(s)) == s

    def test_unicode_digits_and_whitespace(self):
        assert parse_span_literal("\u3000[\u2003١٢,\n-3 ]\x85").indexes == (-3, 12)

    @pytest.mark.parametrize(
        "bad",
        ["[+1]", "[1_0]", "[- 1]", "[--1]", "[1,]", "[,]", "[ , ]", "[²]", "[1\u200b]", "[", "]["],
    )
    def test_near_misses_rejected(self, bad):
        with pytest.raises(DataFormatError, match="malformed span literal"):
            parse_span_literal(bad)

    def test_integer_over_the_digit_limit_is_a_format_error(self):
        with pytest.raises(DataFormatError, match="malformed span literal"):
            parse_span_literal("[" + "1" * 5000 + "]")

    @settings(max_examples=400)
    @given(st.text(LITERAL_ALPHABET, max_size=24) | WELL_FORMED_LITERALS | NEAR_LITERALS)
    def test_matches_the_regex_parser(self, literal):
        try:
            expected = regex_parse_span_literal(literal)
        except DataFormatError as exc:
            with pytest.raises(DataFormatError) as raised:
                parse_span_literal(literal)
            assert str(raised.value) == str(exc)
        else:
            assert parse_span_literal(literal).indexes == expected

    @settings(max_examples=600)
    @given(
        JSON_ARRAYS | JSON_VALUE_ARRAYS | NEAR_ARRAYS | st.text(LITERAL_ALPHABET, max_size=24)
        | NEAR_LITERALS
    )
    def test_matches_the_grammar_parser(self, literal):
        assert_parses_like_the_grammar(literal)

    @pytest.mark.parametrize(
        "literal",
        [
            "[" + "7" * 4301 + "]",
            "[1, -" + "9" * 4400 + ", 2]",
            "[" + "7" * 4300 + "]",
            "[" * 5000 + "]" * 5000,
            "[" * 5000,
            "[1, 2] [3]",
            "[١, 01, -0, 1]",
            *(f"[1, {value}]" for value in JSON_ONLY),
            *JSON_ONLY,
        ],
        ids=["over-digit-limit", "negative-over-limit", "at-digit-limit", "deep-nesting",
             "open-brackets", "two-arrays", "grammar-only-forms",
             *(f"item-{value}" for value in JSON_ONLY), *(f"whole-{value}" for value in JSON_ONLY)],
    )
    def test_pinned_literals_match_the_grammar_parser(self, literal):
        assert_parses_like_the_grammar(literal)


def literal_corpus(seed: int, count: int) -> list[str]:
    """Span literals on both sides of the canonical-list fast path: the
    ascending lists the package writes (negative values too), compact and
    with spaces; unsorted, repeated and non-strictly ascending lists; empty
    ones; tabs and newlines between the brackets; and lists that hold a
    bool, float, ``null``, nested list, leading zero, trailing comma,
    non-ASCII digit or an int past the digit limit."""
    rng = random.Random(seed)
    odd = ["true", "false", "null", "1.0", "1e3", "-0.0", "[1]", "[]", "01", "-00", "٣", "𝟙",
           "9" * 4301, "-" + "9" * 4400, "7" * 4300, '"1"', "NaN"]
    corpus = ["[]", "[ ]", "[\t]", "[\n]", " [] ", "[1, 1]", "[-1, -1]", "[0, 0, 1]", "[3, 1, 1]",
              "[false, true]", "[0, true]", "[1.0, 2.0]", "[1e3]", "[1, 2,]", "[01, 2]", "[١, 2]",
              "[" + "1" * 4301 + "]", "[1, " + "2" * 4301 + "]"]
    while len(corpus) < count:
        values = sorted(rng.sample(range(-50, 400), rng.randint(1, 12)))
        shape = rng.randrange(8)
        if shape == 1:  # unsorted
            rng.shuffle(values)
        elif shape == 2:  # a repeat, in place: ascending but not strictly
            at = rng.randrange(len(values))
            values.insert(at, values[at])
        elif shape == 3:  # a repeat anywhere
            values.append(rng.choice(values))
        items = list(map(str, values))
        if shape == 4:  # one item that is no plain int
            items[rng.randrange(len(items))] = rng.choice(odd)
        sep = ", " if shape != 5 else rng.choice([",", " ,", " , ", ",\t", ",\n", "\t,"])
        literal = "[" + sep.join(items) + "]"
        if shape == 6:
            literal = rng.choice(["[ ", "[\t", "[\n"]) + literal[1:-1] + rng.choice([" ]", "\t]", "\n]"])
        elif shape == 7:
            literal = literal[:-1] + rng.choice([",]", ", ]", "]]", "", "]x"])
        corpus.append(literal)
    return corpus


class TestCanonicalFastPath:
    """The parser that keeps an ascending list of plain ints as it is reads
    every literal like the parser that type-checked and re-sorted every
    scanned list: the same indexes, or the same error."""

    def test_matches_the_sorting_parser(self):
        for literal in literal_corpus(seed=31, count=4000):
            try:
                expected = sorting_parse_span_literal(literal)
            except DataFormatError as exc:
                with pytest.raises(DataFormatError) as raised:
                    parse_span_literal(literal)
                assert str(raised.value) == str(exc), literal
            else:
                parsed = parse_span_literal(literal)
                assert parsed.indexes == expected.indexes, literal
                assert_normalized(parsed)


class TestPredictions:
    def test_exact_output_format(self):
        sink = io.BytesIO()
        write_predictions(
            [
                PostPrediction(0, CharSpanSet((66, 67, 68, 69, 70))),
                PostPrediction(1, CharSpanSet(())),
            ],
            sink,
        )
        assert sink.getvalue() == b"0\t[66, 67, 68, 69, 70]\n1\t[]\n"

    @pytest.mark.parametrize("ids", [(1, 0), (0, 0)], ids=["unsorted", "repeated"])
    def test_unsorted_ids_rejected(self, ids):
        with pytest.raises(ValidationError, match="sorted"):
            write_predictions([PostPrediction(i, CharSpanSet(())) for i in ids], io.BytesIO())

    def test_non_utf8_bytes_name_the_byte_offset(self):
        with pytest.raises(DataFormatError, match="UTF-8 at byte 9: invalid continuation byte"):
            read_predictions(io.BytesIO(b"0\t[1]\n1\t[\xe9]\n"))

    def test_integer_over_the_digit_limit_names_the_line(self):
        raw = ("0\t[]\n1\t[" + "7" * 4301 + "]\n").encode()
        with pytest.raises(DataFormatError, match="line 2: malformed span literal"):
            read_predictions(io.BytesIO(raw))

    def test_duplicate_id_names_both_lines(self):
        with pytest.raises(DataFormatError, match=r"line 3: duplicate id 0 \(first on line 1\)"):
            read_predictions(io.BytesIO(b"0\t[]\n1\t[]\n0\t[2]\n"))

    def test_read_errors_name_line(self):
        with pytest.raises(DataFormatError, match="line 2"):
            read_predictions(io.BytesIO(b"0\t[]\nnot a line\n"))
        with pytest.raises(DataFormatError, match="line 1"):
            read_predictions(io.BytesIO(b"zero\t[]\n"))

    @given(
        st.lists(
            st.frozensets(st.integers(0, 300), max_size=30), min_size=0, max_size=20
        )
    )
    def test_write_then_read_round_trip(self, span_sets):
        preds = [
            PostPrediction(i, CharSpanSet(tuple(s))) for i, s in enumerate(span_sets)
        ]
        sink = io.BytesIO()
        write_predictions(preds, sink)
        assert read_predictions(io.BytesIO(sink.getvalue())) == preds


# Each <id>\t<value> reader with a valid value field; both fields are three
# bytes long, so a byte offset is the same in either reader's file.
ID_VALUE_READERS = {"predictions": (read_predictions, b"[1]"), "scores": (read_score_file, b"0.5")}


@pytest.mark.parametrize("reader", ID_VALUE_READERS)
class TestIdValueFraming:
    """Prediction files and score files share one line reader, so the same
    fault gives the same message from both."""

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"0\t{v}\nbroken\n", "line 2: expected '<id>\\t<value>'"),
            (b"0\t{v}\n1\t{v}\t{v}\n", "line 2: expected '<id>\\t<value>'"),
            (b"0\t{v}\nzero\t{v}\n", "line 2: bad id 'zero'"),
            (b"0\t{v}\n1\t{v}\n0\t{v}\n", "line 3: duplicate id 0 (first on line 1)"),
            (b"0\t{v}\n\xe9\t{v}\n", "not valid UTF-8 at byte 6: invalid continuation byte"),
        ],
        ids=["no-tab", "three-fields", "bad-id", "repeated-id", "not-utf8"],
    )
    def test_same_fault_same_message(self, reader, raw, message):
        read, value = ID_VALUE_READERS[reader]
        with pytest.raises(DataFormatError) as exc:
            read(io.BytesIO(raw.replace(b"{v}", value)))
        assert str(exc.value) == message

    def test_blank_and_crlf_lines_skipped(self, reader):
        read, value = ID_VALUE_READERS[reader]
        plain = read(io.BytesIO(b"0\t%s\n2\t%s\n" % (value, value)))
        assert len(plain) == 2
        assert read(io.BytesIO(b"\r\n0\t%s\r\n\n\n2\t%s\r\n\r\n" % (value, value))) == plain
