import io

import pytest
from hypothesis import given, settings, strategies as st

from conftest import csv_bytes
from oracles import normalize_indexes, regex_parse_span_literal
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
        assert (a | b).indexes == (1, 2, 3, 4)
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

    def test_unsorted_ids_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            write_predictions(
                [PostPrediction(1, CharSpanSet(())), PostPrediction(0, CharSpanSet(()))],
                io.BytesIO(),
            )

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
