"""Readers and writers for the dataset CSV and the prediction file format.

The dataset is a CSV with a header row and columns ``spans`` and ``text``
(blind test files carry ``text`` only).  The ``spans`` cell is a bracketed
integer-list literal such as ``[7, 8, 9]`` naming the toxic character
positions of the post.  Predictions are written one post per line as
``<id>\\t[<i1>, <i2>, ...]`` with ascending indexes.

Character indexes always refer to positions in the decoded Unicode scalar
sequence of the text, never to bytes.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .errors import DataFormatError

logger = logging.getLogger(__name__)

# Tiny dedicated grammar for the spans cell: `[` int (`,` int)* `]` with
# optional whitespace.  Deliberately not a general literal evaluator.
_SPAN_LITERAL_RE = re.compile(r"\A\s*\[\s*(?:-?\d+(?:\s*,\s*-?\d+)*\s*)?\]\s*\Z")
_INT_RE = re.compile(r"-?\d+")


@dataclass(frozen=True)
class CharSpanSet:
    """A set of character indexes, stored sorted and deduplicated.

    An empty set is legal and means "non-toxic post".  Membership is a
    binary search of the sorted tuple: a frozenset kept beside it would
    cost several times the tuple's memory for every span set held.
    """

    indexes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        normalized = tuple(sorted({int(i) for i in self.indexes}))
        object.__setattr__(self, "indexes", normalized)

    def __len__(self) -> int:
        return len(self.indexes)

    def __bool__(self) -> bool:
        return bool(self.indexes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indexes)

    def __contains__(self, index: int) -> bool:
        pos = bisect_left(self.indexes, index)
        return pos < len(self.indexes) and self.indexes[pos] == index

    def __and__(self, other: "CharSpanSet") -> "CharSpanSet":
        return CharSpanSet(set(self.indexes) & set(other.indexes))

    def __or__(self, other: "CharSpanSet") -> "CharSpanSet":
        return CharSpanSet(set(self.indexes) | set(other.indexes))

    def __sub__(self, other: "CharSpanSet") -> "CharSpanSet":
        return CharSpanSet(set(self.indexes) - set(other.indexes))

    def issubset(self, other: "CharSpanSet") -> bool:
        return set(self.indexes) <= set(other.indexes)


@dataclass(frozen=True)
class LabeledPost:
    """A post with its gold toxic character indexes (empty when non-toxic)."""

    id: int
    text: str
    gold: CharSpanSet


@dataclass(frozen=True)
class PostPrediction:
    """Predicted toxic character indexes for one post."""

    id: int
    spans: CharSpanSet


def parse_span_literal(literal: str) -> CharSpanSet:
    """Parse a bracketed integer-list literal like ``[7, 8, 9]``."""
    if not _SPAN_LITERAL_RE.match(literal):
        raise DataFormatError(f"malformed span literal: {literal!r}")
    return CharSpanSet(tuple(int(tok) for tok in _INT_RE.findall(literal)))


def format_span_literal(spans: CharSpanSet) -> str:
    """Render a span set as the bracketed ascending-list literal."""
    return "[" + ", ".join(str(i) for i in spans.indexes) + "]"


@contextmanager
def text_reader(source: IO):
    """Yield a text view of a possibly-binary stream without closing it."""
    if isinstance(source, io.TextIOBase):
        yield source
        return
    # utf-8-sig tolerates an optional BOM and is a strict superset of utf-8
    wrapper = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        yield wrapper
    finally:
        wrapper.detach()


@contextmanager
def text_writer(sink: IO):
    """Yield a text view of a possibly-binary sink; flushes, never closes."""
    if isinstance(sink, io.TextIOBase):
        yield sink
        sink.flush()
        return
    wrapper = io.TextIOWrapper(sink, encoding="utf-8", newline="")
    try:
        yield wrapper
    finally:
        wrapper.detach()  # detaching flushes and leaves the sink open


def parse_dataset(source: IO, has_gold: bool = True, lenient: bool = False) -> list[LabeledPost]:
    """Parse the dataset CSV into posts with ids assigned in file order.

    ``has_gold`` selects between the labeled format (``spans`` column
    required) and the blind format (gold left empty).  Gold indexes that
    fall outside ``[0, len(text))`` are a hard error by default; with
    ``lenient`` they are dropped with a warning instead.
    """
    with text_reader(source) as stream:
        return _parse_dataset_stream(stream, has_gold, lenient)


def _parse_dataset_stream(stream, has_gold: bool, lenient: bool) -> list[LabeledPost]:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise DataFormatError("empty file: missing CSV header") from None
    columns = {name.strip(): pos for pos, name in enumerate(header)}
    if "text" not in columns:
        raise DataFormatError("CSV header lacks required column 'text'")
    if has_gold and "spans" not in columns:
        raise DataFormatError("CSV header lacks required column 'spans'")

    posts: list[LabeledPost] = []
    for row in reader:
        if not row:
            continue  # stray blank line
        record_no = len(posts) + 1
        if len(row) != len(header):
            raise DataFormatError(
                f"record {record_no}: expected {len(header)} fields, found {len(row)}"
            )
        text = row[columns["text"]]
        if text == "":
            raise DataFormatError(f"record {record_no}: empty text")
        if has_gold:
            try:
                gold = parse_span_literal(row[columns["spans"]])
            except DataFormatError as exc:
                raise DataFormatError(f"record {record_no}: {exc}") from None
            out_of_range = [i for i in gold if i < 0 or i >= len(text)]
            if out_of_range:
                if not lenient:
                    raise DataFormatError(
                        f"record {record_no}: gold index {out_of_range[0]} outside "
                        f"[0, {len(text)})"
                    )
                logger.warning(
                    "record %d: dropping %d out-of-range gold indexes",
                    record_no,
                    len(out_of_range),
                )
                gold = gold - CharSpanSet(tuple(out_of_range))
        else:
            gold = CharSpanSet()
        posts.append(LabeledPost(id=len(posts), text=text, gold=gold))
    return posts


def write_predictions(preds: Iterable[PostPrediction], sink: IO) -> None:
    """Write predictions as ``<id>\\t[<i1>, <i2>, ...]`` lines.

    Callers must supply predictions sorted by ascending id.
    """
    with text_writer(sink) as out:
        last_id = None
        for pred in preds:
            if last_id is not None and pred.id <= last_id:
                raise ValueError(
                    f"predictions not sorted by id: {pred.id} after {last_id}"
                )
            last_id = pred.id
            out.write(f"{pred.id}\t{format_span_literal(pred.spans)}\n")


def read_predictions(source: IO) -> list[PostPrediction]:
    """Parse a prediction file written by :func:`write_predictions`."""
    preds: list[PostPrediction] = []
    with text_reader(source) as stream:
        lines = list(stream)
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"line {line_no}: expected '<id>\\t<spans>'")
        try:
            post_id = int(parts[0])
        except ValueError:
            raise DataFormatError(f"line {line_no}: bad id {parts[0]!r}") from None
        try:
            spans = parse_span_literal(parts[1])
        except DataFormatError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None
        preds.append(PostPrediction(id=post_id, spans=spans))
    return preds
