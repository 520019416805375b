"""Readers and writers for the dataset CSV and the prediction file format,
the opener of every file the package reads, and the atomic write (temp
file + rename) of every file the package writes.

:func:`input_file` opens each input file under its role (``dataset``,
``checkpoint``, ``gate model``, ...): a path that is not a regular file is a
:class:`ValidationError`, and a :class:`DataFormatError` raised while the
file is read is raised again as ``<role> file <path>: <message>``.

The dataset is a CSV with a header row and columns ``spans`` and ``text``
(blind test files carry ``text`` only).  The ``spans`` cell is a bracketed
integer-list literal such as ``[7, 8, 9]`` naming the toxic character
positions of the post.  Predictions are written one post per line as
``<id>\\t[<i1>, <i2>, ...]`` with ascending indexes.

Prediction files and the gate's score files are framed alike: lines of
exactly two tab-separated fields ``<id>\\t<value>``, the integer id appearing
once.  Blank lines are skipped, CRLF endings allowed, and a framing or value
error names its line.

The span literal grammar, where ``ws`` is any run of Unicode whitespace
(``str.isspace``) and ``digit`` any Unicode decimal digit (category Nd,
e.g. ``٣`` as well as ``3``)::

    literal := ws? "[" ws? ( int ( ws? "," ws? int )* ws? )? "]" ws?
    int     := "-"? digit+    (at most sys.get_int_max_str_digits(), 4300 by default)

No ``+`` sign, ``_`` separator, trailing comma, or space inside an integer.
Order and repeats are free; the parsed set is sorted and deduplicated.

A literal has two readings.  The canonical form, plain ASCII ints that
strictly ascend as :func:`format_span_literal` writes them, is read by the
json module's C scanner and kept as it is: it is already the stored set.
Every other literal (out of order or repeated values, Unicode digits or
whitespace, leading zeros, floats, ``true``, nested lists, ints over the
digit limit, malformed input) is read by the grammar path alone.
A canonical literal is also a literal of the grammar with the same values,
so the result and any error message are the same either way.

Every file must be UTF-8 (an optional BOM is skipped).  Character indexes
always refer to positions in the decoded Unicode scalar sequence of the
text, never to bytes.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import operator
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from operator import lt
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator

from .errors import DataFormatError, ValidationError

logger = logging.getLogger(__name__)

# The only characters allowed between the brackets of a span literal.  The
# structure inside is left to int(), which strips the same whitespace as
# \s, reads the same digits as \d, and rejects "", "--1", "- 1" and "1 2";
# this class keeps out the "+" and "_" that int() would also accept.
_SPAN_BODY_RE = re.compile(r"[\d\s,-]*")

# The fast path's test that a scanned JSON list holds plain ints alone: no
# ".", "e", "true", "null", quote or bracket between its brackets.
_PLAIN_INTS_RE = re.compile(r"[0-9, -]*")

# The json scanner: scan(string, start) -> (value, end).  It raises
# StopIteration or a ValueError (JSONDecodeError, or the int digit limit) on
# input it cannot read, and RecursionError on deeply nested brackets.
_json_scan = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class CharSpanSet:
    """A set of character indexes, stored sorted and deduplicated.

    An empty set is legal and means "non-toxic post".
    """

    indexes: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # operator.index takes ints, bools and numpy integers as plain ints
        # and refuses floats and strings, which int() would truncate or parse
        try:
            normalized = tuple(sorted(set(map(operator.index, self.indexes))))
        except TypeError as exc:
            raise ValidationError(f"span indexes must be integers: {exc}") from None
        object.__setattr__(self, "indexes", normalized)

    @classmethod
    def _of_sorted(cls, indexes: Iterable[int]) -> "CharSpanSet":
        """A set of plain ints that ``indexes`` already gives sorted and
        unique, built without the normalisation of ``__post_init__``: for the
        package's own producers, which make them so, and for a parsed literal
        that :func:`parse_span_literal` has checked is so."""
        spans = object.__new__(cls)
        object.__setattr__(spans, "indexes", tuple(indexes))
        return spans

    def __len__(self) -> int:
        return len(self.indexes)

    def __bool__(self) -> bool:
        return bool(self.indexes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indexes)

    def __sub__(self, other: "CharSpanSet") -> "CharSpanSet":
        return CharSpanSet._of_sorted(sorted(set(self.indexes).difference(other.indexes)))

    def issubset(self, other: "CharSpanSet") -> bool:
        return set(self.indexes) <= set(other.indexes)


# The one empty span set that the readers, the decoder and the gate hand out.
NO_SPANS = CharSpanSet._of_sorted(())


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
    """Parse a bracketed integer-list literal like ``[7, 8, 9]`` (grammar in
    the module docstring)."""
    body = literal.strip()
    try:
        values, end = _json_scan(body, 0)
    except (StopIteration, ValueError, RecursionError):
        pass
    else:
        if end == len(body) and type(values) is list:
            if _PLAIN_INTS_RE.fullmatch(body, 1, end - 1) and all(map(lt, values, values[1:])):
                return CharSpanSet._of_sorted(values) if values else NO_SPANS
    inner = body[1:-1]
    if len(body) >= 2 and body[0] == "[" and body[-1] == "]" and _SPAN_BODY_RE.fullmatch(inner):
        if not inner.strip():
            return NO_SPANS
        try:
            return CharSpanSet._of_sorted(sorted(set(map(int, inner.split(",")))))
        except ValueError:  # a malformed item, or an int over the digit limit
            pass
    # a long literal is quoted by its head, so the error stays one short line
    shown = repr(literal) if len(literal) <= 60 else f"{literal[:40]!r}... ({len(literal)} characters)"
    raise DataFormatError(f"malformed span literal: {shown}")


def format_span_literal(spans: CharSpanSet) -> str:
    """Render a span set as the bracketed ascending-list literal."""
    return "[" + ", ".join(map(str, spans.indexes)) + "]"


@contextmanager
def text_reader(source: IO):
    """Yield a text view of a binary stream without closing it.

    Bytes that are not UTF-8 raise :class:`DataFormatError` naming the offset
    of the first bad byte from where reading began (when the stream can seek
    back to find it).
    """
    start = source.tell() if source.seekable() else None
    # utf-8-sig tolerates an optional BOM and is a strict superset of utf-8
    wrapper = io.TextIOWrapper(source, encoding="utf-8-sig", newline="")
    try:
        yield wrapper
    except UnicodeDecodeError as exc:
        offset = None if start is None else _first_bad_byte(source, start)
        where = "" if offset is None else f" at byte {offset}"
        raise DataFormatError(f"not valid UTF-8{where}: {exc.reason}") from None
    finally:
        wrapper.detach()


def _first_bad_byte(source: IO, start: int) -> int | None:
    """Offset from ``start`` of the first byte of ``source`` that is not UTF-8.

    Decodes one line at a time: no UTF-8 sequence contains a newline byte.
    """
    source.seek(start)
    offset = 0
    for line in source:
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return offset + exc.start
        offset += len(line)
    return None


@contextmanager
def text_writer(sink: IO):
    """Yield a text view of a binary sink; flushes, never closes."""
    wrapper = io.TextIOWrapper(sink, encoding="utf-8", newline="")
    try:
        yield wrapper
    finally:
        wrapper.detach()  # detaching flushes and leaves the sink open


@contextmanager
def input_file(path: str | Path, role: str) -> Iterator[IO[bytes]]:
    """The binary stream of the ``role`` file at ``path``, by the module docstring's rules."""
    if not os.path.isfile(path):
        raise ValidationError(f"{role} file {'is not a regular file' if os.path.exists(path) else 'not found'}: {path}")
    with open(path, "rb") as handle:
        try:
            yield handle
        except DataFormatError as exc:
            raise DataFormatError(f"{role} file {path}: {exc}") from None


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


_FILE_MODE = 0o666 & ~_umask()  # what a plain open() would create


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a uniquely named sibling temp file and rename, so readers
    never see a partial file and concurrent writers never share a temp
    file: the last rename wins with one writer's complete bytes."""
    path = Path(path)
    if not path.parent.is_dir():
        raise FileNotFoundError(f"cannot write {path}: no directory {path.parent}")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.chmod(tmp, _FILE_MODE)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


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
    except csv.Error as exc:
        raise DataFormatError(f"CSV header: {exc}") from None
    columns = {name.strip(): pos for pos, name in enumerate(header)}
    if "text" not in columns:
        raise DataFormatError("CSV header lacks required column 'text'")
    if has_gold and "spans" not in columns:
        raise DataFormatError("CSV header lacks required column 'spans'")
    width, text_col, spans_col = len(header), columns["text"], columns.get("spans")

    posts: list[LabeledPost] = []
    while True:
        record_no = len(posts) + 1
        try:
            row = next(reader, None)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise DataFormatError(f"record {record_no}: {exc}") from None
        if row is None:
            break
        if not row:
            continue  # stray blank line
        if len(row) != width:
            raise DataFormatError(f"record {record_no}: expected {width} fields, found {len(row)}")
        text = row[text_col]
        if text == "":
            raise DataFormatError(f"record {record_no}: empty text")
        if has_gold:
            try:
                gold = parse_span_literal(row[spans_col])
            except DataFormatError as exc:
                raise DataFormatError(f"record {record_no}: {exc}") from None
            if (indexes := gold.indexes) and (indexes[0] < 0 or indexes[-1] >= len(text)):
                out_of_range = [i for i in gold if i < 0 or i >= len(text)]
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
            gold = NO_SPANS
        posts.append(LabeledPost(id=len(posts), text=text, gold=gold))
    return posts


def write_predictions(preds: Iterable[PostPrediction], sink: IO) -> None:
    """Write predictions as ``<id>\\t[<i1>, <i2>, ...]`` lines.

    Raises :class:`ValidationError` unless the ids strictly ascend.
    """
    with text_writer(sink) as out:
        last_id = None
        for pred in preds:
            if last_id is not None and pred.id <= last_id:
                raise ValidationError(f"predictions not sorted by id: {pred.id} after {last_id}")
            last_id = pred.id
            out.write(f"{pred.id}\t{format_span_literal(pred.spans)}\n")


def read_id_values(source: IO, parse_value: Callable[[str], object]) -> list[tuple[int, object]]:
    """The ``(id, value)`` pairs of an ``<id>\\t<value>`` file in file order;
    ``parse_value`` raises :class:`DataFormatError` on a bad value field."""
    pairs = []
    first_line: dict[int, int] = {}
    with text_reader(source) as stream:
        lines = list(stream)
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        try:
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataFormatError("expected '<id>\\t<value>'")
            id_field, value_field = parts
            try:
                post_id = int(id_field)
            except ValueError:
                raise DataFormatError(f"bad id {id_field!r}") from None
            if post_id in first_line:
                raise DataFormatError(f"duplicate id {post_id} (first on line {first_line[post_id]})")
            first_line[post_id] = line_no
            pairs.append((post_id, parse_value(value_field)))
        except DataFormatError as exc:
            raise DataFormatError(f"line {line_no}: {exc}") from None
    return pairs


def read_predictions(source: IO) -> list[PostPrediction]:
    """Parse a prediction file written by :func:`write_predictions`."""
    return [PostPrediction(*pair) for pair in read_id_values(source, parse_span_literal)]
