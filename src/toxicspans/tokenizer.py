"""Tweet-style tokenization that preserves exact character offsets.

The rule set is a documented approximation of tweet-style word splitting:

* split on Unicode whitespace;
* detach leading and trailing punctuation from each chunk, grouping runs of
  the same punctuation character into a single token (so ``??`` and ``...``
  come out whole);
* keep internal apostrophes, hyphens and any other non-edge punctuation
  inside the token (``isn't``, ``anti-immigration``);
* every non-whitespace character belongs to exactly one token.

One pass of ``\\w(?:\\S*\\w)?|([^\\w\\s])\\1*`` with ``finditer`` applies these
rules. The first alternative is a chunk's core: from a word character to the
last word character of its whitespace-delimited chunk, so internal
punctuation stays inside. The second is one run of a repeated edge
character, a non-word, non-space character before the first or after the
last word character of a chunk. This rests on Python's ``re`` classes
agreeing with the string predicates on every code point: ``\\w`` matches
exactly the characters with ``ch.isalnum() or ch == "_"`` and ``\\s`` exactly
those with ``ch.isspace()`` (the tests check all of them).

Offsets are half-open ``[start, end)`` character positions into the original
text; lowercasing never moves them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

_TOKEN = re.compile(r"\w(?:\S*\w)?|([^\w\s])\1*")


class Token(NamedTuple):
    """One token: verbatim surface, lowercased form, and its char range."""

    surface: str
    lower: str
    start: int
    end: int


@dataclass(frozen=True)
class TokenSeq:
    """Ordered, non-overlapping tokens plus the source text length."""

    tokens: tuple[Token, ...]
    source_len: int

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Token]:
        return iter(self.tokens)

    def __getitem__(self, index: int) -> Token:
        return self.tokens[index]


def tokenize(text: str) -> TokenSeq:
    """Segment ``text`` into offset-faithful tokens (empty text allowed)."""
    tokens = []
    # tuple.__new__ builds each token in one step, past NamedTuple.__new__
    append, new = tokens.append, tuple.__new__
    for match in _TOKEN.finditer(text):
        surface = match[0]
        start = match.start()
        append(new(Token, (surface, surface.lower(), start, start + len(surface))))
    return TokenSeq(tokens=tuple(tokens), source_len=len(text))
