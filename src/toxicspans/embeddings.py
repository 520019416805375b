"""Pretrained word-vector loading and ragged post encoding.

The vector file is the standard plain-text format: one word per line, the
word and its components separated by single spaces.  Two reserved rows are
appended after the vocabulary: UNK (the componentwise mean of all loaded
vectors) and PAD (all zeros).  A post encodes as the rows of its first
``max_len`` tokens and the model gathers only those rows, so the PAD row
is never read; it stays because a fine-tuned checkpoint stores the whole
matrix.  An :class:`EncodedPost`, a post's tokens and their rows, is the
one record of a post that tagging and the gate read.  Its ``mask`` is
read by no layer of the tagger; it stays because the benchmark's tracer
(``perfbench/tracer.py``) reads it.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, replace
from typing import IO

import numpy as np

from .dataio import text_reader
from .errors import DataFormatError, ValidationError
from .tokenizer import TokenSeq


@dataclass
class EmbeddingTable:
    """Immutable-after-load word-vector table with reserved UNK/PAD rows."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray  # (|V| + 2, dim) float64
    unk_index: int
    pad_index: int

    def fingerprint(self) -> str:
        """Digest of the dimensionality and the vocabulary in row order."""
        h = hashlib.sha256()
        h.update(f"dim={self.dim}\n".encode("utf-8"))
        for word in sorted(self.vocab, key=self.vocab.get):
            h.update(word.encode("utf-8"))
            h.update(b"\n")
        return h.hexdigest()

    def with_matrix(self, matrix: np.ndarray) -> "EmbeddingTable":
        if matrix.shape != self.matrix.shape:
            raise ValidationError(
                f"replacement matrix shape {matrix.shape} != {self.matrix.shape}"
            )
        return replace(self, matrix=matrix)


@dataclass
class EncodedPost:
    """A tokenized post, ``tokens``, and the embedding rows of its first
    ``min(true_len, max_len)`` tokens; the tagger labels those rows and
    decodes the labels over ``tokens``."""

    indices: np.ndarray  # (effective_len,) int64
    tokens: TokenSeq
    max_len: int

    @property
    def true_len(self) -> int:  # the token count before truncation
        return len(self.tokens)

    @property
    def effective_len(self) -> int:
        return len(self.indices)

    @property
    def mask(self) -> np.ndarray:
        """Read-only (max_len,) int8: 1 on the kept rows, 0 on padding."""
        mask = np.zeros(self.max_len, dtype=np.int8)
        mask[: len(self.indices)] = 1
        mask.flags.writeable = False
        return mask


def load_embeddings(source: IO, expected_dim: int) -> EmbeddingTable:
    """Load a plain-text vector file, appending UNK (mean) and PAD (zeros)."""
    if expected_dim < 1:
        raise ValidationError(f"expected_dim must be >= 1, got {expected_dim}")
    words: list[str] = []
    vocab: dict[str, int] = {}
    rows: list[list[float]] = []
    with text_reader(source) as stream:
        lines = stream.readlines()
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) - 1 != expected_dim:
            raise DataFormatError(
                f"line {line_no}: expected {expected_dim} components, found {len(parts) - 1}"
            )
        word = parts[0]
        if word in vocab:
            continue  # keep the first occurrence
        try:
            values = [float(v) for v in parts[1:]]
        except ValueError:
            raise DataFormatError(f"line {line_no}: non-numeric component") from None
        vocab[word] = len(words)
        words.append(word)
        rows.append(values)
    if not rows:
        raise DataFormatError("embedding file contains no vectors")

    loaded = np.asarray(rows, dtype=np.float64)
    if not np.all(np.isfinite(loaded)):
        raise DataFormatError("embedding file contains non-finite components")
    matrix = np.vstack([loaded, loaded.mean(axis=0, keepdims=True), np.zeros((1, expected_dim))])
    return EmbeddingTable(
        dim=expected_dim,
        vocab=vocab,
        matrix=matrix,
        unk_index=len(words),
        pad_index=len(words) + 1,
    )


def check_max_len(max_len: int) -> None:
    """Reject a ``max_len`` below 1 or above ``csv.field_size_limit()``.

    A parsed post is one CSV field, so it has at most that many characters
    and hence tokens; a larger ``max_len`` would truncate nothing and only
    allocate its padding.
    """
    limit = csv.field_size_limit()
    if not 1 <= max_len <= limit:
        raise ValidationError(f"max_len must be in [1, {limit}], got {max_len}")


def encode_post(toks: TokenSeq, table: EmbeddingTable, max_len: int) -> EncodedPost:
    """Map the first ``max_len`` tokens to vocabulary rows (UNK if absent)."""
    check_max_len(max_len)
    kept = toks[:max_len]
    get, unk = table.vocab.get, table.unk_index
    indices = np.fromiter((get(tok.lower, unk) for tok in kept), dtype=np.int64, count=len(kept))
    return EncodedPost(indices=indices, tokens=toks, max_len=max_len)


def mean_pooled(post: EncodedPost, table: EmbeddingTable) -> np.ndarray:
    """Mean of the post's embedding rows (zero vector for empty posts): the
    reduction and division ``.mean(axis=0)`` makes, with the same bits,
    without its Python wrapper."""
    if not (n := post.effective_len):
        return np.zeros(table.dim)
    return np.add.reduce(table.matrix[post.indices], axis=0) / n
