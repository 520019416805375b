"""Pretrained word-vector loading and fixed-length post encoding.

The vector file is the standard plain-text format: one word per line, the
word and its components separated by single spaces.  Two reserved rows are
appended after the vocabulary: UNK (the componentwise mean of all loaded
vectors) and PAD (all zeros).  PAD positions are masked out everywhere
downstream, so the zero vector is inert by construction.
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

UNK_TOKEN = "<UNK>"
PAD_TOKEN = "<PAD>"


@dataclass
class EmbeddingTable:
    """Immutable-after-load word-vector table with reserved UNK/PAD rows."""

    dim: int
    vocab: dict[str, int]
    matrix: np.ndarray  # (|V| + 2, dim) float64
    unk_index: int
    pad_index: int

    def row_index(self, word: str) -> int:
        return self.vocab.get(word, self.unk_index)

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
    """A post as a fixed-length vector of embedding row indexes.

    ``true_len`` records the token count before truncation/padding, so
    ``mask`` sums to ``min(true_len, max_len)``.
    """

    indices: np.ndarray  # (max_len,) int64, pad_index wherever mask == 0
    mask: np.ndarray  # (max_len,) int8
    true_len: int

    @property
    def effective_len(self) -> int:
        return int(self.mask.sum())


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
    """Map tokens to vocabulary rows, truncating/padding to ``max_len``."""
    check_max_len(max_len)
    indices = np.full(max_len, table.pad_index, dtype=np.int64)
    mask = np.zeros(max_len, dtype=np.int8)
    kept = min(len(toks), max_len)
    for i in range(kept):
        indices[i] = table.row_index(toks[i].lower)
        mask[i] = 1
    return EncodedPost(indices=indices, mask=mask, true_len=len(toks))


def mean_pooled(post: EncodedPost, table: EmbeddingTable) -> np.ndarray:
    """Mean of the unpadded embedding rows (zero vector for empty posts)."""
    eff = post.effective_len
    if eff == 0:
        return np.zeros(table.dim)
    return table.matrix[post.indices[:eff]].mean(axis=0)
