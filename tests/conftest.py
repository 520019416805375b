import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from toxicspans.embeddings import EmbeddingTable
from toxicspans.lstm import LstmDirectionParams, LstmParams
from toxicspans.model import ModelParams


# Any JSON document, NaN and infinities included, for loader fuzz tests.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


def make_table(words, dim=4, seed=0) -> EmbeddingTable:
    """Small deterministic embedding table for unit tests."""
    rng = np.random.default_rng(seed)
    loaded = rng.normal(size=(len(words), dim))
    matrix = np.vstack([loaded, loaded.mean(axis=0, keepdims=True), np.zeros((1, dim))])
    return EmbeddingTable(
        dim=dim,
        vocab={w: i for i, w in enumerate(words)},
        matrix=matrix,
        unk_index=len(words),
        pad_index=len(words) + 1,
    )


def batch_of_one(post):
    """One post's (T, ...) array as a length-sorted batch of one: a (T, 1, ...)
    view, so in-place edits of the post show through, and its lengths [T]."""
    post = np.asarray(post)
    return post[:, None], np.array([len(post)])


def one_direction(params: LstmDirectionParams) -> LstmParams:
    """One LSTM direction as a stack of K = 1 for the lockstep kernels: views,
    so in-place edits of the direction's arrays show through."""
    return LstmParams(params.W_in[None], params.W_rec[None], params.b[None])


def deep_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact (bitwise) equality of all trainable tensors."""
    for (name_a, arr_a), (name_b, arr_b) in zip(a.named_arrays(), b.named_arrays()):
        if name_a != name_b or arr_a.shape != arr_b.shape:
            return False
        if not np.array_equal(arr_a, arr_b):
            return False
    return True


@pytest.fixture
def tiny_table() -> EmbeddingTable:
    return make_table(["the", "cat", "sat", "loser", "nice", "dog", "!"], dim=4)


def csv_bytes(rows, header=("spans", "text")) -> io.BytesIO:
    """Build an in-memory dataset CSV with proper quoting."""
    import csv as _csv

    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return io.BytesIO(buf.getvalue().encode("utf-8"))
