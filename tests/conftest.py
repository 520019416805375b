import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

import toxicspans.model
import toxicspans.training
from toxicspans.arena import Arena
from toxicspans.batching import PackedSteps
from toxicspans.embeddings import EmbeddingTable
from toxicspans.lstm import DIRECTIONS
from toxicspans.model import EMBEDDING_TENSOR, TENSOR_NAMES, ModelParams


# Any JSON document, NaN and infinities included, for loader fuzz tests.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=10,
)


class PoisonedArena(Arena):
    """An arena whose every :meth:`take` (and so every ``scratch``) fills
    the role's whole buffer with NaN before it returns the view.  A kernel
    that reads an array before writing it, or a caller that holds a view
    while its slot is taken again, then reads NaN: it raises
    ``NonFiniteError`` or moves bits, where the real arena might hand it
    stale values that happen to be right."""

    def take(self, role: str, shape: tuple[int, ...]) -> np.ndarray:
        array = super().take(role, shape)
        self._buffers[role].fill(np.nan)
        return array


def poison_arenas(monkeypatch) -> None:
    """Make every module that builds an arena (the entry points ``train``,
    ``tag_posts`` and ``predict``) build a :class:`PoisonedArena`."""
    for module in (toxicspans.model, toxicspans.training):
        monkeypatch.setattr(module, "Arena", PoisonedArena)


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


def pack_posts(posts):
    """Length-sorted per-post (T_b, ...) arrays as the packed rows of one
    batch, plus its :class:`PackedSteps`.  One post's rows are its array
    itself, so in-place edits of the post show through."""
    steps = PackedSteps([len(post) for post in posts])
    rows = np.asarray(posts[0]) if len(posts) == 1 else steps.pack(np.concatenate(posts))
    return rows, steps


def split_posts(rows, steps):
    """Packed rows back as the batch's per-post (T_b, ...) arrays: post b of
    length n is rows ``offsets[:n] + b``."""
    offsets = np.asarray(steps.offsets)
    return [rows[offsets[:n] + b] for b, n in enumerate(steps.lengths)]


def named_tensors(params: ModelParams) -> dict[str, np.ndarray]:
    """Every trainable tensor of ``params`` by name, in declared
    (checkpoint) order, from the model's own views: direction k of each
    stacked LSTM tensor, the emission and CRF tensors, then the embedding
    matrix if it is fine-tuned.  In-place edits show through both ways."""
    lstm = [getattr(params.lstm, field)[k] for k in range(DIRECTIONS) for field in ("W_in", "W_rec", "b")]
    arrays = lstm + [params.emit.W_out, params.emit.b_out, params.crf.trans, params.crf.start, params.crf.stop]
    tensors = dict(zip(TENSOR_NAMES, arrays, strict=True))
    if params.finetuned:
        tensors[EMBEDDING_TENSOR] = params.embedding.matrix
    return tensors


def deep_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact (bitwise) equality of all trainable tensors."""
    for (name_a, arr_a), (name_b, arr_b) in zip(named_tensors(a).items(), named_tensors(b).items()):
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
