"""The BiLSTM-CRF tagger: embedding lookup, both LSTM directions, a linear
projection to per-label emission scores, and the CRF on top.

Training runs a whole minibatch, and inference a chunk of up to
:data:`INFER_BATCH` posts (one post is a chunk of one), as one pass in the
packed layout of :mod:`batching`, from the embedding lookup to Viterbi:
only the N real token slots of the length-sorted posts, time-major.  The
embedding rows are gathered straight from the posts' indices, the LSTM
and the projection return (N, ·) rows, the CRF returns its gradients in
those rows, and Viterbi decodes each post from its rows, put back post by
post (``PackedSteps.unpack``); no padded slot is built.  A pass over one post (``predict`` of a post on its
own, a training batch of one) runs the LSTM's one-post time loop and any
larger pass its packed loop; both give the same bits.  At B = 1 a step is
about 13 numpy calls, and numpy's per-call cost has no batch axis to
spread over, so the one-post loop trims the work around those calls (see
:mod:`lstm`).  The backward pass is fully manual (projection, then both
LSTM directions) and returns gradients summed over the batch; only when
fine-tuning does it ask the LSTM for the input gradient and accumulate
embedding-row gradients from it.

Both LSTM directions live in one stacked :class:`lstm.LstmParams` block
(K = 2: forward, then backward) and run in lockstep, one
:func:`lstm.lstm_forward` and one :func:`lstm.lstm_backward` call per pass;
the forward call's (N, 2H) output is the concatenation of the two
directions' hidden states that the projection reads.  Every tensor is a
view into one parameter vector, and ``params.fwd`` and ``params.bwd`` are
views into the stacked block, so the per-direction tensor names and the
checkpoint layout are those of two separate directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from .batching import PackedSteps
from .crf import CrfParams, crf_nll_grad, viterbi_decode
from .dataio import CharSpanSet
from .embeddings import EmbeddingTable, EncodedPost, encode_post
from .errors import ValidationError
from .lstm import LstmCache, LstmDirectionParams, LstmParams, lstm_backward, lstm_forward
from .span_codec import BridgePolicy, labels_to_spans
from .tokenizer import TokenSeq, tokenize

NUM_LABELS = 2  # 0 = non-toxic, 1 = toxic
# Posts per inference pass: enough rows per step to spread numpy's per-call
# cost, few enough that `cli predict` holds one small window at a time.
INFER_BATCH = 16
# Trainable tensors in their declared (checkpoint) order, as attribute paths
# of ModelParams; a fine-tuned embedding matrix follows them.
TENSOR_NAMES = (
    "fwd.W_in", "fwd.W_rec", "fwd.b",
    "bwd.W_in", "bwd.W_rec", "bwd.b",
    "emit.W_out", "emit.b_out",
    "crf.trans", "crf.start", "crf.stop",
)
EMBEDDING_TENSOR = "embedding.matrix"
# Whether each stacked LSTM direction reads the posts back to front.
DIRECTIONS = (("fwd", False), ("bwd", True))
# The tensors in their order in ModelParams.vector: each stacked LSTM block
# (both W_in, both W_rec, both b) is contiguous; emission and CRF follow.
VECTOR_NAMES = (
    *(f"{prefix}.{name}" for name in ("W_in", "W_rec", "b") for prefix, _ in DIRECTIONS),
    *TENSOR_NAMES[3 * len(DIRECTIONS) :],
)


@dataclass
class EmissionParams:
    """Linear projection from concatenated hidden states to label scores."""

    W_out: np.ndarray  # (L, 2H)
    b_out: np.ndarray  # (L,)


@dataclass
class ModelParams:
    """All tagger parameters plus a reference to the embedding table; the
    tensors are views into ``vector``, laid out as :data:`VECTOR_NAMES`."""

    lstm: LstmParams  # the directions of DIRECTIONS, stacked in that order
    emit: EmissionParams
    crf: CrfParams
    embedding: EmbeddingTable
    vector: np.ndarray

    @property
    def fwd(self) -> LstmDirectionParams:
        return self.lstm.direction(0)

    @property
    def bwd(self) -> LstmDirectionParams:
        return self.lstm.direction(1)

    @property
    def hidden_size(self) -> int:
        return self.lstm.hidden_size

    def named_arrays(self, include_embedding: bool = False) -> list[tuple[str, np.ndarray]]:
        """Trainable tensors in their declared (checkpoint) order."""
        names = TENSOR_NAMES + ((EMBEDDING_TENSOR,) if include_embedding else ())
        return [(name, reduce(getattr, name.split("."), self)) for name in names]

    def clone(self, copy_embedding: bool = False) -> "ModelParams":
        """Deep copy of the trainable tensors; the table is shared by default."""
        table = self.embedding
        if copy_embedding:
            table = table.with_matrix(table.matrix.copy())
        return params_from_arrays(dict(self.named_arrays()), table)


@dataclass
class BilstmCache:
    """Everything the manual backward pass needs from one forward pass."""

    indices: np.ndarray  # (N,) packed embedding rows
    lstm_cache: LstmCache
    hidden: np.ndarray  # (N, 2H) packed hidden states


def _glorot(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def tensor_shapes(input_dim: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
    """Shape of every tensor of :data:`TENSOR_NAMES`, in that order."""
    D, H, L = input_dim, hidden_size, NUM_LABELS
    direction = [(4 * H, D), (4 * H, H), (4 * H,)]
    return dict(zip(TENSOR_NAMES, direction + direction + [(L, 2 * H), (L,), (L, L), (L,), (L,)]))


def params_from_arrays(arrays: dict[str, np.ndarray], table: EmbeddingTable) -> ModelParams:
    """Assemble parameters from tensors keyed by :data:`TENSOR_NAMES`,
    copied into one new parameter vector that they are views into."""
    vector = np.concatenate([np.ravel(arrays[name]) for name in VECTOR_NAMES], dtype=np.float64)
    K = len(DIRECTIONS)
    # the stacked LSTM blocks, each starting at its first direction's tensor
    blocks = [(K, *arrays[f"fwd.{name}"].shape) for name in ("W_in", "W_rec", "b")]
    blocks += [arrays[name].shape for name in VECTOR_NAMES[3 * K :]]
    ends = np.cumsum([math.prod(shape) for shape in blocks])
    views = [a.reshape(shape) for a, shape in zip(np.split(vector, ends[:-1]), blocks)]
    return ModelParams(
        LstmParams(*views[:3]), EmissionParams(*views[3:5]), CrfParams(*views[5:]), table, vector
    )


def init_params(
    table: EmbeddingTable, hidden_size: int, rng: np.random.Generator
) -> ModelParams:
    """Seeded initialization: Glorot-uniform matrices, zero biases, and a
    +1 forget-gate bias.  Matrices are drawn in :data:`TENSOR_NAMES` order
    for reproducibility."""
    if hidden_size < 1:
        raise ValidationError(f"hidden_size must be >= 1, got {hidden_size}")
    H = hidden_size
    arrays = {
        name: _glorot(*shape, rng) if len(shape) == 2 else np.zeros(shape)
        for name, shape in tensor_shapes(table.dim, H).items()
    }
    arrays["fwd.b"][H : 2 * H] = 1.0
    arrays["bwd.b"][H : 2 * H] = 1.0
    return params_from_arrays(arrays, table)


def _emissions(posts: Sequence[EncodedPost], params: ModelParams) -> tuple[np.ndarray, BilstmCache]:
    """(N, L) packed label scores of length-sorted posts, and the cache of
    the pass, whose ``lstm_cache.steps`` is the batch's layout."""
    steps = PackedSteps([post.effective_len for post in posts])
    indices = steps.pack(np.concatenate([post.indices for post in posts]))
    hidden, lstm_cache = lstm_forward(
        params.embedding.matrix[indices], params.lstm, steps, [rev for _, rev in DIRECTIONS]
    )
    emissions = hidden @ params.emit.W_out.T + params.emit.b_out
    return emissions, BilstmCache(indices=indices, lstm_cache=lstm_cache, hidden=hidden)


def backward(
    params: ModelParams,
    cache: BilstmCache,
    d_emissions: np.ndarray,
    finetune_embeddings: bool = False,
) -> dict[str, np.ndarray]:
    """Manual backprop through the projection and both LSTM directions.

    ``d_emissions`` has the (N, L) shape of the forward pass's emissions.
    Returns gradients keyed like
    :meth:`ModelParams.named_arrays`, summed over a batch (CRF entries
    excluded; those come straight from the CRF marginals).
    """
    d_W_out = d_emissions.T @ cache.hidden
    d_b_out = d_emissions.sum(axis=0)
    d_hidden = d_emissions @ params.emit.W_out

    d_inputs, lstm_grads = lstm_backward(
        d_hidden, params.lstm, cache.lstm_cache, input_grad=finetune_embeddings
    )

    grads = {
        f"{prefix}.{name}": arr
        for (prefix, _), direction in zip(DIRECTIONS, lstm_grads)
        for name, arr in direction.items()
    }
    grads["emit.W_out"] = d_W_out
    grads["emit.b_out"] = d_b_out
    if finetune_embeddings:
        d_matrix = np.zeros_like(params.embedding.matrix)
        np.add.at(d_matrix, cache.indices, d_inputs)
        grads[EMBEDDING_TENSOR] = d_matrix
    return grads


def nll_and_gradients(
    posts: Sequence[EncodedPost],
    labels: Sequence[list[int]],
    params: ModelParams,
    finetune_embeddings: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Summed CRF negative log-likelihood of a minibatch and the summed
    gradients for every trainable tensor.

    ``labels[k]`` must cover exactly the encoded tokens of ``posts[k]``.
    The batch runs as one packed pass, its posts sorted longest first (ties
    keep their given order).
    """
    if len(posts) != len(labels):
        raise ValidationError(f"{len(labels)} label lists for {len(posts)} posts")
    if not posts:
        raise ValidationError("empty minibatch")
    order = sorted(range(len(posts)), key=lambda k: -posts[k].effective_len)
    emissions, cache = _emissions([posts[k] for k in order], params)
    nll, d_em, d_trans, d_start, d_stop = crf_nll_grad(
        emissions, params.crf, [labels[k] for k in order], cache.lstm_cache.steps
    )
    grads = backward(params, cache, d_em, finetune_embeddings)
    grads["crf.trans"] = d_trans
    grads["crf.start"] = d_start
    grads["crf.stop"] = d_stop
    return nll, grads


def predict_spans(
    params: ModelParams,
    toks: Sequence[TokenSeq],
    posts: Sequence[EncodedPost],
    policy: BridgePolicy,
) -> list[CharSpanSet]:
    """Decoded spans of tokenized posts from their encodings ``posts``.

    The posts run longest first (a stable sort) in passes of
    :data:`INFER_BATCH`, each one emission pass and a Viterbi decode per
    post.  Tokens truncated beyond an encoding's ``max_len``
    are predicted non-toxic; a post with no tokens yields the empty span set.
    """
    if len(toks) != len(posts):
        raise ValidationError(f"{len(toks)} token sequences for {len(posts)} encoded posts")
    lens = [post.effective_len for post in posts]
    order = sorted((k for k in range(len(posts)) if lens[k]), key=lambda k: -lens[k])
    spans = [CharSpanSet() for _ in posts]
    for lo in range(0, len(order), INFER_BATCH):
        picked = order[lo : lo + INFER_BATCH]
        emissions, cache = _emissions([posts[k] for k in picked], params)
        by_post, start = cache.lstm_cache.steps.unpack(emissions), 0
        for k in picked:
            labels = viterbi_decode(by_post[start : start + lens[k]], params.crf)
            start += lens[k]
            spans[k] = labels_to_spans(toks[k], labels + [0] * (len(toks[k]) - lens[k]), policy)
    return spans


def predict(
    params: ModelParams,
    text: str,
    max_len: int,
    policy: BridgePolicy = BridgePolicy(),
) -> CharSpanSet:
    """Full pipeline for one post: tokenize, encode, tag, decode to spans.

    Tokens truncated beyond ``max_len`` are predicted non-toxic; empty text
    yields the empty span set.
    """
    toks = tokenize(text)
    return predict_spans(params, [toks], [encode_post(toks, params.embedding, max_len)], policy)[0]
