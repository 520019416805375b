"""The BiLSTM-CRF tagger: embedding lookup, both LSTM directions
(:mod:`lstm`), a linear projection to per-label emission scores, and the
two-label CRF (:mod:`crf`) on top.

A training minibatch, and an inference chunk of up to :data:`INFER_BATCH`
posts, runs as one pass over the packed rows of :mod:`batching`.  The
backward pass is manual (projection, then both LSTM directions) and sums
the gradients over the batch; only a fine-tuned model asks the LSTM for
the input gradient, from which it accumulates embedding-row gradients.
Every tensor is a view into one parameter vector, and a batch's gradients
fill a buffer laid out alike: :func:`tensor_layout`, read by the views, the
clip and the checkpoint.  A fine-tuned embedding matrix is the vector's
tail.  Every pass runs in its caller's :class:`arena.Arena`; :func:`tag_posts`
and :func:`predict` make their own and tag with :attr:`ModelParams.inference`.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arena import Arena
from .batching import PackedSteps
from .crf import NUM_LABELS, CrfParams, crf_nll_grad, viterbi_decode
from .dataio import NO_SPANS, CharSpanSet, LabeledPost
from .embeddings import EmbeddingTable, EncodedPost, encode_post, mean_pooled
from .errors import ValidationError
from .gate import GateModel, apply_gate, gate_score
from .lstm import DIRECTIONS, LstmCache, LstmParams, lstm_backward, lstm_forward
from .span_codec import BridgePolicy, labels_to_spans
from .tokenizer import tokenize

# Posts per inference pass: enough rows per step to spread numpy's per-call
# cost, few enough that `cli predict` holds one small window at a time.
INFER_BATCH = 16
# Trainable tensors in their declared (checkpoint) order, by the names the
# checkpoint header gives them; a fine-tuned embedding matrix follows them
# in the parameter vector.
TENSOR_NAMES = (
    "fwd.W_in", "fwd.W_rec", "fwd.b",
    "bwd.W_in", "bwd.W_rec", "bwd.b",
    "emit.W_out", "emit.b_out",
    "crf.trans", "crf.start", "crf.stop",
)
EMBEDDING_TENSOR = "embedding.matrix"
# The dtype that inference runs the LSTM in (ModelParams.inference)
INFER_DTYPE = np.float32
_INFER_MAX = float(np.finfo(INFER_DTYPE).max)
# Each tensor's shape and slice of the checkpoint body, by name (tensor_layout)
Layout = dict[str, tuple[tuple[int, ...], slice]]


@dataclass
class EmissionParams:
    """Linear projection from concatenated hidden states to label scores."""

    W_out: np.ndarray  # (L, 2H)
    b_out: np.ndarray  # (L,)


@dataclass
class ModelParams:
    """All tagger parameters plus a reference to the embedding table; the
    tensors are views into ``vector``, laid out in :data:`TENSOR_NAMES`
    order, and so is a fine-tuned table's matrix, after them (see
    :func:`params_from_vector`)."""

    lstm: LstmParams  # fwd, then bwd
    emit: EmissionParams
    crf: CrfParams
    embedding: EmbeddingTable
    vector: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.lstm.hidden_size

    @property
    def finetuned(self) -> bool:
        """Whether the embedding matrix is trained: ``vector`` then holds it
        after the tensors of :data:`TENSOR_NAMES`."""
        return self.vector.size > _tensor_count(self.embedding.dim, self.hidden_size)

    def clone(self) -> "ModelParams":
        """Deep copy of the trainable tensors, a fine-tuned matrix included;
        a frozen model's table is shared.  The copy is writable and has no
        :attr:`inference` copy yet."""
        return params_from_vector(self.vector.copy(), self.hidden_size, self.embedding)

    @functools.cached_property
    def inference(self) -> "ModelParams":
        """This model as inference runs it: the LSTM tensors cast to
        :data:`INFER_DTYPE` on first use and kept, and this model's
        emission, CRF and embedding tensors, which stay float64.

        Raises :class:`ValidationError`, naming the tensor, if an LSTM
        tensor or the embedding matrix holds a finite value beyond
        float32's range.  Making the copy makes this model's vector and
        tensors read-only, so no write can leave the copy stale;
        :meth:`clone` gives a writable model."""
        lstm = self.lstm
        directions = [getattr(lstm, field)[k] for k in range(DIRECTIONS) for field in ("W_in", "W_rec", "b")]
        named = dict(zip(TENSOR_NAMES, directions))
        named[EMBEDDING_TENSOR] = self.embedding.matrix
        for name, tensor in named.items():
            with np.errstate(invalid="ignore"):  # NaN passes, as it does in float64
                if -_INFER_MAX <= tensor.min() and tensor.max() <= _INFER_MAX:
                    continue
                peak = np.abs(tensor[np.isfinite(tensor)]).max(initial=0.0)
            if peak > _INFER_MAX:
                raise ValidationError(
                    f"tensor {name} holds a value of magnitude {peak:.4g}, beyond the range of "
                    f"{np.dtype(INFER_DTYPE).name} (up to {_INFER_MAX:.4g}) that inference runs the LSTM in"
                )
        frozen = [self.vector, lstm.W_in, lstm.W_rec, lstm.b, *vars(self.emit).values(), *vars(self.crf).values()]
        for array in frozen + ([self.embedding.matrix] if self.finetuned else []):
            array.flags.writeable = False
        cast = LstmParams(*(tensor.astype(INFER_DTYPE) for tensor in (lstm.W_in, lstm.W_rec, lstm.b)))
        return dataclasses.replace(self, lstm=cast)


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


def tensor_layout(table: EmbeddingTable, hidden_size: int, finetune_embeddings: bool = False) -> Layout:
    """Shape and slice of every tensor of the checkpoint body, in order: the
    parameter vector's, then the embedding matrix if it is fine-tuned."""
    shapes = tensor_shapes(table.dim, hidden_size)
    if finetune_embeddings:
        shapes[EMBEDDING_TENSOR] = table.matrix.shape
    layout, stop = {}, 0
    for name, shape in shapes.items():
        start, stop = stop, stop + math.prod(shape)
        layout[name] = shape, slice(start, stop)
    return layout


@functools.cache  # read every training step, through ModelParams.finetuned
def _tensor_count(input_dim: int, hidden_size: int) -> int:
    """Elements of the tensors of :data:`TENSOR_NAMES`: a frozen model's
    vector length."""
    return sum(math.prod(shape) for shape in tensor_shapes(input_dim, hidden_size).values())


def params_from_vector(vector: np.ndarray, hidden_size: int, table: EmbeddingTable) -> ModelParams:
    """Parameters whose tensors are views into ``vector``, laid out as
    :func:`tensor_layout` says: each direction's W_in, W_rec and b, then
    the emission and CRF tensors.  A stacked LSTM tensor takes the same
    columns of each direction's row of ``vector[:K*S].reshape(K, S)``.

    A vector that also holds a matrix of ``table``'s shape after them is
    a fine-tuned model's: its table is ``table`` with that tail as the
    matrix.  A vector of any other length raises :class:`ValidationError`."""
    frozen = _tensor_count(table.dim, hidden_size)
    tuned = frozen + table.matrix.size
    if vector.size not in (frozen, tuned):
        raise ValidationError(
            f"a parameter vector of {vector.size} elements: a model of hidden size {hidden_size} on this "
            f"table has {frozen}, or {tuned} with its embedding matrix fine-tuned"
        )
    if vector.size == tuned:
        table = table.with_matrix(vector[frozen:].reshape(table.matrix.shape))
    layout = list(tensor_layout(table, hidden_size).values())
    K, S = DIRECTIONS, layout[2][1].stop
    blocks = vector[: K * S].reshape(K, S)
    views = [blocks[:, at].reshape(K, *shape) for shape, at in layout[:3]]
    views += [vector[at].reshape(shape) for shape, at in layout[3 * K :]]
    return ModelParams(LstmParams(*views[:3]), EmissionParams(*views[3:5]), CrfParams(*views[5:]), table, vector)


def init_params(
    table: EmbeddingTable, hidden_size: int, rng: np.random.Generator, finetune_embeddings: bool = False
) -> ModelParams:
    """Seeded initialization: Glorot-uniform matrices, zero biases, and a
    +1 forget-gate bias.  Matrices are drawn in :data:`TENSOR_NAMES` order
    for reproducibility.  A fine-tuned model's vector ends with a copy of
    the table's matrix, so training never changes the shared table."""
    if hidden_size < 1:
        raise ValidationError(f"hidden_size must be >= 1, got {hidden_size}")
    H = hidden_size
    arrays = [
        _glorot(*shape, rng) if len(shape) == 2 else np.zeros(shape)
        for shape in tensor_shapes(table.dim, H).values()
    ]
    if finetune_embeddings:
        arrays.append(table.matrix)
    params = params_from_vector(np.concatenate([a.ravel() for a in arrays]), H, table)
    params.lstm.b[:, H : 2 * H] = 1.0
    return params


def _emissions(
    posts: Sequence[EncodedPost], params: ModelParams, arena: Arena, keep_cache: bool = True
) -> tuple[np.ndarray, PackedSteps, BilstmCache | None]:
    """(N, L) packed label scores of length-sorted posts, the batch's
    layout, and the cache that :func:`backward` reads, or None unless
    ``keep_cache``."""
    steps = PackedSteps([post.effective_len for post in posts])
    indices = steps.pack(np.concatenate([post.indices for post in posts]))
    matrix = params.embedding.matrix
    inputs = arena.take("inputs", (steps.N, matrix.shape[1]))
    # encode_post's indices are rows of the table, so clipping moves none;
    # an arena of another dtype takes the rows cast after they are gathered
    if inputs.dtype == matrix.dtype:
        np.take(matrix, indices, axis=0, out=inputs, mode="clip")
    else:
        inputs[...] = np.take(matrix, indices, axis=0, mode="clip")
    hidden, lstm_cache = lstm_forward(inputs, params.lstm, steps, arena, keep_cache)
    emissions = hidden @ params.emit.W_out.T + params.emit.b_out  # (N, L): too small to fault
    cache = BilstmCache(indices=indices, lstm_cache=lstm_cache, hidden=hidden) if keep_cache else None
    return emissions, steps, cache


def backward(
    params: ModelParams, cache: BilstmCache, d_emissions: np.ndarray, grads: ModelParams, arena: Arena
) -> None:
    """Manual backprop through the projection and both LSTM directions.

    ``d_emissions`` has the (N, L) shape of the forward pass's emissions.
    Writes the emission and LSTM gradients, summed over a batch, into
    ``grads``, laid out like ``params`` (the CRF writes its own).  When
    ``params`` is fine-tuned, adds the embedding rows' gradients into
    ``grads.embedding.matrix``.  Its intermediates live in ``arena``, the
    forward pass's.
    """
    finetuned = params.finetuned
    np.matmul(d_emissions.T, cache.hidden, out=grads.emit.W_out)
    d_emissions.sum(axis=0, out=grads.emit.b_out)
    # W_out's gradient was the hidden states' last reader: d_hidden takes their array
    d_hidden = np.matmul(d_emissions, params.emit.W_out, out=cache.hidden)
    d_inputs = lstm_backward(d_hidden, params.lstm, cache.lstm_cache, grads.lstm, arena, finetuned)
    if finetuned:
        np.add.at(grads.embedding.matrix, cache.indices, d_inputs)


def nll_and_gradients(
    posts: Sequence[EncodedPost],
    labels: Sequence[list[int]],
    params: ModelParams,
    arena: Arena,
) -> tuple[float, ModelParams]:
    """Summed CRF negative log-likelihood of a minibatch and the summed
    gradients of every trainable tensor, in a vector laid out like
    ``params.vector``.  For a fine-tuned model the embedding gradient is
    the returned ``embedding.matrix``, the vector's tail; otherwise the
    returned ``embedding`` is ``params.embedding``, and no gradient.

    ``labels[k]`` must cover exactly the encoded tokens of ``posts[k]``.
    The batch runs as one packed pass, its posts sorted longest first (ties
    keep their given order).
    """
    if len(posts) != len(labels):
        raise ValidationError(f"{len(labels)} label lists for {len(posts)} posts")
    if not posts:
        raise ValidationError("empty minibatch")
    order = sorted(range(len(posts)), key=lambda k: -posts[k].effective_len)
    emissions, steps, cache = _emissions([posts[k] for k in order], params, arena)
    grads = params_from_vector(arena.take("gradients", params.vector.shape), params.hidden_size, params.embedding)
    if grads.finetuned:  # the only gradient that backward adds into
        grads.embedding.matrix.fill(0.0)
    nll, d_em = crf_nll_grad(emissions, params.crf, [labels[k] for k in order], steps, grads.crf)
    backward(params, cache, d_em, grads, arena)
    return nll, grads


def predict_spans(
    params: ModelParams, posts: Sequence[EncodedPost], policy: BridgePolicy, arena: Arena
) -> list[CharSpanSet]:
    """Decoded spans of encoded posts: each post's labels, decoded over the
    tokens it was encoded from.

    The posts run longest first (a stable sort) in passes of
    :data:`INFER_BATCH`, each one emission pass and a Viterbi decode per
    post.  The passes share ``arena``, whose dtype must be
    ``params.lstm``'s.  Tokens truncated beyond an encoding's ``max_len``
    are predicted non-toxic; a post with no tokens yields the empty span
    set.
    """
    lens = [post.effective_len for post in posts]
    order = sorted((k for k in range(len(posts)) if lens[k]), key=lambda k: -lens[k])
    spans = [NO_SPANS] * len(posts)
    for lo in range(0, len(order), INFER_BATCH):
        picked = order[lo : lo + INFER_BATCH]
        emissions, steps, _ = _emissions([posts[k] for k in picked], params, arena, keep_cache=False)
        by_post, start = steps.unpack(emissions), 0
        for k in picked:
            labels = viterbi_decode(by_post[start : start + lens[k]], params.crf)
            start += lens[k]
            spans[k] = labels_to_spans(posts[k].tokens, labels + [0] * (posts[k].true_len - lens[k]), policy)
    return spans


def tag_posts(
    params: ModelParams, table: EmbeddingTable, posts: Sequence[LabeledPost], max_len: int,
    policy: BridgePolicy, gate: GateModel | None = None,
) -> list[CharSpanSet]:
    """Spans of raw posts in input order, each tokenized once, tagged by
    :func:`predict_spans` with ``params.inference`` in input-order windows
    of :data:`INFER_BATCH` (one window's encodings held at a time), then
    emptied where ``gate`` scores the post below its threshold.  ``table`` is the table the checkpoint was loaded against,
    which encodes the posts and pools the gate's features: a fine-tuned
    model's ``params.embedding`` is its tuned copy, and the gate was trained
    on the untuned table.  A gate that records another table's
    ``vocab_hash`` raises :class:`ValidationError`; one that records none is
    not checked."""
    if gate is not None and gate.vocab_hash is not None and gate.vocab_hash != (digest := table.fingerprint()):
        raise ValidationError(
            f"the gate was trained on another embedding table: vocab_hash {gate.vocab_hash} != {digest} "
            f"of the table given (dim {table.dim})"
        )
    spans, inference, arena = [], params.inference, Arena(INFER_DTYPE)
    for lo in range(0, len(posts), INFER_BATCH):
        window = posts[lo : lo + INFER_BATCH]
        encoded = [encode_post(tokenize(post.text), table, max_len) for post in window]
        for post, enc, found in zip(window, encoded, predict_spans(inference, encoded, policy, arena)):
            if gate is not None:
                found = apply_gate(found, gate_score(gate, post.id, mean_pooled(enc, table)), gate.threshold)
            spans.append(found)
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
    post = encode_post(tokenize(text), params.embedding, max_len)
    return predict_spans(params.inference, [post], policy, Arena(INFER_DTYPE))[0]
