"""Gradient-descent training of the tagger with Adam and early stopping.

Minibatches are reshuffled every epoch from a single seeded generator, the
loss is the batch-mean CRF negative log-likelihood, and each batch runs as
one length-sorted pass (ties in ascending example order) whose gradient
reductions have a fixed order, so runs with the same seed are bit-for-bit
reproducible.  Early stopping watches the dev-split character-level F1 and
the best-dev parameters are returned.  A step's gradients arrive in one
vector laid out like the parameter vector, a fine-tuned embedding matrix
included; the step scales and clips them there, and Adam updates the
parameter vector from it in one pass.

``train`` runs every step and dev pass in one :class:`arena.Arena`, and
copies each new best-dev state into one kept copy, so no step allocates
its arrays afresh.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .arena import Arena
from .dataio import CharSpanSet, LabeledPost
from .embeddings import EmbeddingTable, EncodedPost, check_max_len, encode_post
from .errors import NonFiniteError, TrainingDivergedError, ValidationError
from .metric import per_post_scores
from .model import ModelParams, init_params, tensor_layout
from .model import nll_and_gradients, predict_spans
from .span_codec import BridgePolicy, spans_to_labels
from .tokenizer import tokenize

# Elements per chunk of an Adam update: its two scratch chunks (256 KB)
# stay in cache while the parameters, gradients and moments stream through.
ADAM_CHUNK = 1 << 14
# Adam's decay rates of the first and second moments and its denominator's
# epsilon.
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Training hyperparameters; everything that affects the run is here."""

    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    learning_rate: float = 1e-3
    hidden_size: int = 128
    gradient_clip_norm: float = 5.0
    early_stop_patience: int = 5
    dev_fraction: float = 0.1
    max_len: int = 128
    finetune_embeddings: bool = False
    # the decode policy's max_gap that dev F1 chose the checkpoint with;
    # predict decodes with it unless told otherwise
    bridge_gap: int = BridgePolicy.max_gap

    def validate(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.learning_rate < math.inf:  # false for NaN too
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )
        if self.hidden_size < 1:
            raise ValidationError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if not 0 < self.gradient_clip_norm < math.inf:
            raise ValidationError(
                f"gradient_clip_norm must be finite and > 0, got {self.gradient_clip_norm}"
            )
        if self.early_stop_patience < 1:
            raise ValidationError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience}"
            )
        if not 0.0 < self.dev_fraction < 1.0:
            raise ValidationError(
                f"dev_fraction must be in (0, 1), got {self.dev_fraction}"
            )
        check_max_len(self.max_len)
        BridgePolicy(max_gap=self.bridge_gap)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Rebuild a config from :meth:`to_dict` output.  Each value must have
        its field default's type (an int is also a float), and the result
        must pass :meth:`validate`."""
        if not isinstance(data, dict):
            raise ValidationError(f"a training config must be a mapping, got {data!r}")
        defaults = cls().to_dict()
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValidationError(f"unknown training config keys {unknown}")
        for key, value in data.items():
            kind = type(defaults[key])
            allowed = (int, float) if kind is float else kind
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, allowed):
                raise ValidationError(f"{key} must be of type {kind.__name__}, got {value!r}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class TrainExample:
    """One post prepared for training: its encoding (which holds its
    tokens), the gold labels of its encoded tokens, and its gold spans."""

    post_id: int
    encoded: EncodedPost
    labels: list[int]  # (encoded.effective_len,)
    gold: CharSpanSet


@dataclass
class EpochStats:
    """One epoch's loss, dev F1 and gradient telemetry.  ``grad_norm_mean``
    and ``grad_norm_max`` are over the steps' pre-clip global norms, and a
    step is clipped when its norm exceeds the clip norm."""

    epoch: int
    train_nll: float
    dev_f1: float
    grad_norm_mean: float
    grad_norm_max: float
    steps: int
    clipped_steps: int
    tokens: int  # unpadded positions of the posts trained on


@dataclass
class AdamState:
    """Adam's learning rate, its first and second moments, ``m`` and ``v``,
    each laid out like the parameter vector (``ModelParams.vector``), and
    the steps taken."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def build_examples(
    posts: Sequence[LabeledPost], table: EmbeddingTable, max_len: int
) -> list[TrainExample]:
    """Tokenize, encode, and label every post for training/evaluation.

    Gold spans are checked against the whole post; only the labels of the
    encoded tokens are kept, so a post cut at ``max_len`` loses the rest."""
    examples = []
    for post in posts:
        encoded = encode_post(tokenize(post.text), table, max_len)
        labels = spans_to_labels(encoded.tokens, post.gold)[: encoded.effective_len]
        examples.append(TrainExample(post_id=post.id, encoded=encoded, labels=labels, gold=post.gold))
    return examples


def clip_gradients(grads: ModelParams, max_norm: float, arena: Arena) -> float:
    """Scale ``grads.vector`` in place so its global norm is <= max_norm.

    Returns the pre-clip global norm; a non-finite norm leaves the
    gradients as they are.  The vector is squared into one scratch array
    in ``arena``, and each tensor's squares are summed on their own, in
    the order of :func:`model.tensor_layout`: a pairwise sum over a
    tensor's slice has the bits of one over that tensor alone.
    """
    squares = arena.scratch(0, grads.vector.shape)
    np.multiply(grads.vector, grads.vector, out=squares)
    total = 0.0
    for _, at in tensor_layout(grads.embedding, grads.hidden_size, grads.finetuned).values():
        total += float(np.sum(squares[at]))
    norm = float(np.sqrt(total))
    if max_norm > 0 and max_norm < norm < math.inf:
        grads.vector *= max_norm / norm
    return norm


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, arena: Arena) -> None:
    """One in-place Adam update of the parameter vector ``params`` from the
    gradient vector ``grads``; clip the gradients first with
    :func:`clip_gradients`.  Its two scratch arrays live in ``arena``.  It
    runs over chunks of :data:`ADAM_CHUNK` elements, so the scratch stays
    in cache; the arithmetic is element-wise, so the chunks give the bits
    of one pass."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    scratch = [arena.scratch(slot, grads[:ADAM_CHUNK].shape) for slot in (0, 1)]
    for lo in range(0, len(grads), ADAM_CHUNK):
        p, g, m, v = (a[lo : lo + ADAM_CHUNK] for a in (params, grads, state.m, state.v))
        step, denom = (a[: len(g)] for a in scratch)
        # two scratch arrays instead of a temporary per operation; the
        # operations and their order are those of lr * (m / c1) /
        # (sqrt(v / c2) + eps) written out, so the result is bit for
        # bit the same
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        m += step
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=step)
        step *= g
        v += step
        np.divide(v, correct2, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPSILON
        np.divide(m, correct1, out=step)
        step *= state.learning_rate
        step /= denom
        p -= step


def dev_char_f1(
    examples: Sequence[TrainExample], params: ModelParams, policy: BridgePolicy, arena: Arena
) -> float:
    """Mean per-post character F1 of the current model on a split; the
    passes run in ``arena``."""
    if not examples:
        raise ValidationError("dev split is empty")
    spans = predict_spans(params, [ex.encoded for ex in examples], policy, arena)
    scores = [per_post_scores(pred, ex.gold).f1 for pred, ex in zip(spans, examples)]
    return float(np.mean(scores))


def train(
    examples: Sequence[TrainExample],
    cfg: TrainConfig,
    table: EmbeddingTable,
    policy: BridgePolicy | None = None,
    progress: Callable[[EpochStats], None] | None = None,
) -> tuple[ModelParams, list[EpochStats]]:
    """Train a fresh tagger, returning the best-dev parameters and history.

    Dev F1 decodes with ``BridgePolicy(max_gap=cfg.bridge_gap)``, the policy
    the checkpoint records; a ``policy`` other than that one is a
    :class:`ValidationError`.

    Zero-token examples are excluded from gradient batches (the CRF needs at
    least one position) but still count in the dev F1, where the model
    predicts the empty span set for them.

    Raises :class:`TrainingDivergedError`, naming the epoch and the batch,
    when a batch's loss, its LSTM states or its pre-clip gradient norm is
    non-finite; the parameters are not updated from that batch.
    """
    cfg.validate()
    if not examples:
        raise ValidationError("training data is empty")
    configured = BridgePolicy(max_gap=cfg.bridge_gap)
    if policy not in (None, configured):
        raise ValidationError(f"dev F1 decodes with bridge_gap {cfg.bridge_gap} from the config, not with {policy}")

    rng = np.random.default_rng(cfg.seed)
    params = init_params(table, cfg.hidden_size, rng, cfg.finetune_embeddings)

    n = len(examples)
    order = rng.permutation(n)
    if n == 1:
        dev_idx, train_idx = [0], [0]  # degenerate but defined
    else:
        dev_count = min(max(1, int(round(n * cfg.dev_fraction))), n - 1)
        dev_idx = sorted(int(i) for i in order[:dev_count])
        train_idx = sorted(int(i) for i in order[dev_count:])
    dev = [examples[i] for i in dev_idx]
    trainable = [i for i in train_idx if examples[i].encoded.effective_len > 0]
    if not trainable:
        raise ValidationError("no training example has at least one token")

    state = AdamState(cfg.learning_rate, np.zeros_like(params.vector), np.zeros_like(params.vector))
    # every step's large arrays, from the forward pass to Adam's scratch
    arena = Arena()

    history: list[EpochStats] = []
    best_f1 = -np.inf
    best_params = params.clone()
    epochs_without_improvement = 0

    for epoch in range(1, cfg.epochs + 1):
        shuffled = rng.permutation(len(trainable))
        nll_total = 0.0
        norms = []
        tokens = 0
        for lo in range(0, len(shuffled), cfg.batch_size):
            picked = sorted(trainable[k] for k in shuffled[lo : lo + cfg.batch_size])
            batch = [examples[i] for i in picked]
            where = f"in epoch {epoch} (batch starting at {lo})"
            try:
                batch_nll, grads = nll_and_gradients(
                    [ex.encoded for ex in batch], [ex.labels for ex in batch], params, arena
                )
            except NonFiniteError as exc:
                raise TrainingDivergedError(f"{exc} {where}") from None
            if not np.isfinite(batch_nll):
                raise TrainingDivergedError(f"non-finite loss {where}")
            grads.vector *= 1.0 / len(batch)
            # checked before the update, so the parameters stay finite; the
            # norm sums each tensor's squares on its own, in checkpoint order
            norm = clip_gradients(grads, cfg.gradient_clip_norm, arena)
            if not math.isfinite(norm):
                raise TrainingDivergedError(f"non-finite gradient norm {where}")
            adam_step(params.vector, grads.vector, state, arena)
            nll_total += batch_nll
            norms.append(norm)
            tokens += sum(ex.encoded.effective_len for ex in batch)

        stats = EpochStats(
            epoch=epoch,
            train_nll=nll_total / len(trainable),
            dev_f1=dev_char_f1(dev, params, configured, arena),
            grad_norm_mean=math.fsum(norms) / len(norms),
            grad_norm_max=max(norms),
            steps=len(norms),
            clipped_steps=sum(norm > cfg.gradient_clip_norm for norm in norms),
            tokens=tokens,
        )
        history.append(stats)
        if progress is not None:
            progress(stats)

        if stats.dev_f1 > best_f1:
            best_f1 = stats.dev_f1
            np.copyto(best_params.vector, params.vector)
            epochs_without_improvement = 0
        else:
            epochs_without_improvement += 1
            if epochs_without_improvement >= cfg.early_stop_patience:
                break

    return best_params, history
