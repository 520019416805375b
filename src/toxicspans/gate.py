"""Post-level toxicity gate: empty the predicted span set when a classifier
deems the whole post non-toxic, pass it through otherwise.

Two gate kinds exist behind one interface: a dependency-free logistic
regression over mean-pooled embeddings (trained here), and an external score
file mapping post ids to probabilities so real classifier outputs can be
injected without this package knowing anything about the classifier.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .dataio import NO_SPANS, CharSpanSet, atomic_write_text, input_file, read_id_values, text_reader
from .embeddings import EmbeddingTable, EncodedPost, mean_pooled
from .errors import DataFormatError, ValidationError

KIND_INTERNAL = "internal-logreg"
KIND_EXTERNAL = "external-scores"
GATE_EPOCHS = 400  # full-batch gradient steps of the internal gate
GATE_THRESHOLD = 0.5  # a post that scores below it is called non-toxic


@dataclass
class GateModel:
    kind: str
    threshold: float = GATE_THRESHOLD
    weights: np.ndarray | None = None  # (dim + 1,), last entry is the bias
    scores: dict[int, float] | None = None
    vocab_hash: str | None = None  # an internal gate's table.fingerprint(); None in old files

    def __post_init__(self) -> None:
        check_gate_options(threshold=self.threshold)
        if self.kind not in (KIND_INTERNAL, KIND_EXTERNAL):
            raise ValidationError(f"unknown gate kind {self.kind!r}")


def check_gate_options(epochs: int = 1, threshold: float = GATE_THRESHOLD) -> None:
    """Reject fewer than one training epoch, or a threshold outside [0, 1]."""
    if epochs < 1:
        raise ValidationError(f"gate epochs must be >= 1, got {epochs}")
    if not 0.0 <= threshold <= 1.0:  # false for NaN too
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _fit_logreg(features: np.ndarray, targets: np.ndarray, epochs: int) -> np.ndarray:
    """Weights (bias last) after ``epochs`` steps of full-batch gradient
    descent on the mean logistic loss.

    The step size comes from a Lipschitz bound on the loss curvature
    (max squared row norm / 4), which guarantees the loss never increases.
    """
    n = features.shape[0]
    design = np.hstack([features, np.ones((n, 1))])
    weights = np.zeros(design.shape[1])
    lipschitz = float(np.max(np.sum(design * design, axis=1))) / 4.0
    step = 1.0 / max(lipschitz, 1e-12)
    for _ in range(epochs):
        grad = design.T @ (_sigmoid(design @ weights) - targets) / n
        weights = weights - step * grad
    return weights


def train_gate(
    data: Sequence[tuple[EncodedPost, bool]],
    table: EmbeddingTable,
    epochs: int = GATE_EPOCHS,
    threshold: float = GATE_THRESHOLD,
) -> GateModel:
    """Fit the internal logistic gate on mean-pooled embedding features."""
    check_gate_options(epochs, threshold)
    if not data:
        raise ValidationError("gate training data is empty")
    targets = np.array([1.0 if is_toxic else 0.0 for _, is_toxic in data])
    if targets.min() == targets.max():
        raise ValidationError("gate training data contains a single class only")
    features = np.stack([mean_pooled(post, table) for post, _ in data])
    weights = _fit_logreg(features, targets, epochs)
    return GateModel(kind=KIND_INTERNAL, threshold=threshold, weights=weights,
                     vocab_hash=table.fingerprint())


def gate_score(
    model: GateModel, post_id: int, pooled: np.ndarray | None = None
) -> float:
    """Probability that a post is toxic, per the gate's kind.

    An internal gate's is the sigmoid of its logit kept inside
    [1e-12, 1 - 1e-12], bit for bit ``np.clip`` of :func:`_sigmoid`, but
    with no ``np.errstate`` or ``np.clip`` call: below a logit of -700 the
    score is the floor and ``np.exp`` (which overflows only below -709.78)
    is not called; above it, ``min`` and ``max`` clip ``np.exp``'s sigmoid.
    """
    if model.kind == KIND_EXTERNAL:
        if model.scores is None or post_id not in model.scores:
            raise ValidationError(f"no external gate score for post id {post_id}")
        return model.scores[post_id]
    if pooled is None:
        raise ValidationError("internal gate needs the pooled embedding vector")
    if model.weights.shape != (pooled.shape[0] + 1,):
        raise ValidationError(
            f"gate has {model.weights.size} weights; a {pooled.shape[0]}-dim pooled "
            f"vector needs {pooled.shape[0] + 1}"
        )
    logit = float(model.weights[:-1] @ pooled + model.weights[-1])
    if logit < -700.0:
        return 1e-12
    return float(min(max(1.0 / (1.0 + np.exp(-logit)), 1e-12), 1.0 - 1e-12))


def apply_gate(detected: CharSpanSet, score: float, threshold: float) -> CharSpanSet:
    """Empty the span set when the gate calls the post non-toxic."""
    if score < threshold:
        return NO_SPANS
    return detected


def _probability(field: str) -> float:
    try:
        prob = float(field)
    except ValueError:
        raise DataFormatError(f"bad probability {field!r}") from None
    if not 0.0 <= prob <= 1.0:  # false for NaN too
        raise DataFormatError(f"probability {prob} outside [0, 1]")
    return prob


def read_score_file(source: IO) -> dict[int, float]:
    """Parse ``<id>\\t<probability>`` lines into an id -> probability map."""
    return dict(read_id_values(source, _probability))


def save_gate(model: GateModel, path: str | Path) -> None:
    """Serialize an internal gate to JSON (external gates live in score files)."""
    if model.kind != KIND_INTERNAL:
        raise ValidationError("only internal gates are saved as JSON models")
    payload = {
        "kind": model.kind,
        "threshold": model.threshold,
        "weights": [float(w) for w in model.weights],
        "vocab_hash": model.vocab_hash,
    }
    atomic_write_text(path, json.dumps(payload, sort_keys=True))


def _number(value) -> float:
    """A JSON number as a float; any other JSON value is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def load_gate(path: str | Path) -> GateModel:
    """Read a gate written by :func:`save_gate` from the gate model file that
    :func:`dataio.input_file` opens at ``path``; any malformed file raises
    :class:`DataFormatError`."""
    with input_file(path, "gate model") as handle:
        with text_reader(handle) as stream:
            text = stream.read()
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise TypeError(f"expected a JSON object, got {payload!r}")
            if not isinstance(payload["weights"], list):
                raise TypeError(f"weights must be a list, got {payload['weights']!r}")
            weights = np.array([_number(w) for w in payload["weights"]], dtype=np.float64)
            if not np.all(np.isfinite(weights)):
                raise ValueError("weights must be finite (json reads NaN and Infinity)")
            if payload["kind"] != KIND_INTERNAL:
                raise ValueError(f"kind must be {KIND_INTERNAL!r}, got {payload['kind']!r}")
            vocab_hash = payload.get("vocab_hash")
            if not isinstance(vocab_hash, (str, type(None))):
                raise TypeError(f"vocab_hash must be a string, got {vocab_hash!r}")
            return GateModel(kind=payload["kind"], threshold=_number(payload["threshold"]), weights=weights,
                             vocab_hash=vocab_hash)
        except (KeyError, TypeError, ValueError, OverflowError, ValidationError) as exc:
            raise DataFormatError(str(exc)) from None


def load_external_gate(source: IO, threshold: float = GATE_THRESHOLD) -> GateModel:
    """An external gate over the scores of a binary ``<id>\\t<probability>`` stream."""
    return GateModel(kind=KIND_EXTERNAL, threshold=threshold, scores=read_score_file(source))
