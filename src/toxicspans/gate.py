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

from .dataio import CharSpanSet, text_reader, text_writer
from .embeddings import EmbeddingTable, EncodedPost, mean_pooled
from .errors import DataFormatError, ValidationError

KIND_INTERNAL = "internal-logreg"
KIND_EXTERNAL = "external-scores"


@dataclass
class GateModel:
    kind: str
    threshold: float = 0.5
    weights: np.ndarray | None = None  # (dim + 1,), last entry is the bias
    scores: dict[int, float] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.kind not in (KIND_INTERNAL, KIND_EXTERNAL):
            raise ValidationError(f"unknown gate kind {self.kind!r}")


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _fit_logreg(
    features: np.ndarray, targets: np.ndarray, epochs: int
) -> tuple[np.ndarray, list[float]]:
    """Full-batch gradient descent on the mean logistic loss.

    The step size comes from a Lipschitz bound on the loss curvature
    (max squared row norm / 4), which guarantees the loss never increases.
    """
    n = features.shape[0]
    design = np.hstack([features, np.ones((n, 1))])
    weights = np.zeros(design.shape[1])
    lipschitz = float(np.max(np.sum(design * design, axis=1))) / 4.0
    step = 1.0 / max(lipschitz, 1e-12)
    losses = []
    for _ in range(epochs):
        logits = design @ weights
        probs = _sigmoid(logits)
        # log(1 + exp(-|z|)) form keeps the loss finite for saturated logits
        losses.append(
            float(
                np.mean(
                    np.log1p(np.exp(-np.abs(logits)))
                    + np.maximum(logits, 0.0)
                    - targets * logits
                )
            )
        )
        grad = design.T @ (probs - targets) / n
        weights = weights - step * grad
    return weights, losses


def train_gate(
    data: Sequence[tuple[EncodedPost, bool]],
    table: EmbeddingTable,
    epochs: int = 400,
    threshold: float = 0.5,
) -> GateModel:
    """Fit the internal logistic gate on mean-pooled embedding features."""
    if not data:
        raise ValidationError("gate training data is empty")
    targets = np.array([1.0 if is_toxic else 0.0 for _, is_toxic in data])
    if targets.min() == targets.max():
        raise ValidationError("gate training data contains a single class only")
    features = np.stack([mean_pooled(post, table) for post, _ in data])
    weights, _ = _fit_logreg(features, targets, epochs)
    return GateModel(kind=KIND_INTERNAL, threshold=threshold, weights=weights)


def gate_score(
    model: GateModel, post_id: int, pooled: np.ndarray | None = None
) -> float:
    """Probability that a post is toxic, per the gate's kind."""
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
    # keep the score strictly inside (0, 1) even when the sigmoid saturates
    return float(np.clip(_sigmoid(np.float64(logit)), 1e-12, 1.0 - 1e-12))


def apply_gate(detected: CharSpanSet, score: float, threshold: float) -> CharSpanSet:
    """Empty the span set when the gate calls the post non-toxic."""
    if score < threshold:
        return CharSpanSet()
    return detected


def read_score_file(source: IO) -> dict[int, float]:
    """Parse ``<id>\\t<probability>`` lines into an id -> probability map."""
    scores: dict[int, float] = {}
    with text_reader(source) as stream:
        lines = stream.readlines()
    for line_no, line in enumerate(lines, start=1):
        line = line.rstrip("\r\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataFormatError(f"line {line_no}: expected '<id>\\t<probability>'")
        try:
            post_id = int(parts[0])
            prob = float(parts[1])
        except ValueError:
            raise DataFormatError(f"line {line_no}: bad id or probability") from None
        if not 0.0 <= prob <= 1.0:
            raise DataFormatError(f"line {line_no}: probability {prob} outside [0, 1]")
        scores[post_id] = prob
    return scores


def write_score_file(scores: dict[int, float], sink: IO) -> None:
    with text_writer(sink) as out:
        for post_id in sorted(scores):
            out.write(f"{post_id}\t{scores[post_id]}\n")


def save_gate(model: GateModel, path: str | Path) -> None:
    """Serialize an internal gate to JSON (external gates live in score files)."""
    if model.kind != KIND_INTERNAL:
        raise ValidationError("only internal gates are saved as JSON models")
    payload = {
        "kind": model.kind,
        "threshold": model.threshold,
        "weights": [float(w) for w in model.weights],
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def load_gate(path: str | Path) -> GateModel:
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return GateModel(
            kind=payload["kind"],
            threshold=float(payload["threshold"]),
            weights=np.asarray(payload["weights"], dtype=np.float64),
        )
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"bad gate model file {path}: {exc}") from None


def load_external_gate(path: str | Path, threshold: float = 0.5) -> GateModel:
    with open(path, "rb") as handle:
        scores = read_score_file(handle)
    return GateModel(kind=KIND_EXTERNAL, threshold=threshold, scores=scores)
