"""Self-describing model checkpoint: a JSON header naming every tensor in
declared order, followed by their raw little-endian float64 bytes.

The body is ``ModelParams.vector``: the tensors, then the embedding matrix
if it was fine-tuned.  The header records the dimensions, the training
configuration, a digest of the embedding vocabulary, and the tensor list of
:func:`model.tensor_layout`; loading rejects any dimension or vocabulary
mismatch.  Writes are byte-deterministic, so identical runs produce
identical files, and atomic (:func:`dataio.atomic_write_bytes`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .crf import NUM_LABELS
from .dataio import atomic_write_bytes, input_file
from .embeddings import EmbeddingTable
from .errors import DataFormatError, ValidationError
from .model import Layout, ModelParams, params_from_vector, tensor_layout
from .training import TrainConfig

MAGIC = b"TOXICSPANS-CKPT-1\n"
_DTYPE = "<f8"
_HEADER_KEYS = ("dtype", "dims", "train_config", "vocab_hash", "tensors")
_DIM_KEYS = ("input_dim", "hidden_size")


def _body_layout(table: EmbeddingTable, cfg: TrainConfig) -> tuple[Layout, list[list]]:
    """The body's layout for a model of ``cfg`` on ``table``, and the
    header's ``tensors`` list of its names and shapes."""
    layout = tensor_layout(table, cfg.hidden_size, cfg.finetune_embeddings)
    return layout, [[name, list(shape)] for name, (shape, _) in layout.items()]


def serialize_checkpoint(
    params: ModelParams, cfg: TrainConfig, table: EmbeddingTable
) -> bytes:
    """The checkpoint's bytes: a header from ``table`` and ``cfg``, and a
    body from ``params``.  A :class:`ValidationError` naming both values
    refuses parameters whose embedding dimension or vocabulary differs
    from ``table``'s, or hidden size or tuning from ``cfg``'s, which
    :func:`load_checkpoint` would reject, and a :class:`ValidationError`
    refuses an embedding matrix that the body would not hold: one that is
    neither ``table.matrix`` nor the tail of ``params.vector``."""
    tuned = cfg.finetune_embeddings
    layout, tensors = _body_layout(table, cfg)
    vocab_hash = table.fingerprint()
    for name, found, source, want in (
        ("embedding dimension", params.embedding.dim, "table", table.dim),
        ("vocabulary hash", params.embedding.fingerprint(), "table", vocab_hash),
        ("hidden size", params.hidden_size, "config", cfg.hidden_size),
        # a tuned model trains a private copy of the table's matrix
        ("finetuned embeddings", params.embedding.matrix is not table.matrix, "config", tuned),
        ("parameter count", params.vector.size, "config", list(layout.values())[-1][1].stop),
    ):
        if found != want:
            raise ValidationError(
                f"cannot save a checkpoint: the parameters' {name} is {found}, but the {source}'s is {want}"
            )
    if tuned and not np.shares_memory(params.embedding.matrix, params.vector):
        raise ValidationError("cannot save a checkpoint: the parameters' embedding matrix is not their vector's tail")
    header = {
        "dtype": _DTYPE,
        "dims": {
            "input_dim": table.dim,
            "hidden_size": cfg.hidden_size,
            "num_labels": NUM_LABELS,
            "max_len": cfg.max_len,
        },
        "train_config": cfg.to_dict(),
        "vocab_hash": vocab_hash,
        "finetuned_embeddings": tuned,
        "tensors": tensors,
    }
    blob = bytearray()
    blob += MAGIC
    blob += json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b"\n"
    blob += np.ascontiguousarray(params.vector, dtype=_DTYPE).tobytes()
    return bytes(blob)


def save_checkpoint(
    path: str | Path, params: ModelParams, cfg: TrainConfig, table: EmbeddingTable
) -> None:
    atomic_write_bytes(path, serialize_checkpoint(params, cfg, table))


def load_checkpoint(
    path: str | Path, table: EmbeddingTable
) -> tuple[ModelParams, TrainConfig]:
    """Rebuild parameters against ``table`` from the checkpoint file that
    :func:`dataio.input_file` opens at ``path``; rejects hash/dim mismatches.

    A malformed header (dims, train_config, a dimension or fine-tuning flag
    that disagrees with train_config, or a tensor list that disagrees with
    :func:`model.tensor_layout`) or a tensor holding NaN or infinity raises
    :class:`DataFormatError`.
    """
    with input_file(path, "checkpoint") as handle:
        raw = handle.read()
        if not raw.startswith(MAGIC):
            raise DataFormatError("bad magic")
        newline = raw.find(b"\n", len(MAGIC))
        if newline < 0:
            raise DataFormatError("truncated: the header has no end")
        try:
            header = json.loads(raw[len(MAGIC) : newline].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"corrupt header: {exc}") from None
        if not isinstance(header, dict):
            raise DataFormatError("header is not a JSON object")
        missing = [key for key in _HEADER_KEYS if key not in header]
        if missing:
            raise DataFormatError(f"header lacks {missing}")
        dims = header["dims"]
        if not isinstance(dims, dict) or not all(
            type(dims.get(key)) is int and dims[key] >= 1 for key in _DIM_KEYS
        ):
            raise DataFormatError(f"header dims must give {list(_DIM_KEYS)} as positive integers")
        try:
            cfg = TrainConfig.from_dict(header["train_config"])
        except ValidationError as exc:
            raise DataFormatError(f"train_config: {exc}") from None
        # the header states these twice; a file whose copies disagree was edited
        for name, found, source, want in (
            ("dims.hidden_size", dims["hidden_size"], "train_config.hidden_size", cfg.hidden_size),
            ("dims.max_len", dims.get("max_len"), "train_config.max_len", cfg.max_len),
            ("dims.num_labels", dims.get("num_labels"), "the tagger's label count", NUM_LABELS),
            ("finetuned_embeddings", header.get("finetuned_embeddings"), "train_config.finetune_embeddings",
             cfg.finetune_embeddings),
        ):
            if type(found) is not type(want) or found != want:
                raise DataFormatError(f"{name} is {found!r}, but {source} is {want!r}")

        if header["dtype"] != _DTYPE:
            raise DataFormatError(f"unsupported tensor dtype {header['dtype']!r}")
        if dims["input_dim"] != table.dim:
            raise ValidationError(
                f"checkpoint input dim {dims['input_dim']} != embedding dim {table.dim}"
            )
        if header["vocab_hash"] != table.fingerprint():
            raise ValidationError(
                "checkpoint vocabulary hash does not match the supplied embedding table"
            )

        layout, expected = _body_layout(table, cfg)
        if header["tensors"] != expected:
            raise DataFormatError(f"tensor list does not match its dims; expected {expected}")

        # the tensor that holds each body element e is the first whose end > e
        names, ends = list(layout), [at.stop for _, at in layout.values()]
        stored = len(raw) - newline - 1
        if stored < 8 * ends[-1]:
            name = names[np.searchsorted(ends, stored // 8, "right")]
            raise DataFormatError(f"truncated tensor data for {name}")
        if stored > 8 * ends[-1]:
            raise DataFormatError(f"{stored - 8 * ends[-1]} trailing bytes")
        body = np.frombuffer(raw, dtype=_DTYPE, offset=newline + 1).copy()
        finite = np.isfinite(body)
        if not finite.all():
            name = names[np.searchsorted(ends, finite.argmin(), "right")]
            raise DataFormatError(f"tensor {name} holds NaN or infinite values")
        return params_from_vector(body, cfg.hidden_size, table), cfg
