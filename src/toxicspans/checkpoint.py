"""Self-describing model checkpoint: a JSON header naming every tensor in
declared order, followed by their raw little-endian float64 bytes.

The header records the dimensions, the training configuration, and a digest
of the embedding vocabulary; loading rejects any dimension or vocabulary
mismatch.  Writes are atomic (temp file + rename) and byte-deterministic,
so identical runs produce identical files.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from .crf import CrfParams
from .embeddings import EmbeddingTable
from .errors import DataFormatError, ValidationError
from .lstm import LstmDirectionParams
from .model import EmissionParams, ModelParams, NUM_LABELS
from .training import TrainConfig

MAGIC = b"TOXICSPANS-CKPT-1\n"
_DTYPE = "<f8"
_HEADER_KEYS = ("dtype", "dims", "train_config", "vocab_hash", "tensors")
_DIM_KEYS = ("input_dim", "hidden_size")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def serialize_checkpoint(
    params: ModelParams, cfg: TrainConfig, table: EmbeddingTable
) -> bytes:
    include_embedding = cfg.finetune_embeddings
    named = params.named_arrays(include_embedding=include_embedding)
    header = {
        "dtype": _DTYPE,
        "dims": {
            "input_dim": table.dim,
            "hidden_size": params.hidden_size,
            "num_labels": NUM_LABELS,
            "max_len": cfg.max_len,
        },
        "train_config": cfg.to_dict(),
        "vocab_hash": table.fingerprint(),
        "finetuned_embeddings": include_embedding,
        "tensors": [[name, list(arr.shape)] for name, arr in named],
    }
    blob = bytearray()
    blob += MAGIC
    blob += json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob += b"\n"
    for _, arr in named:
        blob += np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
    return bytes(blob)


def save_checkpoint(
    path: str | Path, params: ModelParams, cfg: TrainConfig, table: EmbeddingTable
) -> None:
    atomic_write_bytes(path, serialize_checkpoint(params, cfg, table))


def load_checkpoint(
    path: str | Path, table: EmbeddingTable
) -> tuple[ModelParams, TrainConfig]:
    """Rebuild parameters against ``table``; rejects hash/dim mismatches."""
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise DataFormatError(f"{path}: not a checkpoint file (bad magic)")
    newline = raw.find(b"\n", len(MAGIC))
    if newline < 0:
        raise DataFormatError(f"{path}: truncated checkpoint: header has no end")
    try:
        header = json.loads(raw[len(MAGIC) : newline].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{path}: corrupt checkpoint header: {exc}") from None
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise DataFormatError(f"{path}: checkpoint header lacks {missing}")
    dims = header["dims"]
    if not isinstance(dims, dict) or any(key not in dims for key in _DIM_KEYS):
        raise DataFormatError(f"{path}: checkpoint header dims must name {list(_DIM_KEYS)}")

    if header["dtype"] != _DTYPE:
        raise DataFormatError(f"{path}: unsupported tensor dtype {header['dtype']!r}")
    if dims["input_dim"] != table.dim:
        raise ValidationError(
            f"checkpoint input dim {dims['input_dim']} != embedding dim {table.dim}"
        )
    if header["vocab_hash"] != table.fingerprint():
        raise ValidationError(
            "checkpoint vocabulary hash does not match the supplied embedding table"
        )

    arrays: dict[str, np.ndarray] = {}
    offset = newline + 1
    for name, shape in header["tensors"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        chunk = raw[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise DataFormatError(f"{path}: truncated tensor data for {name}")
        arrays[name] = np.frombuffer(chunk, dtype=_DTYPE).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(f"{path}: {len(raw) - offset} trailing bytes")

    required = [
        "fwd.W_in", "fwd.W_rec", "fwd.b",
        "bwd.W_in", "bwd.W_rec", "bwd.b",
        "emit.W_out", "emit.b_out",
        "crf.trans", "crf.start", "crf.stop",
    ]
    missing = [name for name in required if name not in arrays]
    if missing:
        raise DataFormatError(f"{path}: checkpoint lacks tensors {missing}")

    hidden = dims["hidden_size"]
    if arrays["fwd.b"].shape != (4 * hidden,):
        raise ValidationError(
            f"checkpoint tensor shapes inconsistent with hidden size {hidden}"
        )

    embedding = table
    if header.get("finetuned_embeddings"):
        matrix = arrays.get("embedding.matrix")
        if matrix is None:
            raise DataFormatError(f"{path}: fine-tuned checkpoint lacks embedding matrix")
        embedding = table.with_matrix(matrix)

    params = ModelParams(
        fwd=LstmDirectionParams(arrays["fwd.W_in"], arrays["fwd.W_rec"], arrays["fwd.b"]),
        bwd=LstmDirectionParams(arrays["bwd.W_in"], arrays["bwd.W_rec"], arrays["bwd.b"]),
        emit=EmissionParams(arrays["emit.W_out"], arrays["emit.b_out"]),
        crf=CrfParams(arrays["crf.trans"], arrays["crf.start"], arrays["crf.stop"]),
        embedding=embedding,
    )
    cfg = TrainConfig.from_dict(header["train_config"])
    return params, cfg
