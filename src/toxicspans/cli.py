"""Command-line entry point: stats, train, gate-train, predict, evaluate,
analyze.

Option resolution is CLI flag > config file > built-in default, and every
command checks its options before it reads any input file.  Every command
that writes an output also writes a ``<output>.manifest.json`` recording
the resolved configuration, input digests, and wall-clock time.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import io
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import categorize_errors, span_word_histogram
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (
    atomic_write_bytes,
    atomic_write_text,
    parse_dataset,
    read_predictions,
    text_reader,
    write_predictions,
    PostPrediction,
)
from .embeddings import check_max_len, encode_post, load_embeddings
from .errors import DataFormatError, ToxicSpansError, ValidationError
from .gate import (
    GateModel,
    check_gate_options,
    load_external_gate,
    load_gate,
    save_gate,
    train_gate,
)
from .metric import evaluate
from .model import tag_posts
from .span_codec import BridgePolicy
from .tokenizer import tokenize
from .training import TrainConfig, build_examples, train

# CLI key -> TrainConfig field; the CLI's training defaults are the field defaults.
TRAIN_FIELDS = {
    "max_len": "max_len",
    "hidden": "hidden_size",
    "epochs": "epochs",
    "batch": "batch_size",
    "lr": "learning_rate",
    "seed": "seed",
    "dev_fraction": "dev_fraction",
    "patience": "early_stop_patience",
    "clip": "gradient_clip_norm",
    "bridge_gap": "bridge_gap",
}

# A config-file value is parsed with the type of its key's default.
DEFAULTS = {
    **{key: getattr(TrainConfig, field) for key, field in TRAIN_FIELDS.items()},
    "gate": "off",
    "gate_threshold": GateModel.threshold,
    "embedding_dim": 25,
    "samples": 3,
    "gate_epochs": inspect.signature(train_gate).parameters["epochs"].default,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toxicspans",
        description="Toxic span detection: train, predict, and evaluate.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def option(p: argparse.ArgumentParser, key: str, help: str | None = None) -> None:
        """A ``--key`` flag typed like its default; an unset flag stays None."""
        p.add_argument("--" + key.replace("_", "-"), type=type(DEFAULTS[key]), help=help)

    def add_common(p: argparse.ArgumentParser, *names: str) -> None:
        p.add_argument("--config", help="flat key=value config file")
        if "data" in names:
            p.add_argument("--data", required=True, help="dataset CSV")
        if "embeddings" in names:
            p.add_argument("--embeddings", required=True, help="word-vector text file")
            option(p, "embedding_dim",
                   f"vector dimensionality (default {DEFAULTS['embedding_dim']})")
        if "lenient" in names:
            p.add_argument("--lenient", action="store_true",
                           help="drop out-of-range gold indexes with a warning")

    p = sub.add_parser("stats", help="span-length histogram of a labeled dataset")
    add_common(p, "data", "lenient")
    p.add_argument("--out", help="also write the histogram as CSV")
    option(p, "max_len",
           f"report posts longer than this many tokens (default {DEFAULTS['max_len']})")

    p = sub.add_parser("train", help="train the tagger")
    add_common(p, "data", "embeddings", "lenient")
    p.add_argument("--out", required=True, help="checkpoint output path")
    for key in TRAIN_FIELDS:
        option(p, key)
    p.add_argument("--finetune-embeddings", action="store_true")

    p = sub.add_parser("gate-train", help="train the internal post-level gate")
    add_common(p, "data", "embeddings", "lenient")
    p.add_argument("--out", required=True, help="gate model output path (JSON)")
    for key in ("max_len", "gate_threshold", "gate_epochs"):
        option(p, key)

    p = sub.add_parser("predict", help="predict spans with a trained checkpoint")
    add_common(p, "data", "embeddings")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="prediction file output path")
    option(p, "max_len", "override the checkpoint's max length")
    option(p, "gate", "off, internal, or scores:<path>")
    p.add_argument("--gate-model", help="gate JSON from gate-train (internal gate)")
    option(p, "gate_threshold")
    option(p, "bridge_gap", "override the checkpoint's bridge gap")

    p = sub.add_parser("evaluate", help="score a prediction file against gold")
    add_common(p, "data", "lenient")
    p.add_argument("--pred", required=True, help="prediction file")
    p.add_argument("--out", help="write the per-post TSV here instead of stdout")

    p = sub.add_parser("analyze", help="bucket prediction errors by category")
    add_common(p, "data", "lenient")
    p.add_argument("--pred", required=True, help="prediction file")
    option(p, "samples", "sample posts shown per bucket")

    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path, "rb") as handle, text_reader(handle) as stream:
        lines = stream.read().splitlines()
    for line_no, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in DEFAULTS:
            raise ValidationError(f"{path}:{line_no}: unknown option {key!r}")
        try:
            values[key] = type(DEFAULTS[key])(raw.strip())
        except ValueError:
            raise ValidationError(f"{path}:{line_no}: bad value for {key!r}") from None
    return values


def _resolve(args: argparse.Namespace, key: str, default=None):
    """CLI flag beats config file beats ``default`` (None: the built-in one)."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in getattr(args, "_config_values", {}):
        return args._config_values[key]
    return DEFAULTS[key] if default is None else default


def _require_file(path: str, role: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValidationError(f"{role} file not found: {path}")
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    out_path: str,
    command: str,
    config: dict,
    inputs: dict[str, str],
    outputs: list[str],
    started: float,
) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": {
            role: {"path": str(path), "sha256": _sha256(Path(path))}
            for role, path in inputs.items()
        },
        "outputs": outputs,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    atomic_write_text(
        str(out_path) + ".manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
    )


def _load_table(args: argparse.Namespace):
    path = _require_file(args.embeddings, "embedding")
    dim = _resolve(args, "embedding_dim")
    with open(path, "rb") as handle:
        return load_embeddings(handle, expected_dim=dim)


def _load_posts(args: argparse.Namespace, has_gold: bool):
    path = _require_file(args.data, "dataset")
    with open(path, "rb") as handle:
        return parse_dataset(
            handle, has_gold=has_gold, lenient=getattr(args, "lenient", False)
        )


def cmd_stats(args: argparse.Namespace) -> int:
    started = time.time()
    max_len = _resolve(args, "max_len")
    check_max_len(max_len)
    posts = _load_posts(args, has_gold=True)
    hist = span_word_histogram(posts)
    print(f"{'words':>6}  {'posts':>7}  {'percent':>8}")
    for words, count in hist.counts.items():
        print(f"{words:>6}  {count:>7}  {hist.percentages[words]:>7.2f}%")
    print(f"total posts: {len(posts)}")
    over = sum(1 for post in posts if len(tokenize(post.text)) > max_len)
    print(f"posts longer than {max_len} tokens: {over}")
    if args.out:
        lines = ["words,posts,percent"]
        lines += [
            f"{w},{c},{hist.percentages[w]:.4f}" for w, c in hist.counts.items()
        ]
        atomic_write_text(args.out, "\n".join(lines) + "\n")
        _write_manifest(args.out, "stats", {"lenient": args.lenient},
                        {"data": args.data}, [args.out], started)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = time.time()
    cfg = TrainConfig(
        **{field: _resolve(args, key) for key, field in TRAIN_FIELDS.items()},
        finetune_embeddings=args.finetune_embeddings,
    )
    cfg.validate()
    table = _load_table(args)
    posts = _load_posts(args, has_gold=True)
    examples = build_examples(posts, table, cfg.max_len)

    def report(stats):
        print(
            f"epoch {stats.epoch:3d}  train_nll {stats.train_nll:10.6f}  "
            f"dev_f1 {stats.dev_f1:.4f}  grad_norm mean {stats.grad_norm_mean:.4g} "
            f"max {stats.grad_norm_max:.4g}  clipped {stats.clipped_steps}/{stats.steps}",
            file=sys.stderr,
        )

    params, history = train(examples, cfg, table, progress=report)
    save_checkpoint(args.out, params, cfg, table)
    history_path = str(args.out) + ".history.json"
    atomic_write_text(
        history_path,
        json.dumps(
            {"epochs": [asdict(h) for h in history]},
            indent=2,
            sort_keys=True,
        ),
    )
    best = max(history, key=lambda h: h.dev_f1)
    print(f"best dev_f1 {best.dev_f1:.4f} at epoch {best.epoch}; checkpoint: {args.out}")
    _write_manifest(
        args.out,
        "train",
        {**cfg.to_dict(), "lenient": args.lenient},
        {"data": args.data, "embeddings": args.embeddings},
        [str(args.out), history_path],
        started,
    )
    return 0


def cmd_gate_train(args: argparse.Namespace) -> int:
    started = time.time()
    max_len, epochs, threshold = (_resolve(args, key) for key in ("max_len", "gate_epochs", "gate_threshold"))
    check_max_len(max_len)
    check_gate_options(epochs, threshold)
    table = _load_table(args)
    posts = _load_posts(args, has_gold=True)
    data = [
        (encode_post(tokenize(post.text), table, max_len), bool(post.gold))
        for post in posts
    ]
    model = train_gate(data, table, epochs=epochs, threshold=threshold)
    save_gate(model, args.out)
    print(f"gate model written to {args.out}")
    _write_manifest(
        args.out,
        "gate-train",
        {"max_len": max_len, "gate_threshold": model.threshold,
         "gate_epochs": epochs, "lenient": args.lenient},
        {"data": args.data, "embeddings": args.embeddings},
        [str(args.out)],
        started,
    )
    return 0


def _check_gate_args(args: argparse.Namespace) -> None:
    """Reject a bad ``--gate`` mode or threshold, or ``--gate internal`` without a model."""
    mode = _resolve(args, "gate")
    if mode not in ("off", "internal") and not mode.startswith("scores:"):
        raise ValidationError(f"--gate must be off, internal, or scores:<path>, got {mode!r}")
    if mode == "internal" and not args.gate_model:
        raise ValidationError("--gate internal requires --gate-model <path>")
    check_gate_options(threshold=_resolve(args, "gate_threshold"))


def _load_gate(args: argparse.Namespace, table) -> tuple[GateModel | None, dict[str, str]]:
    """The gate that ``--gate`` names, and the manifest ``inputs`` entry of
    the file it was read from (none when the gate is off)."""
    mode = _resolve(args, "gate")
    if mode == "off":
        return None, {}
    if mode == "internal":
        model = load_gate(_require_file(args.gate_model, "gate model"))
        if model.vocab_hash not in (None, vocab_hash := table.fingerprint()):
            raise ValidationError(
                f"gate model {args.gate_model} was trained on another embedding table: vocab_hash "
                f"{model.vocab_hash} != {vocab_hash} of {args.embeddings} (dim {table.dim})"
            )
        if model.vocab_hash is None:
            print(f"warning: gate model {args.gate_model} records no embedding table, "
                  f"so it was not checked against {args.embeddings}", file=sys.stderr)
        # an explicit threshold (flag or config file) overrides the stored one
        threshold = _resolve(args, "gate_threshold", default=model.threshold)
        return replace(model, threshold=threshold), {"gate_model": args.gate_model}
    path = mode.removeprefix("scores:")
    gate = load_external_gate(_require_file(path, "gate score"), _resolve(args, "gate_threshold"))
    return gate, {"gate_scores": path}


def cmd_predict(args: argparse.Namespace) -> int:
    started = time.time()
    # flag and config values before any file; a value the checkpoint
    # supplies passed TrainConfig.validate when the checkpoint was loaded
    check_max_len(_resolve(args, "max_len"))
    BridgePolicy(max_gap=_resolve(args, "bridge_gap"))
    _check_gate_args(args)
    table = _load_table(args)
    ckpt_path = _require_file(args.checkpoint, "checkpoint")
    params, cfg = load_checkpoint(ckpt_path, table)
    max_len = _resolve(args, "max_len", default=cfg.max_len)
    # a flag or config value beats the gap the checkpoint was chosen with
    bridge_gap = _resolve(args, "bridge_gap", default=cfg.bridge_gap)
    policy = BridgePolicy(bridge_gaps=True, max_gap=bridge_gap)
    gate, gate_input = _load_gate(args, table)
    posts = _load_posts(args, has_gold=False)
    spans = tag_posts(params, table, posts, max_len, policy, gate)
    preds = [PostPrediction(id=post.id, spans=found) for post, found in zip(posts, spans)]
    buffer = io.BytesIO()
    write_predictions(preds, buffer)
    atomic_write_bytes(args.out, buffer.getvalue())
    print(f"{len(preds)} predictions written to {args.out}")
    inputs = {"data": args.data, "embeddings": args.embeddings,
              "checkpoint": args.checkpoint, **gate_input}
    _write_manifest(
        args.out,
        "predict",
        {"max_len": max_len, "gate": _resolve(args, "gate"),
         "gate_threshold": None if gate is None else gate.threshold,
         "bridge_gap": policy.max_gap},
        inputs,
        [str(args.out)],
        started,
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    started = time.time()
    golds = _load_posts(args, has_gold=True)
    with open(_require_file(args.pred, "prediction"), "rb") as handle:
        preds = read_predictions(handle)
    report = evaluate(preds, golds)
    lines = ["id\tprecision\trecall\tf1"]
    for pred, score in zip(preds, report.per_post):
        lines.append(
            f"{pred.id}\t{score.precision:.4f}\t{score.recall:.4f}\t{score.f1:.4f}"
        )
    lines.append(f"mean_f1\t{report.mean_f1:.4f}")
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write_text(args.out, text)
        print(f"mean_f1\t{report.mean_f1:.4f}")
        _write_manifest(args.out, "evaluate", {"lenient": args.lenient},
                        {"data": args.data, "pred": args.pred}, [args.out], started)
    else:
        sys.stdout.write(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    n_samples = _resolve(args, "samples")
    if n_samples < 0:
        raise ValidationError(f"samples must be >= 0, got {n_samples}")
    golds = _load_posts(args, has_gold=True)
    with open(_require_file(args.pred, "prediction"), "rb") as handle:
        preds = read_predictions(handle)
    buckets = categorize_errors(preds, golds)
    by_id = {post.id: post for post in golds}
    total = sum(len(b.post_ids) for b in buckets)
    for bucket in buckets:
        share = 100.0 * len(bucket.post_ids) / total if total else 0.0
        print(f"{bucket.category:>17}: {len(bucket.post_ids):>6} posts ({share:.2f}%)")
        for post_id in bucket.post_ids[:n_samples]:
            text = by_id[post_id].text.replace("\n", " ")
            snippet = text[:60] + ("..." if len(text) > 60 else "")
            print(f"{'':>19}#{post_id}: {snippet}")
    return 0


_COMMANDS = {
    "stats": cmd_stats,
    "train": cmd_train,
    "gate-train": cmd_gate_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    error = None
    # numpy logs each floating-point error here as one "Warning: overflow
    # encountered in exp" line, so a diverging run prints one summary line
    # instead of a RuntimeWarning and a source echo per code line.
    log = io.StringIO()
    with np.errstate(divide="log", over="log", invalid="log", call=log):
        try:
            args._config_values = _read_config_file(args.config) if args.config else {}
            code = _COMMANDS[args.command](args)
        except (DataFormatError, ValidationError, FileNotFoundError) as exc:
            code, error = 2, exc
        except (ToxicSpansError, OSError, MemoryError) as exc:
            code, error = 1, exc
    if floating := log.getvalue().splitlines():
        first = floating[0].removeprefix("Warning: ")
        print(
            f"warning: {len(floating)} numpy floating-point warnings, the first: {first}",
            file=sys.stderr,
        )
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
