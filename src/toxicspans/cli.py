"""Command-line entry point: stats, train, gate-train, predict, evaluate,
analyze.

``main`` frames every command.  It merges the ``--config`` file into the
parsed flags once (CLI flag > config file > built-in default), and when a
command returns what it wrote, it writes ``<output>.manifest.json`` with
the resolved configuration, input digests and wall-clock time.  Every
command checks its options before it reads any input file, and rejects an
``--out`` that names one of them or a directory, or whose manifest or
history would.
Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .analysis import categorize_errors, span_word_histogram
from .checkpoint import load_checkpoint, save_checkpoint
from .dataio import (
    atomic_write_bytes,
    atomic_write_text,
    input_file,
    parse_dataset,
    read_predictions,
    text_reader,
    write_predictions,
    PostPrediction,
)
from .embeddings import check_max_len, encode_post, load_embeddings
from .errors import DataFormatError, ToxicSpansError, ValidationError
from .gate import (
    GATE_EPOCHS,
    GATE_THRESHOLD,
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
    "gate_threshold": GATE_THRESHOLD,
    "embedding_dim": 25,
    "samples": 3,
    "gate_epochs": GATE_EPOCHS,
}

# The side files next to ``--out``: every command's manifest, and train's
# epoch history.
MANIFEST_SUFFIX = ".manifest.json"
HISTORY_SUFFIX = ".history.json"

# What a command wrote, for its manifest: its resolved configuration, the
# path of each input file by role, and the files it wrote.
_Written = tuple[dict, dict[str, str], list[str]]


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
    with input_file(path, "config") as handle:
        with text_reader(handle) as stream:
            lines = stream.read().splitlines()
        for line_no, line in enumerate(lines, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DataFormatError(f"line {line_no}: expected 'key = value'")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in DEFAULTS:
                raise DataFormatError(f"line {line_no}: unknown option {key!r}")
            try:
                values[key] = type(DEFAULTS[key])(raw.strip())
            except ValueError:
                raise DataFormatError(f"line {line_no}: bad value for {key!r}") from None
    return values


def _resolve(args: argparse.Namespace, key: str, default=None):
    """The flag or config file value, else ``default`` (None: the built-in one)."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return DEFAULTS[key] if default is None else default


def _inputs(args: argparse.Namespace, **gate_file: str) -> dict[str, str]:
    """The path of each file the command reads, by role, for its manifest;
    an ``--out`` that names a directory, one of those files or the config
    file, or whose side files (its manifest, and train's history) do, is an
    error."""
    inputs = {role: path for role in ("data", "embeddings", "checkpoint", "pred")
              if (path := getattr(args, role, None)) is not None} | gate_file
    read = {os.path.abspath(path) for path in [*inputs.values(), args.config] if path}
    if not args.out:
        return inputs
    if os.path.abspath(args.out) in read:
        raise ValidationError(f"--out {args.out} is an input file of {args.command}")
    if os.path.isdir(args.out):
        raise ValidationError(f"--out {args.out} is a directory")
    for suffix in (MANIFEST_SUFFIX, HISTORY_SUFFIX) if args.command == "train" else (MANIFEST_SUFFIX,):
        if os.path.abspath(side := args.out + suffix) in read:
            raise ValidationError(f"--out {args.out} would overwrite {side}, an input file of {args.command}")
        if os.path.isdir(side):
            raise ValidationError(f"--out {args.out} would overwrite {side}, a directory")
    return inputs


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(args: argparse.Namespace, written: _Written, started: float) -> None:
    config, inputs, outputs = written
    manifest = {
        "command": args.command,
        "config": config,
        "seed": config.get("seed"),
        "inputs": {
            role: {"path": str(path), "sha256": _sha256(path)}
            for role, path in inputs.items()
        },
        "outputs": outputs,
        "wall_clock_seconds": round(time.time() - started, 3),
    }
    atomic_write_text(args.out + MANIFEST_SUFFIX, json.dumps(manifest, indent=2, sort_keys=True))


def _load_table(args: argparse.Namespace):
    with input_file(args.embeddings, "embedding") as handle:
        return load_embeddings(handle, expected_dim=_resolve(args, "embedding_dim"))


def _load_posts(args: argparse.Namespace, has_gold: bool):
    with input_file(args.data, "dataset") as handle:
        return parse_dataset(handle, has_gold=has_gold, lenient=getattr(args, "lenient", False))


def _load_scored(args: argparse.Namespace):
    """The gold posts of ``--data``, then the predictions of ``--pred``."""
    golds = _load_posts(args, has_gold=True)
    with input_file(args.pred, "prediction") as handle:
        return golds, read_predictions(handle)


def cmd_stats(args: argparse.Namespace) -> _Written | None:
    max_len = _resolve(args, "max_len")
    check_max_len(max_len)
    inputs = _inputs(args)
    posts = _load_posts(args, has_gold=True)
    hist = span_word_histogram(posts)
    print(f"{'words':>6}  {'posts':>7}  {'percent':>8}")
    for words, count in hist.counts.items():
        print(f"{words:>6}  {count:>7}  {hist.percentages[words]:>7.2f}%")
    print(f"total posts: {len(posts)}")
    over = sum(1 for post in posts if len(tokenize(post.text)) > max_len)
    print(f"posts longer than {max_len} tokens: {over}")
    if not args.out:
        return None
    lines = ["words,posts,percent"]
    lines += [
        f"{w},{c},{hist.percentages[w]:.4f}" for w, c in hist.counts.items()
    ]
    atomic_write_text(args.out, "\n".join(lines) + "\n")
    return {"lenient": args.lenient}, inputs, [args.out]


def cmd_train(args: argparse.Namespace) -> _Written:
    cfg = TrainConfig(
        **{field: _resolve(args, key) for key, field in TRAIN_FIELDS.items()},
        finetune_embeddings=args.finetune_embeddings,
    )
    cfg.validate()
    inputs = _inputs(args)
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
    history_path = args.out + HISTORY_SUFFIX
    atomic_write_text(history_path, json.dumps({"epochs": [asdict(h) for h in history]}, indent=2, sort_keys=True))
    best = max(history, key=lambda h: h.dev_f1)
    print(f"best dev_f1 {best.dev_f1:.4f} at epoch {best.epoch}; checkpoint: {args.out}")
    return {**cfg.to_dict(), "lenient": args.lenient}, inputs, [args.out, history_path]


def cmd_gate_train(args: argparse.Namespace) -> _Written:
    max_len, epochs, threshold = (_resolve(args, key) for key in ("max_len", "gate_epochs", "gate_threshold"))
    check_max_len(max_len)
    check_gate_options(epochs, threshold)
    inputs = _inputs(args)
    table = _load_table(args)
    posts = _load_posts(args, has_gold=True)
    data = [
        (encode_post(tokenize(post.text), table, max_len), bool(post.gold))
        for post in posts
    ]
    model = train_gate(data, table, epochs=epochs, threshold=threshold)
    save_gate(model, args.out)
    print(f"gate model written to {args.out}")
    config = {"max_len": max_len, "gate_threshold": model.threshold,
              "gate_epochs": epochs, "lenient": args.lenient}
    return config, inputs, [args.out]


def _check_gate_args(args: argparse.Namespace) -> dict[str, str]:
    """The file that ``--gate`` reads, as its manifest ``inputs`` entry (none
    when the gate is off).  A bad mode or threshold, or ``--gate internal``
    without a model, is an error."""
    mode = _resolve(args, "gate")
    if mode not in ("off", "internal") and not mode.startswith("scores:"):
        raise ValidationError(f"--gate must be off, internal, or scores:<path>, got {mode!r}")
    if mode == "internal" and not args.gate_model:
        raise ValidationError("--gate internal requires --gate-model <path>")
    check_gate_options(threshold=_resolve(args, "gate_threshold"))
    if mode == "internal":
        return {"gate_model": args.gate_model}
    return {} if mode == "off" else {"gate_scores": mode.removeprefix("scores:")}


def _load_gate(args: argparse.Namespace, gate_file: dict[str, str]) -> GateModel | None:
    """The gate in ``gate_file``, the result of ``_check_gate_args``;
    ``tag_posts`` checks an internal gate's table."""
    if not gate_file:
        return None
    if "gate_scores" in gate_file:
        with input_file(gate_file["gate_scores"], "gate score") as handle:
            return load_external_gate(handle, _resolve(args, "gate_threshold"))
    model = load_gate(args.gate_model)
    if model.vocab_hash is None:
        print(f"warning: gate model {args.gate_model} records no embedding table, "
              f"so it was not checked against {args.embeddings}", file=sys.stderr)
    # an explicit threshold (flag or config file) overrides the stored one
    return replace(model, threshold=_resolve(args, "gate_threshold", default=model.threshold))


def cmd_predict(args: argparse.Namespace) -> _Written:
    # flag and config values before any file; a value the checkpoint
    # supplies passed TrainConfig.validate when the checkpoint was loaded
    check_max_len(_resolve(args, "max_len"))
    BridgePolicy(max_gap=_resolve(args, "bridge_gap"))
    gate_file = _check_gate_args(args)
    inputs = _inputs(args, **gate_file)
    table = _load_table(args)
    params, cfg = load_checkpoint(args.checkpoint, table)
    max_len = _resolve(args, "max_len", default=cfg.max_len)
    # a flag or config value beats the gap the checkpoint was chosen with
    bridge_gap = _resolve(args, "bridge_gap", default=cfg.bridge_gap)
    policy = BridgePolicy(bridge_gaps=True, max_gap=bridge_gap)
    gate = _load_gate(args, gate_file)
    posts = _load_posts(args, has_gold=False)
    spans = tag_posts(params, table, posts, max_len, policy, gate)
    preds = [PostPrediction(id=post.id, spans=found) for post, found in zip(posts, spans)]
    buffer = io.BytesIO()
    write_predictions(preds, buffer)
    atomic_write_bytes(args.out, buffer.getvalue())
    print(f"{len(preds)} predictions written to {args.out}")
    config = {"max_len": max_len, "gate": _resolve(args, "gate"),
              "gate_threshold": None if gate is None else gate.threshold,
              "bridge_gap": policy.max_gap}
    return config, inputs, [args.out]


def cmd_evaluate(args: argparse.Namespace) -> _Written | None:
    inputs = _inputs(args)
    golds, preds = _load_scored(args)
    report = evaluate(preds, golds)
    lines = ["id\tprecision\trecall\tf1"]
    for pred, score in zip(preds, report.per_post):
        lines.append(
            f"{pred.id}\t{score.precision:.4f}\t{score.recall:.4f}\t{score.f1:.4f}"
        )
    lines.append(f"mean_f1\t{report.mean_f1:.4f}")
    text = "\n".join(lines) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return None
    atomic_write_text(args.out, text)
    print(f"mean_f1\t{report.mean_f1:.4f}")
    return {"lenient": args.lenient}, inputs, [args.out]


def cmd_analyze(args: argparse.Namespace) -> None:
    n_samples = _resolve(args, "samples")
    if n_samples < 0:
        raise ValidationError(f"samples must be >= 0, got {n_samples}")
    golds, preds = _load_scored(args)
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
            started = time.time()
            for key, value in (_read_config_file(args.config) if args.config else {}).items():
                if getattr(args, key, None) is None:  # a flag beats the config file
                    setattr(args, key, value)
            if written := _COMMANDS[args.command](args):
                _write_manifest(args, written, started)
            code = 0
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
