"""In-memory span tracer over the public functions of the package's modules.

Every module of the package binds what it calls with ``from .x import f``,
so a function is wrapped in the namespace of each module that holds it (its
importers and its defining module), never only where it is defined.  Each
wrapped call records a span ``[name, start, end, parent]``; spans stay in
memory until :meth:`Tracer.write`.  Per-layer figures are derived from the
spans plus a few counters read off call arguments and results.

A metric whose function no longer exists (renamed or removed) is reported
as 0 and listed under ``absent``; tracing carries on.
"""

from __future__ import annotations

import functools
from array import array
import importlib
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

from speed import clock

PACKAGE = "toxicspans"
LAYERS = (
    "tokenizer", "span_codec", "embeddings", "lstm", "crf", "model", "training",
    "gate", "metric", "dataio", "checkpoint", "analysis", "cli",
)
CLI_COMMANDS = ("train", "gate-train", "predict", "evaluate", "analyze")

# metric -> functions ("layer.function") whose inclusive time it sums
INCLUSIVE = {
    "lstm.forward_s": ("lstm.lstm_forward",),
    "lstm.backward_s": ("lstm.lstm_backward",),
    "crf.nll_grad_s": ("crf.crf_nll_grad",),
    "crf.viterbi_s": ("crf.viterbi_decode",),
    "training.adam_s": ("training.adam_step",),
    "training.dev_eval_s": ("training.dev_char_f1",),
    "span_codec.encode_s": ("span_codec.spans_to_labels",),
    "span_codec.decode_s": ("span_codec.labels_to_spans",),
    "embeddings.load_s": ("embeddings.load_embeddings",),
    "embeddings.encode_s": ("embeddings.encode_post",),
    "gate.train_s": ("gate.train_gate",),
    "gate.score_s": ("gate.gate_score", "gate.apply_gate"),
    "dataio.parse_s": ("dataio.parse_dataset",),
    "dataio.write_s": ("dataio.write_predictions",),
    "dataio.read_s": ("dataio.read_predictions",),
    "checkpoint.save_s": ("checkpoint.save_checkpoint",),
    "checkpoint.load_s": ("checkpoint.load_checkpoint",),
    **{f"cli.{command}_s": (f"cli.{command}",) for command in CLI_COMMANDS},
}
# metric -> layer whose self time (span time not covered by child spans) it sums
SELF = {"model.self_s": "model", "tokenizer.s": "tokenizer", "metric.s": "metric", "analysis.s": "analysis"}
# metric -> functions whose counters feed it
COUNTED = {
    "lstm.steps": ("lstm.lstm_forward",),
    "crf.positions": ("crf.crf_nll_grad", "crf.viterbi_decode"),
    "training.epochs": ("training.dev_char_f1",),
    "training.useful_epoch_share": ("training.train", "training.dev_char_f1"),
    "training.clip_share": ("training.clip_gradients",),
    "tokenizer.calls_per_post": ("tokenizer.tokenize",),
    "embeddings.pad_share": ("embeddings.encode_post",),
    "embeddings.unk_rate": ("embeddings.encode_post",),
    "embeddings.truncated_share": ("embeddings.encode_post",),
    "gate.discard_share": ("gate.apply_gate",),
    "checkpoint.bytes": ("checkpoint.serialize_checkpoint",),
}


def _steps(counts, args, kwargs, result):
    counts["lstm.steps"] += len(args[0])


def _positions(counts, args, kwargs, result):
    counts["crf.positions"] += len(args[0])


def _tokenized(counts, args, kwargs, result):
    counts["tokenize.calls"] += 1


def _encoded(counts, args, kwargs, result):
    table = args[1] if len(args) > 1 else kwargs["table"]
    kept = int(result.mask.sum())
    counts["encode.posts"] += 1
    counts["encode.slots"] += len(result.mask)
    counts["encode.padded"] += len(result.mask) - kept
    counts["encode.tokens"] += kept
    counts["encode.unk"] += int((result.indices[:kept] == table.unk_index).sum())
    counts["encode.truncated"] += result.true_len > len(result.mask)


def _clipped(counts, args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    counts["clip.steps"] += 1
    counts["clip.fired"] += result > max_norm


def _gated(counts, args, kwargs, result):
    """A post the model tagged and the gate then emptied is discarded."""
    counts["gate.applied"] += 1
    counts["gate.discarded"] += bool(args[0]) and not result


def _checkpoint_bytes(counts, args, kwargs, result):
    counts["checkpoint.bytes"] = max(counts["checkpoint.bytes"], len(result))


# "layer.function" -> counter update run after a successful call
AFTER = {
    "lstm.lstm_forward": _steps,
    "crf.crf_nll_grad": _positions,
    "crf.viterbi_decode": _positions,
    "tokenizer.tokenize": _tokenized,
    "gate.apply_gate": _gated,
    "training.clip_gradients": _clipped,
    "embeddings.encode_post": _encoded,
    "checkpoint.serialize_checkpoint": _checkpoint_bytes,
}


class Tracer:
    """Wraps the package's public functions and records one span per call."""

    def __init__(self, passthrough: tuple[type[BaseException], ...] = ()):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one span per index: name id, start, end, parent index (-1 for a root);
        # flat arrays keep millions of spans cheap and out of the collector's way
        self.span_name, self.span_parent = array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self._stack: list[int] = []
        self.calls: Counter = Counter()  # by layer
        self.failed: Counter = Counter()  # by layer
        self.counts: defaultdict = defaultdict(float)
        self.dev_runs: list[list[float]] = []  # dev F1 per epoch, per train() call
        self.posts = 0  # posts the benchmark handed to the program while tracing
        self.installed: set[str] = set()
        self._patches: list = []
        # exceptions the benchmark raises on purpose (not layer failures)
        self._passthrough = passthrough

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name: str) -> int:
        index = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(index)
        self.span_start.append(clock())
        return index

    def _exit(self, index: int) -> None:
        self.span_end[index] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI command."""
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def fail(self, layer: str) -> None:
        self.failed[layer] += 1

    def _wrap(self, fn, key: str, layer: str):
        after = AFTER.get(key)
        starts_run = key == "training.train"
        records_dev = key == "training.dev_char_f1"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[layer] += 1
            if starts_run:
                self.dev_runs.append([])
            index = self._enter(key)
            try:
                result = fn(*args, **kwargs)
            except self._passthrough:
                raise
            except BaseException:
                self.failed[layer] += 1
                raise
            finally:
                self._exit(index)
            if after is not None:
                after(self.counts, args, kwargs, result)
            if records_dev and self.dev_runs:
                self.dev_runs[-1].append(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public package function in every layer module's namespace."""
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or owner not in LAYERS:
                    continue
                key = f"{owner}.{obj.__name__}"
                setattr(module, attr, self._wrap(obj, key, owner))
                self._patches.append((module, attr, obj))
                self.installed.add(key)
        # the benchmark opens the CLI command spans itself
        self.installed.update(f"cli.{command}" for command in CLI_COMMANDS)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive time per span name and self time per layer."""
        spans = list(zip(self.span_name, self.span_start, self.span_end, self.span_parent))
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for (name_id, start, end, _), child in zip(spans, covered):
            name = self.names[name_id]
            inclusive[name] += end - start
            self_time[name.partition(".")[0]] += end - start - child
        return inclusive, self_time

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics and the names of those whose functions are gone."""
        inclusive, self_time = self._times()
        c = self.counts
        out = {name: sum(inclusive[k] for k in keys) for name, keys in INCLUSIVE.items()}
        out.update({name: self_time[layer] for name, layer in SELF.items()})
        epochs = sum(len(run) for run in self.dev_runs)
        useful = sum(run.index(max(run)) + 1 for run in self.dev_runs if run)
        out.update({
            "lstm.steps": c["lstm.steps"],
            "crf.positions": c["crf.positions"],
            "training.epochs": epochs,
            "training.useful_epoch_share": useful / epochs if epochs else 0.0,
            "training.clip_share": c["clip.fired"] / c["clip.steps"] if c["clip.steps"] else 0.0,
            "tokenizer.calls_per_post": c["tokenize.calls"] / self.posts if self.posts else 0.0,
            "embeddings.pad_share": c["encode.padded"] / c["encode.slots"] if c["encode.slots"] else 0.0,
            "embeddings.unk_rate": c["encode.unk"] / c["encode.tokens"] if c["encode.tokens"] else 0.0,
            "embeddings.truncated_share": c["encode.truncated"] / c["encode.posts"] if c["encode.posts"] else 0.0,
            "gate.discard_share": c["gate.discarded"] / c["gate.applied"] if c["gate.applied"] else 0.0,
            "checkpoint.bytes": c["checkpoint.bytes"],
        })
        out.update({f"{layer}.failed": self.failed[layer] for layer in LAYERS})
        installed_layers = {key.partition(".")[0] for key in self.installed}
        absent = sorted(name for name, keys in {**INCLUSIVE, **COUNTED}.items()
                        if not any(key in self.installed for key in keys))
        absent += sorted(name for name, layer in SELF.items() if layer not in installed_layers)
        return out, absent

    def write(self, path: Path, extra: dict) -> None:
        """Write every span plus the per-layer summary as one JSON file."""
        inclusive, self_time = self._times()
        payload = {
            **extra,
            "names": self.names,
            "spans": {"name": self.span_name.tolist(), "start_s": self.span_start.tolist(),
                      "end_s": self.span_end.tolist(), "parent": self.span_parent.tolist()},
            "calls_by_layer": dict(self.calls),
            "failed_by_layer": dict(self.failed),
            "inclusive_s": dict(inclusive),
            "self_s_by_layer": dict(self_time),
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
