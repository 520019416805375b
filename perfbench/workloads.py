"""The three benchmark workloads.

Each workload has four phases: ``prepare`` (generate the seeded input
files and, for predict-long, train its model, which is timed only as one of
its trainings), ``setup`` (timed as
``setup_s``, repeated), ``unit`` (every measured action of the workload
once, repeated until the run's seconds are used) and ``finish`` (the
remaining checks and the end-to-end metrics).  Because each unit repeats
every action, the repetitions of each action are spread over the whole run,
and a spell of load from other processes on the machine reaches only some
of them.  The program is driven only through its public entry
points: ``training.train``, ``model.predict``, the ``gate`` functions and an
in-process ``cli.main``.  Module attributes are looked up at call time so
that a traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from toxicspans import checkpoint, cli, dataio, embeddings, gate, model, tokenizer, training
from toxicspans.errors import ToxicSpansError
from toxicspans.span_codec import BridgePolicy

import inputs
import speed
from tracer import Tracer

MAX_LEN = 128
# cmd_predict's default decode: bridge gaps of at most one character
POLICY = BridgePolicy(bridge_gaps=True, max_gap=1)
# predict-long's char_f1 must stay at or above this (about 0.97 when defined)
PREDICT_LONG_F1_FLOOR = 0.95
# Repeated identical work is reported as the median of its repetitions.
EVALUATES_PER_UNIT = 5
# Every timing is CPU time scaled to a reference CPU speed (see speed.py).
# The program is single-threaded here (BLAS pinned to one thread) and
# CPU-bound, so on an unshared machine of the reference speed this equals
# wall time; on a shared one it leaves out both the time other processes
# hold the CPU and the slowdown they cause while it runs, which swing from
# run to run by a factor of two or more.
clock = speed.clock


class TargetReached(Exception):
    """Raised from the progress callback to stop a training at dev F1 = 1.0."""


@dataclass
class Run:
    """Everything one workload invocation measured, counted and checked."""

    workload: str
    seed: int
    seconds: float
    workdir: Path
    traced: bool = False  # a traced run: one unit untraced, then the same unit traced
    tracer: Tracer | None = None
    metrics: dict[str, float] = field(default_factory=dict)
    attempted: Counter = field(default_factory=Counter)  # by operation kind
    failed: Counter = field(default_factory=Counter)
    checks: dict[str, bool] = field(default_factory=dict)
    facts: dict[str, dict] = field(default_factory=dict)  # input properties, sample counts
    checkpoint_sha256: dict[str, str] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool, kind: str, detail: str = "") -> bool:
        """Record a correctness check; a failed check is a failed operation."""
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed[kind] += 1
            self.notes.append(f"check {name} failed: {detail}")
        return ok

    def handed(self, posts: int) -> None:
        if self.tracer is not None:
            self.tracer.posts += posts


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def train_split(n_posts: int, dev_fraction: float) -> int:
    """Posts ``training.train`` trains on (its dev split rule)."""
    if n_posts == 1:
        return 1
    return n_posts - min(max(1, int(round(n_posts * dev_fraction))), n_posts - 1)


@dataclass
class Training:
    params: object  # None when stopped at the target or failed
    epochs: int
    reached: bool  # dev F1 reached 1.0
    to_target_s: float  # to the end of that epoch; the whole training when never
    posts_per_s: float  # posts trained per second over all epochs run


def timed_training(run: Run, examples, cfg, table, stop_at_target: bool) -> Training:
    """One library training, timed through its ``progress`` callback.

    Not reaching dev F1 = 1.0 is a failed training."""
    epochs: list[tuple[float, float]] = []
    start = clock()

    def progress(stats) -> None:
        epochs.append((clock() - start, stats.dev_f1))
        if stop_at_target and stats.dev_f1 == 1.0:
            raise TargetReached

    run.attempted["training"] += 1
    params = None
    try:
        params, _ = training.train(examples, cfg, table, policy=POLICY, progress=progress)
    except TargetReached:
        pass
    except ToxicSpansError as exc:
        run.notes.append(f"training failed: {type(exc).__name__}: {exc}")
    elapsed = clock() - start
    reached = [t for t, f1 in epochs if f1 == 1.0]
    run.check("train_reaches_dev_f1_1", bool(reached), "training", str([round(f1, 4) for _, f1 in epochs]))
    posts_per_s = train_split(len(examples), cfg.dev_fraction) * len(epochs) / elapsed
    return Training(params, len(epochs), bool(reached), reached[0] if reached else elapsed, posts_per_s)


def load_table(path: Path):
    with open(path, "rb") as handle:
        return embeddings.load_embeddings(handle, expected_dim=inputs.EMBEDDING_DIM)


def load_posts(path: Path):
    with open(path, "rb") as handle:
        return dataio.parse_dataset(handle, has_gold=True)


class _Stamped(io.StringIO):
    """A text sink that remembers when each write arrived."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[tuple[float, str]] = []

    def write(self, text: str) -> int:
        self.stamps.append((clock(), text))
        return super().write(text)


@dataclass
class CliCall:
    code: int
    start: float
    seconds: float
    out: _Stamped
    err: _Stamped


def run_cli(run: Run, command: list[str]) -> CliCall:
    """One in-process ``cli.main`` call; a non-zero exit is a failed command."""
    out, err = _Stamped(), _Stamped()
    span = run.tracer.span(f"cli.{command[0]}") if run.tracer else contextlib.nullcontext()
    start = clock()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(command)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    call = CliCall(code, start, clock() - start, out, err)
    run.attempted["cli_command"] += 1
    if code != 0:
        run.failed["cli_command"] += 1
        run.notes.append(f"cli {command[0]} exited {code}: {err.getvalue()[-500:]}")
        if run.tracer:
            run.tracer.fail("cli")
    return call


def evaluate_check(run: Run, data: Path, preds: Path, posts) -> float:
    """``cli evaluate`` on a prediction file; its mean_f1 must equal the
    benchmark's own F1 of that file at the four decimals it prints.
    Returns the command's CPU time."""
    expected = inputs.mean_char_f1(inputs.read_prediction_file(preds), posts)
    call = run_cli(run, ["evaluate", "--data", str(data), "--pred", str(preds)])
    printed = call.out.getvalue().strip().splitlines()[-1] if call.code == 0 else ""
    run.check("evaluate_matches_reference_f1", printed == f"mean_f1\t{expected:.4f}",
              "cli_command", f"{printed!r} vs {expected:.6f}")
    return call.seconds


def write_predictions(path: Path, predictions: dict) -> None:
    buffer = io.BytesIO()
    dataio.write_predictions(
        [dataio.PostPrediction(id=post_id, spans=spans) for post_id, spans in sorted(predictions.items())],
        buffer,
    )
    path.write_bytes(buffer.getvalue())


def predict_pass(run: Run, posts, predict_one, latencies: list[float], reference: dict) -> float:
    """Predict every post once, adding each post's latency to ``latencies``.

    The first pass's output is the reference that later passes must
    reproduce.  Returns the pass's CPU time."""
    run.handed(len(posts))
    start = clock()
    for post in posts:
        run.attempted["post"] += 1
        began = clock()
        try:
            spans = predict_one(post)
        except Exception as exc:  # count it and keep measuring the other posts
            run.failed["post"] += 1
            run.notes.append(f"post {post.id}: {type(exc).__name__}: {exc}")
            continue
        latency = clock() - began
        latencies.append(latency)
        if post.id not in reference:
            reference[post.id] = spans
        else:
            run.check("predictions_repeat", reference[post.id] == spans, "post", f"post {post.id}")
    return clock() - start


def score(predictions: dict, posts) -> float:
    as_sets = {post_id: frozenset(spans.indexes) for post_id, spans in predictions.items()}
    return inputs.mean_char_f1(as_sets, posts)


def record_trainings(run: Run, trainings: list[Training]) -> None:
    """The median training: to the target, and in posts per second."""
    run.metrics["train_to_f1_s"] = statistics.median(t.to_target_s for t in trainings)
    run.metrics["train_posts_per_s"] = statistics.median(t.posts_per_s for t in trainings)


def record_latency(run: Run, latencies: list[float], passes: int) -> None:
    """Median and p99 of the per-post latencies of every pass."""
    run.metrics["predict_p50_ms"] = 1e3 * statistics.median(latencies)
    run.metrics["predict_p99_ms"] = 1e3 * percentile(latencies, 0.99)
    run.facts["latency"] = {"samples": len(latencies), "passes": passes}


class Workload:
    """One workload; see the module docstring for the phases."""

    name = ""
    min_units = 2

    def prepare(self, run: Run) -> None:
        raise NotImplementedError

    def setup(self, run: Run):
        raise NotImplementedError

    def unit(self, run: Run, state, index: int) -> None:
        raise NotImplementedError

    def finish(self, run: Run, state) -> None:
        raise NotImplementedError


class _Evaluated:
    """Per-post library predictions, then ``cli evaluate`` on them."""

    def start_predictions(self, posts, data_csv: Path, pred_path: Path) -> None:
        self.posts, self.data_csv, self.pred_path = posts, data_csv, pred_path
        self.latencies: list[float] = []
        self.predictions: dict = {}
        self.pass_seconds: list[float] = []
        self.evaluate_seconds: list[float] = []

    def predict_and_evaluate(self, run: Run, predict_one) -> None:
        self.pass_seconds.append(predict_pass(run, self.posts, predict_one, self.latencies, self.predictions))
        write_predictions(self.pred_path, self.predictions)
        self.evaluate_seconds += [
            evaluate_check(run, self.data_csv, self.pred_path, self.posts) for _ in range(EVALUATES_PER_UNIT)
        ]

    def record_predictions(self, run: Run) -> None:
        record_latency(run, self.latencies, len(self.pass_seconds))
        run.metrics["predict_posts_per_s"] = len(self.posts) / statistics.median(self.pass_seconds)
        run.metrics["char_f1"] = score(self.predictions, self.posts)
        run.metrics["cli_s"] = statistics.median(self.evaluate_seconds)


class TrainShort(_Evaluated, Workload):
    """Library ``train()`` to dev F1 = 1.0 at H=128 on short posts.

    Three seeded 1000-post corpora are trained in turn, one per unit, each
    stopped from its ``progress`` callback at the target; the train metrics
    are the median over the trainings.  At this size nearly every corpus
    reaches F1 = 1.0 at epoch 2, so the figures do not jump by a whole epoch
    from seed to seed; patience 3 rides out a plateau just below 1.0.  The
    first corpus is then trained again with its
    epoch count set to the one found, which stops it at the target with
    parameters in hand: their checkpoint bytes are hashed and the model is
    scored on held-out posts in every unit.
    """

    name = "train-short"
    corpora = 3
    posts_per_corpus = 1000
    heldout_posts = 1000
    cfg = dict(epochs=10, batch_size=16, learning_rate=3e-3, hidden_size=128, early_stop_patience=3)

    def prepare(self, run: Run) -> None:
        d = run.workdir
        self.vectors = inputs.write_vectors(d / "vectors.txt")
        corpora = [inputs.generate_posts(self.posts_per_corpus, seed=inputs.sub_seed(run.seed, 10, c))
                   for c in range(self.corpora)]
        self.csvs = [inputs.write_csv(d / f"train{c}.csv", posts) for c, posts in enumerate(corpora)]
        heldout = inputs.generate_posts(self.heldout_posts, seed=inputs.sub_seed(run.seed, 11))
        self.start_predictions(heldout, inputs.write_csv(d / "heldout.csv", heldout), d / "heldout.pred.tsv")
        vocab = set(load_table(self.vectors).vocab)
        run.facts["train"] = inputs.input_properties(sum(corpora, []), vocab, MAX_LEN, self.cfg["batch_size"])
        run.facts["predict"] = inputs.input_properties(heldout, vocab, MAX_LEN, 1)
        self.trainings: list[Training] = []
        self.params = None

    def setup(self, run: Run):
        table = load_table(self.vectors)
        examples = []
        for csv in self.csvs:
            posts = load_posts(csv)
            run.handed(len(posts))
            examples.append(training.build_examples(posts, table, MAX_LEN))
        return table, examples

    def unit(self, run: Run, state, index: int) -> None:
        table, corpora = state
        corpus = index % self.corpora
        cfg = training.TrainConfig(seed=corpus, **self.cfg)
        first = self._train(run, corpora[corpus], cfg, table, stop_at_target=True)
        if index == 0 and first.reached:
            cfg = training.TrainConfig(seed=corpus, **{**self.cfg, "epochs": first.epochs})
            self.params = self._train(run, corpora[corpus], cfg, table, stop_at_target=False).params
            if self.params is not None:
                sha = hashlib.sha256(checkpoint.serialize_checkpoint(self.params, cfg, table)).hexdigest()
                known = run.checkpoint_sha256.setdefault(f"corpus{corpus}", sha)
                run.check("checkpoint_bytes_repeat", sha == known, "training", f"corpus {corpus}")
        if self.params is not None:
            self.predict_and_evaluate(run, lambda post: model.predict(self.params, post.text, MAX_LEN, POLICY))

    def _train(self, run: Run, examples, cfg, table, stop_at_target: bool) -> Training:
        result = timed_training(run, examples, cfg, table, stop_at_target)
        self.trainings.append(result)
        return result

    def finish(self, run: Run, state) -> None:
        record_trainings(run, self.trainings)
        if self.pass_seconds:
            self.record_predictions(run)


README_MODEL = dict(epochs=30, batch_size=16, seed=3, learning_rate=3e-3, hidden_size=32, max_len=MAX_LEN)


def _gated_predictor(params, table, gate_model, max_len: int):
    """Library inference the way ``cmd_predict`` applies the internal gate."""

    def predict_one(post):
        spans = model.predict(params, post.text, max_len, POLICY)
        encoded = embeddings.encode_post(tokenizer.tokenize(post.text), table, max_len)
        probability = gate.gate_score(gate_model, post.id, embeddings.mean_pooled(encoded, table))
        return gate.apply_gate(spans, probability, gate_model.threshold)

    return predict_one


class PredictLong(_Evaluated, Workload):
    """Per-post library inference plus the internal gate over long posts.

    The model is the README model (H=32, seed 3, patience 1) with its gate,
    trained through the library in ``prepare``.  Each unit trains the same
    model again (timed, for the train metrics, and checked to give the same
    checkpoint bytes), then predicts every post and evaluates the output.
    """

    name = "predict-long"
    long_posts = 1000

    def prepare(self, run: Run) -> None:
        d = run.workdir
        self.vectors = inputs.write_vectors(d / "vectors.txt")
        readme = inputs.readme_train_posts()
        train_csv = inputs.write_csv(d / "train.csv", readme)
        posts = inputs.long_posts(self.long_posts, run.seed)
        self.csv = inputs.write_csv(d / "long.csv", posts)
        self.start_predictions(posts, self.csv, d / "long.pred.tsv")
        self.table = load_table(self.vectors)
        vocab = set(self.table.vocab)
        run.facts["train"] = inputs.input_properties(readme, vocab, MAX_LEN, README_MODEL["batch_size"])
        run.facts["predict"] = inputs.input_properties(posts, vocab, MAX_LEN, 1)
        self.examples = training.build_examples(readme, self.table, MAX_LEN)
        self.cfg = training.TrainConfig(early_stop_patience=1, **README_MODEL)
        self.trainings: list[Training] = []
        params = self._train(run)
        if params is None:
            raise RuntimeError("the preparation training failed: " + "; ".join(run.notes))
        self.ckpt, self.gate = d / "model.ckpt", d / "gate.json"
        checkpoint.save_checkpoint(self.ckpt, params, self.cfg, self.table)
        data = [(embeddings.encode_post(tokenizer.tokenize(p.text), self.table, MAX_LEN), bool(p.gold))
                for p in readme]
        gate.save_gate(gate.train_gate(data, self.table), self.gate)

    def _train(self, run: Run):
        result = timed_training(run, self.examples, self.cfg, self.table, stop_at_target=False)
        self.trainings.append(result)
        params = result.params
        if params is not None:
            sha = hashlib.sha256(checkpoint.serialize_checkpoint(params, self.cfg, self.table)).hexdigest()
            first = run.checkpoint_sha256.setdefault("readme_model", sha)
            run.check("checkpoint_bytes_repeat", sha == first, "training", "README model")
        return params

    def setup(self, run: Run):
        table = load_table(self.vectors)
        params, cfg = checkpoint.load_checkpoint(self.ckpt, table)
        gate_model = gate.load_gate(self.gate)
        load_posts(self.csv)  # set-up work; the generated posts, same text, carry the reference gold
        return _gated_predictor(params, table, gate_model, cfg.max_len)

    def unit(self, run: Run, state, index: int) -> None:
        if not run.traced:  # the preparation training is timed, never traced
            self._train(run)
        self.predict_and_evaluate(run, state)

    def finish(self, run: Run, state) -> None:
        record_trainings(run, self.trainings)
        self.record_predictions(run)
        f1 = run.metrics["char_f1"]
        run.check("char_f1_floor", f1 >= PREDICT_LONG_F1_FLOOR, "post", f"{f1:.4f} < {PREDICT_LONG_F1_FLOOR}")


class CliPipeline(Workload):
    """The README walkthrough through in-process ``cli.main``.

    Each unit is one round of the five commands, with ``predict`` run
    ``predicts_per_round`` times (each must write the same bytes), followed
    by ``library_passes`` passes of library inference with the round's
    checkpoint and gate, which must reproduce the round's prediction file
    post for post.  A round of the five commands alone takes most of the
    run; the repetitions give the predict metrics more than two samples.
    """

    name = "cli-pipeline"
    dev_posts = 1000
    predicts_per_round = 3
    library_passes = 2

    def prepare(self, run: Run) -> None:
        d = run.workdir
        self.vectors = inputs.write_vectors(d / "vectors.txt")
        readme = inputs.readme_train_posts()
        self.train_csv = inputs.write_csv(d / "train.csv", readme)
        self.dev = inputs.generate_posts(self.dev_posts, seed=inputs.sub_seed(run.seed, 20))
        self.dev_csv = inputs.write_csv(d / "dev.csv", self.dev)
        vocab = set(load_table(self.vectors).vocab)
        run.facts["train"] = inputs.input_properties(readme, vocab, MAX_LEN, README_MODEL["batch_size"])
        run.facts["predict"] = inputs.input_properties(self.dev, vocab, MAX_LEN, 1)
        self.n_train = len(readme)
        self.rounds: list[dict[str, float]] = []
        self.trainings: list[Training] = []
        self.latencies: list[float] = []
        self.predict_seconds: list[float] = []
        self.char_f1: list[float] = []

    def setup(self, run: Run):
        """What ``cli train`` does before its first epoch."""
        table = load_table(self.vectors)
        posts = load_posts(self.train_csv)
        run.handed(len(posts))
        return training.build_examples(posts, table, MAX_LEN)

    def unit(self, run: Run, state, index: int) -> None:
        d = run.workdir / f"round{len(self.rounds)}"
        d.mkdir()
        ckpt, gate_path, pred = d / "model.ckpt", d / "gate.json", d / "dev.pred.tsv"
        vectors = ["--embeddings", str(self.vectors)]
        model_flags = ["--hidden", str(README_MODEL["hidden_size"]), "--epochs", str(README_MODEL["epochs"]),
                       "--batch", str(README_MODEL["batch_size"]), "--lr", str(README_MODEL["learning_rate"]),
                       "--seed", str(README_MODEL["seed"])]
        seconds: dict[str, float] = {}
        run.handed(self.n_train)
        train = run_cli(run, ["train", "--data", str(self.train_csv), *vectors, "--out", str(ckpt), *model_flags])
        seconds["train"] = train.seconds
        run.handed(self.n_train)
        seconds["gate-train"] = run_cli(
            run, ["gate-train", "--data", str(self.train_csv), *vectors, "--out", str(gate_path)]).seconds
        predict_command = ["predict", "--data", str(self.dev_csv), *vectors, "--checkpoint", str(ckpt),
                           "--gate", "internal", "--gate-model", str(gate_path), "--out", str(pred)]
        run.handed(self.dev_posts)
        predict = run_cli(run, predict_command)
        seconds["predict"] = predict.seconds
        self.predict_seconds.append(predict.seconds)
        if predict.code == 0:
            written = pred.read_bytes()
            for _ in range(self.predicts_per_round - 1):
                run.handed(self.dev_posts)
                again = run_cli(run, predict_command)
                self.predict_seconds.append(again.seconds)
                run.check("cli_predictions_repeat", again.code == 0 and pred.read_bytes() == written,
                          "cli_command", f"round {index}")
        if predict.code == 0:
            seconds["evaluate"] = evaluate_check(run, self.dev_csv, pred, self.dev)
        run.handed(self.dev_posts)
        seconds["analyze"] = run_cli(run, ["analyze", "--data", str(self.dev_csv), "--pred", str(pred)]).seconds
        self.rounds.append(seconds)
        if train.code == 0:
            self._check_training(run, train, ckpt, index)
        if predict.code == 0:
            self._check_predictions(run, ckpt, gate_path, pred)

    def _check_training(self, run: Run, train: CliCall, ckpt: Path, index: int) -> None:
        """Dev F1 from the history file, epoch times from the stderr lines."""
        history = json.loads(Path(f"{ckpt}.history.json").read_text(encoding="utf-8"))["epochs"]
        stamps = [t for t, text in train.err.stamps if text.startswith("epoch")]
        first = next((i for i, h in enumerate(history) if h["dev_f1"] == 1.0), None)
        run.attempted["training"] += 1
        reached = run.check("train_reaches_dev_f1_1", first is not None and len(stamps) == len(history),
                            "training", str([h["dev_f1"] for h in history]))
        to_target = (stamps[first] if reached else train.start + train.seconds) - train.start
        trained = train_split(self.n_train, 0.1) * len(history)
        self.trainings.append(Training(None, len(history), reached, to_target,
                                       trained / ((stamps[-1] if stamps else train.start + train.seconds) - train.start)))
        sha = hashlib.sha256(ckpt.read_bytes()).hexdigest()
        first_sha = run.checkpoint_sha256.setdefault("cli_model", sha)
        run.check("checkpoint_bytes_repeat", sha == first_sha, "training", f"round {index}")

    def _check_predictions(self, run: Run, ckpt: Path, gate_path: Path, pred: Path) -> None:
        """Library inference with the round's artifacts reproduces its file."""
        cli_preds = inputs.read_prediction_file(pred)
        self.char_f1.append(inputs.mean_char_f1(cli_preds, self.dev))
        table = load_table(self.vectors)
        params, cfg = checkpoint.load_checkpoint(ckpt, table)
        library: dict = {}
        predictor = _gated_predictor(params, table, gate.load_gate(gate_path), cfg.max_len)
        for _ in range(self.library_passes):
            predict_pass(run, self.dev, predictor, self.latencies, library)
        for post in self.dev:
            same = post.id in library and frozenset(library[post.id].indexes) == cli_preds.get(post.id)
            run.check("library_matches_cli_predictions", same, "post", f"post {post.id}")

    def finish(self, run: Run, state) -> None:
        rounds = self.rounds
        run.metrics["cli_s"] = statistics.median(sum(r.values()) for r in rounds)
        run.metrics["predict_posts_per_s"] = self.dev_posts / statistics.median(self.predict_seconds)
        if self.trainings:
            record_trainings(run, self.trainings)
        if self.char_f1:
            run.metrics["char_f1"] = self.char_f1[0]
            run.check("char_f1_repeat", len(set(self.char_f1)) == 1, "cli_command", str(self.char_f1))
        if self.latencies:
            record_latency(run, self.latencies, self.library_passes * len(self.char_f1))


WORKLOADS = {w.name: w for w in (TrainShort, PredictLong, CliPipeline)}
