"""Digests of a small README walkthrough run through ``cli.main``.

Writes a seeded synthetic corpus and vector file into a temporary
directory and, from inside it with relative paths, runs: ``stats`` with and
without ``--out``, ``train`` (flags over a ``--config`` file), ``gate-train``,
``predict`` without a gate, with an external score file, with the internal
gate and with the internal gate under a ``--config`` file, ``evaluate`` with
and without ``--out``, ``analyze``, ``predict`` with a hand-written internal
gate whose bias of -1000 saturates its sigmoid (every post gated),
``predict`` with an ``--out`` that is an existing directory,
``evaluate`` and ``analyze`` on a hand-written prediction file whose span
literals the package never writes (unsorted, repeated, spaced, with leading
zeros or other Unicode digits), and ``evaluate`` on one with a malformed
literal; then ``predict`` with a truncated copy of the checkpoint, with a
malformed internal gate model and with the gate model behind a UTF-8 BOM,
and ``train`` with a ``--config`` file that sets an unknown key.  Prints one
JSON object: each command's exit code and the sha256 of its stdout and
stderr, and the sha256 of every file in the directory afterwards, each
manifest hashed without its ``wall_clock_seconds`` and each directory as
the list of its names.  BLAS is pinned to one thread before
numpy loads.  Run it from the repository root:

    PYTHONPATH=src python tests/cli_walkthrough.py [--seed 0] [--hidden 16]

The same seed prints the same object; run against another ``src/``, it
shows whether a change kept every artifact, output line and exit code.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from toxicspans import cli
from toxicspans.embeddings import load_embeddings
from toxicspans.synthetic import generate_posts, write_corpus_csv, write_embedding_file


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return {"argv": " ".join(argv), "code": code,
            "stdout_sha256": sha256(out.getvalue()), "stderr_sha256": sha256(err.getvalue())}


def file_digest(path: Path) -> str:
    if path.is_dir():
        return sha256("\n".join(sorted(child.name for child in path.iterdir())))
    if path.name.endswith(".manifest.json"):
        manifest = json.loads(path.read_text())
        manifest.pop("wall_clock_seconds")
        return sha256(json.dumps(manifest, sort_keys=True))
    return sha256(path.read_bytes())


def handwritten_literal(post_id: int, gold) -> str:
    """A span literal of ``gold`` in a form chosen by ``post_id``: unsorted
    with a repeat, empty with a space inside, spaced, with leading zeros, or
    in Arabic-Indic digits."""
    items = list(map(str, gold))
    return [
        "[" + ", ".join(items[::-1] + items[:1]) + "]",
        "[ ]",
        " [ " + " ,".join(items) + " ] ",
        "[" + ", ".join("00" + item for item in items) + "]",
        "[" + ",".join(items).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")) + "]",
    ][post_id % 5]


def walkthrough(args: argparse.Namespace) -> dict:
    with open("vectors.txt", "wb") as f:
        write_embedding_file(f, dim=25, seed=7)
    with open("train.csv", "wb") as f:
        write_corpus_csv(generate_posts(args.posts, seed=args.seed), f)
    dev = generate_posts(args.posts // 4, seed=args.seed + 1)
    with open("dev.csv", "wb") as f:
        write_corpus_csv(dev, f)
    # an external gate that flags every third post
    Path("scores.tsv").write_text("".join(f"{post.id}\t{0.9 if post.id % 3 else 0.1}\n" for post in dev))
    Path("train.cfg").write_text(f"epochs = {args.epochs}\nhidden = 4\nlr = 3e-3\n")
    Path("predict.cfg").write_text("gate_threshold = 0.3\nbridge_gap = 0\n")
    with open("vectors.txt", "rb") as f:
        table = load_embeddings(f, expected_dim=25)
    # every logit is -1000, far below where the sigmoid saturates
    Path("saturated.json").write_text(json.dumps({"kind": "internal-logreg", "threshold": 0.5,
                                                  "weights": [0.0] * 25 + [-1000.0],
                                                  "vocab_hash": table.fingerprint()}))
    Path("outdir").mkdir()
    Path("handwritten.tsv").write_text(
        "".join(f"{post.id}\t{handwritten_literal(post.id, post.gold)}\n" for post in dev), encoding="utf-8"
    )
    Path("malformed.tsv").write_text("0\t[3, 1, 1]\n1\t[1, 2,]\n", encoding="utf-8")
    data, vectors = ["--data", "train.csv"], ["--embeddings", "vectors.txt"]
    predict = ["predict", "--data", "dev.csv", *vectors, "--checkpoint", "model.ckpt"]
    internal = ["--gate", "internal", "--gate-model", "gate.json"]
    commands = [
        ["stats", *data],
        ["stats", *data, "--out", "hist.csv"],
        ["train", *data, *vectors, "--out", "model.ckpt", "--config", "train.cfg",
         "--hidden", str(args.hidden), "--batch", "8", "--seed", str(args.seed)],
        ["gate-train", *data, *vectors, "--out", "gate.json"],
        [*predict, "--out", "plain.tsv"],
        [*predict, "--gate", "scores:scores.tsv", "--out", "scored.tsv"],
        [*predict, *internal, "--out", "dev.pred.tsv"],
        [*predict, *internal, "--config", "predict.cfg", "--out", "config.tsv"],
        ["evaluate", "--data", "dev.csv", "--pred", "dev.pred.tsv"],
        ["evaluate", "--data", "dev.csv", "--pred", "dev.pred.tsv", "--out", "report.tsv"],
        ["analyze", "--data", "dev.csv", "--pred", "dev.pred.tsv"],
        [*predict, "--gate", "internal", "--gate-model", "saturated.json", "--out", "saturated.tsv"],
        [*predict, "--out", "outdir"],
        ["evaluate", "--data", "dev.csv", "--pred", "handwritten.tsv"],
        ["analyze", "--data", "dev.csv", "--pred", "handwritten.tsv"],
        ["evaluate", "--data", "dev.csv", "--pred", "malformed.tsv"],
    ]
    results = [run(argv) for argv in commands]
    # read errors in the files that train and gate-train wrote, or in a config
    checkpoint = Path("model.ckpt").read_bytes()
    Path("cut.ckpt").write_bytes(checkpoint[: len(checkpoint) - 100])
    gate = Path("gate.json").read_bytes()
    Path("malformed-gate.json").write_bytes(gate[: len(gate) // 2])
    Path("bom-gate.json").write_bytes(b"\xef\xbb\xbf" + gate)
    Path("unknown.cfg").write_text("epochs = 2\nbogus = 1\n")
    commands = [
        ["predict", "--data", "dev.csv", *vectors, "--checkpoint", "cut.ckpt", "--out", "cut.tsv"],
        [*predict, "--gate", "internal", "--gate-model", "malformed-gate.json", "--out", "malformed-gate.tsv"],
        [*predict, "--gate", "internal", "--gate-model", "bom-gate.json", "--out", "bom-gate.tsv"],
        ["train", *data, *vectors, "--out", "unknown.ckpt", "--config", "unknown.cfg"],
    ]
    return {
        "commands": results + [run(argv) for argv in commands],
        "files": {path.name: file_digest(path) for path in sorted(Path().iterdir())},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--posts", type=int, default=200, help="training posts (a quarter as many dev posts)")
    parser.add_argument("--hidden", type=int, default=16)
    parser.add_argument("--epochs", type=int, default=3)
    args = parser.parse_args()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            result = walkthrough(args)
        finally:
            os.chdir(start)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
