import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import csv_bytes, json_values, poison_arenas
from oracles import grammar_parse_span_literal
import toxicspans
import toxicspans.cli
import toxicspans.dataio
import toxicspans.model
from toxicspans.checkpoint import MAGIC
from toxicspans.cli import DEFAULTS, HISTORY_SUFFIX, MANIFEST_SUFFIX, main
from toxicspans.dataio import read_predictions
from toxicspans.embeddings import load_embeddings
from toxicspans.errors import ValidationError
from toxicspans.model import INFER_BATCH
from toxicspans.span_codec import BridgePolicy
from toxicspans.synthetic import generate_posts, write_corpus_csv, write_embedding_file

DIM = 16


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic corpus, embeddings, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    with open(root / "vectors.txt", "wb") as f:
        write_embedding_file(f, dim=DIM, seed=7)
    with open(root / "train.csv", "wb") as f:
        write_corpus_csv(generate_posts(120, seed=11), f)
    with open(root / "dev.csv", "wb") as f:
        write_corpus_csv(generate_posts(40, seed=12), f)
    code = main(
        [
            "train",
            "--data", str(root / "train.csv"),
            "--embeddings", str(root / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--out", str(root / "model.ckpt"),
            "--hidden", "16", "--epochs", "12", "--batch", "8",
            "--lr", "3e-3", "--seed", "3", "--max-len", "64",
        ]
    )
    assert code == 0
    return root


@pytest.fixture(scope="module")
def gate_07(workspace):
    """An internal gate trained with a stored threshold of 0.7."""
    path = workspace / "gate07.json"
    code = main(
        [
            "gate-train",
            "--data", str(workspace / "train.csv"),
            "--embeddings", str(workspace / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--out", str(path),
            "--gate-threshold", "0.7",
        ]
    )
    assert code == 0
    return path


def train_tiny(workspace, out, *extra):
    """A one-epoch H=4 ``cli train`` on train.csv, written to ``out``."""
    return main(
        [
            "train",
            "--data", str(workspace / "train.csv"),
            "--embeddings", str(workspace / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--out", str(out),
            "--hidden", "4", "--epochs", "1", "--max-len", "32",
            *extra,
        ]
    )


def manifest_config(out) -> dict:
    return json.loads(Path(f"{out}.manifest.json").read_text())["config"]


def write_gold_predictions(path, posts) -> None:
    """The posts' gold spans as a prediction file."""
    path.write_text("".join(f"{post.id}\t{list(post.gold.indexes)}\n" for post in posts))


def run_predict(workspace, out_name, *extra):
    """``cli predict`` on dev.csv; ``out_name`` is joined to the workspace,
    so an absolute path writes elsewhere."""
    args = [
        "predict",
        "--data", str(workspace / "dev.csv"),
        "--embeddings", str(workspace / "vectors.txt"),
        "--embedding-dim", str(DIM),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(workspace / out_name),
        *extra,
    ]
    return main(args)


class TestStats:
    def test_prints_histogram_and_writes_csv(self, workspace, tmp_path, capsys):
        out = tmp_path / "hist.csv"
        code = main(["stats", "--data", str(workspace / "train.csv"), "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "percent" in printed and "total posts: 120" in printed
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "words,posts,percent"
        total = sum(int(line.split(",")[1]) for line in lines[1:])
        assert total == 120
        assert (tmp_path / "hist.csv.manifest.json").exists()

    def test_missing_file_exits_2(self, capsys):
        assert main(["stats", "--data", "/nonexistent.csv"]) == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["directory", "device"])
    def test_input_that_is_not_a_regular_file_exits_2(self, tmp_path, capsys, target):
        path = tmp_path if target == "directory" else Path(os.devnull)
        if not path.exists():
            pytest.skip(f"{os.devnull} does not exist here")
        assert main(["stats", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: dataset file is not a regular file: {path}\n"

    def test_bad_span_literal_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('spans,text\n"[1, oops]",hello there\n')
        assert main(["stats", "--data", str(bad)]) == 2
        assert "record 1" in capsys.readouterr().err

    def test_text_cell_over_csv_field_limit_exits_2(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("spans,text\n[]," + "x" * 140_000 + "\n")
        assert main(["stats", "--data", str(big)]) == 2
        err = capsys.readouterr().err
        assert "record 1" in err and "Traceback" not in err


# Every path-taking flag of every command, and the role its errors name.
PATH_FLAGS = [
    *((command, "--data", "dataset") for command in ("stats", "train", "gate-train", "predict", "evaluate", "analyze")),
    *((command, "--embeddings", "embedding") for command in ("train", "gate-train", "predict")),
    ("predict", "--checkpoint", "checkpoint"),
    ("predict", "--gate-model", "gate model"),
    ("predict", "--gate", "gate score"),
    ("evaluate", "--pred", "prediction"),
    ("analyze", "--pred", "prediction"),
    *((command, "--config", "config") for command in ("stats", "train", "gate-train", "predict", "evaluate", "analyze")),
]
PATH_KINDS = ["missing", "directory", "fifo", "devnull", "dangling-symlink", "symlink-loop", "empty"]
# The flags whose file's read errors dataio.input_file raises again with the
# file's role and path in front, and a file of each that is malformed early
READ_ERROR_FLAGS = {
    "--data": b"spans,text\n[1],hello there,extra\n",
    "--embeddings": b"word 0.5\n",
    "--pred": b"0\t[1, oops]\n",
    "--gate": b"0\tmaybe\n",
    "--checkpoint": b"TOXICSPANS-CKPT-0\n{}\n",
    "--gate-model": b'{"kind": "internal-logreg",',
    "--config": b"epochs = 2\nbogus = 1\n",
}
# The entries that make_path leaves in its directory, by kind (else "input")
PATH_ENTRIES = {"missing": set(), "devnull": set(), "symlink-loop": {"input", "loop"}}
# Runs each argv list read from stdin through cli.main in one interpreter
# and prints each one's exit code, stdout and stderr.
CLI_DRIVER = """
import contextlib, io, json, sys
from toxicspans.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def make_path(directory: Path, kind: str) -> Path:
    """A path of ``kind`` in ``directory`` (``os.devnull`` for "devnull")."""
    if kind == "devnull":
        return Path(os.devnull)
    path = directory / "input"
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":
        os.mkfifo(path)
    elif kind == "dangling-symlink":
        path.symlink_to(directory / "nowhere")
    elif kind == "symlink-loop":
        path.symlink_to(directory / "loop")
        (directory / "loop").symlink_to(path)
    elif kind == "empty":
        path.write_bytes(b"")
    return path


def path_case_argv(workspace: Path, command: str, flag: str, path: Path, out: Path) -> list[str]:
    """A valid small run of ``command`` whose ``flag`` names ``path``."""
    data = ["--data", str(workspace / ("train.csv" if command in ("train", "gate-train") else "dev.csv"))]
    vectors = ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM)]
    argv = [command, *data, *{
        "train": [*vectors, "--hidden", "4", "--epochs", "1", "--max-len", "32"],
        "gate-train": [*vectors, "--gate-epochs", "1"],
        "predict": [*vectors, "--checkpoint", str(workspace / "model.ckpt")],
        "evaluate": ["--pred", str(workspace / "dev-gold.tsv")],
        "analyze": ["--pred", str(workspace / "dev-gold.tsv")],
    }.get(command, [])]
    if command != "analyze":
        argv += ["--out", str(out)]
    if flag == "--gate-model":
        argv += ["--gate", "internal"]
    value = f"scores:{path}" if flag == "--gate" else str(path)
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


@pytest.fixture(scope="module")
def path_workspace(workspace):
    """The workspace, with dev.csv's gold spans as a prediction file."""
    with open(workspace / "dev.csv", "rb") as handle:
        write_gold_predictions(workspace / "dev-gold.tsv", toxicspans.dataio.parse_dataset(handle, has_gold=True))
    return workspace


@pytest.fixture(scope="module")
def fifo_runs(path_workspace, tmp_path_factory):
    """Each flag's FIFO case, run in one separate interpreter with a timeout
    (opening a FIFO that no one writes blocks): its directory and its exit
    code, stdout and stderr, by flag; None if the interpreter timed out."""
    if not hasattr(os, "mkfifo"):
        pytest.skip("no named pipes on this platform")
    directories, argvs = [], []
    for command, flag, _ in PATH_FLAGS:
        directory = tmp_path_factory.mktemp("fifo")
        directories.append(directory)
        argvs.append(path_case_argv(path_workspace, command, flag, make_path(directory, "fifo"), directory / "result"))
    try:
        run = subprocess.run(
            [sys.executable, "-c", CLI_DRIVER], input=json.dumps(argvs),
            env={**os.environ, "PYTHONPATH": str(Path(toxicspans.__file__).parents[1])},
            capture_output=True, text=True, timeout=60,
        )
    except subprocess.TimeoutExpired:
        return None
    assert run.returncode == 0, run.stderr
    return {(command, flag): (directory, *result)
            for (command, flag, _), directory, result in zip(PATH_FLAGS, directories, json.loads(run.stdout))}


class TestPathKinds:
    """Every path-taking flag of every command, crossed with every kind of
    path that holds no input: each exits 2 with one error line naming the
    file's role, prints no traceback and writes no output file.  A dangling
    symlink and a symlink loop are "not found", like a missing file.

    The one exception is an empty ``--config`` file, a valid config with no
    keys: the command runs and exits 0.  A ``--config`` error comes before
    any other input is read.  The tests run as root, so a file without read
    permission cannot be exercised here."""

    @pytest.mark.parametrize("kind", PATH_KINDS)
    @pytest.mark.parametrize("command, flag, role", PATH_FLAGS,
                             ids=[f"{command}{flag}" for command, flag, _ in PATH_FLAGS])
    def test_exits_2_with_one_error_line(self, path_workspace, fifo_runs, tmp_path, monkeypatch, capsys,
                                         command, flag, role, kind):
        if kind == "fifo":
            assert fifo_runs is not None, "the FIFO cases blocked"
            directory, code, stdout, stderr = fifo_runs[command, flag]
            path = directory / "input"
        else:
            directory, path = tmp_path, make_path(tmp_path, kind)
            if flag == "--config" and kind != "empty":
                def unreachable(*args, **kwargs):
                    raise AssertionError("an input was read before the config file was checked")

                for name in ("parse_dataset", "load_embeddings", "load_checkpoint"):
                    monkeypatch.setattr(toxicspans.cli, name, unreachable)
            code = main(path_case_argv(path_workspace, command, flag, path, tmp_path / "result"))
            stdout, stderr = capsys.readouterr()
        if flag == "--config" and kind == "empty":
            assert code == 0 and "error:" not in stderr
            return
        assert code == 2
        assert "Traceback" not in stderr and stdout == ""
        [line] = stderr.splitlines()
        if kind == "empty":  # each reader's own error
            assert line.startswith("error: ") and role in line
            if flag not in ("--pred", "--gate"):
                prefix = f"error: {role} file {path}: "
                assert line.startswith(prefix) and role not in line.removeprefix(prefix)
            # an empty --pred or --gate scores: file holds no entries, which
            # is no read error: the count mismatch or the missing score that
            # follows names no file
        else:
            problem = "not found" if kind in ("missing", "dangling-symlink", "symlink-loop") else "is not a regular file"
            assert line == f"error: {role} file {problem}: {path}"
        assert {entry.name for entry in directory.iterdir()} == PATH_ENTRIES.get(kind, {"input"})

    @pytest.mark.parametrize("command, flag, role", [row for row in PATH_FLAGS if row[1] in READ_ERROR_FLAGS],
                             ids=[f"{command}{flag}" for command, flag, _ in PATH_FLAGS if flag in READ_ERROR_FLAGS])
    def test_a_malformed_record_names_the_file(self, path_workspace, tmp_path, capsys, command, flag, role):
        path = tmp_path / "input"
        path.write_bytes(READ_ERROR_FLAGS[flag])
        code = main(path_case_argv(path_workspace, command, flag, path, tmp_path / "result"))
        stdout, stderr = capsys.readouterr()
        assert code == 2 and stdout == "" and "Traceback" not in stderr
        [line] = stderr.splitlines()
        prefix = f"error: {role} file {path}: "
        assert line.startswith(prefix) and role not in line.removeprefix(prefix)
        assert {entry.name for entry in tmp_path.iterdir()} == {"input"}


class TestTrain:
    def test_outputs_exist(self, workspace):
        assert (workspace / "model.ckpt").exists()
        history = json.loads((workspace / "model.ckpt.history.json").read_text())
        assert len(history["epochs"]) >= 1
        manifest = json.loads((workspace / "model.ckpt.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert manifest["config"]["seed"] == 3
        assert set(manifest["inputs"]) == {"data", "embeddings"}

    def test_missing_embeddings_exits_2(self, workspace, capsys):
        code = main(
            [
                "train",
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "missing.txt"),
                "--out", str(workspace / "nope.ckpt"),
            ]
        )
        assert code == 2
        assert "embedding" in capsys.readouterr().err

    def test_determinism_bytes(self, workspace, tmp_path):
        args = [
            "train",
            "--data", str(workspace / "train.csv"),
            "--embeddings", str(workspace / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--hidden", "8", "--epochs", "3", "--batch", "8",
            "--seed", "5", "--max-len", "32",
        ]
        assert main(args + ["--out", str(tmp_path / "a.ckpt")]) == 0
        assert main(args + ["--out", str(tmp_path / "b.ckpt")]) == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt.history.json").read_bytes() == (
            tmp_path / "b.ckpt.history.json"
        ).read_bytes()

    def test_history_records_gradient_telemetry(self, workspace, tmp_path, capsys):
        args = [
            "train",
            "--data", str(workspace / "train.csv"),
            "--embeddings", str(workspace / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--hidden", "8", "--epochs", "3", "--batch", "8", "--clip", "2.0",
            "--seed", "6", "--max-len", "32",
        ]
        assert main(args + ["--out", str(tmp_path / "a.ckpt")]) == 0
        err = capsys.readouterr().err
        assert main(args + ["--out", str(tmp_path / "b.ckpt")]) == 0
        history_a = (tmp_path / "a.ckpt.history.json").read_bytes()
        assert history_a == (tmp_path / "b.ckpt.history.json").read_bytes()
        epochs = json.loads(history_a)["epochs"]
        epoch_lines = [line for line in err.splitlines() if line.startswith("epoch")]
        assert len(epoch_lines) == len(epochs) == 3
        for h, line in zip(epochs, epoch_lines):
            assert set(h) == {"epoch", "train_nll", "dev_f1", "grad_norm_mean", "grad_norm_max",
                              "steps", "clipped_steps", "tokens"}
            assert 0 <= h["clipped_steps"] <= h["steps"] == 14  # 108 training posts, 8 a batch
            assert 0 < h["grad_norm_mean"] <= h["grad_norm_max"]
            assert h["tokens"] == epochs[0]["tokens"] > 0
            assert line.endswith(f"clipped {h['clipped_steps']}/{h['steps']}")

    def test_config_file_defaults_and_cli_precedence(self, workspace, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("epochs = 2\nhidden = 8\nseed = 5\nmax-len = 32\nbatch = 8\n")
        out = tmp_path / "configured.ckpt"
        code = main(
            [
                "train",
                "--config", str(config),
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--out", str(out),
                "--epochs", "1",  # CLI beats the config file
            ]
        )
        assert code == 0
        history = json.loads((out.with_name(out.name + ".history.json")).read_text())
        assert len(history["epochs"]) == 1
        manifest = json.loads((out.with_name(out.name + ".manifest.json")).read_text())
        assert manifest["config"]["epochs"] == 1
        assert manifest["config"]["hidden_size"] == 8

    def test_unknown_config_key_exits_2(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("warp_speed = 9\n")
        code = main(
            [
                "train",
                "--config", str(config),
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        assert "warp_speed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--lr", "--clip"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_rate_or_clip_exits_2(self, workspace, tmp_path, capsys, flag, value):
        code = main(
            [
                "train",
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--out", str(tmp_path / "x.ckpt"),
                flag, value,
            ]
        )
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_utf8_embeddings_exits_2(self, workspace, tmp_path, capsys):
        vectors = tmp_path / "vectors.txt"
        vectors.write_bytes(b"caf\xe9 " + b" ".join([b"0.5"] * DIM) + b"\n")
        code = main(
            [
                "train",
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(vectors),
                "--embedding-dim", str(DIM),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "UTF-8 at byte 3" in err and "Traceback" not in err

    def test_diverging_run_prints_one_warning_line(self, workspace, tmp_path):
        # a separate interpreter, so stderr is exactly what a user would see
        with open(tmp_path / "train60.csv", "wb") as f:
            write_corpus_csv(generate_posts(60, seed=11), f)
        src = str(Path(toxicspans.__file__).parents[1])
        run = subprocess.run(
            [
                sys.executable, "-m", "toxicspans.cli", "train",
                "--data", str(tmp_path / "train60.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--hidden", "8", "--lr", "1e300",
                "--out", str(tmp_path / "x.ckpt"),
            ],
            env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": ""},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert run.returncode == 1
        lines = run.stderr.splitlines()
        assert lines[-1] == "error: non-finite gradient norm in epoch 1 (batch starting at 16)"
        assert len(lines) == 2 and lines[0].startswith("warning: ")
        assert "numpy floating-point warnings, the first: overflow encountered in" in lines[0]
        assert "RuntimeWarning" not in run.stderr and "Traceback" not in run.stderr

    def test_out_of_memory_is_one_error_line(self, workspace, tmp_path, capsys):
        # 4e15 x 16 float64 weights exceed the address space, so the first
        # allocation fails before any memory is touched
        code = main(
            [
                "train",
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--hidden", "1000000000000000",
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")
        assert not (tmp_path / "x.ckpt").exists()

    def test_non_utf8_config_file_exits_2(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"epochs = 2\xff\n")
        code = main(
            [
                "train",
                "--config", str(config),
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "UTF-8 at byte 10" in err and "Traceback" not in err
        assert not (tmp_path / "x.ckpt").exists()


class TestPredict:
    def test_prediction_file_format_and_manifest(self, workspace):
        assert run_predict(workspace, "plain.tsv") == 0
        with open(workspace / "plain.tsv", "rb") as f:
            preds = read_predictions(f)
        assert [p.id for p in preds] == list(range(40))
        assert (workspace / "plain.tsv.manifest.json").exists()

    def test_checkpoint_decode_policy_is_the_default(self, workspace, tmp_path):
        ckpt = tmp_path / "gap3.ckpt"
        assert train_tiny(workspace, ckpt, "--bridge-gap", "3") == 0
        raw = ckpt.read_bytes()
        header = json.loads(raw[len(MAGIC) : raw.index(b"\n", len(MAGIC))])
        assert header["train_config"]["bridge_gap"] == 3
        config = tmp_path / "gap.conf"
        config.write_text("bridge_gap = 2\n")

        def decoded(out_name, *extra):
            out = tmp_path / out_name
            assert run_predict(workspace, out, "--checkpoint", str(ckpt), *extra) == 0
            return manifest_config(out)["bridge_gap"], out.read_bytes()

        recorded, recorded_bytes = decoded("recorded.tsv")
        assert recorded == 3
        assert decoded("explicit.tsv", "--bridge-gap", "3") == (3, recorded_bytes)
        assert decoded("flag.tsv", "--bridge-gap", "0")[0] == 0
        assert decoded("config.tsv", "--config", str(config))[0] == 2
        assert decoded("both.tsv", "--config", str(config), "--bridge-gap", "1")[0] == 1

    def test_checkpoint_without_bridge_gap_decodes_with_the_default(self, workspace, tmp_path):
        raw = (workspace / "model.ckpt").read_bytes()
        header_end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC) : header_end])
        del header["train_config"]["bridge_gap"]
        older = tmp_path / "older.ckpt"
        older.write_bytes(MAGIC + json.dumps(header).encode() + raw[header_end:])
        out = tmp_path / "older.tsv"
        assert run_predict(workspace, out, "--checkpoint", str(older)) == 0
        assert manifest_config(out)["bridge_gap"] == DEFAULTS["bridge_gap"] == 1

    def test_checkpoint_vocab_mismatch_exits_2(self, workspace, tmp_path, capsys):
        other = tmp_path / "othervecs.txt"
        other.write_text("\n".join(f"word{k} " + " ".join(["0.1"] * DIM) for k in range(5)))
        code = main(
            [
                "predict",
                "--data", str(workspace / "dev.csv"),
                "--embeddings", str(other),
                "--embedding-dim", str(DIM),
                "--checkpoint", str(workspace / "model.ckpt"),
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert code == 2
        assert "vocabulary" in capsys.readouterr().err

    def test_embedding_component_beyond_float32_exits_2(self, workspace, tmp_path, capsys):
        """Inference runs the LSTM in float32: a vector component that does
        not fit it is one error line naming the tensor, with no numpy
        warning line and no output file."""
        lines = (workspace / "vectors.txt").read_text().splitlines()
        word, *values = lines[0].split(" ")
        lines[0] = " ".join([word, "1e39", *values[1:]])
        vectors = tmp_path / "big.txt"
        vectors.write_text("\n".join(lines) + "\n")
        out = tmp_path / "big.tsv"
        code = run_predict(workspace, out, "--embeddings", str(vectors))
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: tensor embedding.matrix holds a value of magnitude 1e+39")
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()

    def test_gate_scores_file_empties_flagged_posts(self, workspace):
        assert run_predict(workspace, "ungated.tsv") == 0
        with open(workspace / "ungated.tsv", "rb") as f:
            ungated = read_predictions(f)
        scores = workspace / "scores.tsv"
        with open(scores, "w") as f:
            for p in ungated:
                f.write(f"{p.id}\t{0.0 if p.id % 2 == 0 else 1.0}\n")
        assert run_predict(workspace, "gated.tsv", "--gate", f"scores:{scores}") == 0
        with open(workspace / "gated.tsv", "rb") as f:
            gated = read_predictions(f)
        for u, g in zip(ungated, gated):
            if u.id % 2 == 0:
                assert len(g.spans) == 0
            else:
                assert g.spans == u.spans
            assert g.spans.issubset(u.spans)

    def test_internal_gate_requires_model_flag(self, workspace, tmp_path, capsys):
        code = run_predict(workspace, "x.tsv", "--gate", "internal")
        assert code == 2
        assert "gate-model" in capsys.readouterr().err

    def test_internal_gate_round_trip(self, workspace, tmp_path):
        gate_path = tmp_path / "gate.json"
        code = main(
            [
                "gate-train",
                "--data", str(workspace / "train.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--out", str(gate_path),
            ]
        )
        assert code == 0
        assert run_predict(workspace, tmp_path / "ungated.tsv") == 0
        assert run_predict(
            workspace, tmp_path / "gated.tsv", "--gate", "internal", "--gate-model", str(gate_path)
        ) == 0
        with open(tmp_path / "ungated.tsv", "rb") as f:
            ungated = read_predictions(f)
        with open(tmp_path / "gated.tsv", "rb") as f:
            gated = read_predictions(f)
        assert all(g.spans.issubset(u.spans) for g, u in zip(gated, ungated))

    @pytest.mark.parametrize("damage", ["no-header-newline", "header-without-dims"])
    def test_malformed_checkpoint_header_exits_2(self, workspace, tmp_path, capsys, damage):
        raw = (workspace / "model.ckpt").read_bytes()
        header_end = raw.index(b"\n", len(MAGIC))
        if damage == "no-header-newline":
            bad = raw[: header_end - 10]
        else:
            header = json.loads(raw[len(MAGIC) : header_end])
            del header["dims"]
            bad = MAGIC + json.dumps(header).encode() + raw[header_end:]
        (tmp_path / "bad.ckpt").write_bytes(bad)
        code = main(
            [
                "predict",
                "--data", str(workspace / "dev.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--checkpoint", str(tmp_path / "bad.ckpt"),
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "checkpoint" in err and "Traceback" not in err

    def test_checkpoint_with_unknown_train_config_key_exits_2(self, workspace, tmp_path, capsys):
        raw = (workspace / "model.ckpt").read_bytes()
        header_end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC) : header_end])
        header["train_config"]["bogus"] = 1
        bad = MAGIC + json.dumps(header).encode() + raw[header_end:]
        (tmp_path / "bad.ckpt").write_bytes(bad)
        code = main(
            [
                "predict",
                "--data", str(workspace / "dev.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--checkpoint", str(tmp_path / "bad.ckpt"),
                "--out", str(tmp_path / "x.tsv"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus" in err and "Traceback" not in err

    def test_gate_from_another_table_exits_2(self, workspace, tmp_path, capsys):
        # the same words plus one: the same dimension, another vocabulary
        other = tmp_path / "other_vectors.txt"
        other.write_bytes((workspace / "vectors.txt").read_bytes() + b"zzextra" + b" 0.5" * DIM + b"\n")
        gate_path = tmp_path / "other_gate.json"
        assert main(["gate-train", "--data", str(workspace / "train.csv"), "--embeddings", str(other),
                     "--embedding-dim", str(DIM), "--out", str(gate_path)]) == 0
        capsys.readouterr()
        code = run_predict(workspace, "x.tsv", "--gate", "internal", "--gate-model", str(gate_path))
        assert code == 2
        err = capsys.readouterr().err
        hashes = []
        for path in (other, workspace / "vectors.txt"):
            with open(path, "rb") as f:
                hashes.append(load_embeddings(f, expected_dim=DIM).fingerprint())
        assert hashes[0] != hashes[1]
        assert err.startswith("error: ") and all(h in err for h in hashes)
        assert json.loads(gate_path.read_text())["vocab_hash"] == hashes[0]

    def test_gate_without_table_keys_warns_once_and_predicts(self, workspace, gate_07, tmp_path, capsys):
        payload = json.loads(gate_07.read_text())
        assert payload.pop("vocab_hash")
        legacy = tmp_path / "legacy_gate.json"
        legacy.write_text(json.dumps(payload))
        internal = ("--gate", "internal", "--gate-model")
        assert run_predict(workspace, tmp_path / "recorded.tsv", *internal, str(gate_07)) == 0
        assert "warning" not in capsys.readouterr().err
        assert run_predict(workspace, tmp_path / "legacy.tsv", *internal, str(legacy)) == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1 and "legacy_gate.json" in warnings[0]
        assert (tmp_path / "legacy.tsv").read_bytes() == (tmp_path / "recorded.tsv").read_bytes()

    def test_gate_of_wrong_size_exits_2(self, workspace, tmp_path, capsys):
        gate_path = tmp_path / "small_gate.json"
        gate_path.write_text(
            json.dumps({"kind": "internal-logreg", "threshold": 0.5, "weights": [0.1] * 5})
        )
        code = run_predict(workspace, "x.tsv", "--gate", "internal", "--gate-model", str(gate_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "weights" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "payload",
        [
            [],
            {"kind": "internal-logreg", "threshold": None, "weights": [1]},
            {"kind": "internal-logreg", "threshold": 0.5, "weights": {"a": 1}},
        ],
        ids=["not-an-object", "null-threshold", "weights-not-a-list"],
    )
    def test_malformed_gate_file_exits_2(self, workspace, tmp_path, capsys, payload):
        gate_path = tmp_path / "gate.json"
        gate_path.write_text(json.dumps(payload))
        code = run_predict(workspace, "x.tsv", "--gate", "internal", "--gate-model", str(gate_path))
        assert code == 2
        err = capsys.readouterr().err
        assert f"gate model file {gate_path}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_gate_weights_exit_2(self, workspace, tmp_path, capsys, bad):
        gate_path = tmp_path / "gate.json"
        weights = ", ".join(["0.1"] * DIM + [bad])
        gate_path.write_text(f'{{"kind": "internal-logreg", "threshold": 0.5, "weights": [{weights}]}}')
        code = run_predict(workspace, "x.tsv", "--gate", "internal", "--gate-model", str(gate_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "weights must be finite" in err and "Traceback" not in err

    def test_missing_output_directory_names_the_target(self, workspace, tmp_path, capsys):
        out = tmp_path / "missing" / "x.tsv"
        assert run_predict(workspace, str(out)) == 2
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err and "Traceback" not in err

    def test_out_of_range_threshold_for_stored_gate_exits_2(self, workspace, gate_07, capsys):
        code = run_predict(workspace, "x.tsv", "--gate", "internal",
                           "--gate-model", str(gate_07), "--gate-threshold", "1.5")
        assert code == 2
        assert "threshold" in capsys.readouterr().err

    def test_manifest_records_the_applied_gate_threshold(self, workspace, gate_07):
        def recorded(out_name, *extra):
            assert run_predict(workspace, out_name, *extra) == 0
            manifest = json.loads((workspace / f"{out_name}.manifest.json").read_text())
            return manifest["config"]["gate_threshold"]

        internal = ("--gate", "internal", "--gate-model", str(gate_07))
        assert recorded("stored.tsv", *internal) == 0.7
        assert recorded("flagged.tsv", *internal, "--gate-threshold", "0.6") == 0.6
        config = workspace / "threshold.cfg"
        config.write_text("gate_threshold = 0.65\n")
        assert recorded("configured.tsv", *internal, "--config", str(config)) == 0.65
        assert recorded("flag_beats_config.tsv", *internal, "--config", str(config),
                        "--gate-threshold", "0.6") == 0.6
        assert recorded("off.tsv") is None

    def test_manifest_lists_only_the_gate_files_read(self, workspace, gate_07, tmp_path):
        scores = tmp_path / "scores.tsv"
        scores.write_text("".join(f"{post.id}\t0.5\n" for post in generate_posts(40, seed=12)))

        def inputs(out_name, *extra):
            assert run_predict(workspace, out_name, "--gate-model", str(gate_07), *extra) == 0
            return json.loads((workspace / f"{out_name}.manifest.json").read_text())["inputs"]

        assert set(inputs("listed_off.tsv")) == {"data", "embeddings", "checkpoint"}
        assert set(inputs("listed_scores.tsv", "--gate", f"scores:{scores}")) == {
            "data", "embeddings", "checkpoint", "gate_scores"}
        internal = inputs("listed_internal.tsv", "--gate", "internal")
        assert internal["gate_model"]["sha256"] == hashlib.sha256(gate_07.read_bytes()).hexdigest()

    @pytest.mark.parametrize("where", ["flag", "checkpoint"])
    def test_max_len_beyond_csv_field_limit_exits_2(self, workspace, tmp_path, capsys, where):
        ckpt, extra = workspace / "model.ckpt", ["--max-len", str(2**62)]
        if where == "checkpoint":
            raw = ckpt.read_bytes()
            header_end = raw.index(b"\n", len(MAGIC))
            header = json.loads(raw[len(MAGIC) : header_end])
            header["train_config"]["max_len"] = 2**62
            ckpt, extra = tmp_path / "huge.ckpt", []
            ckpt.write_bytes(MAGIC + json.dumps(header).encode() + raw[header_end:])
        code = main(
            [
                "predict",
                "--data", str(workspace / "dev.csv"),
                "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM),
                "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "x.tsv"),
                *extra,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "max_len" in err and "Traceback" not in err

    def test_internal_gate_tokenizes_each_post_once(self, workspace, gate_07, monkeypatch):
        import toxicspans.cli
        import toxicspans.model
        from toxicspans.tokenizer import tokenize

        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        for module in (toxicspans.cli, toxicspans.model):
            monkeypatch.setattr(module, "tokenize", counting_tokenize)
        code = run_predict(workspace, "once.tsv", "--gate", "internal", "--gate-model", str(gate_07))
        assert code == 0
        assert len(calls) == 40

    def test_windows_share_one_arena(self, workspace, monkeypatch):
        """Every window of posts is tagged in the same arena, so its
        buffers are made once per command, not once per window."""
        arenas = []
        predict_spans = toxicspans.model.predict_spans

        def spy(params, posts, policy, arena):
            arenas.append(arena)
            return predict_spans(params, posts, policy, arena)

        monkeypatch.setattr(toxicspans.model, "predict_spans", spy)
        assert run_predict(workspace, "shared.tsv") == 0
        assert len(arenas) == math.ceil(40 / INFER_BATCH) > 1
        assert arenas[0] is not None and all(arena is arenas[0] for arena in arenas)

    def test_poisoned_arena_gives_the_same_predictions(self, workspace, tmp_path, monkeypatch):
        """33 posts, in windows of 16, 16 and 1, get the real arena's
        prediction bytes under an arena that poisons every buffer it hands
        out (see conftest.PoisonedArena)."""
        data = tmp_path / "posts.csv"
        with open(data, "wb") as f:
            write_corpus_csv(generate_posts(2 * INFER_BATCH + 1, seed=13), f)

        def predict_to(name):
            args = ["predict", "--data", str(data), "--checkpoint", str(workspace / "model.ckpt"),
                    "--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM),
                    "--out", str(tmp_path / name)]
            assert main(args) == 0
            return (tmp_path / name).read_bytes()

        real = predict_to("real.tsv")
        preds = read_predictions(io.BytesIO(real))
        assert len(preds) == 2 * INFER_BATCH + 1 and any(pred.spans for pred in preds)
        poison_arenas(monkeypatch)
        assert predict_to("poisoned.tsv") == real

    def test_bad_gate_mode_exits_2(self, workspace, capsys):
        assert run_predict(workspace, "x.tsv", "--gate", "sideways") == 2
        assert "--gate" in capsys.readouterr().err


class TestEvaluate:
    def test_self_evaluation_scores_one(self, workspace, tmp_path, capsys):
        # gold encoded as a prediction file must score a perfect 1.0
        posts = generate_posts(40, seed=12)
        pred_path = tmp_path / "gold_as_pred.tsv"
        with open(pred_path, "w") as f:
            for p in posts:
                f.write(f"{p.id}\t[{', '.join(str(i) for i in p.gold.indexes)}]\n")
        code = main(
            ["evaluate", "--data", str(workspace / "dev.csv"), "--pred", str(pred_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "mean_f1\t1.0000"

    def test_shifted_pair_scores_point_eight(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text('spans,text\n"[0, 1, 2, 3, 4]",Idiot miner in the photo\n')
        pred = tmp_path / "one.tsv"
        pred.write_text("0\t[-1, 0, 1, 2, 3]\n")
        assert main(["evaluate", "--data", str(data), "--pred", str(pred)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "0\t0.8000\t0.8000\t0.8000"
        assert lines[-1] == "mean_f1\t0.8000"

    def test_written_report_and_manifest(self, workspace, tmp_path):
        assert run_predict(workspace, "eval_me.tsv") == 0
        out = tmp_path / "report.tsv"
        code = main(
            [
                "evaluate",
                "--data", str(workspace / "dev.csv"),
                "--pred", str(workspace / "eval_me.tsv"),
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "id\tprecision\trecall\tf1"
        assert lines[-1].startswith("mean_f1\t")
        assert (tmp_path / "report.tsv.manifest.json").exists()

    @pytest.mark.parametrize(
        "data, pred, where",
        [
            ('spans,text\n"[0]",caf'.encode() + b"\xe9\n", b"0\t[0]\n", "byte 20"),
            (b'spans,text\n"[0]",cafe\n', b"0\t[0\xff]\n", "byte 4"),
        ],
        ids=["data", "pred"],
    )
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, data, pred, where):
        (tmp_path / "data.csv").write_bytes(data)
        (tmp_path / "pred.tsv").write_bytes(pred)
        code = main(
            ["evaluate", "--data", str(tmp_path / "data.csv"), "--pred", str(tmp_path / "pred.tsv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"not valid UTF-8 at {where}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "data, pred, where",
        [
            ('spans,text\n"[' + "1" * 5000 + ']",hello\n', "0\t[0]\n", "record 1"),
            ('spans,text\n"[0]",hello\n', "0\t[" + "1" * 5000 + "]\n", "line 1"),
        ],
        ids=["data", "pred"],
    )
    def test_integer_over_the_digit_limit_exits_2(self, tmp_path, capsys, data, pred, where):
        (tmp_path / "data.csv").write_text(data)
        (tmp_path / "pred.tsv").write_text(pred)
        code = main(
            ["evaluate", "--data", str(tmp_path / "data.csv"), "--pred", str(tmp_path / "pred.tsv")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{where}: malformed span literal" in err and "Traceback" not in err
        assert max(map(len, err.splitlines())) < 200  # the 5002-character literal is cut

    def test_misaligned_prediction_file_exits_2(self, workspace, tmp_path, capsys):
        pred = tmp_path / "short.tsv"
        pred.write_text("0\t[]\n")
        code = main(
            ["evaluate", "--data", str(workspace / "dev.csv"), "--pred", str(pred)]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    def test_duplicate_prediction_id_exits_2(self, tmp_path, capsys, command):
        # id 3 twice and id 4 missing used to surface as an id mismatch
        data = tmp_path / "five.csv"
        data.write_text("spans,text\n" + '"[]",hello there\n' * 5)
        pred = tmp_path / "dup.tsv"
        pred.write_text("0\t[]\n1\t[]\n2\t[]\n3\t[]\n3\t[0]\n")
        assert main([command, "--data", str(data), "--pred", str(pred)]) == 2
        err = capsys.readouterr().err
        assert "line 5: duplicate id 3 (first on line 4)" in err and "Traceback" not in err


class TestManifests:
    @pytest.mark.parametrize("lenient", [False, True])
    def test_commands_reading_gold_record_lenient(self, workspace, tmp_path, lenient):
        flag = ["--lenient"] if lenient else []
        data = ["--data", str(workspace / "train.csv")]
        vectors = ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM)]
        pred = tmp_path / "gold.tsv"
        write_gold_predictions(pred, generate_posts(120, seed=11))
        outs = {"train": tmp_path / "m.ckpt", "gate-train": tmp_path / "g.json",
                "evaluate": tmp_path / "report.tsv"}
        assert train_tiny(workspace, outs["train"], *flag) == 0
        assert main(["gate-train", *data, *vectors, "--out", str(outs["gate-train"]), *flag]) == 0
        assert main(["evaluate", *data, "--pred", str(pred), "--out", str(outs["evaluate"]),
                     *flag]) == 0
        for out in outs.values():
            assert manifest_config(out)["lenient"] is lenient

    @pytest.mark.parametrize(
        "command, roles",
        [("stats", {"data"}), ("train", {"data", "embeddings"}), ("gate-train", {"data", "embeddings"}),
         ("predict", {"data", "embeddings", "checkpoint", "gate_model"}), ("evaluate", {"data", "pred"})],
    )
    def test_manifest_contract(self, workspace, gate_07, tmp_path, command, roles):
        """A command that writes ``--out`` records its name, the fixed key
        set, outputs that exist and the digest of each file it read."""
        pred = tmp_path / "gold.tsv"
        write_gold_predictions(pred, generate_posts(40, seed=12))
        dev = ["--data", str(workspace / "dev.csv")]
        vectors = ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM)]
        argv = {
            "stats": dev,
            "train": ["--data", str(workspace / "train.csv"), *vectors, "--hidden", "4", "--epochs", "1"],
            "gate-train": ["--data", str(workspace / "train.csv"), *vectors],
            "predict": [*dev, *vectors, "--checkpoint", str(workspace / "model.ckpt"),
                        "--gate", "internal", "--gate-model", str(gate_07)],
            "evaluate": [*dev, "--pred", str(pred)],
        }[command]
        out = tmp_path / "out"
        assert main([command, *argv, "--out", str(out)]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == command
        assert set(manifest) == {"command", "config", "seed", "inputs", "outputs", "wall_clock_seconds"}
        assert manifest["outputs"][0] == str(out) and all(Path(p).is_file() for p in manifest["outputs"])
        assert set(manifest["inputs"]) == roles
        for entry in manifest["inputs"].values():
            assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()

    def test_no_output_no_manifest(self, workspace, gate_07, tmp_path, monkeypatch):
        """``stats`` and ``evaluate`` without ``--out``, ``analyze``, and a
        ``predict`` that exits 2 write nothing: no manifest, no predictions."""
        inputs, work = tmp_path / "in", tmp_path / "work"
        inputs.mkdir()
        work.mkdir()
        pred = inputs / "gold.tsv"
        write_gold_predictions(pred, generate_posts(40, seed=12))
        other_gate = inputs / "other_gate.json"
        other_gate.write_text(json.dumps(json.loads(gate_07.read_text()) | {"vocab_hash": "0" * 64}))
        dev = ["--data", str(workspace / "dev.csv")]
        monkeypatch.chdir(work)
        assert main(["stats", *dev]) == 0
        assert main(["evaluate", *dev, "--pred", str(pred)]) == 0
        assert main(["analyze", *dev, "--pred", str(pred)]) == 0
        assert main(["predict", *dev, "--embeddings", str(workspace / "vectors.txt"),
                     "--embedding-dim", str(DIM), "--checkpoint", str(workspace / "model.ckpt"),
                     "--gate", "internal", "--gate-model", str(other_gate), "--out", "p.tsv"]) == 2
        assert list(work.iterdir()) == []
        assert sorted(p.name for p in inputs.iterdir()) == ["gold.tsv", "other_gate.json"]


@pytest.fixture(scope="module")
def long_posts(tmp_path_factory):
    """A dataset of 20 posts of about 650 characters, each ten generated
    posts joined, and a prediction file for it.  Gold and predicted literals
    hold about 130 indexes each, in forms that both parse paths read:
    ascending and unsorted JSON arrays with repeats, which the json scanner
    reads, and leading zeros or Arabic-Indic digits and ideographic spaces,
    which only the grammar does.  A prediction is exact, empty, or drops a
    fifth of the gold and adds stray indexes, -1 among them."""
    root = tmp_path_factory.mktemp("long")
    short = generate_posts(200, seed=21)
    rng = np.random.default_rng(4)
    arabic = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
    forms = [
        lambda values: "[" + ", ".join(map(str, values)) + "]",
        lambda values: "[" + ",".join(map(str, values[::-1] + values[:5])) + "]",
        lambda values: "[ " + ", ".join(f"0{v}" if v >= 0 else str(v) for v in values) + " ]",
        lambda values: "\u3000[" + ",\u3000".join(str(v).translate(arabic) for v in values) + "]",
    ]
    rows, lines = [], []
    for k in range(20):
        text, gold = "", []
        for post in short[10 * k : 10 * k + 10]:
            offset = len(text) + 1 if text else 0
            text = f"{text} {post.text}" if text else post.text
            gold += [i + offset for i in post.gold]
        stray = rng.integers(-1, len(text), size=20).tolist()
        pred = [gold, [], sorted(set(gold[len(gold) // 5 :]) | set(stray))][min(k % 5, 2)]
        rows.append((forms[k % 4](gold), text))
        lines.append(f"{k}\t{forms[(k + 1) % 4](pred)}\n")
    (root / "long.csv").write_bytes(csv_bytes(rows).getvalue())
    (root / "long.tsv").write_text("".join(lines), encoding="utf-8")
    return root


class TestLongPosts:
    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    def test_output_matches_the_grammar_parser(self, long_posts, monkeypatch, capsys, command):
        args = [command, "--data", str(long_posts / "long.csv"),
                "--pred", str(long_posts / "long.tsv")]
        assert main(args) == 0
        printed = capsys.readouterr().out
        monkeypatch.setattr(toxicspans.dataio, "parse_span_literal", grammar_parse_span_literal)
        assert main(args) == 0
        assert capsys.readouterr().out == printed
        if command == "evaluate":
            lines = printed.splitlines()
            assert len(lines) == 22 and lines[-1] != "mean_f1\t0.0000"


class TestAnalyze:
    def test_bucket_report(self, tmp_path, capsys):
        data = tmp_path / "mini.csv"
        data.write_text(
            "spans,text\n"
            '"[]",Indeed people know that Trump is a loser\n'
            '"[0, 1, 2]",bad words here\n'
            '"[0, 1, 2]",bad words here\n'
        )
        pred = tmp_path / "mini.tsv"
        pred.write_text("0\t[35, 36, 37, 38, 39]\n1\t[]\n2\t[0, 1, 2]\n")
        assert main(["analyze", "--data", str(data), "--pred", str(pred)]) == 0
        out = capsys.readouterr().out
        assert "spurious-on-clean:      1" in out
        assert "missed-all:      1" in out
        assert "exact:      1" in out

    def test_misalignment_exits_2(self, tmp_path, capsys):
        data = tmp_path / "mini.csv"
        data.write_text('spans,text\n"[]",hello there\n')
        pred = tmp_path / "mini.tsv"
        pred.write_text("4\t[]\n")
        assert main(["analyze", "--data", str(data), "--pred", str(pred)]) == 2


class TestOptionsCheckedFirst:
    """A bad option exits 2 with one error line before any input file is
    read, and writes nothing; ``predict`` checks a flagged value before it
    reads the checkpoint that holds its defaults."""

    @pytest.mark.parametrize(
        "command, extra, match",
        [
            ("train", ["--lr", "nan"], "learning_rate"),
            ("train", ["--bridge-gap", "-1"], "bridge_gap"),
            ("gate-train", ["--gate-epochs", "-3"], "gate epochs"),
            ("gate-train", ["--gate-epochs", "0"], "gate epochs"),
            ("gate-train", ["--gate-threshold", "1.5"], "threshold"),
            ("gate-train", ["--max-len", "0"], "max_len"),
            ("stats", ["--max-len", "-1"], "max_len"),
            ("analyze", ["--samples", "-1"], "samples"),
            ("predict", ["--max-len", "0"], "max_len"),
            ("predict", ["--bridge-gap", "-1"], "max_gap"),
            ("predict", ["--gate", "off", "--gate-threshold", "1.5"], "threshold"),
            ("predict", ["--gate-threshold", "1.5", "--embeddings", "missing-vectors.txt"], "threshold"),
            ("predict", ["--gate", "always"], "--gate must be"),
            ("predict", ["--gate", "internal"], "requires --gate-model"),
        ],
        ids=["train-lr-nan", "train-bridge-gap", "gate-epochs-negative", "gate-epochs-zero",
             "gate-threshold", "gate-max-len", "stats-max-len", "analyze-samples", "predict-max-len",
             "predict-bridge-gap", "predict-gate-threshold", "predict-threshold-no-embeddings",
             "predict-gate-mode", "predict-gate-model"],
    )
    def test_bad_option_exits_2_before_reading_data(
        self, workspace, tmp_path, capsys, monkeypatch, command, extra, match
    ):
        def unreachable(*args, **kwargs):
            raise AssertionError("an input file was read before the options were checked")

        monkeypatch.setattr(toxicspans.cli, "parse_dataset", unreachable)
        monkeypatch.setattr(toxicspans.cli, "load_embeddings", unreachable)
        args = [command, "--data", str(workspace / "train.csv")]
        if command in ("train", "gate-train"):
            args += ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM),
                     "--out", str(tmp_path / "out")]
        if command == "analyze":
            args += ["--pred", str(workspace / "missing.tsv")]
        if command == "predict":
            args += ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM),
                     "--checkpoint", str(workspace / "model.ckpt"), "--out", str(tmp_path / "out")]
        code = main(args + extra)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and match in err[0]
        assert list(tmp_path.iterdir()) == []


class TestOneBridgeGapMessage:
    """A negative bridge gap fails with :class:`BridgePolicy`'s one message
    wherever it comes from: a ``train`` or ``predict`` flag, a config file,
    or a checkpoint's recorded training config."""

    @staticmethod
    def policy_message() -> str:
        with pytest.raises(ValidationError) as info:
            BridgePolicy(max_gap=-1)
        return str(info.value)

    def run(self, workspace, tmp_path, capsys, command, *extra, checkpoint=None) -> list[str]:
        argv = [command, "--data", str(workspace / "dev.csv"), "--embeddings", str(workspace / "vectors.txt"),
                "--embedding-dim", str(DIM), "--out", str(tmp_path / "out"), *extra]
        if command == "predict":
            argv += ["--checkpoint", str(checkpoint or workspace / "model.ckpt")]
        code = main(argv)
        assert code == 2
        return capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("command", ["train", "predict"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_flag_and_config_file(self, workspace, tmp_path, capsys, command, source):
        if source == "flag":
            extra = ["--bridge-gap", "-1"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text("bridge_gap = -1\n")
            extra = ["--config", str(config)]
        assert self.run(workspace, tmp_path, capsys, command, *extra) == [f"error: {self.policy_message()}"]

    def test_checkpoint(self, workspace, tmp_path, capsys):
        raw = (workspace / "model.ckpt").read_bytes()
        header_end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC) : header_end])
        header["train_config"]["bridge_gap"] = -1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(MAGIC + json.dumps(header).encode() + raw[header_end:])
        [line] = self.run(workspace, tmp_path, capsys, "predict", checkpoint=bad)
        assert line.startswith("error: ") and line.endswith(f": {self.policy_message()}")


class TestOutNamesAnInput:
    """An ``--out`` that names a file the command reads, by another spelling,
    exits 2 with one error line before any input but the config file is
    read, and leaves every file as it was."""

    FILES = {"data": "posts.csv", "embeddings": "vectors.txt", "checkpoint": "model.ckpt",
             "gate_model": "gate.json", "gate_scores": "scores.tsv", "pred": "pred.tsv", "config": "options.cfg"}

    @pytest.mark.parametrize(
        "command, target",
        [("stats", "data"), ("stats", "config"), ("train", "data"), ("train", "embeddings"),
         ("gate-train", "data"), ("gate-train", "embeddings"), ("predict", "data"),
         ("predict", "embeddings"), ("predict", "checkpoint"), ("predict", "gate_model"),
         ("predict", "gate_scores"), ("predict", "config"), ("evaluate", "data"), ("evaluate", "pred")],
    )
    def test_exits_2_and_keeps_the_input(
        self, workspace, gate_07, tmp_path, monkeypatch, capsys, command, target
    ):
        sources = {"data": workspace / "dev.csv", "embeddings": workspace / "vectors.txt",
                   "checkpoint": workspace / "model.ckpt", "gate_model": gate_07}
        for role, name in self.FILES.items():
            (tmp_path / name).write_bytes(sources[role].read_bytes() if role in sources else b"# none\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def unreachable(*args, **kwargs):
            raise AssertionError("an input file was read before --out was checked")

        monkeypatch.setattr(toxicspans.cli, "parse_dataset", unreachable)
        monkeypatch.setattr(toxicspans.cli, "load_embeddings", unreachable)
        monkeypatch.chdir(tmp_path)
        vectors = ["--embeddings", "vectors.txt", "--embedding-dim", str(DIM)]
        gate = {"gate_model": ["--gate", "internal", "--gate-model", "gate.json"],
                "gate_scores": ["--gate", "scores:scores.tsv"]}.get(target, [])
        argv = {"stats": [], "train": vectors, "gate-train": vectors, "evaluate": ["--pred", "pred.tsv"],
                "predict": [*vectors, "--checkpoint", "model.ckpt", *gate]}[command]
        # the inputs are relative names and --out the absolute path of one
        code = main([command, "--data", "posts.csv", "--config", "options.cfg", *argv,
                     "--out", str(tmp_path / self.FILES[target])])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == [f"error: --out {tmp_path / self.FILES[target]} is an input file of {command}"]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize(
        "command, target, suffix",
        [("stats", "data", MANIFEST_SUFFIX), ("train", "data", HISTORY_SUFFIX),
         ("gate-train", "config", MANIFEST_SUFFIX)],
    )
    def test_a_side_file_of_out_that_names_an_input_exits_2(
        self, workspace, tmp_path, monkeypatch, capsys, command, target, suffix
    ):
        """``<out>.manifest.json``, and train's ``<out>.history.json``, are
        written too: one that names an input or the config file is an error
        like ``--out`` itself, and nothing is read or written."""
        names = {"data": "posts.csv", "config": "options.cfg", target: "out" + suffix}
        (tmp_path / names["data"]).write_bytes((workspace / "dev.csv").read_bytes())
        (tmp_path / names["config"]).write_bytes(b"# none\n")
        (tmp_path / "vectors.txt").write_bytes((workspace / "vectors.txt").read_bytes())
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}

        def unreachable(*args, **kwargs):
            raise AssertionError("an input file was read before --out was checked")

        monkeypatch.setattr(toxicspans.cli, "parse_dataset", unreachable)
        monkeypatch.setattr(toxicspans.cli, "load_embeddings", unreachable)
        monkeypatch.chdir(tmp_path)
        vectors = ["--embeddings", "vectors.txt", "--embedding-dim", str(DIM)] if command != "stats" else []
        out = tmp_path / "out"
        code = main([command, "--data", names["data"], "--config", names["config"], *vectors, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {out} would overwrite {out}{suffix}, an input file of {command}"
        ]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestOutIsADirectory:
    """An ``--out`` that is a directory, or whose side file is, exits 2 with
    one error line before any input is read or any epoch runs, so no
    temporary file is left next to it."""

    @pytest.mark.parametrize(
        "command, suffix",
        [("stats", ""), ("train", ""), ("gate-train", ""), ("predict", ""), ("evaluate", ""),
         ("stats", MANIFEST_SUFFIX), ("train", MANIFEST_SUFFIX), ("train", HISTORY_SUFFIX)],
    )
    def test_exits_2_before_any_work(self, workspace, gate_07, tmp_path, monkeypatch, capsys, command, suffix):
        def unreachable(*args, **kwargs):
            raise AssertionError("work ran before --out was checked")

        for name in ("parse_dataset", "load_embeddings", "load_checkpoint", "train"):
            monkeypatch.setattr(toxicspans.cli, name, unreachable)
        out = tmp_path / "out"
        directory = Path(f"{out}{suffix}")
        directory.mkdir()
        vectors = ["--embeddings", str(workspace / "vectors.txt"), "--embedding-dim", str(DIM)]
        argv = {"stats": [], "train": vectors, "gate-train": vectors,
                "predict": [*vectors, "--checkpoint", str(workspace / "model.ckpt"),
                            "--gate", "internal", "--gate-model", str(gate_07)],
                "evaluate": ["--pred", str(workspace / "dev.csv")]}[command]
        code = main([command, "--data", str(workspace / "dev.csv"), *argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        message = f"--out {out} would overwrite {directory}, a directory" if suffix else f"--out {out} is a directory"
        assert captured.err == f"error: {message}\n"
        assert "epoch" not in captured.out + captured.err
        assert [path.name for path in tmp_path.iterdir()] == [directory.name] and list(directory.iterdir()) == []


class TestRaiseSitesReachedFromTheCli:
    """Each bad input that reaches a library check exits 2 with that
    check's one error line, and no traceback."""

    @staticmethod
    def assert_exits_2(code, capsys, match):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and match in err and "Traceback" not in err

    def train(self, workspace, tmp_path, *extra, data="train.csv", vectors="vectors.txt"):
        return main(["train", "--data", str(workspace / data), "--embeddings", str(workspace / vectors),
                     "--embedding-dim", str(DIM), "--out", str(tmp_path / "m.ckpt"), *extra])

    def test_embedding_dim_zero(self, workspace, tmp_path, capsys):
        code = self.train(workspace, tmp_path, "--embedding-dim", "0")
        self.assert_exits_2(code, capsys, "expected_dim must be >= 1, got 0")

    def test_nan_component_in_the_vector_file(self, workspace, tmp_path, capsys):
        lines = (workspace / "vectors.txt").read_text().splitlines()
        word, *values = lines[0].split(" ")
        lines[0] = " ".join([word, "nan", *values[1:]])
        (tmp_path / "nan.txt").write_text("\n".join(lines) + "\n")
        code = self.train(workspace, tmp_path, vectors=tmp_path / "nan.txt")
        self.assert_exits_2(code, capsys, "non-finite components")

    def test_training_posts_all_whitespace(self, workspace, tmp_path, capsys):
        (tmp_path / "blank.csv").write_bytes(csv_bytes([("[]", " "), ("[]", "\t \t"), ("[]", "   ")]).getvalue())
        code = self.train(workspace, tmp_path, data=tmp_path / "blank.csv")
        self.assert_exits_2(code, capsys, "no training example has at least one token")

    def test_dataset_header_field_over_the_csv_field_limit(self, tmp_path, capsys):
        (tmp_path / "wide.csv").write_text("spans,text," + "x" * 140_000 + "\n")
        code = main(["stats", "--data", str(tmp_path / "wide.csv")])
        self.assert_exits_2(code, capsys, "CSV header: field larger than field limit (131072)")

    def test_checkpoint_train_config_not_an_object(self, workspace, tmp_path, capsys):
        raw = (workspace / "model.ckpt").read_bytes()
        header_end = raw.index(b"\n", len(MAGIC))
        header = json.loads(raw[len(MAGIC) : header_end])
        header["train_config"] = [1, 2]
        (tmp_path / "bad.ckpt").write_bytes(MAGIC + json.dumps(header).encode() + raw[header_end:])
        # the last --checkpoint given wins
        code = run_predict(workspace, tmp_path / "x.tsv", "--checkpoint", str(tmp_path / "bad.ckpt"))
        self.assert_exits_2(code, capsys, "a training config must be a mapping, got [1, 2]")


def predict_quietly(workspace, *extra) -> tuple[int, str]:
    """``cli predict`` on a two-post file; the exit code and stderr."""
    data = workspace / "two_posts.csv"
    data.write_text('spans,text\n"[]",the cat sat\n"[0, 1]",you loser\n')
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([
            "predict",
            "--data", str(data),
            "--embeddings", str(workspace / "vectors.txt"),
            "--embedding-dim", str(DIM),
            "--checkpoint", str(workspace / "model.ckpt"),
            "--out", str(workspace / "fuzz.tsv"),
            *extra,
        ])
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    """A run that fails exits 1 or 2 with an ``error:`` message, never a traceback."""
    assert "Traceback" not in err
    if code:
        assert code in (1, 2) and err.startswith("error: ")


CONFIG_LINES = st.builds(
    lambda key, sep, value: f"{key}{sep}{value}",
    st.sampled_from(sorted(DEFAULTS)) | st.text(max_size=6),
    st.sampled_from([" = ", "=", " "]),
    st.text(max_size=8) | st.integers().map(str) | st.floats().map(str),
)
GATE_PAYLOADS = st.fixed_dictionaries({
    "kind": st.sampled_from(["internal-logreg", "external-scores"]) | st.text(max_size=4),
    "threshold": st.floats() | json_values,
    "weights": st.lists(st.floats(), min_size=DIM + 1, max_size=DIM + 1) | json_values,
}, optional={
    "vocab_hash": st.text(alphabet="0123456789abcdef", max_size=64) | json_values,
})

EMBEDDING_LINES = st.builds(
    lambda word, values: " ".join([word, *values]),
    st.text(max_size=6),
    st.lists(st.floats().map(str) | st.text(max_size=4), max_size=DIM + 2),
)

SPAN_LITERALS = (
    st.lists(st.integers(-2, 40), max_size=4).map(str)
    | st.text(alphabet="[]0123456789, -+_", max_size=10)
)
POST_IDS = st.integers(-1, 3).map(str) | st.text(max_size=3)
DATA_ROWS = st.builds(lambda spans, text: f'"{spans}",{text}', SPAN_LITERALS, st.text(max_size=12))
PREDICTION_LINES = st.builds(lambda post_id, spans: f"{post_id}\t{spans}", POST_IDS, SPAN_LITERALS)
SCORE_LINES = st.builds(
    lambda post_id, score: f"{post_id}\t{score}", POST_IDS, st.floats().map(str) | st.text(max_size=4)
)
# A valid two-post dataset and a prediction file for it.
TWO_POSTS = b'spans,text\n"[]",the cat sat\n"[0, 1]",you loser\n'
TWO_PREDICTIONS = b"0\t[]\n1\t[0, 1]\n"


def scored_quietly(workspace, command, data: bytes, pred: bytes) -> tuple[int, str]:
    """``cli evaluate`` or ``cli analyze`` on the given file bytes; the exit
    code and stderr."""
    (workspace / "fuzz_data.csv").write_bytes(data)
    (workspace / "fuzz_pred.tsv").write_bytes(pred)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([command, "--data", str(workspace / "fuzz_data.csv"),
                     "--pred", str(workspace / "fuzz_pred.tsv")])
    return code, err.getvalue()


EDITS = st.tuples(
    st.sampled_from(["truncate", "flip", "insert", "delete"]),
    st.integers(min_value=0, max_value=2**20),
    st.binary(min_size=1, max_size=8),
)


def mutated(edit: str, at: int, chunk: bytes, raw: bytes) -> bytes:
    """``raw`` truncated, with one byte flipped, or with ``chunk`` inserted
    or its length of bytes deleted, at offset ``at`` (wrapped to the size)."""
    at %= len(raw)
    if edit == "truncate":
        return raw[:at]
    if edit == "flip":
        return raw[:at] + bytes([raw[at] ^ chunk[0]]) + raw[at + 1 :]
    if edit == "insert":
        return raw[:at] + chunk + raw[at:]
    return raw[:at] + raw[at + len(chunk) :]


class TestFuzz:
    """Arbitrary bytes in a CLI input file end in an exit code, not a crash.
    Well-formed files can exit 0; anything else must exit 1 or 2."""

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=48) | st.lists(CONFIG_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode()))
    def test_config_file(self, workspace, raw):
        config = workspace / "fuzz.conf"
        config.write_bytes(raw)
        assert_clean_exit(*predict_quietly(workspace, "--config", str(config)))

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=48) | (json_values | GATE_PAYLOADS).map(lambda v: json.dumps(v).encode()))
    def test_gate_json(self, workspace, raw):
        gate = workspace / "fuzz_gate.json"
        gate.write_bytes(raw)
        assert_clean_exit(*predict_quietly(workspace, "--gate", "internal", "--gate-model", str(gate)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(max_size=64)
        | EDITS
    )
    def test_checkpoint(self, workspace, fuzz):
        if isinstance(fuzz, bytes):
            raw = fuzz
        else:
            edit, at, chunk = fuzz
            raw = mutated(edit, at, chunk, (workspace / "model.ckpt").read_bytes())
        ckpt = workspace / "fuzz.ckpt"
        ckpt.write_bytes(raw)
        assert_clean_exit(*predict_quietly(workspace, "--checkpoint", str(ckpt)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.binary(max_size=64)
        | st.lists(EMBEDDING_LINES, max_size=4).map(lambda ls: "\n".join(ls).encode())
        | EDITS
    )
    def test_embeddings(self, workspace, fuzz):
        if isinstance(fuzz, bytes):
            raw = fuzz
        else:
            edit, at, chunk = fuzz
            raw = mutated(edit, at, chunk, (workspace / "vectors.txt").read_bytes())
        vectors = workspace / "fuzz_vectors.txt"
        vectors.write_bytes(raw)
        assert_clean_exit(*predict_quietly(workspace, "--embeddings", str(vectors)))

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    @settings(max_examples=60, deadline=None)
    @given(fuzz=st.binary(max_size=64)
           | st.lists(DATA_ROWS, max_size=3).map(lambda rows: "\n".join(["spans,text", *rows]).encode())
           | EDITS.map(lambda edit: mutated(*edit, TWO_POSTS)))
    def test_data_csv(self, workspace, command, fuzz):
        assert_clean_exit(*scored_quietly(workspace, command, fuzz, TWO_PREDICTIONS))

    @pytest.mark.parametrize("command", ["evaluate", "analyze"])
    @settings(max_examples=60, deadline=None)
    @given(fuzz=st.binary(max_size=64)
           | st.lists(PREDICTION_LINES, max_size=3).map(lambda ls: "\n".join(ls).encode())
           | EDITS.map(lambda edit: mutated(*edit, TWO_PREDICTIONS)))
    def test_prediction_file(self, workspace, command, fuzz):
        assert_clean_exit(*scored_quietly(workspace, command, TWO_POSTS, fuzz))

    @settings(max_examples=60, deadline=None)
    @given(st.binary(max_size=64) | st.lists(SCORE_LINES, max_size=3).map(lambda ls: "\n".join(ls).encode()))
    def test_score_file(self, workspace, raw):
        scores = workspace / "fuzz_scores.tsv"
        scores.write_bytes(raw)
        assert_clean_exit(*predict_quietly(workspace, "--gate", f"scores:{scores}"))


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
