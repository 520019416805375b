import json

import pytest

from toxicspans.checkpoint import MAGIC
from toxicspans.cli import main
from toxicspans.dataio import read_predictions
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


def run_predict(workspace, out_name, *extra):
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

    def test_bad_span_literal_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text('spans,text\n"[1, oops]",hello there\n')
        assert main(["stats", "--data", str(bad)]) == 2
        assert "record 1" in capsys.readouterr().err


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


class TestPredict:
    def test_prediction_file_format_and_manifest(self, workspace):
        assert run_predict(workspace, "plain.tsv") == 0
        with open(workspace / "plain.tsv", "rb") as f:
            preds = read_predictions(f)
        assert [p.id for p in preds] == list(range(40))
        assert (workspace / "plain.tsv.manifest.json").exists()

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
        assert run_predict(
            workspace, "gated2.tsv", "--gate", "internal", "--gate-model", str(gate_path)
        ) == 0
        with open(workspace / "ungated.tsv", "rb") as f:
            ungated = read_predictions(f)
        with open(workspace / "gated2.tsv", "rb") as f:
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

    def test_gate_of_wrong_size_exits_2(self, workspace, tmp_path, capsys):
        gate_path = tmp_path / "small_gate.json"
        gate_path.write_text(
            json.dumps({"kind": "internal-logreg", "threshold": 0.5, "weights": [0.1] * 5})
        )
        code = run_predict(workspace, "x.tsv", "--gate", "internal", "--gate-model", str(gate_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "weights" in err and "Traceback" not in err

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

    def test_misaligned_prediction_file_exits_2(self, workspace, tmp_path, capsys):
        pred = tmp_path / "short.tsv"
        pred.write_text("0\t[]\n")
        code = main(
            ["evaluate", "--data", str(workspace / "dev.csv"), "--pred", str(pred)]
        )
        assert code == 2


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


class TestUsage:
    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
