"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 7 needs the real shared-task data and is skipped unless the
TOXICSPANS_TRAIN_CSV (and, for the long soft check, TOXICSPANS_GLOVE /
TOXICSPANS_TEST_CSV / TOXICSPANS_FULL_RUN=1) environment variables point at
local files.
"""

import io
import json
import os
import time

import numpy as np
import pytest

from oracles import (
    brute_best_path,
    brute_log_partition,
    brute_marginals,
    crf_log_partition,
    crf_marginals,
    crf_nll,
    finite_difference,
    max_relative_error,
    path_score,
)
from conftest import make_table, named_tensors
from toxicspans.cli import main
from toxicspans.crf import CrfParams, viterbi_decode
from toxicspans.dataio import CharSpanSet, read_predictions
from toxicspans.embeddings import encode_post
from toxicspans.gate import apply_gate
from toxicspans.metric import per_post_scores
from toxicspans.model import _emissions, init_params, nll_and_gradients
from toxicspans.synthetic import generate_posts, write_corpus_csv, write_embedding_file
from toxicspans.tokenizer import tokenize


def report(number, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert condition, f"acceptance criterion {number} ({name}) failed: {detail}"


def test_criterion_1_metric_fidelity():
    started = time.perf_counter()
    tol = 1e-12

    shifted = per_post_scores(
        CharSpanSet((-1, 0, 1, 2, 3)), CharSpanSet((0, 1, 2, 3, 4))
    )
    identity = per_post_scores(CharSpanSet((4, 5, 6)), CharSpanSet((4, 5, 6)))
    both_empty = per_post_scores(CharSpanSet(()), CharSpanSet(()))
    pred_empty = per_post_scores(CharSpanSet(()), CharSpanSet((1, 2)))
    gold_empty = per_post_scores(CharSpanSet((1, 2)), CharSpanSet(()))

    elapsed = time.perf_counter() - started
    ok = (
        abs(shifted.f1 - 0.8) <= tol
        and abs(shifted.precision - 0.8) <= tol
        and abs(shifted.recall - 0.8) <= tol
        and abs(identity.f1 - 1.0) <= tol
        and abs(both_empty.f1 - 1.0) <= tol
        and pred_empty.f1 == 0.0
        and gold_empty.f1 == 0.0
        and elapsed < 1.0
    )
    report(1, "metric fidelity", ok, f"F1={shifted.f1:.12f}, {elapsed:.3f}s")


def test_criterion_2_crf_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240229)
    worst = 0.0
    for _ in range(200):
        T = int(rng.integers(1, 9))
        em = rng.uniform(-2.0, 2.0, size=(T, 2))
        crf = CrfParams(
            trans=rng.uniform(-2.0, 2.0, size=(2, 2)),
            start=rng.uniform(-2.0, 2.0, size=2),
            stop=rng.uniform(-2.0, 2.0, size=2),
        )
        log_z = crf_log_partition(em, crf)
        expected_log_z = brute_log_partition(em, crf.trans, crf.start, crf.stop)
        worst = max(worst, abs(log_z - expected_log_z))

        marg, trans_counts = crf_marginals(em, crf)
        b_marg, b_counts = brute_marginals(em, crf.trans, crf.start, crf.stop)
        worst = max(worst, float(np.max(np.abs(marg - b_marg))))
        worst = max(worst, float(np.max(np.abs(trans_counts - b_counts))))

        path = viterbi_decode(em, crf)
        best_score, _ = brute_best_path(em, crf.trans, crf.start, crf.stop)
        got = path_score(em, crf.trans, crf.start, crf.stop, path)
        worst = max(worst, abs(got - best_score))  # score equality covers ties

    elapsed = time.perf_counter() - started
    ok = worst < 1e-10 and elapsed < 10.0
    report(2, "CRF oracle equivalence", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(7)
    table = make_table([f"w{i}" for i in range(40)], dim=6, seed=13)
    params = init_params(table, hidden_size=8, rng=rng)

    batch = []
    for n_tokens in (5, 7, 8):
        text = " ".join(f"w{int(rng.integers(40))}" for _ in range(n_tokens))
        post = encode_post(tokenize(text), table, max_len=16)
        labels = [int(rng.integers(2)) for _ in range(n_tokens)]
        batch.append((post, labels))

    def batch_loss():
        total = 0.0
        for post, labels in batch:
            em, _, _ = _emissions([post], params)
            total += crf_nll(em, params.crf, labels)
        return total / len(batch)

    posts, label_lists = zip(*batch)
    _, grads = nll_and_gradients(posts, label_lists, params)
    analytic = {name: arr / len(batch) for name, arr in named_tensors(grads).items()}

    numeric = finite_difference(batch_loss, named_tensors(params), h=1e-5)
    err = max_relative_error(analytic, numeric)
    n_params = sum(arr.size for arr in named_tensors(params).values())

    elapsed = time.perf_counter() - started
    ok = err < 1e-4 and elapsed < 30.0
    report(3, "gradient correctness", ok,
           f"max rel err {err:.2e} over {n_params} params, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def e2e_workspace(tmp_path_factory):
    """Fixed-seed 500/100 synthetic corpus plus a full CLI training run."""
    root = tmp_path_factory.mktemp("accept")
    started = time.perf_counter()
    with open(root / "vectors.txt", "wb") as f:
        write_embedding_file(f, dim=25, seed=7)
    with open(root / "train.csv", "wb") as f:
        write_corpus_csv(generate_posts(500, seed=11), f)
    with open(root / "dev.csv", "wb") as f:
        write_corpus_csv(generate_posts(100, seed=12), f)
    code = main(
        [
            "train",
            "--data", str(root / "train.csv"),
            "--embeddings", str(root / "vectors.txt"),
            "--embedding-dim", "25",
            "--out", str(root / "model.ckpt"),
            "--hidden", "32", "--epochs", "30", "--batch", "16",
            "--lr", "3e-3", "--seed", "3", "--patience", "6", "--max-len", "128",
        ]
    )
    assert code == 0
    code = main(
        [
            "predict",
            "--data", str(root / "dev.csv"),
            "--embeddings", str(root / "vectors.txt"),
            "--embedding-dim", "25",
            "--checkpoint", str(root / "model.ckpt"),
            "--out", str(root / "dev.pred.tsv"),
        ]
    )
    assert code == 0
    return root, time.perf_counter() - started


def test_criterion_4_synthetic_end_to_end(e2e_workspace, capsys, tmp_path):
    root, train_elapsed = e2e_workspace
    started = time.perf_counter()
    out = tmp_path / "report.tsv"
    code = main(
        [
            "evaluate",
            "--data", str(root / "dev.csv"),
            "--pred", str(root / "dev.pred.tsv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    mean_line = out.read_text().strip().splitlines()[-1]
    mean_f1 = float(mean_line.split("\t")[1])
    history = json.loads((root / "model.ckpt.history.json").read_text())
    epochs_used = len(history["epochs"])
    elapsed = train_elapsed + (time.perf_counter() - started)
    with capsys.disabled():
        report(
            4,
            "synthetic end-to-end",
            mean_f1 >= 0.95 and epochs_used <= 30 and elapsed < 300.0,
            f"dev F1 {mean_f1:.4f} after {epochs_used} epochs, {elapsed:.1f}s",
        )


def test_criterion_5_gate_rule(e2e_workspace, capsys):
    root, _ = e2e_workspace
    # Detector fires on the final word of a clean post; the gate, scoring it
    # non-toxic, must empty the span set.
    detector_output = CharSpanSet((66, 67, 68, 69, 70))
    gated = apply_gate(detector_output, score=0.12, threshold=0.5)
    rule_holds = gated == CharSpanSet(())

    # Per-post subset property on a real fixture run: gate every even post.
    with open(root / "dev.pred.tsv", "rb") as f:
        ungated = read_predictions(f)
    scores_path = root / "gate_scores.tsv"
    with open(scores_path, "w") as f:
        for p in ungated:
            f.write(f"{p.id}\t{0.0 if p.id % 2 == 0 else 1.0}\n")
    code = main(
        [
            "predict",
            "--data", str(root / "dev.csv"),
            "--embeddings", str(root / "vectors.txt"),
            "--embedding-dim", "25",
            "--checkpoint", str(root / "model.ckpt"),
            "--gate", f"scores:{scores_path}",
            "--out", str(root / "dev.gated.tsv"),
        ]
    )
    assert code == 0
    with open(root / "dev.gated.tsv", "rb") as f:
        gated_preds = read_predictions(f)
    subset_everywhere = all(
        g.spans.issubset(u.spans) for g, u in zip(gated_preds, ungated)
    )
    gated_out = all(
        len(g.spans) == 0 for g in gated_preds if g.id % 2 == 0
    )
    with capsys.disabled():
        report(
            5,
            "gate rule",
            rule_holds and subset_everywhere and gated_out,
            f"row-1 fixture -> {list(gated.indexes)}; subset on {len(gated_preds)} posts",
        )


def test_criterion_6_determinism(tmp_path, capsys):
    with open(tmp_path / "vectors.txt", "wb") as f:
        write_embedding_file(f, dim=16, seed=7)
    with open(tmp_path / "train.csv", "wb") as f:
        write_corpus_csv(generate_posts(60, seed=21), f)
    args = [
        "train",
        "--data", str(tmp_path / "train.csv"),
        "--embeddings", str(tmp_path / "vectors.txt"),
        "--embedding-dim", "16",
        "--hidden", "8", "--epochs", "4", "--batch", "8",
        "--seed", "9", "--max-len", "64",
    ]
    assert main(args + ["--out", str(tmp_path / "run_a.ckpt")]) == 0
    assert main(args + ["--out", str(tmp_path / "run_b.ckpt")]) == 0
    ckpt_same = (tmp_path / "run_a.ckpt").read_bytes() == (
        tmp_path / "run_b.ckpt"
    ).read_bytes()
    hist_same = (tmp_path / "run_a.ckpt.history.json").read_bytes() == (
        tmp_path / "run_b.ckpt.history.json"
    ).read_bytes()
    with capsys.disabled():
        report(6, "determinism", ckpt_same and hist_same,
               "checkpoints and histories byte-identical")


def test_criterion_7_real_data_statistics(capsys):
    train_csv = os.environ.get("TOXICSPANS_TRAIN_CSV")
    if not train_csv or not os.path.isfile(train_csv):
        print("[ACCEPTANCE 7] real-data statistics: SKIP "
              "(set TOXICSPANS_TRAIN_CSV to the real training CSV)")
        pytest.skip("real shared-task data not available")

    from toxicspans.analysis import span_word_histogram
    from toxicspans.dataio import parse_dataset

    with open(train_csv, "rb") as f:
        posts = parse_dataset(f, has_gold=True, lenient=True)
    hist = span_word_histogram(posts)
    one_word = hist.percentages.get(1, 0.0)
    zero_word = hist.percentages.get(0, 0.0)
    ok = abs(one_word - 67.65) <= 2.0 and abs(zero_word - 6.10) <= 1.0
    with capsys.disabled():
        report(7, "real-data statistics", ok,
               f"1-word bucket {one_word:.2f}%, 0-word bucket {zero_word:.2f}%")


@pytest.mark.skipif(
    not (
        os.environ.get("TOXICSPANS_FULL_RUN") == "1"
        and os.environ.get("TOXICSPANS_TRAIN_CSV")
        and os.environ.get("TOXICSPANS_TEST_CSV")
        and os.environ.get("TOXICSPANS_GLOVE")
    ),
    reason="full-data soft check needs TOXICSPANS_FULL_RUN=1 plus data paths",
)
def test_criterion_7_soft_full_run_band(tmp_path, capsys):
    """Soft check only: a full run should land near the published range."""
    train_csv = os.environ["TOXICSPANS_TRAIN_CSV"]
    test_csv = os.environ["TOXICSPANS_TEST_CSV"]
    glove = os.environ["TOXICSPANS_GLOVE"]
    ckpt = tmp_path / "full.ckpt"
    assert main([
        "train", "--data", train_csv, "--embeddings", glove,
        "--embedding-dim", "25", "--out", str(ckpt), "--lenient",
        "--epochs", "30", "--seed", "0",
    ]) == 0
    assert main([
        "predict", "--data", test_csv, "--embeddings", glove,
        "--embedding-dim", "25", "--checkpoint", str(ckpt),
        "--out", str(tmp_path / "full.pred.tsv"),
    ]) == 0
    out = tmp_path / "full.report.tsv"
    assert main([
        "evaluate", "--data", test_csv, "--pred", str(tmp_path / "full.pred.tsv"),
        "--out", str(out), "--lenient",
    ]) == 0
    mean_f1 = float(out.read_text().strip().splitlines()[-1].split("\t")[1])
    with capsys.disabled():
        report(7, "soft full-run band", 0.50 <= mean_f1 <= 0.65,
               f"ungated mean F1 {mean_f1:.4f}")
