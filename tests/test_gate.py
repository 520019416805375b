import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import json_values, make_table
import toxicspans
from toxicspans.dataio import CharSpanSet, text_writer
from toxicspans.embeddings import encode_post, mean_pooled
from toxicspans.errors import DataFormatError, ToxicSpansError, ValidationError
from toxicspans.gate import (
    GateModel,
    KIND_EXTERNAL,
    KIND_INTERNAL,
    _fit_logreg,
    apply_gate,
    gate_score,
    load_external_gate,
    load_gate,
    read_score_file,
    save_gate,
    train_gate,
)
from toxicspans.tokenizer import tokenize


def write_score_file(scores: dict[int, float], sink) -> None:
    with text_writer(sink) as out:
        for post_id in sorted(scores):
            out.write(f"{post_id}\t{scores[post_id]}\n")


def separable_data(table, n_per_class=12, max_len=8):
    """Toxic posts use word 'bad', clean posts use word 'nice'."""
    data = []
    for k in range(n_per_class):
        n = 1 + k % 3
        data.append((encode_post(tokenize(" ".join(["bad"] * n)), table, max_len), True))
        data.append((encode_post(tokenize(" ".join(["nice"] * n)), table, max_len), False))
    return data


class TestTrainGate:
    def test_separable_data_reaches_perfect_accuracy(self):
        table = make_table(["bad", "nice"], dim=4, seed=3)
        data = separable_data(table)
        model = train_gate(data, table)
        correct = 0
        for post, is_toxic in data:
            score = gate_score(model, 0, mean_pooled(post, table))
            correct += (score >= model.threshold) == is_toxic
        assert correct == len(data)

    def test_single_class_rejected(self):
        table = make_table(["bad"], dim=4)
        data = [(encode_post(tokenize("bad"), table, 4), True)] * 3
        with pytest.raises(ValidationError, match="single class"):
            train_gate(data, table)

    def test_empty_data_rejected(self):
        table = make_table(["bad"], dim=4)
        with pytest.raises(ValidationError, match="empty"):
            train_gate([], table)

    @pytest.mark.parametrize("epochs, threshold", [(0, 0.5), (-3, 0.5), (10, 1.5), (10, float("nan"))])
    def test_bad_epochs_or_threshold_rejected(self, epochs, threshold):
        table = make_table(["bad", "nice"], dim=4, seed=3)
        with pytest.raises(ValidationError, match="epochs" if epochs < 1 else "threshold"):
            train_gate(separable_data(table), table, epochs=epochs, threshold=threshold)

    def test_loss_is_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(40, 6)) * 3.0
        targets = (rng.random(40) < 0.5).astype(float)
        design = np.hstack([features, np.ones((len(features), 1))])
        losses = []
        for k in range(1, 201):
            logits = design @ _fit_logreg(features, targets, epochs=k)
            # the log(1 + exp(-|z|)) form keeps the loss finite for saturated logits
            losses.append(np.mean(np.log1p(np.exp(-np.abs(logits))) + np.maximum(logits, 0.0) - targets * logits))
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestGateScore:
    def test_zero_weight_model_scores_half(self):
        model = GateModel(kind=KIND_INTERNAL, weights=np.zeros(5))
        assert gate_score(model, 0, np.ones(4)) == pytest.approx(0.5)

    def test_external_lookup(self):
        model = GateModel(kind=KIND_EXTERNAL, scores={5: 0.97})
        assert gate_score(model, 5) == 0.97

    def test_missing_external_score_names_the_id(self):
        model = GateModel(kind=KIND_EXTERNAL, scores={0: 0.5})
        with pytest.raises(ValidationError, match="7"):
            gate_score(model, 7)

    def test_internal_without_pooled_vector_rejected(self):
        model = GateModel(kind=KIND_INTERNAL, weights=np.zeros(3))
        with pytest.raises(ValidationError):
            gate_score(model, 0)

    @given(
        st.lists(st.floats(-30, 30), min_size=5, max_size=5),
        st.lists(st.floats(-30, 30), min_size=4, max_size=4),
    )
    def test_probability_strictly_inside_unit_interval(self, weights, pooled):
        model = GateModel(kind=KIND_INTERNAL, weights=np.array(weights))
        p = gate_score(model, 0, np.array(pooled))
        assert 0.0 < p < 1.0


def clipped_sigmoid(x: float) -> float:
    """The internal gate's score before it was computed without np.clip."""
    with np.errstate(over="ignore"):
        return float(np.clip(1.0 / (1.0 + np.exp(-np.float64(x))), 1e-12, 1.0 - 1e-12))


class TestGateScoreBits:
    """The internal gate's score is bit for bit the clipped numpy sigmoid
    of its logit, and calls no ``np.exp`` that overflows."""

    @pytest.mark.parametrize("lo, hi, n", [(-720.0, -690.0, 6001), (-40.0, 40.0, 16001)])
    def test_sweep(self, lo, hi, n):
        logits = [*np.linspace(lo, hi, n).tolist(), *np.random.default_rng(17).uniform(lo, hi, 2000).tolist()]
        logits += [np.nextafter(-700.0, -np.inf), -700.0, np.nextafter(-700.0, np.inf)] if lo < -700.0 else []
        model = GateModel(kind=KIND_INTERNAL, weights=np.array([1.0, 0.0]))
        with np.errstate(over="raise"):
            got = [gate_score(model, 0, np.array([x])) for x in logits]
        assert np.array_equal(np.array(got).view(np.uint64), np.array(list(map(clipped_sigmoid, logits))).view(np.uint64))

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero(self, zero):
        model = GateModel(kind=KIND_INTERNAL, weights=np.array([1.0, zero]))  # the logit is zero + zero
        assert gate_score(model, 0, np.array([zero])) == clipped_sigmoid(zero) == 0.5


class TestApplyGate:
    def test_low_score_empties_detected_spans(self):
        detected = CharSpanSet((66, 67, 68, 69, 70))
        assert apply_gate(detected, score=0.1, threshold=0.5) == CharSpanSet(())

    def test_high_score_passes_spans_through(self):
        detected = CharSpanSet((38, 39, 40, 41, 42, 43))
        assert apply_gate(detected, score=0.9, threshold=0.5) == detected

    def test_empty_detected_stays_empty_either_way(self):
        assert apply_gate(CharSpanSet(()), 0.0, 0.5) == CharSpanSet(())
        assert apply_gate(CharSpanSet(()), 1.0, 0.5) == CharSpanSet(())

    @given(
        st.frozensets(st.integers(0, 99), max_size=20),
        st.floats(0, 1),
        st.floats(0, 1),
    )
    def test_never_adds_characters_and_is_idempotent(self, spans, score, threshold):
        detected = CharSpanSet(tuple(spans))
        once = apply_gate(detected, score, threshold)
        assert once.issubset(detected)
        assert apply_gate(once, score, threshold) == once


class TestScoreFiles:
    def test_round_trip(self):
        scores = {0: 0.25, 3: 1.0, 7: 0.0}
        sink = io.BytesIO()
        write_score_file(scores, sink)
        assert read_score_file(io.BytesIO(sink.getvalue())) == scores

    def test_bad_lines_rejected_with_line_number(self):
        with pytest.raises(DataFormatError, match="line 2"):
            read_score_file(io.BytesIO(b"0\t0.5\nbroken\n"))
        with pytest.raises(DataFormatError, match="line 1"):
            read_score_file(io.BytesIO(b"0\t1.5\n"))

    def test_duplicate_id_rejected_with_line_number(self):
        with pytest.raises(DataFormatError, match=r"line 3: duplicate id 0 \(first on line 1\)"):
            read_score_file(io.BytesIO(b"0\t0.5\n1\t0.2\n0\t0.9\n"))

    def test_load_external_gate(self):
        model = load_external_gate(io.BytesIO(b"0\t0.9\n1\t0.1\n"), threshold=0.6)
        assert model.kind == KIND_EXTERNAL
        assert gate_score(model, 0) == 0.9


class TestGatePersistence:
    def test_save_load_round_trip(self, tmp_path):
        model = GateModel(
            kind=KIND_INTERNAL, threshold=0.4, weights=np.array([0.1, -0.2, 0.3])
        )
        path = tmp_path / "gate.json"
        save_gate(model, path)
        loaded = load_gate(path)
        assert loaded.kind == KIND_INTERNAL
        assert loaded.threshold == 0.4
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_trained_gate_round_trips_its_table(self, tmp_path):
        table = make_table(["bad", "nice"], dim=4, seed=3)
        model = train_gate(separable_data(table), table)
        assert model.vocab_hash == table.fingerprint()
        path = tmp_path / "gate.json"
        save_gate(model, path)
        loaded = load_gate(path)
        assert loaded.vocab_hash == table.fingerprint()
        np.testing.assert_array_equal(loaded.weights, model.weights)

    def test_numeric_vocab_hash_rejected(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({"kind": KIND_INTERNAL, "threshold": 0.5, "weights": [0.0] * 5, "vocab_hash": 7}))
        with pytest.raises(DataFormatError, match=f"^gate model file {re.escape(str(path))}: vocab_hash must"):
            load_gate(path)

    def test_a_bom_is_skipped(self, tmp_path):
        table = make_table(["bad", "nice"], dim=4, seed=3)
        path = tmp_path / "gate.json"
        save_gate(train_gate(separable_data(table), table), path)
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, behind_bom = load_gate(path), load_gate(bom)
        np.testing.assert_array_equal(behind_bom.weights, plain.weights)
        assert replace(behind_bom, weights=None) == replace(plain, weights=None)

    def test_a_non_utf8_byte_is_named_by_its_offset(self, tmp_path):
        path = tmp_path / "gate.json"
        head = b'{"kind": "internal-logreg", "threshold": 0.5, "vocab_hash": "'
        path.write_bytes(head + b'\xff", "weights": [0.0]}')
        with pytest.raises(DataFormatError) as raised:
            load_gate(path)
        assert str(raised.value).startswith(f"gate model file {path}: not valid UTF-8 at byte {len(head)}: ")

    def test_a_stored_threshold_outside_the_unit_interval_names_the_file(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({"kind": KIND_INTERNAL, "threshold": 1.5, "weights": [0.0] * 5}))
        with pytest.raises(DataFormatError, match=f"^gate model file {re.escape(str(path))}: threshold must be in"):
            load_gate(path)

    @pytest.mark.parametrize("kind", [KIND_EXTERNAL, "logreg"])
    def test_any_kind_but_the_internal_gate_rejected(self, tmp_path, kind):
        path = tmp_path / "gate.json"
        path.write_text(json.dumps({"kind": kind, "threshold": 0.5, "weights": [0.0] * 5}))
        with pytest.raises(DataFormatError, match=f"kind must be 'internal-logreg', got '{kind}'"):
            load_gate(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "gate.json"
        path.write_text("{not json")
        with pytest.raises(DataFormatError):
            load_gate(path)

    @settings(max_examples=200, deadline=None)
    @given(
        payload=json_values
        | st.fixed_dictionaries(
            {"kind": st.just(KIND_INTERNAL) | json_values, "threshold": json_values, "weights": json_values},
            optional={"vocab_hash": st.text() | json_values},
        )
    )
    def test_arbitrary_json_raises_only_package_errors(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("fuzz") / "gate.json"
        path.write_text(json.dumps(payload))
        try:
            load_gate(path)
        except ToxicSpansError:
            pass

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValidationError):
            GateModel(kind=KIND_INTERNAL, threshold=1.5, weights=np.zeros(2))


def test_importing_the_gate_loads_no_module_of_the_model_stack():
    """The gate reads encoded posts and writes files; a fresh interpreter
    that imports it loads neither the tagger nor its checkpoint format."""
    stack = ["toxicspans.checkpoint", "toxicspans.model", "toxicspans.training", "toxicspans.lstm"]
    code = f"import sys, toxicspans.gate; print([m for m in {stack!r} if m in sys.modules])"
    src = str(Path(toxicspans.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"
