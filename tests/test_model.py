import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_equal, json_values, make_table, named_tensors
from oracles import crf_nll, finite_difference, max_relative_error
from toxicspans.dataio import CharSpanSet, LabeledPost
from toxicspans.embeddings import encode_post, mean_pooled
from toxicspans.errors import DataFormatError, ToxicSpansError, ValidationError
from toxicspans.gate import KIND_EXTERNAL, KIND_INTERNAL, GateModel, apply_gate, gate_score
from toxicspans.model import (
    _emissions,
    backward,
    INFER_BATCH,
    TENSOR_NAMES,
    init_params,
    nll_and_gradients,
    params_from_vector,
    predict,
    predict_spans,
    tag_posts,
)
from toxicspans.span_codec import BridgePolicy
from toxicspans.tokenizer import tokenize
from toxicspans.training import TrainConfig


def edit_header(raw: bytes, edit) -> bytes:
    """Checkpoint bytes with ``edit`` applied to the parsed JSON header."""
    from toxicspans.checkpoint import MAGIC

    end = raw.index(b"\n", len(MAGIC))
    header = json.loads(raw[len(MAGIC) : end])
    edit(header)
    return MAGIC + json.dumps(header).encode() + raw[end:]


@pytest.fixture(scope="module")
def ckpt_bytes():
    """A table and the checkpoint bytes of a small model over it."""
    from toxicspans.checkpoint import serialize_checkpoint

    table = make_table(["a", "b"], dim=3)
    return table, serialize_checkpoint(make_model(table, hidden=4), TrainConfig(hidden_size=4), table)


def make_model(table, hidden=5, seed=0, finetune=False):
    return init_params(table, hidden_size=hidden, rng=np.random.default_rng(seed), finetune_embeddings=finetune)


def encoded(table, text, max_len=16):
    return encode_post(tokenize(text), table, max_len)


class TestEmissions:
    def test_shape_matches_effective_length(self):
        table = make_table(["a", "b", "c"])
        params = make_model(table)
        post = encoded(table, "a b c a b c a")
        emissions, _, _ = _emissions([post], params)
        assert emissions.shape == (7, 2)

    def test_zero_projection_yields_bias_everywhere(self):
        table = make_table(["a", "b"])
        params = make_model(table)
        params.emit.W_out[:] = 0.0
        params.emit.b_out[:] = [0.25, -1.5]
        post = encoded(table, "a b a")
        emissions, _, _ = _emissions([post], params)
        assert post.effective_len == 3
        np.testing.assert_allclose(emissions, np.tile([0.25, -1.5], (3, 1)))

    def test_empty_post_rejected(self):
        table = make_table(["a"])
        params = make_model(table)
        with pytest.raises(ValidationError):
            nll_and_gradients([encoded(table, "")], [[]], params)

    def test_pad_rows_never_enter_the_computation(self):
        table = make_table(["a", "b"])
        params = make_model(table)
        posts = [encoded(table, "a b a", max_len=12), encoded(table, "b", max_len=12)]
        before, _, _ = _emissions(posts, params)
        params.embedding.matrix[table.pad_index] += 123.0
        after, _, _ = _emissions(posts, params)
        np.testing.assert_array_equal(before, after)


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_gradients(self):
        table = make_table(["a", "b"])
        params = make_model(table, finetune=True)
        post = encoded(table, "a b a b")
        emissions, _, cache = _emissions([post], params)
        grads = params.clone()
        grads.vector[:] = np.nan  # backward writes all but the CRF's tensors
        grads.embedding.matrix[:] = 0.0  # and adds into the embedding gradient
        backward(params, cache, np.zeros_like(emissions), grads)
        for name, arr in named_tensors(grads).items():
            assert name.startswith("crf.") or np.all(arr == 0.0), name

    def test_full_stack_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        table = make_table([f"w{i}" for i in range(12)], dim=4, seed=2)
        params = make_model(table, hidden=4, seed=3)
        batch = []
        for n in (3, 5, 6):
            text = " ".join(f"w{int(rng.integers(12))}" for _ in range(n))
            batch.append((encoded(table, text), [int(rng.integers(2)) for _ in range(n)]))

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
        assert max_relative_error(analytic, numeric) < 1e-4

    @staticmethod
    def mixed_batch(table, rng, lengths=(7, 2, 5, 5, 1, 6)):
        """Posts of mixed lengths over ``table``'s words, with labels."""
        texts = [" ".join(f"w{int(rng.integers(8))}" for _ in range(n)) for n in lengths]
        return [encoded(table, text) for text in texts], [[int(rng.integers(2)) for _ in range(n)] for n in lengths]

    def test_finetuned_matrix_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        table = make_table([f"w{i}" for i in range(6)], dim=3, seed=5)
        params = make_model(table, hidden=3, seed=6, finetune=True)
        posts, labels = self.mixed_batch(table, rng)

        def batch_loss():
            total = 0.0
            for post, labs in zip(posts, labels):
                em, _, _ = _emissions([post], params)
                total += crf_nll(em, params.crf, labs)
            return total

        _, grads = nll_and_gradients(posts, labels, params)
        name = "embedding.matrix"
        numeric = finite_difference(batch_loss, {name: params.embedding.matrix}, h=1e-5)
        assert np.any(grads.embedding.matrix != 0.0)
        assert max_relative_error({name: grads.embedding.matrix}, numeric) < 1e-4

    def test_finetuning_leaves_the_other_gradients_bit_identical(self):
        rng = np.random.default_rng(7)
        table = make_table([f"w{i}" for i in range(6)], dim=4, seed=5)
        params = make_model(table, hidden=5, seed=8)
        tuned_params = make_model(table, hidden=5, seed=8, finetune=True)
        posts, labels = self.mixed_batch(table, rng)
        nll, plain = nll_and_gradients(posts, labels, params)
        tuned_nll, tuned = nll_and_gradients(posts, labels, tuned_params)
        assert nll == tuned_nll
        assert np.array_equal(plain.vector, tuned.vector[: plain.vector.size])
        assert plain.embedding is params.embedding and tuned.embedding is not tuned_params.embedding

    def test_matrix_gradients_only_touch_used_rows(self):
        table = make_table(["a", "b", "c"])
        params = make_model(table, finetune=True)
        post = encoded(table, "a a b", max_len=8)
        _, grads = nll_and_gradients([post], [[1, 0, 1]], params)
        d_matrix = grads.embedding.matrix
        assert np.any(d_matrix[table.vocab["a"]] != 0.0)
        assert np.all(d_matrix[table.vocab["c"]] == 0.0)
        assert np.all(d_matrix[table.pad_index] == 0.0)

    def test_pad_row_perturbation_leaves_loss_unchanged(self):
        table = make_table(["a", "b"])
        params = make_model(table)
        post = encoded(table, "a b a", max_len=10)
        nll_before, _ = nll_and_gradients([post], [[0, 1, 0]], params)
        params.embedding.matrix[table.pad_index] += 7.5
        nll_after, _ = nll_and_gradients([post], [[0, 1, 0]], params)
        assert nll_before == nll_after


def all_label_model(table, toxic: bool, seed=0, finetune=False):
    """A model that deterministically labels every token one way."""
    params = make_model(table, seed=seed, finetune=finetune)
    params.emit.W_out[:] = 0.0
    params.emit.b_out[:] = [-10.0, 10.0] if toxic else [10.0, -10.0]
    params.crf.trans[:] = 0.0
    params.crf.start[:] = 0.0
    params.crf.stop[:] = 0.0
    return params


class TestPredict:
    def test_empty_text_gives_empty_spans(self):
        table = make_table(["a"])
        params = make_model(table)
        assert predict(params, "", max_len=8) == CharSpanSet(())

    def test_all_non_toxic_decode_gives_empty_spans(self):
        table = make_table(["the", "cat"])
        params = all_label_model(table, toxic=False)
        assert predict(params, "the cat sat", max_len=8) == CharSpanSet(())

    def test_all_toxic_decode_covers_text_with_bridging(self):
        table = make_table(["the", "cat"])
        params = all_label_model(table, toxic=True)
        spans = predict(params, "the cat", max_len=8)
        assert spans.indexes == tuple(range(7))

    def test_tokens_beyond_max_len_are_non_toxic(self):
        table = make_table(["w"])
        params = all_label_model(table, toxic=True)
        spans = predict(params, "w w w w", max_len=2,
                        policy=BridgePolicy(bridge_gaps=True, max_gap=1))
        assert spans.indexes == (0, 1, 2)  # first two tokens plus the bridge


class TestTagPosts:
    def test_equals_predict_spans_then_the_gate_in_input_order(self):
        """33 posts, windows of 16, 16 and 1: each post's spans are those of
        tagging it and gating it alone, in the order the posts came."""
        words = ["the", "cat", "sat", "loser", "dog"]
        table = make_table(words, dim=4)
        params = make_model(table, hidden=3, seed=5)
        rng = np.random.default_rng(2)
        texts = [" ".join(rng.choice(words + ["idiot"], size=rng.integers(0, 12))) for _ in range(2 * INFER_BATCH + 1)]
        posts = [LabeledPost(id=10 * k, text=text or "!", gold=CharSpanSet()) for k, text in enumerate(texts)]
        policy = BridgePolicy(bridge_gaps=True, max_gap=1)
        gate = GateModel(kind=KIND_EXTERNAL, threshold=0.5, scores={post.id: k % 3 / 2 for k, post in enumerate(posts)})
        alone = [predict_spans(params, [encoded(table, post.text, 6)], policy)[0] for post in posts]
        assert sum(map(bool, alone)) > 2
        assert tag_posts(params, table, posts, 6, policy) == alone
        assert tag_posts(params, table, posts, 6, policy, gate) == [
            apply_gate(spans, gate.scores[post.id], 0.5) for post, spans in zip(posts, alone)
        ] != alone

    def test_a_fine_tuned_models_internal_gate_pools_over_the_loaded_table(self):
        """The gate was trained on the table the checkpoint was loaded
        against; pooling over the model's tuned copy would move this post's
        score below the threshold and empty its spans."""
        table = make_table(["the", "cat"], dim=3)
        params = all_label_model(table, toxic=True, finetune=True)
        table.matrix[:2, 0], params.embedding.matrix[:2, 0] = 1.0, -1.0
        gate = GateModel(kind=KIND_INTERNAL, threshold=0.5, weights=np.array([4.0, 0.0, 0.0, 0.0]))
        post = LabeledPost(id=0, text="the cat", gold=CharSpanSet())
        tuned_score = gate_score(gate, 0, mean_pooled(encoded(table, post.text), params.embedding))
        assert tuned_score < gate.threshold < gate_score(gate, 0, mean_pooled(encoded(table, post.text), table))
        policy = BridgePolicy(bridge_gaps=True, max_gap=1)
        assert tag_posts(params, table, [post], 8, policy, gate) == [CharSpanSet(tuple(range(7)))]


class TestStackedDirections:
    @pytest.mark.parametrize("source", ["init", "clone", "gradients", "checkpoint"])
    def test_every_view_writes_through_to_the_vector_in_tensor_order(self, tmp_path, source):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b"], dim=3)
        params = make_model(table, hidden=4, seed=2)
        if source == "clone":
            params = params.clone()
        elif source == "gradients":
            params = nll_and_gradients([encoded(table, "a b a")], [[0, 1, 0]], params)[1]
        elif source == "checkpoint":
            save_checkpoint(tmp_path / "m.ckpt", params, TrainConfig(hidden_size=4), table)
            params = load_checkpoint(tmp_path / "m.ckpt", table)[0]
        named = list(named_tensors(params).items())
        assert [name for name, _ in named] == list(TENSOR_NAMES)
        for k, (_, arr) in enumerate(named):
            assert np.shares_memory(arr, params.vector)
            arr[...] = k
        blocks = (params.lstm.W_in, params.lstm.W_rec, params.lstm.b)
        for block in blocks:
            assert np.shares_memory(block, params.vector)
            block += 0.5  # both directions' tensors
        sizes = [arr.size for _, arr in named]
        marks = np.arange(len(named)) + np.where(np.arange(len(named)) < 3 * len(blocks[0]), 0.5, 0.0)
        assert sum(sizes) == params.vector.size
        np.testing.assert_array_equal(params.vector, np.repeat(marks, sizes))

    def test_direction_views_write_through_to_the_stack(self):
        params = make_model(make_table(["a", "b"], dim=3), hidden=4, seed=2)
        named = named_tensors(params)
        named["fwd.W_rec"][1, 2] = 7.5
        named["bwd.b"][:] += 1.0
        assert params.lstm.W_rec[0, 1, 2] == 7.5
        np.testing.assert_array_equal(params.lstm.b[1], named["bwd.b"])
        named["bwd.W_in"][0, 0] = -3.0  # as the in-place optimizer update does
        assert params.lstm.W_in[1, 0, 0] == -3.0

    def test_clone_and_checkpoint_round_trip_rebuild_an_equal_stack(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b", "c"], dim=4)
        params = make_model(table, hidden=3, seed=4)
        named_tensors(params)["bwd.W_rec"][:] = np.arange(36.0).reshape(12, 3)
        copy = params.clone()
        save_checkpoint(tmp_path / "m.ckpt", params, TrainConfig(hidden_size=3), table)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt", table)
        for other in (copy, loaded):
            assert deep_equal(params, other)
            for name in ("W_in", "W_rec", "b"):
                np.testing.assert_array_equal(getattr(other.lstm, name), getattr(params.lstm, name))
            assert not np.shares_memory(other.lstm.W_rec, params.lstm.W_rec)
            assert np.shares_memory(other.lstm.W_rec, other.vector)
        named_tensors(copy)["fwd.W_in"][0, 0] += 1.0
        assert not deep_equal(params, copy)


class TestFinetunedVector:
    """A fine-tuned model's embedding matrix is the tail of its parameter
    vector, and the vector's length says whether the model is fine-tuned."""

    def test_the_tuned_matrix_is_a_copy_of_the_tables_at_the_vectors_tail(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b", "c"], dim=4)
        frozen, tuned = make_model(table, hidden=3), make_model(table, hidden=3, finetune=True)
        assert not frozen.finetuned and frozen.embedding is table
        assert tuned.finetuned and tuned.vector.size == frozen.vector.size + table.matrix.size
        assert np.array_equal(tuned.vector[: frozen.vector.size], frozen.vector)
        assert np.array_equal(tuned.embedding.matrix, table.matrix)
        assert not np.shares_memory(tuned.embedding.matrix, table.matrix)
        save_checkpoint(tmp_path / "m.ckpt", tuned, TrainConfig(hidden_size=3, finetune_embeddings=True), table)
        for other in (tuned, tuned.clone(), load_checkpoint(tmp_path / "m.ckpt", table)[0]):
            assert other.finetuned and other.embedding.vocab is table.vocab
            other.vector[-1] = 9.0  # the matrix's last element, through the vector
            assert other.embedding.matrix[-1, -1] == 9.0
        assert tuned.clone().embedding.matrix is not tuned.embedding.matrix

    @pytest.mark.parametrize("length", ["short-of-frozen", "past-frozen", "past-tuned"])
    def test_a_vector_of_any_other_length_is_refused(self, length):
        table = make_table(["a", "b"], dim=3)
        frozen = make_model(table, hidden=4).vector.size
        tuned = frozen + table.matrix.size
        n = {"short-of-frozen": frozen - 1, "past-frozen": frozen + 1, "past-tuned": tuned + 1}[length]
        with pytest.raises(ValidationError, match=f"vector of {n} elements: .* has {frozen}, or {tuned} with"):
            params_from_vector(np.zeros(n), 4, table)


class TestCheckpoint:
    def test_round_trip_preserves_everything(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b", "c"], dim=4)
        params = make_model(table, hidden=6, seed=9)
        cfg = TrainConfig(epochs=3, hidden_size=6, max_len=32, seed=5)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg, table)
        loaded, loaded_cfg = load_checkpoint(path, table)
        assert deep_equal(params, loaded)
        assert loaded_cfg == cfg

    @pytest.mark.parametrize(
        "finetuned, digest",
        [(False, "0c83b818ec7057c501ac2c88acdc07e869d902d4b6ed88e7d75dbb3072850804"),
         (True, "748e86988dffb34006c57e820e4df5e45853788100ab6fd82779f79d8599c144")],
        ids=["plain", "finetuned"],
    )
    def test_seeded_model_bytes_are_pinned_and_the_body_is_the_vector(self, finetuned, digest):
        """The digests involve no BLAS arithmetic, so hold on every platform."""
        import hashlib

        from toxicspans.checkpoint import MAGIC, serialize_checkpoint

        table = make_table(["a", "b"], dim=3)
        # a tuned model's vector ends with a private copy of the matrix
        params = init_params(table, 4, np.random.default_rng(0), finetune_embeddings=finetuned)
        raw = serialize_checkpoint(params, TrainConfig(hidden_size=4, finetune_embeddings=finetuned), table)
        assert hashlib.sha256(raw).hexdigest() == digest
        body = raw[raw.index(b"\n", len(MAGIC)) + 1 :]
        tensors = init_params(table, 4, np.random.default_rng(0)).vector
        assert body == params.vector.tobytes() == tensors.tobytes() + (table.matrix.tobytes() if finetuned else b"")

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("train_config.hidden_size", 99, "dims.hidden_size is 4, but train_config.hidden_size is 99"),
            ("dims.hidden_size", 5, "dims.hidden_size is 5, but train_config.hidden_size is 4"),
            ("dims.max_len", 64, "dims.max_len is 64, but train_config.max_len is 128"),
            ("dims.max_len", 128.0, r"dims.max_len is 128\.0, but train_config.max_len is 128"),
            ("dims.num_labels", 3, "dims.num_labels is 3, but the tagger's label count is 2"),
            ("finetuned_embeddings", True,
             "finetuned_embeddings is True, but train_config.finetune_embeddings is False"),
        ],
        ids=["config-hidden-size", "dims-hidden-size", "dims-max-len", "dims-max-len-type", "dims-num-labels",
             "finetuned-embeddings"],
    )
    def test_header_copies_that_disagree_are_a_format_error(self, tmp_path, key, value, match):
        from toxicspans.checkpoint import load_checkpoint, serialize_checkpoint

        def edit(header):
            section, name = key.split(".") if "." in key else (None, key)
            (header[section] if section else header)[name] = value

        table = make_table(["a", "b"], dim=3)
        raw = serialize_checkpoint(make_model(table, hidden=4), TrainConfig(hidden_size=4), table)
        path = tmp_path / "model.ckpt"
        path.write_bytes(edit_header(raw, edit))
        with pytest.raises(DataFormatError, match=match):
            load_checkpoint(path, table)

    def test_bridge_gap_round_trips_and_defaults_when_absent(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, serialize_checkpoint

        table = make_table(["a", "b"], dim=3)
        raw = serialize_checkpoint(make_model(table, hidden=4), TrainConfig(hidden_size=4, bridge_gap=3),
                                   table)
        path = tmp_path / "model.ckpt"
        path.write_bytes(raw)
        assert load_checkpoint(path, table)[1].bridge_gap == 3
        path.write_bytes(edit_header(raw, lambda h: h["train_config"].pop("bridge_gap")))
        assert load_checkpoint(path, table)[1].bridge_gap == TrainConfig().bridge_gap == 1

    def test_serialization_is_byte_deterministic(self):
        from toxicspans.checkpoint import serialize_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b"], dim=3)
        params = make_model(table, hidden=4, seed=1)
        cfg = TrainConfig(hidden_size=4)
        assert serialize_checkpoint(params, cfg, table) == serialize_checkpoint(
            params, cfg, table
        )

    def test_vocab_hash_mismatch_rejected(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b"], dim=3)
        other = make_table(["a", "zzz"], dim=3)
        params = make_model(table, hidden=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(hidden_size=4), table)
        with pytest.raises(ValidationError, match="vocabulary"):
            load_checkpoint(path, other)

    def test_dimension_mismatch_rejected(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b"], dim=3)
        wider = make_table(["a", "b"], dim=5)
        params = make_model(table, hidden=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(hidden_size=4), table)
        with pytest.raises(ValidationError, match="dim"):
            load_checkpoint(path, wider)

    def test_truncated_file_rejected(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b"], dim=3)
        params = make_model(table, hidden=4)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(hidden_size=4), table)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path, table)

    def test_concurrent_writers_leave_one_writers_complete_bytes(self, tmp_path):
        import sys
        import threading

        from toxicspans.checkpoint import atomic_write_bytes

        path = tmp_path / "out.bin"
        payloads = [bytes([65 + k]) * (1 << 19) for k in range(4)]  # more writers than cores
        start = threading.Barrier(len(payloads))
        errors = []

        def writer(data):
            start.wait()
            try:
                for _ in range(50):
                    atomic_write_bytes(path, data)
            except Exception as exc:  # surfaced below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(data,)) for data in payloads]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_writer_renaming_after_another_keeps_its_own_bytes(self, tmp_path, monkeypatch):
        import os

        import toxicspans.checkpoint as ckpt

        path = tmp_path / "out.bin"
        real_replace = os.replace
        paused = []

        def replace_after_second_writer(src, dst):
            if not paused:  # the first writer pauses before its rename...
                paused.append(src)
                ckpt.atomic_write_bytes(dst, b"second")  # ...while another writes and renames
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_second_writer)
        ckpt.atomic_write_bytes(path, b"first")
        assert path.read_bytes() == b"first"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_atomic_write_keeps_default_mode_and_cleans_up_on_failure(self, tmp_path):
        from toxicspans.checkpoint import atomic_write_bytes

        plain = tmp_path / "plain"
        plain.write_bytes(b"x")
        atomic_write_bytes(tmp_path / "atomic", b"x")
        assert (tmp_path / "atomic").stat().st_mode == plain.stat().st_mode
        with pytest.raises(TypeError):
            atomic_write_bytes(tmp_path / "bad", "not bytes")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["atomic", "plain"]

    def test_atomic_write_into_a_missing_directory_names_the_target(self, tmp_path):
        from toxicspans.checkpoint import atomic_write_bytes

        target = tmp_path / "missing" / "x.tsv"
        with pytest.raises(FileNotFoundError) as raised:
            atomic_write_bytes(target, b"x")
        assert str(target) in str(raised.value) and ".tmp" not in str(raised.value)

    def test_unknown_train_config_key_is_a_format_error(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, serialize_checkpoint
        from toxicspans.training import TrainConfig

        table = make_table(["a", "b"], dim=3)
        raw = serialize_checkpoint(make_model(table, hidden=4), TrainConfig(hidden_size=4), table)
        path = tmp_path / "model.ckpt"
        path.write_bytes(raw.replace(b'"train_config":{', b'"train_config":{"bogus":1,', 1))
        with pytest.raises(DataFormatError, match="bogus"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda h: h["tensors"].__setitem__(0, ["fwd.W_in"]), "tensor list"),
            (lambda h: h["tensors"].__setitem__(6, ["emit.W_out", [16, 2]]), "tensor list"),
            (lambda h: h["train_config"].__setitem__("max_len", "128"), "max_len"),
            (lambda h: h["train_config"].__setitem__("max_len", 0), "max_len"),
            (lambda h: h["train_config"].__setitem__("max_len", 2**62), "max_len"),
            (lambda h: h["train_config"].__setitem__("gradient_clip_norm", float("nan")),
             "gradient_clip_norm"),
            (lambda h: h["train_config"].__setitem__("learning_rate", float("inf")),
             "learning_rate"),
            (lambda h: h["train_config"].__setitem__("bridge_gap", -1), "bridge_gap"),
            (lambda h: h["train_config"].__setitem__("bridge_gap", 1.0), "bridge_gap"),
        ],
        ids=["malformed-tensor-entry", "shape-disagrees-with-dims", "config-type", "config-range",
             "config-max-len-too-large", "config-clip-nan", "config-lr-inf", "config-bridge-gap-range",
             "config-bridge-gap-type"],
    )
    def test_malformed_header_is_a_format_error(self, tmp_path, edit, match):
        from toxicspans.checkpoint import load_checkpoint, serialize_checkpoint

        table = make_table(["a", "b"], dim=3)
        raw = serialize_checkpoint(make_model(table, hidden=8), TrainConfig(hidden_size=8), table)
        path = tmp_path / "model.ckpt"
        path.write_bytes(edit_header(raw, edit))
        with pytest.raises(DataFormatError, match=match):
            load_checkpoint(path, table)

    @pytest.mark.parametrize(
        "name, value, at",
        [("fwd.W_in", np.nan, 1), ("crf.trans", np.inf, 1), ("crf.stop", -np.inf, 1),
         ("embedding.matrix", np.nan, 1), ("bwd.W_in", np.nan, 0), ("crf.trans", -np.inf, 0),
         ("embedding.matrix", np.inf, 0)],
        ids=["fwd.W_in-nan", "crf.trans-inf", "crf.stop--inf", "embedding.matrix-nan",
             "bwd.W_in-nan-first", "crf.trans--inf-first", "embedding.matrix-inf-first"],
    )
    def test_non_finite_tensor_is_a_format_error(self, tmp_path, name, value, at):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b"], dim=3)
        finetuned = name == "embedding.matrix"
        params = make_model(table, hidden=4, finetune=finetuned)
        named_tensors(params)[name].flat[at] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(hidden_size=4, finetune_embeddings=finetuned), table)
        with pytest.raises(DataFormatError, match=f"tensor {name} holds NaN or infinite"):
            load_checkpoint(path, table)

    @pytest.mark.parametrize(
        "finetuned, cut, match",
        [(False, lambda ends: 0, "truncated tensor data for fwd.W_in"),
         (False, lambda ends: 8 * ends["fwd.W_in"] - 3, "truncated tensor data for fwd.W_in"),
         (False, lambda ends: 8 * ends["emit.b_out"], "truncated tensor data for crf.trans"),
         (False, lambda ends: 8 * ends["crf.stop"] - 8, "truncated tensor data for crf.stop"),
         (True, lambda ends: 8 * ends["crf.stop"] + 1, "truncated tensor data for embedding.matrix"),
         (False, lambda ends: 8 * ends["crf.stop"] + 5, "5 trailing bytes"),
         (True, lambda ends: 8 * ends["embedding.matrix"] + 16, "16 trailing bytes")],
        ids=["empty", "mid-element", "at-a-tensor-end", "last-element", "finetuned-matrix", "trailing",
             "finetuned-trailing"],
    )
    def test_body_of_the_wrong_length_names_the_tensor(self, tmp_path, finetuned, cut, match):
        from toxicspans.checkpoint import MAGIC, load_checkpoint, serialize_checkpoint

        table = make_table(["a", "b"], dim=3)
        params = make_model(table, hidden=4, finetune=finetuned)
        raw = serialize_checkpoint(params, TrainConfig(hidden_size=4, finetune_embeddings=finetuned), table)
        start = raw.index(b"\n", len(MAGIC)) + 1
        named = list(named_tensors(params).items())
        ends = dict(zip([name for name, _ in named], np.cumsum([arr.size for _, arr in named]).tolist()))
        n = cut(ends)
        path = tmp_path / "model.ckpt"
        path.write_bytes(raw[: start + n] + bytes(max(0, start + n - len(raw))))
        with pytest.raises(DataFormatError, match=match):
            load_checkpoint(path, table)

    @settings(max_examples=150, deadline=None)
    @given(
        key=st.sampled_from(
            ["dtype", "dims", "train_config", "vocab_hash", "tensors", "finetuned_embeddings"]
            + [f"dims.{k}" for k in ("input_dim", "hidden_size", "max_len")]
            + [f"train_config.{k}" for k in TrainConfig().to_dict()]
            + [f"tensors.{k}" for k in range(11)]
        ),
        value=json_values,
    )
    def test_fuzzed_header_field_raises_only_package_errors(self, ckpt_bytes, tmp_path_factory, key, value):
        from toxicspans.checkpoint import load_checkpoint

        def edit(header):
            *parents, last = key.split(".")
            target = header
            for name in parents:
                target = target[name]
            target[int(last) if isinstance(target, list) else last] = value

        table, raw = ckpt_bytes
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        path.write_bytes(edit_header(raw, edit))
        try:
            load_checkpoint(path, table)
        except ToxicSpansError:
            pass

    @settings(max_examples=150, deadline=None)
    @given(header=json_values)
    def test_arbitrary_json_header_raises_only_package_errors(self, ckpt_bytes, tmp_path_factory, header):
        from toxicspans.checkpoint import MAGIC, load_checkpoint

        table, raw = ckpt_bytes
        path = tmp_path_factory.mktemp("fuzz") / "model.ckpt"
        path.write_bytes(MAGIC + json.dumps(header).encode() + raw[raw.index(b"\n", len(MAGIC)):])
        with pytest.raises(ToxicSpansError):
            load_checkpoint(path, table)

    @pytest.mark.parametrize("case", ["hidden-size", "tuned-as-frozen", "frozen-as-tuned", "truly-tuned-as-frozen",
                                      "stray-copy-as-tuned", "tuned-with-a-stray-copy"])
    def test_writer_refuses_parameters_its_config_contradicts(self, tmp_path, case):
        """The header states these facts twice; a file whose copies
        disagree would load only as an error, so none is written.  Nor is
        one whose body would not hold the matrix the parameters use."""
        from toxicspans.checkpoint import save_checkpoint

        table = make_table(["a", "b"], dim=3)
        tuned = case in ("truly-tuned-as-frozen", "tuned-with-a-stray-copy")
        params = init_params(table, 4, np.random.default_rng(0), finetune_embeddings=tuned)
        frozen_count = init_params(table, 4, np.random.default_rng(0)).vector.size
        cfg = TrainConfig(hidden_size=4)
        tuned_cfg = TrainConfig(hidden_size=4, finetune_embeddings=True)
        if case == "hidden-size":
            cfg, match = TrainConfig(), "hidden size is 4, but the config's is 128"
        elif case == "tuned-as-frozen":  # a stray copy beside a frozen model's vector
            params.embedding = table.with_matrix(table.matrix.copy())
            match = "finetuned embeddings is True, but the config's is False"
        elif case == "truly-tuned-as-frozen":
            match = "finetuned embeddings is True, but the config's is False"
        elif case == "stray-copy-as-tuned":
            params.embedding = table.with_matrix(table.matrix.copy())
            cfg, match = tuned_cfg, f"parameter count is {frozen_count}, but the config's is {frozen_count + 12}"
        elif case == "tuned-with-a-stray-copy":
            params.embedding = table.with_matrix(params.embedding.matrix.copy())
            cfg, match = tuned_cfg, "embedding matrix is not their vector's tail"
        else:
            cfg, match = tuned_cfg, "finetuned embeddings is False"
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValidationError, match=match):
            save_checkpoint(path, params, cfg, table)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tuned", [False, True], ids=["frozen", "tuned"])
    @pytest.mark.parametrize("other", ["dimension", "vocabulary"])
    def test_writer_refuses_a_table_its_parameters_were_not_built_on(self, tmp_path, tuned, other):
        """The header's tensor list comes from the table and the body from
        the parameters; a file whose two disagree would load only as an
        error, so none is written."""
        from toxicspans.checkpoint import save_checkpoint

        table = make_table(["a", "b"], dim=3)
        if other == "dimension":
            built_on = make_table(["a", "b"], dim=5)
            match = "embedding dimension is 5, but the table's is 3"
        else:
            built_on = make_table(["a", "b", "c"], dim=3)
            match = f"vocabulary hash is {built_on.fingerprint()}, but the table's is {table.fingerprint()}"
        params = init_params(built_on, 4, np.random.default_rng(0), finetune_embeddings=tuned)
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValidationError, match=match):
            save_checkpoint(path, params, TrainConfig(hidden_size=4, finetune_embeddings=tuned), table)
        assert list(tmp_path.iterdir()) == []

    def test_non_checkpoint_file_rejected(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint

        table = make_table(["a"], dim=3)
        path = tmp_path / "junk"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path, table)
