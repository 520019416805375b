import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import deep_equal, json_values, make_table
from oracles import crf_nll, finite_difference, max_relative_error
from toxicspans.dataio import CharSpanSet
from toxicspans.embeddings import encode_post
from toxicspans.errors import DataFormatError, ToxicSpansError, ValidationError
from toxicspans.model import (
    _emissions,
    backward,
    init_params,
    nll_and_gradients,
    predict,
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


def make_model(table, hidden=5, seed=0):
    return init_params(table, hidden_size=hidden, rng=np.random.default_rng(seed))


def encoded(table, text, max_len=16):
    return encode_post(tokenize(text), table, max_len)


class TestEmissions:
    def test_shape_matches_effective_length(self):
        table = make_table(["a", "b", "c"])
        params = make_model(table)
        post = encoded(table, "a b c a b c a")
        emissions, _ = _emissions([post], params)
        assert emissions.shape == (7, 2)

    def test_zero_projection_yields_bias_everywhere(self):
        table = make_table(["a", "b"])
        params = make_model(table)
        params.emit.W_out[:] = 0.0
        params.emit.b_out[:] = [0.25, -1.5]
        post = encoded(table, "a b a")
        emissions, _ = _emissions([post], params)
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
        before, _ = _emissions(posts, params)
        params.embedding.matrix[table.pad_index] += 123.0
        after, _ = _emissions(posts, params)
        np.testing.assert_array_equal(before, after)


class TestBackward:
    def test_zero_upstream_gradient_gives_zero_gradients(self):
        table = make_table(["a", "b"])
        params = make_model(table)
        post = encoded(table, "a b a b")
        emissions, cache = _emissions([post], params)
        grads = backward(params, cache, np.zeros_like(emissions), finetune_embeddings=True)
        for arr in grads.values():
            assert np.all(arr == 0.0)

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
                em, _ = _emissions([post], params)
                total += crf_nll(em, params.crf, labels)
            return total / len(batch)

        posts, label_lists = zip(*batch)
        _, grads = nll_and_gradients(posts, label_lists, params)
        analytic = {name: arr / len(batch) for name, arr in grads.items()}

        numeric = finite_difference(batch_loss, dict(params.named_arrays()), h=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-4

    @staticmethod
    def mixed_batch(table, rng, lengths=(7, 2, 5, 5, 1, 6)):
        """Posts of mixed lengths over ``table``'s words, with labels."""
        texts = [" ".join(f"w{int(rng.integers(8))}" for _ in range(n)) for n in lengths]
        return [encoded(table, text) for text in texts], [[int(rng.integers(2)) for _ in range(n)] for n in lengths]

    def test_finetuned_embedding_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        table = make_table([f"w{i}" for i in range(6)], dim=3, seed=5)
        params = make_model(table, hidden=3, seed=6)
        params.embedding = table.with_matrix(table.matrix.copy())
        posts, labels = self.mixed_batch(table, rng)

        def batch_loss():
            total = 0.0
            for post, labs in zip(posts, labels):
                em, _ = _emissions([post], params)
                total += crf_nll(em, params.crf, labs)
            return total

        _, grads = nll_and_gradients(posts, labels, params, finetune_embeddings=True)
        name = "embedding.matrix"
        numeric = finite_difference(batch_loss, {name: params.embedding.matrix}, h=1e-5)
        assert np.any(grads[name] != 0.0)
        assert max_relative_error({name: grads[name]}, numeric) < 1e-4

    def test_finetuning_leaves_the_other_gradients_bit_identical(self):
        rng = np.random.default_rng(7)
        table = make_table([f"w{i}" for i in range(6)], dim=4, seed=5)
        params = make_model(table, hidden=5, seed=8)
        posts, labels = self.mixed_batch(table, rng)
        nll, plain = nll_and_gradients(posts, labels, params, finetune_embeddings=False)
        tuned_nll, tuned = nll_and_gradients(posts, labels, params, finetune_embeddings=True)
        assert nll == tuned_nll
        assert set(tuned) == set(plain) | {"embedding.matrix"}
        for name, arr in plain.items():
            assert np.array_equal(arr, tuned[name]), name

    def test_embedding_gradients_only_touch_used_rows(self):
        table = make_table(["a", "b", "c"])
        params = make_model(table)
        post = encoded(table, "a a b", max_len=8)
        _, grads = nll_and_gradients([post], [[1, 0, 1]], params, finetune_embeddings=True)
        d_matrix = grads["embedding.matrix"]
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


def all_label_model(table, toxic: bool, seed=0):
    """A model that deterministically labels every token one way."""
    params = make_model(table, seed=seed)
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


class TestStackedDirections:
    def test_direction_views_write_through_to_the_stack(self):
        params = make_model(make_table(["a", "b"], dim=3), hidden=4, seed=2)
        params.fwd.W_rec[1, 2] = 7.5
        params.bwd.b[:] += 1.0
        assert params.lstm.W_rec[0, 1, 2] == 7.5
        np.testing.assert_array_equal(params.lstm.b[1], params.bwd.b)
        named = dict(params.named_arrays())
        named["bwd.W_in"][0, 0] = -3.0  # as the in-place optimizer update does
        assert params.lstm.W_in[1, 0, 0] == -3.0

    def test_clone_and_checkpoint_round_trip_rebuild_an_equal_stack(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b", "c"], dim=4)
        params = make_model(table, hidden=3, seed=4)
        params.bwd.W_rec[:] = np.arange(36.0).reshape(12, 3)
        copy = params.clone()
        save_checkpoint(tmp_path / "m.ckpt", params, TrainConfig(hidden_size=3), table)
        loaded, _ = load_checkpoint(tmp_path / "m.ckpt", table)
        for other in (copy, loaded):
            assert deep_equal(params, other)
            for name in ("W_in", "W_rec", "b"):
                np.testing.assert_array_equal(getattr(other.lstm, name), getattr(params.lstm, name))
            assert not np.shares_memory(other.lstm.W_rec, params.lstm.W_rec)
        copy.fwd.W_in[0, 0] += 1.0
        assert not deep_equal(params, copy)


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

        monkeypatch.setattr(ckpt.os, "replace", replace_after_second_writer)
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
        "name, value",
        [("fwd.W_in", np.nan), ("crf.trans", np.inf), ("crf.stop", -np.inf),
         ("embedding.matrix", np.nan)],
    )
    def test_non_finite_tensor_is_a_format_error(self, tmp_path, name, value):
        from toxicspans.checkpoint import load_checkpoint, save_checkpoint

        table = make_table(["a", "b"], dim=3)
        params = make_model(table, hidden=4)
        finetuned = name == "embedding.matrix"
        if finetuned:
            params.embedding = table.with_matrix(table.matrix.copy())
        dict(params.named_arrays(include_embedding=finetuned))[name].flat[1] = value
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, TrainConfig(hidden_size=4, finetune_embeddings=finetuned), table)
        with pytest.raises(DataFormatError, match=f"tensor {name} holds NaN or infinite"):
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

    def test_non_checkpoint_file_rejected(self, tmp_path):
        from toxicspans.checkpoint import load_checkpoint

        table = make_table(["a"], dim=3)
        path = tmp_path / "junk"
        path.write_bytes(b"this is not a checkpoint")
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path, table)
