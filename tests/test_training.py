import io
import math

import numpy as np
import pytest

from conftest import deep_equal, make_table, named_tensors
from oracles import (
    expression_adam_step,
    packed_reference_lstm_forward,
    per_tensor_adam_state,
    per_tensor_clip,
    reference_train,
)
import toxicspans.model
import toxicspans.training
from toxicspans.dataio import CharSpanSet, LabeledPost
from toxicspans.embeddings import load_embeddings
from toxicspans.errors import NonFiniteError, TrainingDivergedError, ValidationError
from toxicspans.model import init_params, predict
from toxicspans.span_codec import BridgePolicy, spans_to_labels
from toxicspans.synthetic import generate_posts, write_embedding_file
from toxicspans.tokenizer import tokenize
from toxicspans.training import (
    AdamState,
    TrainConfig,
    adam_step,
    build_examples,
    clip_gradients,
    dev_char_f1,
    train,
)


def synthetic_setup(n_posts=120, dim=16, seed=5):
    buf = io.BytesIO()
    write_embedding_file(buf, dim=dim, seed=7)
    table = load_embeddings(io.BytesIO(buf.getvalue()), expected_dim=dim)
    posts = generate_posts(n_posts, seed=seed)
    return table, posts


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"learning_rate": 0.0},
            {"hidden_size": 0},
            {"gradient_clip_norm": 0.0},
            {"early_stop_patience": 0},
            {"dev_fraction": 0.0},
            {"dev_fraction": 1.0},
            {"max_len": 0},
            {"max_len": 2**62},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"gradient_clip_norm": float("nan")},
            {"gradient_clip_norm": float("inf")},
            {"bridge_gap": -1},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs).validate()

    def test_dict_round_trip(self):
        cfg = TrainConfig(epochs=7, seed=99, learning_rate=0.5)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg


class TestAdam:
    def test_zero_gradient_from_fresh_state_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.zeros(3)}
        state = AdamState(0.1, np.zeros(3), np.zeros(3))
        adam_step(params["w"], grads["w"], state)
        np.testing.assert_array_equal(params["w"], [1.0, -2.0, 3.0])
        assert state.step == 1

    def test_first_step_magnitude_approximates_lr_times_sign(self):
        params = {"w": np.zeros(4)}
        g = np.array([0.5, -3.0, 1e-3, 0.0])
        state = AdamState(0.01, np.zeros(4), np.zeros(4))
        adam_step(params["w"], g.copy(), state)
        # first bias-corrected step is lr * g / (|g| + eps) = lr * sign(g)
        expected = -0.01 * np.sign(g) * (np.abs(g) / (np.abs(g) + state.epsilon))
        np.testing.assert_allclose(params["w"], expected, atol=1e-12)

    def test_matches_the_expression_form_exactly(self):
        rng = np.random.default_rng(5)
        shapes = {"W": (512, 128), "b": (512,), "trans": (2, 2)}
        ends = np.cumsum([math.prod(shape) for shape in shapes.values()])

        def named(vector):
            """Views of ``vector``'s consecutive slices, one per shape."""
            parts = np.split(vector, ends[:-1])
            return {name: part.reshape(shape) for (name, shape), part in zip(shapes.items(), parts)}

        vector = rng.normal(size=ends[-1])
        params = named(vector)
        ref_params = {name: a.copy() for name, a in params.items()}
        state = AdamState(3e-3, np.zeros_like(vector), np.zeros_like(vector))
        ref_state = per_tensor_adam_state(ref_params, learning_rate=3e-3)
        for _ in range(5):
            grads = named(rng.normal(size=vector.size))
            adam_step(vector, np.concatenate([g.ravel() for g in grads.values()]), state)
            expression_adam_step(ref_params, grads, ref_state)
            for name in shapes:
                assert np.array_equal(params[name], ref_params[name])
                assert np.array_equal(named(state.m)[name], ref_state.m[name])
                assert np.array_equal(named(state.v)[name], ref_state.v[name])

    @staticmethod
    def gradients(*values):
        """Gradients of a small model, all zero but the vector's first few."""
        grads = init_params(make_table(["a"], dim=2), 1, np.random.default_rng(0))
        grads.vector[:] = 0.0
        grads.vector[: len(values)] = values
        return grads

    def test_clipping_scales_by_global_norm(self):
        grads = self.gradients(6.0, 8.0)  # norm 10
        norm = clip_gradients(grads, max_norm=1.0)
        assert norm == pytest.approx(10.0)
        np.testing.assert_allclose(grads.vector[:2], [0.6, 0.8])

    def test_no_clipping_below_threshold(self):
        grads = self.gradients(0.3, 0.4)
        clip_gradients(grads, max_norm=1.0)
        np.testing.assert_allclose(grads.vector[:2], [0.3, 0.4])

    @pytest.mark.parametrize("case", ["fires", "below", "nan", "inf"])
    @pytest.mark.parametrize("finetune", [False, True], ids=["frozen", "tuned"])
    @pytest.mark.parametrize("D, H", [(3, 1), (7, 3), (25, 8), (60, 32), (16, 128)])
    def test_clip_is_bitwise_the_per_tensor_reference(self, D, H, finetune, case):
        """The clip squares whole arrays and sums each tensor's slice; its
        norm and every scaled element are those of summing each tensor on
        its own, in checkpoint order, then the matrix.  A non-finite norm
        leaves the gradients as they are."""
        rng = np.random.default_rng(1000 * D + 10 * H + finetune)
        table = make_table([f"w{i}" for i in range(11)], dim=D, seed=D)
        for _ in range(5):
            grads = init_params(table, H, rng, finetune_embeddings=finetune)
            grads.vector[:] = rng.normal(size=grads.vector.size) * rng.uniform(0.01, 10.0)
            if finetune:
                grads.embedding.matrix[:] = rng.normal(size=table.matrix.shape)
            arrays = named_tensors(grads)
            rough = math.sqrt(sum(float(np.sum(a * a)) for a in arrays.values()))
            max_norm = {"fires": 0.5 * rough, "below": 2.0 * rough}.get(case, 1.0)
            if case in ("nan", "inf"):
                grads.vector[rng.integers(grads.vector.size)] = np.nan if case == "nan" else np.inf
            before = grads.clone()
            ref = grads.clone()
            ref_norm = per_tensor_clip(named_tensors(ref), max_norm)
            norm = clip_gradients(grads, max_norm)
            assert norm == ref_norm or math.isnan(norm) and math.isnan(ref_norm)
            assert {"fires": max_norm < norm < math.inf, "below": norm <= max_norm,
                    "nan": math.isnan(norm), "inf": norm == math.inf}[case]
            for got, want, unclipped in zip(arrays.values(), named_tensors(ref).values(),
                                            named_tensors(before).values()):
                assert np.array_equal(got, want, equal_nan=True)
                if case != "fires":
                    assert np.array_equal(got, unclipped, equal_nan=True)


class TestBuildExamples:
    def test_truncated_post_keeps_the_labels_of_its_encoded_tokens(self):
        table = make_table(["bad", "w"])
        text = "w w bad w w bad w"
        gold = CharSpanSet(tuple(range(4, 7)) + tuple(range(12, 15)))
        [example] = build_examples([LabeledPost(id=3, text=text, gold=gold)], table, max_len=4)
        full = spans_to_labels(tokenize(text), gold)
        assert full == [0, 0, 1, 0, 0, 1, 0]
        assert example.encoded.effective_len == 4 and example.encoded.true_len == 7
        assert example.labels == full[:4]


class TestTrain:
    def test_empty_data_rejected(self):
        table = make_table(["a"])
        with pytest.raises(ValidationError, match="empty"):
            train([], TrainConfig(epochs=1, hidden_size=2), table)

    def test_fixed_seed_gives_identical_history_and_params(self):
        table, posts = synthetic_setup(n_posts=30)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=17, hidden_size=6, max_len=32)
        params_a, history_a = train(examples, cfg, table)
        params_b, history_b = train(examples, cfg, table)
        assert history_a == history_b
        assert deep_equal(params_a, params_b)

    def test_dev_f1_decodes_with_the_configured_bridge_gap(self, monkeypatch):
        table, posts = synthetic_setup(n_posts=20)
        examples = build_examples(posts, table, max_len=32)
        seen = []

        def spy(dev, params, policy, arena=None):
            seen.append(policy)
            return dev_char_f1(dev, params, policy, arena)

        monkeypatch.setattr(toxicspans.training, "dev_char_f1", spy)
        cfg = TrainConfig(epochs=1, hidden_size=4, max_len=32, bridge_gap=3)
        train(examples, cfg, table)
        train(examples, cfg, table, policy=BridgePolicy(bridge_gaps=False))
        assert seen == [BridgePolicy(bridge_gaps=True, max_gap=3), BridgePolicy(bridge_gaps=False)]

    def test_different_seed_changes_the_run(self):
        table, posts = synthetic_setup(n_posts=30)
        examples = build_examples(posts, table, max_len=32)
        p1, h1 = train(examples, TrainConfig(epochs=2, seed=1, hidden_size=6, max_len=32), table)
        p2, h2 = train(examples, TrainConfig(epochs=2, seed=2, hidden_size=6, max_len=32), table)
        assert h1 != h2 or not deep_equal(p1, p2)

    def test_single_example_overfit_nll_monotone_non_increasing(self):
        table, posts = synthetic_setup(n_posts=40)
        toxic = next(p for p in posts if p.gold)
        examples = build_examples([toxic], table, max_len=32)
        cfg = TrainConfig(
            epochs=10, batch_size=1, seed=0, learning_rate=1e-3,
            hidden_size=8, max_len=32, early_stop_patience=10,
        )
        _, history = train(examples, cfg, table)
        nlls = [h.train_nll for h in history]
        assert len(nlls) == 10
        assert all(b <= a + 1e-12 for a, b in zip(nlls, nlls[1:]))

    def test_synthetic_lexicon_task_reaches_high_dev_f1(self):
        table, posts = synthetic_setup(n_posts=200, dim=25, seed=11)
        examples = build_examples(posts, table, max_len=64)
        cfg = TrainConfig(
            epochs=30, batch_size=8, seed=3, learning_rate=3e-3,
            hidden_size=24, early_stop_patience=10, dev_fraction=0.15, max_len=64,
        )
        params, history = train(examples, cfg, table)
        assert max(h.dev_f1 for h in history) >= 0.95
        held_out = build_examples(generate_posts(50, seed=99), table, max_len=64)
        assert dev_char_f1(held_out, params, BridgePolicy()) >= 0.95

    def test_zero_token_examples_are_tolerated(self):
        table, posts = synthetic_setup(n_posts=20)
        blank = LabeledPost(id=len(posts), text="   ", gold=CharSpanSet(()))
        examples = build_examples(list(posts) + [blank], table, max_len=32)
        cfg = TrainConfig(epochs=1, hidden_size=4, seed=0, max_len=32)
        params, history = train(examples, cfg, table)
        assert len(history) == 1

    def test_nan_loss_aborts_with_diagnostic(self, monkeypatch):
        import toxicspans.training as training_mod

        table, posts = synthetic_setup(n_posts=10)
        examples = build_examples(posts, table, max_len=32)

        def poisoned(post, labels, params, finetune=False, arena=None):
            grads = params.clone()
            grads.vector[:] = 0.0
            return float("nan"), grads

        monkeypatch.setattr(training_mod, "nll_and_gradients", poisoned)
        with pytest.raises(TrainingDivergedError, match="epoch 1"):
            train(examples, TrainConfig(epochs=1, hidden_size=4, max_len=32), table)

    def test_huge_learning_rate_raises_a_typed_divergence_error(self):
        table, posts = synthetic_setup(n_posts=60, seed=11)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=2, hidden_size=8, learning_rate=1e300, max_len=32)
        with np.errstate(all="ignore"), pytest.raises(
            TrainingDivergedError, match=r"in epoch 1 \(batch starting at \d+\)"
        ):
            train(examples, cfg, table)

    def test_non_finite_lstm_state_becomes_a_divergence_error(self, monkeypatch):
        import toxicspans.training as training_mod

        table, posts = synthetic_setup(n_posts=10)
        examples = build_examples(posts, table, max_len=32)

        def diverged(*args):
            raise NonFiniteError("LSTM hidden state is non-finite")

        monkeypatch.setattr(training_mod, "nll_and_gradients", diverged)
        with pytest.raises(
            TrainingDivergedError, match=r"^LSTM hidden state is non-finite in epoch 1 \(batch starting at 0\)$"
        ):
            train(examples, TrainConfig(epochs=1, hidden_size=4, max_len=32), table)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_norm_aborts_before_the_update(self, monkeypatch, bad):
        import toxicspans.training as training_mod

        table, posts = synthetic_setup(n_posts=10)
        examples = build_examples(posts, table, max_len=32)
        updated = []

        def poisoned(post, labels, params, finetune=False, arena=None):
            grads = params.clone()
            grads.vector[:] = 0.0
            grads.crf.trans[0, 0] = bad
            return 1.0, grads

        monkeypatch.setattr(training_mod, "nll_and_gradients", poisoned)
        monkeypatch.setattr(training_mod, "adam_step", lambda *args, **kwargs: updated.append(1))
        with pytest.raises(TrainingDivergedError, match=r"gradient norm in epoch 1 \(batch starting at 0\)"):
            train(examples, TrainConfig(epochs=1, hidden_size=4, max_len=32), table)
        assert not updated

    def test_early_stopping_returns_best_dev_params(self):
        table, posts = synthetic_setup(n_posts=60, seed=21)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(
            epochs=30, batch_size=8, seed=2, learning_rate=5e-3,
            hidden_size=12, early_stop_patience=2, max_len=32,
        )
        params, history = train(examples, cfg, table)
        # Either it ran out of epochs or it stopped early; either way the
        # returned params must reproduce the best recorded dev F1.  Replay
        # the seeded draw order (init first, then the split permutation).
        from toxicspans.model import init_params

        rng = np.random.default_rng(cfg.seed)
        init_params(table, cfg.hidden_size, rng)
        dev_count = max(1, int(round(len(examples) * cfg.dev_fraction)))
        order = rng.permutation(len(examples))
        dev = [examples[int(i)] for i in sorted(order[:dev_count])]
        best = max(h.dev_f1 for h in history)
        assert dev_char_f1(dev, params, BridgePolicy()) == pytest.approx(best, abs=1e-12)


class TestParameterVector:
    """``train`` updates one parameter vector; it must give the bits of the
    loop over the tensors."""

    @pytest.mark.parametrize("finetune", [False, True])
    def test_train_is_bitwise_the_per_tensor_loop(self, finetune):
        table, posts = synthetic_setup(n_posts=40)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=4, hidden_size=3, max_len=32,
                          gradient_clip_norm=5.0, early_stop_patience=2,
                          finetune_embeddings=finetune)
        params, history = train(examples, cfg, table)
        ref_params, ref_history = reference_train(examples, cfg, table, BridgePolicy())
        assert history == ref_history
        assert deep_equal(params, ref_params)
        assert np.array_equal(params.embedding.matrix, ref_params.embedding.matrix)
        assert (params.embedding.matrix is table.matrix) != finetune
        # clipping fired on some steps and not on others
        assert 0 < sum(h.clipped_steps for h in history) < sum(h.steps for h in history)

    @pytest.mark.parametrize("finetune", [False, True])
    def test_one_post_batches_train_bitwise_as_the_packed_loop(self, finetune, monkeypatch):
        """Batches of one run the LSTM's one-post loop, whose cache the
        backward pass reads; training must give the packed loop's bits."""
        table, posts = synthetic_setup(n_posts=40)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=2, batch_size=1, seed=4, hidden_size=3, max_len=32,
                          early_stop_patience=2, finetune_embeddings=finetune)
        params, history = train(examples, cfg, table)
        monkeypatch.setattr(toxicspans.model, "lstm_forward", packed_reference_lstm_forward)
        ref_params, ref_history = train(examples, cfg, table)
        assert history == ref_history
        assert deep_equal(params, ref_params)
        assert np.array_equal(params.embedding.matrix, ref_params.embedding.matrix)
        assert (params.embedding.matrix is table.matrix) != finetune


class TestEpochTelemetry:
    """Each epoch records its steps' pre-clip gradient norms, as returned by
    ``clip_gradients``, and the tokens it trained on."""

    def run_spied(self, monkeypatch, clip):
        import toxicspans.training as training_mod

        table, posts = synthetic_setup(n_posts=40)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=3, batch_size=8, seed=4, hidden_size=6, max_len=32,
                          gradient_clip_norm=clip, early_stop_patience=3)
        steps = []  # (pre-clip norm, tokens) per step, in order
        nll_and_gradients = training_mod.nll_and_gradients

        def spy_nll(posts, labels, params, arena=None):
            steps.append([sum(post.effective_len for post in posts)])
            return nll_and_gradients(posts, labels, params, arena)

        def spy_clip(grads, max_norm, arena=None):
            norm = clip_gradients(grads, max_norm, arena)
            steps[-1].insert(0, norm)
            return norm

        monkeypatch.setattr(training_mod, "nll_and_gradients", spy_nll)
        monkeypatch.setattr(training_mod, "clip_gradients", spy_clip)
        _, history = train(examples, cfg, table)
        return history, steps

    @pytest.mark.parametrize("clip", [1.0, 5.0, 1e6])
    def test_norms_are_the_clip_functions_return_values(self, monkeypatch, clip):
        history, steps = self.run_spied(monkeypatch, clip)
        assert len(steps) % len(history) == 0
        per_epoch = len(steps) // len(history)
        for h, k in zip(history, range(0, len(steps), per_epoch)):
            norms = [norm for norm, _ in steps[k : k + per_epoch]]
            assert h.steps == per_epoch
            assert h.grad_norm_max == max(norms)
            assert h.grad_norm_mean == pytest.approx(sum(norms) / len(norms), rel=1e-12)
            assert h.clipped_steps == sum(norm > clip for norm in norms)
            assert 0 <= h.clipped_steps <= h.steps
            assert h.tokens == sum(tokens for _, tokens in steps[k : k + per_epoch])
        # the small clip norm clips every step and the huge one none
        clipped = sum(h.clipped_steps for h in history)
        if clip == 1.0:
            assert clipped == len(steps)
        if clip == 1e6:
            assert clipped == 0

    def test_same_seed_gives_the_same_telemetry(self):
        table, posts = synthetic_setup(n_posts=30)
        examples = build_examples(posts, table, max_len=32)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9, hidden_size=6, max_len=32)
        assert train(examples, cfg, table)[1] == train(examples, cfg, table)[1]


class TestEndToEndWordMemorization:
    def test_trained_model_fires_on_the_toxic_word(self):
        # Micro-corpus where one word is always toxic; the trained model must
        # mark exactly that word in an unseen sentence.
        vocab = [
            "indeed", ",", "people", "the", "world", "over", "all", "know",
            "that", "president", "trump", "is", "a", "loser", "!", "fine",
            "day", "good", "game", "we", "saw",
        ]
        table = make_table(vocab, dim=12, seed=4)
        rng = np.random.default_rng(8)
        carriers = [w for w in vocab if w not in (",", "!", "loser")]
        posts = []
        for k in range(60):
            words = [carriers[int(rng.integers(len(carriers)))] for _ in range(6)]
            gold = set()
            if k % 2 == 0:
                slot = int(rng.integers(len(words)))
                words[slot] = "loser"
                start = sum(len(w) + 1 for w in words[:slot])
                gold = set(range(start, start + len("loser")))
            posts.append(LabeledPost(id=k, text=" ".join(words), gold=CharSpanSet(tuple(gold))))
        examples = build_examples(posts, table, max_len=16)
        cfg = TrainConfig(
            epochs=40, batch_size=8, seed=1, learning_rate=5e-3,
            hidden_size=10, early_stop_patience=40, max_len=16,
        )
        params, _ = train(examples, cfg, table)

        text = "Indeed, people the world over, all know that President Trump is a loser!"
        spans = predict(params, text, max_len=32)
        assert spans.indexes == (66, 67, 68, 69, 70)
