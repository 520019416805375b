"""Inference runs the LSTM in float32, from a float32 copy of its tensors
that a model makes once (``ModelParams.inference``); training, its dev
passes, the emission projection, the CRF and checkpoints stay float64.

The float32 path is held to float64 by stated bounds, not bits: every
float32 hidden state lies within :data:`HIDDEN_RTOL` of the float64 one,
relative to the largest state (states lie in [-1, 1], so a state near zero
makes an element-wise relative error meaningless), and wherever the float64
best path beats every other path by more than :data:`MARGIN`, the float32
labels are the float64 ones.  Within float32 the one-post loop must give
the packed loop's bits, as it does in float64.
"""

import io

import numpy as np
import pytest

from conftest import make_table, named_tensors, pack_posts
from oracles import all_paths, best_path_margin, path_score
import toxicspans.model
from toxicspans.arena import Arena
from toxicspans.crf import viterbi_decode
from toxicspans.embeddings import encode_post, load_embeddings
from toxicspans.errors import NonFiniteError, ValidationError
from toxicspans.lstm import DIRECTIONS, LstmParams, lstm_forward
from toxicspans.model import (
    EMBEDDING_TENSOR,
    INFER_BATCH,
    INFER_DTYPE,
    TENSOR_NAMES,
    _emissions,
    init_params,
    params_from_vector,
    predict,
    predict_spans,
    tag_posts,
)
from toxicspans.span_codec import BridgePolicy
from toxicspans.synthetic import generate_posts, write_embedding_file
from toxicspans.tokenizer import tokenize
from toxicspans.training import TrainConfig, build_examples, train

HIDDEN_RTOL = 1e-4
MARGIN = 1e-3
DIM = 6
POLICY = BridgePolicy(bridge_gaps=True, max_gap=1)


def lstm_params(rng, H):
    return LstmParams(
        W_in=rng.uniform(-4.0, 4.0, size=(DIRECTIONS, 4 * H, DIM)),
        W_rec=rng.uniform(-0.4, 0.4, size=(DIRECTIONS, 4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=(DIRECTIONS, 4 * H)),
    )


def as_float32(params: LstmParams) -> LstmParams:
    return LstmParams(*(tensor.astype(np.float32) for tensor in (params.W_in, params.W_rec, params.b)))


def synthetic_table(dim=25):
    sink = io.BytesIO()
    write_embedding_file(sink, dim=dim, seed=7)
    sink.seek(0)
    return load_embeddings(sink, dim)


@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("batch", ["one-post", "ragged"])
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 7, 130])
def test_float32_hidden_states_lie_within_the_tolerance_of_float64(T, H, batch, scale):
    rng = np.random.default_rng(1000 * T + 10 * H + (batch == "ragged"))
    params = lstm_params(rng, H)
    lengths = [T] if batch == "one-post" else [T, max(1, T // 2), max(1, T // 2), 1]
    x, steps = pack_posts([rng.normal(size=(n, DIM)) * scale for n in lengths])
    h64, _ = lstm_forward(x, params, steps, Arena(), keep_cache=False)
    h32, _ = lstm_forward(x.astype(np.float32), as_float32(params), steps, Arena(np.float32), keep_cache=False)
    assert h32.dtype == np.float32
    assert np.abs(h32 - h64).max() <= HIDDEN_RTOL * np.abs(h64).max()


@pytest.mark.parametrize("draw", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 50.0])
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 2, 7, 130])
def test_float32_one_post_loop_is_bitwise_the_packed_loop(T, H, scale, draw):
    """A caching pass over one post runs the packed loop at B = 1 and a
    pass without a cache the one-post loop: in float32 too, the same bits."""
    rng = np.random.default_rng(1000 * T + 10 * H + draw)
    params = as_float32(lstm_params(rng, H))
    x, steps = pack_posts([(rng.normal(size=(T, DIM)) * scale).astype(np.float32)])
    packed, cache = lstm_forward(x, params, steps, Arena(np.float32))
    bare, _ = lstm_forward(x, params, steps, Arena(np.float32), keep_cache=False)
    assert cache.gates.dtype == packed.dtype == bare.dtype == np.float32
    assert np.array_equal(bare, packed)


def test_best_path_margin_is_the_gap_to_the_second_best_path():
    rng = np.random.default_rng(0)
    for T in (1, 2, 3, 6):
        for _ in range(20):
            em, trans, start, stop = (rng.normal(size=shape) for shape in ((T, 2), (2, 2), (2,), (2,)))
            scores = sorted(path_score(em, trans, start, stop, p) for p in all_paths(T, 2))
            assert best_path_margin(em, trans, start, stop) == pytest.approx(scores[-1] - scores[-2], abs=1e-12)


@pytest.mark.parametrize("hidden", [32, 128])
def test_labels_are_float64s_wherever_the_best_path_margin_exceeds_the_bound(hidden):
    table = synthetic_table()
    rng = np.random.default_rng(hidden)
    params = init_params(table, hidden, rng)
    params.emit.W_out *= 8.0  # labels of both kinds
    params.crf.trans[:] = rng.uniform(-1.0, 1.0, size=(2, 2))
    posts = [encode_post(tokenize(post.text), table, 128) for post in generate_posts(300, seed=hidden)]
    posts = [post for post in posts if post.effective_len]
    crf = params.crf
    beyond, moved, toxic = 0, 0.0, 0
    for post in posts:
        em64 = _emissions([post], params, Arena())[0]
        em32 = _emissions([post], params.inference, Arena(INFER_DTYPE))[0]
        # no path's score moves by more than this
        moved = max(moved, float(np.abs(em32 - em64).max(axis=1).sum()))
        labels = viterbi_decode(em32, crf)
        toxic += sum(labels)
        if best_path_margin(em64, crf.trans, crf.start, crf.stop) > MARGIN:
            beyond += 1
            assert labels == viterbi_decode(em64, crf)
    assert 0.0 < moved < MARGIN / 2  # float32 ran, and the bound is not tight
    assert beyond > 0.95 * len(posts) and toxic


@pytest.fixture(scope="module")
def trained_models():
    """A 3-epoch model at H = 32 and at H = 128 on 160 seeded posts."""
    table = synthetic_table()
    examples = build_examples(generate_posts(160, seed=5), table, 64)
    models = {}
    for hidden in (32, 128):
        cfg = TrainConfig(epochs=3, batch_size=16, seed=1, learning_rate=3e-3, hidden_size=hidden,
                          early_stop_patience=3, max_len=64)
        models[hidden] = train(examples, cfg, table)[0]
    return table, models


@pytest.mark.parametrize("hidden", [32, 128])
def test_windowed_tag_posts_matches_per_post_predict(trained_models, hidden):
    """``cli predict`` tags windows of :data:`INFER_BATCH` posts (the packed
    float32 loop against a contiguous W_rec copy), a library caller one
    post at a time (the one-post loop): the same spans on every post, and
    those of the float64 model's dev pass."""
    table, models = trained_models
    params = models[hidden]
    posts = generate_posts(4 * INFER_BATCH + 3, seed=40 + hidden)
    windowed = tag_posts(params, table, posts, 64, POLICY)
    assert windowed == [predict(params, post.text, 64, POLICY) for post in posts]
    encoded = [encode_post(tokenize(post.text), table, 64) for post in posts]
    assert windowed == predict_spans(params, encoded, POLICY, Arena())
    assert sum(map(bool, windowed)) > len(posts) // 4


def test_training_and_its_dev_passes_run_float64_and_tagging_float32(monkeypatch):
    table = make_table(["a", "b", "c"], dim=DIM)
    seen = []
    forward = toxicspans.model.lstm_forward

    def spy(inputs, params, steps, arena, keep_cache=True):
        seen.append((inputs.dtype, params.W_rec.dtype, arena.dtype, keep_cache))
        return forward(inputs, params, steps, arena, keep_cache)

    monkeypatch.setattr(toxicspans.model, "lstm_forward", spy)
    posts = generate_posts(12, seed=3)
    examples = build_examples(posts, table, 16)
    params, _ = train(examples, TrainConfig(epochs=2, hidden_size=4, max_len=16, batch_size=4), table)
    f64 = np.dtype(np.float64)
    assert {(f64, f64, f64, True), (f64, f64, f64, False)} == set(seen)  # training steps, dev passes
    seen.clear()
    tag_posts(params, table, posts, 16, POLICY)
    predict(params, posts[0].text, 16, POLICY)
    assert set(seen) == {(np.dtype(INFER_DTYPE),) * 3 + (False,)}
    assert params.vector.dtype == f64 and params.emit.W_out.dtype == f64 and params.crf.trans.dtype == f64


class TestTheCopy:
    def test_is_made_once_and_shares_everything_but_the_lstm(self):
        table = make_table(["a", "b", "c"], dim=DIM)
        params = init_params(table, 5, np.random.default_rng(0))
        assert "inference" not in vars(params)
        predict(params, "a b c", 16)
        copy = vars(params)["inference"]
        predict(params, "c b a", 16)
        tag_posts(params, table, generate_posts(3, seed=1), 16, POLICY)
        assert params.inference is copy
        for name in ("W_in", "W_rec", "b"):
            tensor = getattr(copy.lstm, name)
            assert tensor.dtype == INFER_DTYPE and np.array_equal(tensor, getattr(params.lstm, name).astype(np.float32))
        assert copy.emit is params.emit and copy.crf is params.crf and copy.embedding is params.embedding

    @pytest.mark.parametrize("finetune", [False, True], ids=["frozen", "tuned"])
    def test_a_write_after_tagging_cannot_tag_stale(self, finetune):
        """Tagging freezes the model's vector and tensors; a clone is a
        writable model with no copy, and tags with what was written."""
        table = make_table(["a", "b", "c"], dim=DIM)
        params = init_params(table, 5, np.random.default_rng(1), finetune_embeddings=finetune)
        post = encode_post(tokenize("a b c a"), table, 16)
        before = predict(params, "a b c a", 16)
        for name, tensor in [("vector", params.vector), *named_tensors(params).items()]:
            with pytest.raises(ValueError, match="read-only"):
                tensor.flat[0] = 1.0
        assert table.matrix.flags.writeable  # a frozen model's table is not the model's
        clone = params.clone()
        assert "inference" not in vars(clone) and clone.vector.flags.writeable
        assert predict(clone, "a b c a", 16) == before
        writable = params.clone()
        writable.lstm.W_in *= -3.0
        writable.lstm.b[:] = 0.5
        written = _emissions([post], writable.inference, Arena(INFER_DTYPE))[0]
        assert not np.allclose(written, _emissions([post], params.inference, Arena(INFER_DTYPE))[0])
        fresh = params_from_vector(writable.vector.copy(), 5, table)
        assert np.array_equal(written, _emissions([post], fresh.inference, Arena(INFER_DTYPE))[0])


class TestFloat32Range:
    """Every value of the LSTM tensors and the embedding matrix must fit in
    float32, checked once, when the copy is made: a value beyond it would
    cast to infinity with numpy's overflow warning."""

    @pytest.mark.parametrize("name", [*TENSOR_NAMES[:6], EMBEDDING_TENSOR, "table"])
    def test_a_value_beyond_float32_raises_naming_the_tensor(self, name):
        table = make_table(["a", "b", "c"], dim=DIM)
        params = init_params(table, 4, np.random.default_rng(2), finetune_embeddings=name == EMBEDDING_TENSOR)
        (table.matrix if name == "table" else named_tensors(params)[name]).flat[5] = -1e39
        expected = EMBEDDING_TENSOR if name == "table" else name
        match = f"tensor {expected} holds a value of magnitude 1e\\+39"
        with np.errstate(all="raise"), pytest.raises(ValidationError, match=match):
            predict(params, "a b c", 16)
        assert "inference" not in vars(params) and params.vector.flags.writeable
        # the float64 dev pass still tags it
        predict_spans(params, [encode_post(tokenize("a b c"), table, 16)], POLICY, Arena())

    def test_largest_float32_passes_and_infinity_with_it_does_not_hide_a_value_beyond(self):
        table = make_table(["a", "b", "c"], dim=DIM)
        params = init_params(table, 4, np.random.default_rng(2))
        params.lstm.W_rec[1].flat[0] = float(np.finfo(np.float32).max)
        assert params.inference.lstm.W_rec[1].flat[0] == np.finfo(np.float32).max
        params = init_params(table, 4, np.random.default_rng(2))
        params.lstm.b[0, :2] = [np.inf, 1e39]
        with pytest.raises(ValidationError, match="tensor fwd.b holds a value of magnitude 1e\\+39"):
            params.inference

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights_pass_and_raise_as_in_float64(self, value):
        table = make_table(["a", "b", "c"], dim=DIM)
        params = init_params(table, 4, np.random.default_rng(2))
        params.lstm.W_in[0] = value
        with pytest.raises(NonFiniteError):
            predict_spans(params, [encode_post(tokenize("a b"), table, 16)], POLICY, Arena())
        with pytest.raises(NonFiniteError):
            predict(params, "a b", 16)

    def test_products_that_overflow_float32_saturate_without_a_warning(self):
        """Rows that fit float32 but whose input projection does not: an
        infinite pre-activation saturates its gate, as a large finite one
        does in float64."""
        table = make_table(["a", "b", "c"], dim=DIM)
        table.matrix[0] = 3e38
        table.matrix[1] = -3e38
        params = init_params(table, 4, np.random.default_rng(2))
        params.lstm.W_in[:] = 5.0
        params.emit.W_out *= 8.0
        texts = ["a c a", "b c b", "a b"]
        with np.errstate(over="ignore"):
            assert np.isinf(table.matrix[:2].astype(INFER_DTYPE) @ params.inference.lstm.W_in[0].T).all()
        float64 = predict_spans(params, [encode_post(tokenize(t), table, 16) for t in texts], POLICY, Arena())
        with np.errstate(all="raise", under="ignore"):
            assert [predict(params, text, 16) for text in texts] == float64
