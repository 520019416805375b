"""A packed, length-sorted minibatch against the same posts one at a
time, each a batch of one: the batched kernels and ``nll_and_gradients``
must return each post's own results and the sum of the single-post
gradients, up to summation order, and ``predict_spans`` over a list must
give each post's single-post spans.

On the same cases the packed LSTM and CRF kernels must return exactly the
bits of the padded (T, B) references kept in ``oracles``, on every real
slot; the references' padding is filled with random finite values.
"""

import numpy as np
import pytest

from conftest import make_table, named_tensors, pack_posts, split_posts
from oracles import crf_grads, lstm_grads, packed, padded, padded_crf_nll_grad, reference_lstm_forward
from toxicspans.arena import Arena
from toxicspans.crf import CrfParams
from toxicspans.embeddings import encode_post
from toxicspans.lstm import DIRECTIONS, LstmParams, lstm_forward
import toxicspans.model
from toxicspans.model import INFER_BATCH, _emissions, init_params, nll_and_gradients, predict, predict_spans
from toxicspans.span_codec import BridgePolicy
from toxicspans.tokenizer import tokenize

RTOL = 1e-9
ATOL = 1e-12
DIM = 5
H = 4
# (batch size, post lengths): mixed lengths with T = 1 and ties, and equal
# lengths; the last two have T * B over 256, and the B = 40 case over 384,
# where BLAS splits the sums of the weight-gradient products into blocks at
# other places than for the posts one at a time
CASES = [
    (1, [1]),
    (1, [6]),
    (2, [5, 1]),
    (2, [4, 4]),
    (16, [12, 9, 9, 8, 7, 7, 5, 4, 4, 3, 3, 2, 2, 1, 1, 1]),
    (16, [7] * 16),
    (40, sorted((1 + (k * 37) % 60 for k in range(40)), reverse=True)),
    (20, [15] * 20),
]
IDS = [f"B{B}-{'equal' if len(set(lens)) == 1 and B > 1 else 'mixed'}-T{lens[0]}" for B, lens in CASES]


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=ATOL)


def noise(rng, steps, width):
    """Random finite values for a padded (T, B, width) grid."""
    return rng.normal(size=(steps.T, steps.B, width)) * 3.0


@pytest.mark.parametrize("draw", [0, 1], ids=["draw0", "draw1"])
@pytest.mark.parametrize("B, lengths", CASES, ids=IDS)
def test_lstm_batch_matches_single_posts(B, lengths, draw):
    rng = np.random.default_rng(B * 100 + lengths[0] + draw)
    params = LstmParams(
        W_in=rng.uniform(-1.0, 1.0, size=(DIRECTIONS, 4 * H, DIM)),
        W_rec=rng.uniform(-0.5, 0.5, size=(DIRECTIONS, 4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=(DIRECTIONS, 4 * H)),
    )
    xs = [rng.normal(size=(n, DIM)) for n in lengths]
    d_hs = [rng.normal(size=(n, DIRECTIONS * H)) for n in lengths]

    x, steps = pack_posts(xs)
    hidden, cache = lstm_forward(x, params, steps, Arena())
    d_inputs, grads = lstm_grads(pack_posts(d_hs)[0], params, cache)

    totals = [{name: 0.0 for name in direction} for direction in grads]
    posts = zip(xs, d_hs, split_posts(hidden, steps), split_posts(d_inputs, steps))
    for x, d_h, post_hidden, post_d_inputs in posts:
        one_x, one_steps = pack_posts([x])
        ref_hidden, ref_cache = lstm_forward(one_x, params, one_steps, Arena())
        ref_d_inputs, ref_grads = lstm_grads(d_h, params, ref_cache)
        assert_close(post_hidden, ref_hidden)
        assert_close(post_d_inputs, ref_d_inputs)
        for total, direction in zip(totals, ref_grads):
            for name, arr in direction.items():
                total[name] = total[name] + arr
    for total, direction in zip(totals, grads):
        for name, arr in direction.items():
            assert_close(arr, total[name])


@pytest.mark.parametrize("B, lengths", CASES, ids=IDS)
def test_crf_batch_matches_single_posts(B, lengths):
    rng = np.random.default_rng(B * 100 + lengths[0])
    L = 2
    crf = CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(L, L)),
        start=rng.uniform(-2.0, 2.0, size=L),
        stop=rng.uniform(-2.0, 2.0, size=L),
    )
    ems = [rng.uniform(-3.0, 3.0, size=(n, L)) for n in lengths]
    labels = [[int(y) for y in rng.integers(L, size=n)] for n in lengths]

    em, steps = pack_posts(ems)
    nll, d_em, d_trans, d_start, d_stop = crf_grads(em, crf, labels, steps)

    ref_nll, ref_trans, ref_start, ref_stop = 0.0, 0.0, 0.0, 0.0
    for one_em, labs, post_d_em in zip(ems, labels, split_posts(d_em, steps)):
        one_nll, one_d_em, one_trans, one_start, one_stop = crf_grads(
            one_em, crf, [labs], pack_posts([one_em])[1]
        )
        assert_close(post_d_em, one_d_em)
        ref_nll += one_nll
        ref_trans, ref_start, ref_stop = ref_trans + one_trans, ref_start + one_start, ref_stop + one_stop
    assert_close(nll, ref_nll)
    assert_close(d_trans, ref_trans)
    assert_close(d_start, ref_start)
    assert_close(d_stop, ref_stop)


@pytest.mark.parametrize("finetune", [False, True])
@pytest.mark.parametrize("B, lengths", CASES, ids=IDS)
def test_nll_and_gradients_batch_matches_sum_of_single_posts(B, lengths, finetune):
    rng = np.random.default_rng(B * 100 + lengths[0] + finetune)
    table = make_table([f"w{i}" for i in range(10)], dim=DIM, seed=4)
    params = init_params(table, hidden_size=H, rng=rng, finetune_embeddings=finetune)
    shuffled = [int(n) for n in rng.permutation(lengths)]  # the model sorts
    texts = [" ".join(f"w{int(rng.integers(12))}" for _ in range(n)) for n in shuffled]
    posts = [encode_post(tokenize(text), table, max_len=64) for text in texts]
    labels = [[int(y) for y in rng.integers(2, size=n)] for n in shuffled]

    nll, buffer = nll_and_gradients(posts, labels, params, Arena())
    assert (buffer.embedding is params.embedding) != finetune  # only a tuned matrix gets a gradient
    grads = named_tensors(buffer)

    ref_nll, ref = 0.0, {}
    for post, labs in zip(posts, labels):
        one_nll, one = nll_and_gradients([post], [labs], params, Arena())
        ref_nll += one_nll
        for name, arr in named_tensors(one).items():
            ref[name] = ref.get(name, 0.0) + arr
    assert sorted(grads) == sorted(ref)
    assert_close(nll, ref_nll)
    for name, arr in grads.items():
        assert_close(arr, ref[name])
    if finetune:
        assert np.all(grads["embedding.matrix"][table.pad_index] == 0.0)


@pytest.mark.parametrize("hidden", [8, 32])
def test_predict_spans_over_a_list_matches_single_posts(hidden, monkeypatch):
    rng = np.random.default_rng(hidden)
    table = make_table([f"w{i}" for i in range(10)], dim=DIM, seed=4)
    params = init_params(table, hidden_size=hidden, rng=rng)
    params.emit.W_out *= 8.0  # labels of both kinds, not all zero
    params.crf.trans[:] = rng.uniform(-1.0, 1.0, size=(2, 2))
    max_len, policy = 12, BridgePolicy(bridge_gaps=True, max_gap=1)
    # 33 tagged posts (chunks of 16, 16 and 1) with ties, truncated posts
    # past max_len 12, and four posts without tokens among them
    lengths = [int(n) for n in rng.integers(1, 20, size=33)] + [0] * 4
    texts = [" ".join(f"w{int(rng.integers(12))}" for _ in range(n)) for n in rng.permutation(lengths)]
    assert len(texts) > 2 * INFER_BATCH and any(n > max_len for n in lengths)
    toks = [tokenize(text) for text in texts]
    posts = [encode_post(t, table, max_len) for t in toks]

    seen = []
    decode = toxicspans.model.viterbi_decode

    def recording_decode(em, crf):
        seen.append(em)
        return decode(em, crf)

    monkeypatch.setattr(toxicspans.model, "viterbi_decode", recording_decode)
    spans = predict_spans(params, posts, policy, Arena())
    monkeypatch.undo()

    expected = [predict(params, text, max_len, policy) for text in texts]
    assert spans == expected
    assert sum(map(bool, expected)) > len(texts) // 4
    order = sorted((k for k, post in enumerate(posts) if post.effective_len), key=lambda k: -posts[k].effective_len)
    assert len(seen) == len(order)
    for k, em in zip(order, seen):
        assert_close(em, _emissions([posts[k]], params, Arena())[0])


@pytest.mark.parametrize(
    "hidden, B, lengths",
    [(H, B, lengths) for B, lengths in CASES] + [(1, B, lengths) for B, lengths in CASES],
    ids=IDS + [f"{name}-H1" for name in IDS],
)
def test_lstm_is_bitwise_the_padded_reference(hidden, B, lengths):
    """Both directions in lockstep, on packed rows, against the padded
    reference forward pass; the backward pass must give the same bits from
    either cache.  At H = 1 the transposed recurrent weights are already
    contiguous, which the packed loop copies all the same."""
    rng = np.random.default_rng(B * 100 + lengths[0] + 7)
    params = LstmParams(
        W_in=rng.uniform(-1.0, 1.0, size=(2, 4 * hidden, DIM)),
        W_rec=rng.uniform(-0.5, 0.5, size=(2, 4 * hidden, hidden)),
        b=rng.uniform(-0.4, 0.4, size=(2, 4 * hidden)),
    )
    x, steps = pack_posts([rng.normal(size=(n, DIM)) for n in lengths])
    d_hidden = rng.normal(size=(steps.N, 2 * hidden))

    hidden, cache = lstm_forward(x, params, steps, Arena())
    ref_hidden, ref_cache = reference_lstm_forward(padded(x, steps, noise(rng, steps, DIM)), params, lengths)
    assert np.array_equal(hidden, packed(ref_hidden, steps))
    for name in ("gates", "cell", "tanh_cell", "hidden"):
        assert np.array_equal(getattr(cache, name), getattr(ref_cache, name))
    d_x, grads = lstm_grads(d_hidden, params, cache)
    ref_d_x, ref_grads = lstm_grads(d_hidden, params, ref_cache)
    assert np.array_equal(d_x, ref_d_x)
    for k in range(2):
        for name in ("W_in", "W_rec", "b"):
            assert np.array_equal(grads[k][name], ref_grads[k][name])


@pytest.mark.parametrize("B, lengths", CASES, ids=IDS)
def test_crf_is_bitwise_the_padded_reference(B, lengths):
    rng = np.random.default_rng(B * 100 + lengths[0] + 11)
    L = 2
    crf = CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(L, L)),
        start=rng.uniform(-2.0, 2.0, size=L),
        stop=rng.uniform(-2.0, 2.0, size=L),
    )
    em, steps = pack_posts([rng.uniform(-3.0, 3.0, size=(n, L)) for n in lengths])
    labels = [[int(y) for y in rng.integers(L, size=n)] for n in lengths]

    nll, d_em, d_trans, d_start, d_stop = crf_grads(em, crf, labels, steps)
    ref_nll, ref_d_em, *ref_rest = padded_crf_nll_grad(padded(em, steps, noise(rng, steps, L)), crf, labels, lengths)
    assert nll == ref_nll
    assert np.array_equal(d_em, packed(ref_d_em, steps))
    for actual, desired in zip((d_trans, d_start, d_stop), ref_rest):
        assert np.array_equal(actual, desired)
