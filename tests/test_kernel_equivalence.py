"""The fused LSTM and CRF kernels against the loop-form references in
``oracles``: same results up to floating-point summation order.  The scalar
Viterbi decoder must return exactly the numpy reference's path.

The tolerance was fixed before the fused kernels were written: float64
arithmetic reordered over at most a few hundred terms.  The packed CRF
kernel must also return exactly the bits of the padded (T, B) kernel it
replaced, kept in ``oracles``, on every real slot.  The
LSTM's one-post loop must return exactly the bits of the forward pass that
ran one post through the packed loop before it, also kept there, and its
cache must give the backward pass the same gradients; a pass that keeps no
cache must return the caching pass's bits.  The hot cases scale
the inputs by 50 (and the emissions by 50 for the CRF), so LSTM gates
saturate and the sigmoid's exp overflows.
"""

import numpy as np
import pytest

from conftest import PoisonedArena, pack_posts
from oracles import (
    crf_grads,
    loop_crf_nll_grad,
    loop_lstm_backward,
    loop_lstm_forward,
    lstm_grads,
    numpy_viterbi_decode,
    packed,
    padded_crf_nll_grad,
    reference_lstm_forward,
)
from toxicspans.batching import PackedSteps
from toxicspans.crf import CrfParams, viterbi_decode
from toxicspans.lstm import LstmParams, lstm_forward

RTOL = 1e-9
ATOL = 1e-12
LENGTHS = [1, 2, 9, 130]
SCALES = [1.0, 50.0]
DIM = 6


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=ATOL)


def lstm_case(T, H, scale, seed):
    rng = np.random.default_rng(seed)
    params = LstmParams(
        W_in=rng.uniform(-4.0, 4.0, size=(1, 4 * H, DIM)),
        W_rec=rng.uniform(-0.4, 0.4, size=(1, 4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=(1, 4 * H)),
    )
    inputs = rng.normal(size=(T, DIM)) * scale
    d_hidden = rng.normal(size=(T, H))
    return params, inputs, d_hidden


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("H", [1, 4, 33])
@pytest.mark.parametrize("T", LENGTHS)
def test_lstm_matches_loop_reference(T, H, reverse, scale):
    params, inputs, d_hidden = lstm_case(T, H, scale, seed=1000 * T + 10 * H + reverse)
    x, steps = pack_posts([inputs])
    hidden, cache = lstm_forward(x, params, steps, [reverse])
    ref_hidden, ref_cache = loop_lstm_forward(inputs, params, reverse=reverse)
    assert_close(hidden, ref_hidden)
    assert_close(cache.cell[:, 0], ref_cache["c"])  # a post's packed rows are its steps

    d_inputs, [grads] = lstm_grads(d_hidden, params, cache)
    ref_d_inputs, ref_grads = loop_lstm_backward(d_hidden, params, ref_cache)
    assert_close(d_inputs, ref_d_inputs)
    for name in ("W_in", "W_rec", "b"):
        assert_close(grads[name], ref_grads[name])


def test_hot_inputs_saturate_gates_and_overflow_exp():
    params, inputs, _ = lstm_case(130, 33, 50.0, seed=0)
    pre = inputs @ params.W_in[0].T + params.b[0]
    assert pre.min() < -np.log(np.finfo(np.float64).max)
    x, steps = pack_posts([inputs])
    _, cache = lstm_forward(x, params, steps, [False])
    assert np.any(cache.gates == 0.0) and np.any(cache.gates == 1.0)


def stacked_params(rng, K, H):
    """Random weights of K stacked directions."""
    return LstmParams(
        W_in=rng.uniform(-4.0, 4.0, size=(K, 4 * H, DIM)),
        W_rec=rng.uniform(-0.4, 0.4, size=(K, 4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=(K, 4 * H)),
    )


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("reverse", [(False,), (True,), (False, True)])
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 2, 7, 130])
def test_one_post_lstm_is_bitwise_the_packed_loop(T, H, reverse, scale):
    K = len(reverse)
    rng = np.random.default_rng(1000 * T + 10 * H + sum(reverse) + K)
    params = stacked_params(rng, K, H)
    x, steps = pack_posts([rng.normal(size=(T, DIM)) * scale])
    d_hidden = rng.normal(size=(T, K * H))
    hidden, cache = lstm_forward(x, params, steps, reverse)
    ref_hidden, ref_cache = reference_lstm_forward(x[:, None], params, [T], reverse)
    assert np.array_equal(hidden, ref_hidden[:, 0])
    for name in ("gates", "cell", "tanh_cell", "hidden"):
        assert np.array_equal(getattr(cache, name), getattr(ref_cache, name))
    for input_grad in (False, True):
        d_x, grads = lstm_grads(d_hidden, params, cache, input_grad)
        ref_d_x, ref_grads = lstm_grads(d_hidden, params, ref_cache, input_grad)
        assert (d_x is None) == (not input_grad)
        assert d_x is None or np.array_equal(d_x, ref_d_x)
        for k in range(K):
            for name in ("W_in", "W_rec", "b"):
                assert np.array_equal(grads[k][name], ref_grads[k][name])


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("batch", ["one-post", "ragged"])
@pytest.mark.parametrize("reverse", [(False,), (True,), (False, True)])
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 2, 100])
def test_a_pass_without_cache_is_bitwise_the_caching_pass(T, H, reverse, batch, scale):
    """Inference keeps no cache, in the one-post loop or the packed loop;
    its hidden states must be the caching pass's.  It runs in a poisoned
    arena, so a value read before it is written shows."""
    K = len(reverse)
    rng = np.random.default_rng(1000 * T + 10 * H + sum(reverse) + K)
    params = stacked_params(rng, K, H)
    lengths = [T] if batch == "one-post" else [T, (T + 1) // 2, (T + 1) // 2, 1]
    x, steps = pack_posts([rng.normal(size=(n, DIM)) * scale for n in lengths])
    hidden, cache = lstm_forward(x, params, steps, reverse)
    bare, no_cache = lstm_forward(x, params, steps, reverse, PoisonedArena(), keep_cache=False)
    assert cache is not None and no_cache is None
    assert np.array_equal(bare, hidden)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("T", LENGTHS)
def test_crf_nll_grad_matches_loop_reference(T, L, scale):
    rng = np.random.default_rng(100 * T + L)
    em = rng.uniform(-2.0, 2.0, size=(T, L)) * scale
    crf = CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(L, L)),
        start=rng.uniform(-2.0, 2.0, size=L),
        stop=rng.uniform(-2.0, 2.0, size=L),
    )
    labels = [int(y) for y in rng.integers(L, size=T)]
    nll, d_em, d_trans, d_start, d_stop = crf_grads(em, crf, [labels], pack_posts([em])[1])
    got = (nll, d_em, d_trans, d_start, d_stop)
    want = loop_crf_nll_grad(em, crf.trans, crf.start, crf.stop, labels)
    for actual, desired in zip(got, want):
        assert_close(actual, desired)


@pytest.mark.parametrize("zero_crf", [False, True], ids=["random-crf", "zero-crf"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize("T", LENGTHS)
def test_viterbi_matches_numpy_reference(T, L, scale, zero_crf):
    rng = np.random.default_rng(100 * T + L + zero_crf)
    crf = CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(L, L)),
        start=rng.uniform(-2.0, 2.0, size=L),
        stop=rng.uniform(-2.0, 2.0, size=L),
    )
    if zero_crf:
        crf = CrfParams(np.zeros((L, L)), np.zeros(L), np.zeros(L))
    for _ in range(20):
        em = rng.uniform(-2.0, 2.0, size=(T, L)) * scale
        if zero_crf:
            em = np.round(em / scale)  # integer scores: ties at most positions
        assert viterbi_decode(em, crf) == numpy_viterbi_decode(em, crf.trans, crf.start, crf.stop)


def sorted_batch_lengths(rng, B, T):
    """B lengths in [1, T], longest first and the first equal to T; ties and
    T = 1 posts are likely."""
    lengths = np.sort(rng.integers(1, T + 1, size=B))[::-1]
    lengths[0] = T
    return lengths


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("L", [2, 3])
@pytest.mark.parametrize(
    "B, T", [(1, 1), (1, 7), (3, 1), (2, 5), (4, 4), (16, 12), (16, 24), (24, 16), (32, 12), (48, 8)]
)
def test_crf_nll_grad_is_bitwise_the_padded_kernel(B, T, L, scale):
    assert T * B <= 384
    rng = np.random.default_rng(10_000 * B + 100 * T + 10 * L + int(scale))
    crf = CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(L, L)),
        start=rng.uniform(-2.0, 2.0, size=L),
        stop=rng.uniform(-2.0, 2.0, size=L),
    )
    for trial in range(5):
        lengths = sorted_batch_lengths(rng, B, T) if trial else np.full(B, T)
        em = rng.uniform(-3.0, 3.0, size=(T, B, L)) * scale  # finite noise as padding
        labels = [[int(y) for y in rng.integers(L, size=n)] for n in lengths]
        steps = PackedSteps(lengths)
        nll, d_em, *rest = crf_grads(packed(em, steps), crf, labels, steps)
        want_nll, want_d_em, *want_rest = padded_crf_nll_grad(em, crf, labels, lengths)
        assert nll == want_nll
        assert np.array_equal(d_em, packed(want_d_em, steps))
        for actual, desired in zip(rest, want_rest):
            assert np.array_equal(actual, desired)
