"""The fused LSTM and CRF kernels against the loop-form references in
``oracles``: same results up to floating-point summation order.  The scalar
Viterbi decoder must return exactly the numpy reference's path.

The tolerance was fixed before the fused kernels were written: float64
arithmetic reordered over at most a few hundred terms.  The packed CRF
kernel must also return exactly the bits of the padded (T, B) kernel it
replaced, kept in ``oracles``, on every real slot.  One post must get
exactly the bits of the lockstep forward pass kept there, which
multiplies one post's rows against a strided W_rec as the packed loop
does: in the caching pass, whose cache must give the backward pass the
same gradients, and in the one-post loop, which runs only without a
cache.  A pass that keeps no cache must return the caching pass's bits.
The hot cases scale the inputs by 50 (and the emissions by 50 for the
CRF), so LSTM gates saturate and the sigmoid's exp overflows; the bitwise
CRF cases also scale the emissions by 1e150 and 1e300.
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
    valid_mask,
)
from toxicspans.arena import Arena
from toxicspans.batching import PackedSteps
from toxicspans.crf import NUM_LABELS, CrfParams, viterbi_decode
from toxicspans.lstm import DIRECTIONS, LstmParams, lstm_forward

RTOL = 1e-9
ATOL = 1e-12
LENGTHS = [1, 2, 9, 130]
SCALES = [1.0, 50.0]
DIM = 6
# Three random draws of weights and inputs for each bitwise case's shape.
DRAWS = [1, 2, 3]
DRAW_IDS = [f"draw{d}" for d in DRAWS]
# Two random draws of each two-label CRF case, seeded as the cases of two
# and of three labels were.
CRF_DRAWS = [2, 3]
CRF_DRAW_IDS = [f"draw{d}" for d in CRF_DRAWS]


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=ATOL)


def lstm_params(rng, H):
    """Random weights of the forward and the backward direction."""
    return LstmParams(
        W_in=rng.uniform(-4.0, 4.0, size=(DIRECTIONS, 4 * H, DIM)),
        W_rec=rng.uniform(-0.4, 0.4, size=(DIRECTIONS, 4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=(DIRECTIONS, 4 * H)),
    )


def lstm_case(T, H, scale, seed):
    rng = np.random.default_rng(seed)
    params = lstm_params(rng, H)
    inputs = rng.normal(size=(T, DIM)) * scale
    d_hidden = rng.normal(size=(T, DIRECTIONS * H))
    return params, inputs, d_hidden


@pytest.mark.parametrize("draw", [0, 1], ids=["draw0", "draw1"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("H", [1, 4, 33])
@pytest.mark.parametrize("T", LENGTHS)
def test_lstm_matches_loop_reference(T, H, scale, draw):
    """Each direction's half of the hidden states, cells and parameter
    gradients against the loop of that direction, and the input gradient
    against the sum of the two loops', over two random draws of each
    shape."""
    params, inputs, d_hidden = lstm_case(T, H, scale, seed=1000 * T + 10 * H + draw)
    x, steps = pack_posts([inputs])
    hidden, cache = lstm_forward(x, params, steps, Arena())
    d_inputs, grads = lstm_grads(d_hidden, params, cache)
    ref_d_inputs = 0.0
    for k in range(DIRECTIONS):
        cols = slice(k * H, (k + 1) * H)
        ref_hidden, ref_cache = loop_lstm_forward(inputs, params, k)
        assert_close(hidden[:, cols], ref_hidden)
        assert_close(cache.cell[:, k], ref_cache["c"])  # a post's packed rows are its steps
        ref_d_x, ref_grads = loop_lstm_backward(d_hidden[:, cols], params, ref_cache)
        ref_d_inputs = ref_d_inputs + ref_d_x
        for name in ("W_in", "W_rec", "b"):
            assert_close(grads[k][name], ref_grads[name])
    assert_close(d_inputs, ref_d_inputs)


def test_hot_inputs_saturate_gates_and_overflow_exp():
    params, inputs, _ = lstm_case(130, 33, 50.0, seed=0)
    pre = inputs @ params.W_in[0].T + params.b[0]
    assert pre.min() < -np.log(np.finfo(np.float64).max)
    x, steps = pack_posts([inputs])
    _, cache = lstm_forward(x, params, steps, Arena())
    assert np.any(cache.gates == 0.0) and np.any(cache.gates == 1.0)


@pytest.mark.parametrize("draw", DRAWS, ids=DRAW_IDS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 2, 7, 130])
def test_one_post_lstm_is_bitwise_the_packed_loop(T, H, scale, draw):
    """One post against the lockstep reference: a caching pass (the packed
    loop, with the backward pass's gradients) and a pass with no cache
    (the one-post loop) must both give its bits."""
    rng = np.random.default_rng(1000 * T + 10 * H + draw)
    params = lstm_params(rng, H)
    x, steps = pack_posts([rng.normal(size=(T, DIM)) * scale])
    d_hidden = rng.normal(size=(T, DIRECTIONS * H))
    hidden, cache = lstm_forward(x, params, steps, Arena())
    bare, _ = lstm_forward(x, params, steps, Arena(), keep_cache=False)
    ref_hidden, ref_cache = reference_lstm_forward(x[:, None], params, [T])
    assert np.array_equal(hidden, ref_hidden[:, 0])
    assert np.array_equal(bare, ref_hidden[:, 0])
    for name in ("gates", "cell", "tanh_cell", "hidden"):
        assert np.array_equal(getattr(cache, name), getattr(ref_cache, name))
    for input_grad in (False, True):
        d_x, grads = lstm_grads(d_hidden, params, cache, input_grad)
        ref_d_x, ref_grads = lstm_grads(d_hidden, params, ref_cache, input_grad)
        assert (d_x is None) == (not input_grad)
        assert d_x is None or np.array_equal(d_x, ref_d_x)
        for k in range(DIRECTIONS):
            for name in ("W_in", "W_rec", "b"):
                assert np.array_equal(grads[k][name], ref_grads[k][name])


@pytest.mark.parametrize("draw", DRAWS, ids=DRAW_IDS)
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("batch", ["one-post", "ragged"])
@pytest.mark.parametrize("H", [1, 3, 32, 128])
@pytest.mark.parametrize("T", [1, 2, 100])
def test_a_pass_without_cache_is_bitwise_the_caching_pass(T, H, batch, scale, draw):
    """Inference keeps no cache, in the one-post loop or the packed loop;
    its hidden states must be the caching pass's.  It runs in a poisoned
    arena, so a value read before it is written shows."""
    rng = np.random.default_rng(1000 * T + 10 * H + draw)
    params = lstm_params(rng, H)
    lengths = [T] if batch == "one-post" else [T, (T + 1) // 2, (T + 1) // 2, 1]
    x, steps = pack_posts([rng.normal(size=(n, DIM)) * scale for n in lengths])
    hidden, cache = lstm_forward(x, params, steps, Arena())
    bare, no_cache = lstm_forward(x, params, steps, PoisonedArena(), keep_cache=False)
    assert cache is not None and no_cache is None
    assert np.array_equal(bare, hidden)


def crf_params(rng):
    """Random two-label CRF tables."""
    return CrfParams(
        trans=rng.uniform(-2.0, 2.0, size=(NUM_LABELS, NUM_LABELS)),
        start=rng.uniform(-2.0, 2.0, size=NUM_LABELS),
        stop=rng.uniform(-2.0, 2.0, size=NUM_LABELS),
    )


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("draw", CRF_DRAWS, ids=CRF_DRAW_IDS)
@pytest.mark.parametrize("T", LENGTHS)
def test_crf_nll_grad_matches_loop_reference(T, draw, scale):
    rng = np.random.default_rng(100 * T + draw)
    em = rng.uniform(-2.0, 2.0, size=(T, NUM_LABELS)) * scale
    crf = crf_params(rng)
    labels = [int(y) for y in rng.integers(NUM_LABELS, size=T)]
    nll, d_em, d_trans, d_start, d_stop = crf_grads(em, crf, [labels], pack_posts([em])[1])
    got = (nll, d_em, d_trans, d_start, d_stop)
    want = loop_crf_nll_grad(em, crf.trans, crf.start, crf.stop, labels)
    for actual, desired in zip(got, want):
        assert_close(actual, desired)


@pytest.mark.parametrize("zero_crf", [False, True], ids=["random-crf", "zero-crf"])
@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("draw", CRF_DRAWS, ids=CRF_DRAW_IDS)
@pytest.mark.parametrize("T", LENGTHS)
def test_viterbi_matches_numpy_reference(T, draw, scale, zero_crf):
    rng = np.random.default_rng(100 * T + draw + zero_crf)
    crf = crf_params(rng)
    if zero_crf:
        crf = CrfParams(*(np.zeros_like(table) for table in (crf.trans, crf.start, crf.stop)))
    for _ in range(20):
        em = rng.uniform(-2.0, 2.0, size=(T, NUM_LABELS)) * scale
        if zero_crf:
            em = np.round(em / scale)  # integer scores: ties at most positions
        assert viterbi_decode(em, crf) == numpy_viterbi_decode(em, crf.trans, crf.start, crf.stop)


def sorted_batch_lengths(rng, B, T):
    """B lengths in [1, T], longest first and the first equal to T; ties and
    T = 1 posts are likely."""
    lengths = np.sort(rng.integers(1, T + 1, size=B))[::-1]
    lengths[0] = T
    return lengths


@pytest.mark.parametrize("scale", SCALES + [1e150, 1e300])
@pytest.mark.parametrize("draw", CRF_DRAWS, ids=CRF_DRAW_IDS)
@pytest.mark.parametrize(
    "B, T", [(1, 1), (1, 7), (3, 1), (2, 5), (4, 4), (16, 12), (16, 24), (24, 16), (32, 12), (48, 8)]
)
def test_crf_nll_grad_is_bitwise_the_padded_kernel(B, T, draw, scale):
    """The packed kernel's binary log-sum-exp steps against the padded
    kernel's reductions: five draws of finite emissions, then two where one
    label's emission is -inf on about a third of the real rows, the last
    also with both labels -inf on one real row of any post (a post with no
    finite path, so its log-partition is -inf and its marginals NaN).  At
    the large scales rounding sends marginals to inf.  Every result must
    have the reference's bits, NaN and inf in the same places."""
    assert T * B <= 384
    rng = np.random.default_rng(10_000 * B + 100 * T + 10 * draw + int(scale))
    crf = crf_params(rng)
    for trial in range(7):
        lengths = sorted_batch_lengths(rng, B, T) if trial else np.full(B, T)
        em = rng.uniform(-3.0, 3.0, size=(T, B, NUM_LABELS)) * scale  # finite noise as padding
        labels = [[int(y) for y in rng.integers(NUM_LABELS, size=n)] for n in lengths]
        if trial >= 5:
            t, b = np.nonzero(valid_mask(lengths, T) & (rng.random((T, B)) < 0.3))
            em[t, b, rng.integers(NUM_LABELS, size=len(t))] = -np.inf
        if trial == 6:
            t, b = np.nonzero(valid_mask(lengths, T))
            pick = rng.integers(len(t))
            em[t[pick], b[pick]] = -np.inf
        steps = PackedSteps(lengths)
        with np.errstate(over="ignore", invalid="ignore"):
            nll, d_em, *rest = crf_grads(packed(em, steps), crf, labels, steps)
            want_nll, want_d_em, *want_rest = padded_crf_nll_grad(em, crf, labels, lengths)
        assert np.array_equal(nll, want_nll, equal_nan=True)
        assert np.array_equal(d_em, packed(want_d_em, steps), equal_nan=True)
        for actual, desired in zip(rest, want_rest):
            assert np.array_equal(actual, desired, equal_nan=True)
