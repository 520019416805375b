"""The fused LSTM and CRF kernels against the loop-form references in
``oracles``: same results up to floating-point summation order.

The tolerance was fixed before the fused kernels were written: float64
arithmetic reordered over at most a few hundred terms.  The hot cases scale
the inputs by 50 (and the emissions by 50 for the CRF), so LSTM gates
saturate and the sigmoid's exp overflows.
"""

import numpy as np
import pytest

from oracles import loop_crf_nll_grad, loop_lstm_backward, loop_lstm_forward
from toxicspans.crf import CrfParams, crf_nll_grad
from toxicspans.lstm import LstmDirectionParams, lstm_backward, lstm_forward

RTOL = 1e-9
ATOL = 1e-12
LENGTHS = [1, 2, 9, 130]
SCALES = [1.0, 50.0]
DIM = 6


def assert_close(actual, desired):
    np.testing.assert_allclose(actual, desired, rtol=RTOL, atol=ATOL)


def lstm_case(T, H, scale, seed):
    rng = np.random.default_rng(seed)
    params = LstmDirectionParams(
        W_in=rng.uniform(-4.0, 4.0, size=(4 * H, DIM)),
        W_rec=rng.uniform(-0.4, 0.4, size=(4 * H, H)),
        b=rng.uniform(-0.4, 0.4, size=4 * H),
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
    hidden, cache = lstm_forward(inputs, params, reverse=reverse)
    ref_hidden, ref_cache = loop_lstm_forward(inputs, params, reverse=reverse)
    assert_close(hidden, ref_hidden)
    assert_close(cache.cell, ref_cache["c"])

    d_inputs, grads = lstm_backward(d_hidden, params, cache)
    ref_d_inputs, ref_grads = loop_lstm_backward(d_hidden, params, ref_cache)
    assert_close(d_inputs, ref_d_inputs)
    for name in ("W_in", "W_rec", "b"):
        assert_close(grads[name], ref_grads[name])


def test_hot_inputs_saturate_gates_and_overflow_exp():
    params, inputs, _ = lstm_case(130, 33, 50.0, seed=0)
    pre = inputs @ params.W_in.T + params.b
    assert pre.min() < -np.log(np.finfo(np.float64).max)
    _, cache = lstm_forward(inputs, params)
    assert np.any(cache.gates == 0.0) and np.any(cache.gates == 1.0)


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
    got = crf_nll_grad(em, crf, labels)
    want = loop_crf_nll_grad(em, crf.trans, crf.start, crf.stop, labels)
    for actual, desired in zip(got, want):
        assert_close(actual, desired)
