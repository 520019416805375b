import numpy as np
import pytest

from conftest import one_direction, pack_posts
from oracles import finite_difference, max_relative_error
from toxicspans.batching import PackedSteps
from toxicspans.errors import NonFiniteError, ValidationError
from toxicspans.lstm import LstmDirectionParams, LstmParams, lstm_backward, lstm_forward


def random_params(rng, hidden, dim, scale=0.4):
    return LstmDirectionParams(
        W_in=rng.uniform(-scale, scale, size=(4 * hidden, dim)),
        W_rec=rng.uniform(-scale, scale, size=(4 * hidden, hidden)),
        b=rng.uniform(-scale, scale, size=4 * hidden),
    )


def stacked(directions):
    """A new block holding copies of the given directions' weights."""
    return LstmParams(*(np.stack([getattr(d, name) for d in directions]) for name in ("W_in", "W_rec", "b")))


class TestForward:
    def test_zero_params_single_step_gives_zeros(self):
        params = LstmDirectionParams(
            W_in=np.zeros((8, 3)), W_rec=np.zeros((8, 2)), b=np.zeros(8)
        )
        x, steps = pack_posts([np.ones((1, 3))])
        hiddens, _ = lstm_forward(x, one_direction(params), steps, [False])
        np.testing.assert_array_equal(hiddens, np.zeros((1, 2)))

    def test_reversed_on_palindromic_input_mirrors_forward(self):
        rng = np.random.default_rng(0)
        params = random_params(rng, hidden=4, dim=3)
        half = rng.normal(size=(3, 3))
        inputs = np.vstack([half, half[::-1]])  # palindromic sequence
        x, steps = pack_posts([inputs])
        fwd, _ = lstm_forward(x, one_direction(params), steps, [False])
        rev, _ = lstm_forward(x, one_direction(params), steps, [True])
        np.testing.assert_allclose(rev, fwd[::-1], atol=1e-12)

    def test_reversed_reports_original_order(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, hidden=3, dim=2)
        inputs = rng.normal(size=(5, 2))
        x, steps = pack_posts([inputs])
        rev, cache = lstm_forward(x, one_direction(params), steps, [True])
        # position 0 of the output is the LAST step of the reversed recurrence
        np.testing.assert_allclose(rev[0], cache.hidden[-1, 0], atol=1e-15)

    def test_shape_validation(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, hidden=3, dim=4)
        steps = PackedSteps([2, 1])
        for inputs in (np.zeros((3, 5)), np.zeros((2, 4)), np.zeros((4, 4)), np.zeros((3, 1, 4))):
            with pytest.raises(ValidationError):  # the width, or not the batch's 3 rows
                lstm_forward(inputs, one_direction(params), steps, [False])
        for lengths in ([0], [], [1, 2]):  # no empty, missing or unsorted posts
            with pytest.raises(ValidationError):
                lstm_forward(np.zeros((1, 4)), one_direction(params), PackedSteps(lengths), [False])

    def test_non_finite_input_raises(self):
        rng = np.random.default_rng(3)
        params = random_params(rng, hidden=3, dim=2)
        bad = np.array([[1.0, np.nan], [0.0, 0.0]])
        x, steps = pack_posts([bad])
        with pytest.raises(NonFiniteError):
            lstm_forward(x, one_direction(params), steps, [False])

    def test_hidden_states_are_bounded(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, hidden=5, dim=3, scale=10.0)
        x, steps = pack_posts([rng.normal(size=(20, 3)) * 50.0])
        hiddens, _ = lstm_forward(x, one_direction(params), steps, [False])
        assert np.all(np.abs(hiddens) < 1.0 + 1e-12)


class TestBackward:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        rng = np.random.default_rng(5)
        params = random_params(rng, hidden=4, dim=3)
        inputs = rng.normal(size=(6, 3))
        weights = rng.normal(size=(6, 4))  # random projection to a scalar loss
        x, steps = pack_posts([inputs])  # the array itself: perturbing inputs shows in x

        def loss():
            h, _ = lstm_forward(x, one_direction(params), steps, [reverse])
            return float(np.sum(h * weights))

        _, cache = lstm_forward(x, one_direction(params), steps, [reverse])
        d_inputs, [grads] = lstm_backward(weights, one_direction(params), cache)

        arrays = {"W_in": params.W_in, "W_rec": params.W_rec, "b": params.b}
        numeric = finite_difference(loss, arrays, h=1e-5)
        assert max_relative_error(grads, numeric) < 1e-4

        numeric_inputs = finite_difference(loss, {"inputs": inputs}, h=1e-5)
        assert max_relative_error({"inputs": d_inputs}, numeric_inputs) < 1e-4

    def test_zero_upstream_gradient_gives_zero_param_gradients(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, hidden=3, dim=2)
        x, steps = pack_posts([rng.normal(size=(4, 2))])
        _, cache = lstm_forward(x, one_direction(params), steps, [False])
        d_inputs, [grads] = lstm_backward(np.zeros((4, 3)), one_direction(params), cache)
        assert np.all(d_inputs == 0.0)
        for arr in grads.values():
            assert np.all(arr == 0.0)

    def test_upstream_shape_validated(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, hidden=3, dim=2)
        x, steps = pack_posts([rng.normal(size=(4, 2))])
        _, cache = lstm_forward(x, one_direction(params), steps, [False])
        for d_hidden in (np.zeros((3, 3)), np.zeros((4, 1, 3)), np.zeros((4, 6))):
            with pytest.raises(ValidationError):
                lstm_backward(d_hidden, one_direction(params), cache)


class TestLockstep:
    """K directions in one call give each direction's single-direction
    results exactly: lockstep changes the loop, not the arithmetic."""

    @pytest.mark.parametrize("reverse", [(False, True), (True, False), (True, True)])
    @pytest.mark.parametrize("H", [1, 4, 33])
    @pytest.mark.parametrize("lengths", [[7], [6, 3, 1], [9, 9, 8, 8, 7, 6, 6, 5, 4, 4, 3, 3, 2, 2, 1, 1]])
    def test_two_directions_match_two_single_runs(self, lengths, H, reverse):
        B, T, D = len(lengths), lengths[0], 3
        rng = np.random.default_rng(100 * B + H)
        directions = [random_params(rng, hidden=H, dim=D, scale=0.6) for _ in reverse]
        steps = PackedSteps(lengths)
        x = rng.normal(size=(steps.N, D))
        d_hidden = rng.normal(size=(steps.N, 2 * H))

        hidden, cache = lstm_forward(x, stacked(directions), steps, reverse)
        d_x, grads = lstm_backward(d_hidden, stacked(directions), cache)

        assert hidden.shape == (steps.N, 2 * H) and len(grads) == 2
        d_x_sum = None
        for k, (params, rev) in enumerate(zip(directions, reverse)):
            cols = slice(k * H, (k + 1) * H)
            one_hidden, one_cache = lstm_forward(x, one_direction(params), steps, [rev])
            one_d_x, [one_grads] = lstm_backward(
                np.ascontiguousarray(d_hidden[..., cols]), one_direction(params), one_cache
            )
            np.testing.assert_array_equal(hidden[..., cols], one_hidden)
            for name in ("W_in", "W_rec", "b"):
                np.testing.assert_array_equal(grads[k][name], one_grads[name])
            d_x_sum = one_d_x if d_x_sum is None else d_x_sum + one_d_x
        np.testing.assert_array_equal(d_x, d_x_sum)

    def test_direction_count_must_match_the_stack(self):
        rng = np.random.default_rng(8)
        params = stacked([random_params(rng, hidden=2, dim=3) for _ in range(2)])
        x, steps = pack_posts([np.zeros((4, 3))])
        with pytest.raises(ValidationError):
            lstm_forward(x, params, steps, [False])
