import numpy as np
import pytest

from conftest import pack_posts, split_posts
from oracles import finite_difference, lstm_grads, max_relative_error
from toxicspans.arena import Arena
from toxicspans.batching import PackedSteps
from toxicspans.errors import NonFiniteError, ValidationError
from toxicspans.lstm import DIRECTIONS, LstmParams, lstm_forward


def random_params(rng, hidden, dim, scale=0.4, directions=DIRECTIONS):
    """Random weights of a forward and a backward direction."""
    return LstmParams(
        W_in=rng.uniform(-scale, scale, size=(directions, 4 * hidden, dim)),
        W_rec=rng.uniform(-scale, scale, size=(directions, 4 * hidden, hidden)),
        b=rng.uniform(-scale, scale, size=(directions, 4 * hidden)),
    )


class TestForward:
    def test_zero_params_single_step_gives_zeros(self):
        params = LstmParams(
            W_in=np.zeros((2, 8, 3)), W_rec=np.zeros((2, 8, 2)), b=np.zeros((2, 8))
        )
        x, steps = pack_posts([np.ones((1, 3))])
        hiddens, _ = lstm_forward(x, params, steps, Arena())
        np.testing.assert_array_equal(hiddens, np.zeros((1, 4)))

    def test_backward_direction_on_palindromic_input_mirrors_forward(self):
        rng = np.random.default_rng(0)
        one = random_params(rng, hidden=4, dim=3, directions=1)
        params = LstmParams(*(np.concatenate([w, w]) for w in (one.W_in, one.W_rec, one.b)))
        half = rng.normal(size=(3, 3))
        inputs = np.vstack([half, half[::-1]])  # palindromic sequence
        x, steps = pack_posts([inputs])
        hidden, _ = lstm_forward(x, params, steps, Arena())
        np.testing.assert_allclose(hidden[:, 4:], hidden[::-1, :4], atol=1e-12)

    def test_backward_direction_reports_original_order(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, hidden=3, dim=2)
        inputs = rng.normal(size=(5, 2))
        x, steps = pack_posts([inputs])
        hidden, cache = lstm_forward(x, params, steps, Arena())
        # position 0 of the output is the LAST step of the reversed recurrence
        np.testing.assert_allclose(hidden[0, 3:], cache.hidden[-1, 1], atol=1e-15)
        np.testing.assert_allclose(hidden[0, :3], cache.hidden[0, 0], atol=1e-15)

    def test_shape_validation(self):
        rng = np.random.default_rng(2)
        params = random_params(rng, hidden=3, dim=4)
        steps = PackedSteps([2, 1])
        for inputs in (np.zeros((3, 5)), np.zeros((2, 4)), np.zeros((4, 4)), np.zeros((3, 1, 4))):
            with pytest.raises(ValidationError):  # the width, or not the batch's 3 rows
                lstm_forward(inputs, params, steps, Arena())
        for lengths in ([0], [], [1, 2]):  # no empty, missing or unsorted posts
            with pytest.raises(ValidationError):
                lstm_forward(np.zeros((1, 4)), params, PackedSteps(lengths), Arena())

    @pytest.mark.parametrize("directions", [1, 3])
    def test_a_stack_of_other_than_two_directions_raises(self, directions):
        rng = np.random.default_rng(8)
        params = random_params(rng, hidden=2, dim=3, directions=directions)
        x, steps = pack_posts([np.zeros((4, 3))])
        with pytest.raises(ValidationError, match=f"stack of {directions} directions"):
            lstm_forward(x, params, steps, Arena())

    @pytest.mark.parametrize("keep_cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("n_posts", [1, 2], ids=["one-post", "two-posts"])
    @pytest.mark.parametrize("row", [0, -1], ids=["first-row", "last-row"])
    def test_non_finite_input_raises(self, row, n_posts, keep_cache):
        """A NaN in the first or the last row of a post, the last being
        what the backward direction reads first, in the packed loop and
        (one post with no cache) in the one-post loop."""
        rng = np.random.default_rng(3)
        params = random_params(rng, hidden=3, dim=2)
        bad = np.array([[1.0, 0.0], [0.0, 0.0]])
        bad[row, 1] = np.nan
        x, steps = pack_posts([bad] if n_posts == 1 else [rng.normal(size=(3, 2)), bad])
        with pytest.raises(NonFiniteError):
            lstm_forward(x, params, steps, Arena(), keep_cache=keep_cache)

    @pytest.mark.parametrize("keep_cache", [True, False], ids=["cache", "no-cache"])
    @pytest.mark.parametrize("name", ["W_in", "W_rec", "b"])
    @pytest.mark.parametrize("direction", [0, 1], ids=["forward", "backward"])
    def test_non_finite_weight_raises(self, direction, name, keep_cache):
        """A NaN in either direction's input, recurrent or bias weights, in
        the packed loop and (with no cache) in the one-post loop."""
        rng = np.random.default_rng(3)
        params = random_params(rng, hidden=3, dim=2)
        getattr(params, name)[direction].flat[0] = np.nan
        x, steps = pack_posts([rng.normal(size=(3, 2))])
        with pytest.raises(NonFiniteError):
            lstm_forward(x, params, steps, Arena(), keep_cache=keep_cache)

    def test_hidden_states_are_bounded(self):
        rng = np.random.default_rng(4)
        params = random_params(rng, hidden=5, dim=3, scale=10.0)
        x, steps = pack_posts([rng.normal(size=(20, 3)) * 50.0])
        hiddens, _ = lstm_forward(x, params, steps, Arena())
        assert np.all(np.abs(hiddens) < 1.0 + 1e-12)


class TestBackward:
    @pytest.mark.parametrize("lengths", [[6], [6, 4]], ids=["one-post", "two-posts"])
    def test_gradients_match_finite_differences(self, lengths):
        rng = np.random.default_rng(5)
        params = random_params(rng, hidden=4, dim=3)
        x, steps = pack_posts([rng.normal(size=(n, 3)) for n in lengths])
        weights = rng.normal(size=(steps.N, 8))  # random projection to a scalar loss

        def loss():
            h, _ = lstm_forward(x, params, steps, Arena())
            return float(np.sum(h * weights))

        _, cache = lstm_forward(x, params, steps, Arena())
        d_inputs, grads = lstm_grads(weights, params, cache)

        for k in range(DIRECTIONS):
            arrays = {"W_in": params.W_in[k], "W_rec": params.W_rec[k], "b": params.b[k]}
            numeric = finite_difference(loss, arrays, h=1e-5)
            assert max_relative_error(grads[k], numeric) < 1e-4

        numeric_inputs = finite_difference(loss, {"inputs": x}, h=1e-5)  # the packed rows themselves
        assert max_relative_error({"inputs": d_inputs}, numeric_inputs) < 1e-4

    def test_zero_upstream_gradient_gives_zero_param_gradients(self):
        rng = np.random.default_rng(6)
        params = random_params(rng, hidden=3, dim=2)
        x, steps = pack_posts([rng.normal(size=(4, 2))])
        _, cache = lstm_forward(x, params, steps, Arena())
        d_inputs, grads = lstm_grads(np.zeros((4, 6)), params, cache)
        assert np.all(d_inputs == 0.0)
        for direction in grads:
            for arr in direction.values():
                assert np.all(arr == 0.0)

    def test_upstream_shape_validated(self):
        rng = np.random.default_rng(7)
        params = random_params(rng, hidden=3, dim=2)
        x, steps = pack_posts([rng.normal(size=(4, 2))])
        _, cache = lstm_forward(x, params, steps, Arena())
        for d_hidden in (np.zeros((3, 6)), np.zeros((4, 1, 6)), np.zeros((4, 3))):
            with pytest.raises(ValidationError):
                lstm_grads(d_hidden, params, cache)


LOCKSTEP_LENGTHS = [[7], [6, 3, 1], [9, 9, 8, 8, 7, 6, 6, 5, 4, 4, 3, 3, 2, 2, 1, 1]]


class TestLockstep:
    """The two directions run in one loop, in lockstep, yet each one's
    results come from its own weights alone: lockstep changes the loop,
    not the arithmetic."""

    @pytest.mark.parametrize("redrawn", [0, 1], ids=["forward-redrawn", "backward-redrawn"])
    @pytest.mark.parametrize("H", [1, 4, 33])
    @pytest.mark.parametrize("lengths", LOCKSTEP_LENGTHS)
    def test_a_direction_is_bitwise_independent_of_the_other(self, lengths, H, redrawn):
        """Redrawing one direction's weights leaves the other direction's
        hidden states and gradients, and (with no upstream gradient into
        the redrawn direction) the input gradient, bit for bit."""
        B, D = len(lengths), 3
        rng = np.random.default_rng(100 * B + H)
        params = random_params(rng, hidden=H, dim=D, scale=0.6)
        other = random_params(rng, hidden=H, dim=D, scale=0.6)
        kept = 1 - redrawn
        for name in ("W_in", "W_rec", "b"):
            getattr(other, name)[kept] = getattr(params, name)[kept]
        steps = PackedSteps(lengths)
        x = rng.normal(size=(steps.N, D))
        d_hidden = rng.normal(size=(steps.N, DIRECTIONS * H))
        d_hidden[:, redrawn * H : (redrawn + 1) * H] = 0.0

        runs = []
        for stack in (params, other):
            hidden, cache = lstm_forward(x, stack, steps, Arena())
            runs.append((hidden, *lstm_grads(d_hidden, stack, cache)))
        (hidden, d_x, grads), (other_hidden, other_d_x, other_grads) = runs

        cols = slice(kept * H, (kept + 1) * H)
        np.testing.assert_array_equal(hidden[:, cols], other_hidden[:, cols])
        assert not np.array_equal(hidden, other_hidden)  # the redrawn direction did change
        np.testing.assert_array_equal(d_x, other_d_x)
        for name in ("W_in", "W_rec", "b"):
            np.testing.assert_array_equal(grads[kept][name], other_grads[kept][name])
            assert np.all(grads[redrawn][name] == 0.0) and np.all(other_grads[redrawn][name] == 0.0)

    @pytest.mark.parametrize("H", [1, 4, 33])
    @pytest.mark.parametrize("lengths", LOCKSTEP_LENGTHS)
    def test_the_backward_direction_is_the_forward_one_on_reversed_posts(self, lengths, H):
        """With one direction's weights stacked twice, each post's backward
        half (hidden states, its share of the gradients) is the forward
        half of the post reversed, and the other way round, in a ragged
        batch as in a single post."""
        D = 3
        rng = np.random.default_rng(100 * len(lengths) + H)
        one = random_params(rng, hidden=H, dim=D, scale=0.6, directions=1)
        params = LstmParams(*(np.concatenate([w, w]) for w in (one.W_in, one.W_rec, one.b)))
        xs = [rng.normal(size=(n, D)) for n in lengths]
        d_hs = [rng.normal(size=(n, DIRECTIONS * H)) for n in lengths]

        def run(posts, d_posts):
            x, steps = pack_posts(posts)
            hidden, cache = lstm_forward(x, params, steps, Arena())
            d_x, grads = lstm_grads(pack_posts(d_posts)[0], params, cache)
            return split_posts(hidden, steps), split_posts(d_x, steps), grads

        def mirrored(post):
            """A post's rows back to front, with the two halves swapped."""
            return np.concatenate([post[::-1, H:], post[::-1, :H]], axis=1)

        hidden, d_x, grads = run(xs, d_hs)
        rev_hidden, rev_d_x, rev_grads = run([x[::-1] for x in xs], [mirrored(d) for d in d_hs])

        def close(actual, desired):
            np.testing.assert_allclose(actual, desired, rtol=1e-10, atol=1e-12)

        for post_hidden, post_d_x, rev_post_hidden, rev_post_d_x in zip(hidden, d_x, rev_hidden, rev_d_x):
            close(mirrored(rev_post_hidden), post_hidden)
            close(rev_post_d_x[::-1], post_d_x)
        for k in range(DIRECTIONS):
            for name in ("W_in", "W_rec", "b"):
                close(rev_grads[1 - k][name], grads[k][name])
