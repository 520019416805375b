import math
import re

import numpy as np
import pytest

from conftest import pack_posts
from oracles import (
    brute_best_path,
    brute_log_partition,
    brute_marginals,
    crf_gold_score,
    crf_grads,
    crf_log_partition,
    crf_marginals,
    crf_nll,
    finite_difference,
    loop_viterbi_decode,
    path_score,
)
from toxicspans.batching import PackedSteps
from toxicspans.crf import CrfParams, _viterbi_two_labels, viterbi_decode
from toxicspans.errors import ValidationError


def zero_crf(L=2):
    return CrfParams(trans=np.zeros((L, L)), start=np.zeros(L), stop=np.zeros(L))


def random_instance(rng, T, L=2, scale=2.0):
    em = rng.uniform(-scale, scale, size=(T, L))
    crf = CrfParams(
        trans=rng.uniform(-scale, scale, size=(L, L)),
        start=rng.uniform(-scale, scale, size=L),
        stop=rng.uniform(-scale, scale, size=L),
    )
    return em, crf


class TestLogPartition:
    def test_all_zero_scores_t3(self):
        em = np.zeros((3, 2))
        assert crf_log_partition(em, zero_crf()) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_t1_closed_form(self):
        rng = np.random.default_rng(0)
        em, crf = random_instance(rng, T=1)
        v = crf.start + em[0] + crf.stop
        m = v.max()
        expected = m + math.log(np.exp(v - m).sum())
        assert crf_log_partition(em, crf) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_t5(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            em, crf = random_instance(rng, T=5)
            expected = brute_log_partition(em, crf.trans, crf.start, crf.stop)
            assert crf_log_partition(em, crf) == pytest.approx(expected, abs=1e-10)

    def test_large_scores_do_not_overflow(self):
        em = np.full((6, 2), 500.0)
        crf = zero_crf()
        value = crf_log_partition(em, crf)
        assert np.isfinite(value)
        assert value == pytest.approx(6 * 500.0 + 6 * math.log(2), abs=1e-8)

    def test_upper_bounds_every_gold_score(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            T = int(rng.integers(1, 7))
            em, crf = random_instance(rng, T=T)
            log_z = crf_log_partition(em, crf)
            for labels in np.ndindex(*([2] * T)):
                assert log_z >= crf_gold_score(em, crf, list(labels)) - 1e-12


class TestGoldScore:
    def test_all_zero_params(self):
        em = np.zeros((4, 2))
        assert crf_gold_score(em, zero_crf(), [1, 0, 1, 1]) == 0.0

    def test_t1_closed_form(self):
        rng = np.random.default_rng(3)
        em, crf = random_instance(rng, T=1)
        for y in (0, 1):
            expected = crf.start[y] + em[0, y] + crf.stop[y]
            assert crf_gold_score(em, crf, [y]) == pytest.approx(expected, abs=1e-12)

    def test_matches_independent_resum(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            T = int(rng.integers(1, 8))
            em, crf = random_instance(rng, T=T)
            labels = [int(rng.integers(2)) for _ in range(T)]
            expected = path_score(em, crf.trans, crf.start, crf.stop, labels)
            assert crf_gold_score(em, crf, labels) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            crf_gold_score(np.zeros((3, 2)), zero_crf(), [0, 1])


class TestNll:
    def test_zero_params_t3(self):
        em = np.zeros((3, 2))
        assert crf_nll(em, zero_crf(), [0, 1, 0]) == pytest.approx(3 * math.log(2), abs=1e-12)

    def test_infinite_margin_drives_nll_to_zero(self):
        labels = [0, 1, 1, 0, 1]
        em = np.full((5, 2), -20.0)
        for t, y in enumerate(labels):
            em[t, y] = 20.0
        assert crf_nll(em, zero_crf(), labels) < 1e-6

    def test_matches_brute_force_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            T = int(rng.integers(1, 7))
            em, crf = random_instance(rng, T=T)
            labels = [int(rng.integers(2)) for _ in range(T)]
            log_z = brute_log_partition(em, crf.trans, crf.start, crf.stop)
            gold = path_score(em, crf.trans, crf.start, crf.stop, labels)
            assert crf_nll(em, crf, labels) == pytest.approx(log_z - gold, abs=1e-10)
            assert crf_nll(em, crf, labels) >= -1e-12


class TestMarginals:
    def test_all_zero_params_uniform(self):
        marg, expected = crf_marginals(np.zeros((4, 2)), zero_crf())
        np.testing.assert_allclose(marg, 0.5, atol=1e-12)
        np.testing.assert_allclose(expected, 0.75, atol=1e-12)  # 3 transitions / 4 cells

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            T = int(rng.integers(1, 6))
            em, crf = random_instance(rng, T=T)
            marg, expected = crf_marginals(em, crf)
            b_marg, b_expected = brute_marginals(em, crf.trans, crf.start, crf.stop)
            np.testing.assert_allclose(marg, b_marg, atol=1e-10)
            np.testing.assert_allclose(expected, b_expected, atol=1e-10)

    def test_marginals_sum_to_one_and_transitions_to_t_minus_1(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            T = int(rng.integers(1, 9))
            em, crf = random_instance(rng, T=T, scale=4.0)
            marg, expected = crf_marginals(em, crf)
            np.testing.assert_allclose(marg.sum(axis=1), 1.0, atol=1e-12)
            assert expected.sum() == pytest.approx(T - 1, abs=1e-9)


class TestNllGradient:
    def test_emission_gradient_is_marginal_minus_indicator(self):
        rng = np.random.default_rng(8)
        em, crf = random_instance(rng, T=5)
        labels = [1, 0, 0, 1, 1]
        x, steps = pack_posts([em])
        _, d_em, _, _, _ = crf_grads(x, crf, [labels], steps)
        marg, _ = crf_marginals(em, crf)
        indicator = np.zeros_like(em)
        indicator[np.arange(5), labels] = 1.0
        np.testing.assert_allclose(d_em, marg - indicator, atol=1e-12)

    def test_all_gradients_match_finite_differences(self):
        rng = np.random.default_rng(9)
        em, crf = random_instance(rng, T=6)
        labels = [0, 1, 1, 0, 1, 0]
        x, steps = pack_posts([em])
        nll, d_em, d_trans, d_start, d_stop = crf_grads(x, crf, [labels], steps)
        arrays = {"em": em, "trans": crf.trans, "start": crf.start, "stop": crf.stop}
        numeric = finite_difference(lambda: crf_nll(em, crf, labels), arrays, h=1e-5)
        np.testing.assert_allclose(d_em, numeric["em"], atol=1e-7)
        np.testing.assert_allclose(d_trans, numeric["trans"], atol=1e-7)
        np.testing.assert_allclose(d_start, numeric["start"], atol=1e-7)
        np.testing.assert_allclose(d_stop, numeric["stop"], atol=1e-7)
        assert nll == pytest.approx(crf_nll(em, crf, labels), abs=1e-12)


    def test_bad_batches_rejected(self):
        rng = np.random.default_rng(12)
        em, steps = pack_posts([rng.normal(size=(3, 2)), rng.normal(size=(2, 2))])
        crf = zero_crf()
        labels = [[0, 1, 0], [1, 1]]
        for bad_em in (em[:4], em[:, :1], em[:, None]):
            with pytest.raises(ValidationError):  # not the batch's 5 rows of 2 labels
                crf_grads(bad_em, crf, labels, steps)
        for bad_labels in ([[0, 1, 0]], [[0, 1], [1, 1]], [[0, 1, 0], [1, 2]], [[0, 1, 0], [-1, 0]]):
            with pytest.raises(ValidationError):
                crf_grads(em, crf, bad_labels, steps)


class TestViterbi:
    def test_zero_transitions_reduce_to_argmax(self):
        rng = np.random.default_rng(10)
        em = rng.normal(size=(7, 2))
        path = viterbi_decode(em, zero_crf())
        assert path == list(np.argmax(em, axis=1))

    def test_matches_brute_force_score(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            T = int(rng.integers(1, 9))
            em, crf = random_instance(rng, T=T)
            path = viterbi_decode(em, crf)
            best_score, _ = brute_best_path(em, crf.trans, crf.start, crf.stop)
            got = path_score(em, crf.trans, crf.start, crf.stop, path)
            assert got == pytest.approx(best_score, abs=1e-10)

    def test_tie_breaks_toward_label_zero(self):
        em = np.zeros((4, 2))
        assert viterbi_decode(em, zero_crf()) == [0, 0, 0, 0]

    def test_strong_negative_self_transition_forbids_repeats(self):
        rng = np.random.default_rng(12)
        em = rng.uniform(0.0, 1.0, size=(8, 2))
        em[:, 1] += 0.5  # mildly prefer toxic everywhere
        crf = zero_crf()
        crf.trans[1, 1] = -50.0
        path = viterbi_decode(em, crf)
        assert all(not (a == 1 and b == 1) for a, b in zip(path, path[1:]))
        best_score, _ = brute_best_path(em, crf.trans, crf.start, crf.stop)
        assert path_score(em, crf.trans, crf.start, crf.stop, path) == pytest.approx(
            best_score, abs=1e-10
        )

    def test_dp_score_equals_recomputed_path_score(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            T = int(rng.integers(1, 10))
            em, crf = random_instance(rng, T=T, scale=3.0)
            path = viterbi_decode(em, crf)
            # recompute explicitly and confirm no other single-flip beats it
            base = path_score(em, crf.trans, crf.start, crf.stop, path)
            for t in range(T):
                flipped = list(path)
                flipped[t] = 1 - flipped[t]
                assert base >= path_score(em, crf.trans, crf.start, crf.stop, flipped) - 1e-12


def two_label_instances():
    """Emissions and a CRF, as a named ``pytest.param``, for the unrolled
    two-label Viterbi."""
    rng = np.random.default_rng(15)
    cases = []
    for k in range(40):
        cases.append((f"random-{k}", *random_instance(rng, T=int(rng.integers(1, 30)))))
    for k in range(40):  # integer scores: ties at most positions and in the final pick
        em, crf = random_instance(rng, T=int(rng.integers(1, 30)))
        cases.append((f"tied-{k}", np.round(em), CrfParams(np.round(crf.trans), np.round(crf.start),
                                                          np.round(crf.stop))))
    cases.append(("all-zero", np.zeros((9, 2)), zero_crf()))
    cases.append(("all-zero-T1", np.zeros((1, 2)), zero_crf()))
    for k in range(10):
        em, crf = random_instance(rng, T=12)
        em[k] = np.nan
        cases.append((f"nan-row-{k}", em, crf))
    em, crf = random_instance(rng, T=8)
    em[3, 1] = np.nan
    cases.append(("nan-entry", em, crf))
    em, crf = random_instance(rng, T=8)
    crf.trans[1, 0] = np.nan
    cases.append(("nan-transition", em, crf))
    for k in range(5):
        cases.append((f"T1-{k}", *random_instance(rng, T=1)))
        cases.append((f"T200-{k}", *random_instance(rng, T=200)))
    for scale in (1e150, 1e300):  # sums reach inf, and inf - inf is NaN
        cases.append((f"large-{scale:g}", *random_instance(rng, T=20, scale=scale)))
    return [pytest.param(em, crf, id=name) for name, em, crf in cases]


class TestTwoLabelViterbi:
    """``viterbi_decode`` runs an unrolled two-label loop; it returns the
    general loop's labels, ties and NaN included."""

    @pytest.mark.parametrize("em, crf", two_label_instances())
    def test_matches_the_general_loop(self, em, crf):
        args = (em.tolist(), crf.trans.tolist(), crf.start.tolist(), crf.stop.tolist())
        want = loop_viterbi_decode(*args)
        assert _viterbi_two_labels(*args) == want
        assert viterbi_decode(em, crf) == want


def other_widths():
    """Emissions and a CRF of which one is not two labels wide, and the
    start of the error it gives, as a named ``pytest.param``."""
    rng = np.random.default_rng(16)
    crf_error = "CRF trans, start and stop shapes must be ((2, 2), (2,), (2,)) for 2 labels"
    cases = [(f"L{L}", *random_instance(rng, T=5, L=L), crf_error) for L in (1, 3, 4)]
    em, crf = random_instance(rng, T=5)
    for width in (1, 3):
        cases.append((f"emissions-{width}-wide", rng.normal(size=(5, width)), crf,
                      f"emission width {width} != label count 2"))
        cases.append((f"crf-{width}-wide", em, random_instance(rng, T=1, L=width)[1], crf_error))
    cases.append(("stop-3-wide", em, CrfParams(crf.trans, crf.start, np.zeros(3)), crf_error))
    return [pytest.param(em, crf, error, id=name) for name, em, crf, error in cases]


class TestTwoLabelWidth:
    """The CRF has two labels: emissions or a CRF of another width raise
    ``ValidationError`` from decoding and from the NLL gradient alike."""

    @pytest.mark.parametrize("em, crf, error", other_widths())
    def test_other_widths_are_rejected(self, em, crf, error):
        with pytest.raises(ValidationError, match=re.escape(error)):
            viterbi_decode(em, crf)
        with pytest.raises(ValidationError, match=re.escape(error)):
            crf_grads(em, crf, [[0] * len(em)], PackedSteps([len(em)]))


class TestUniformShiftInvariance:
    def test_adding_constant_shifts_scores_but_not_decisions(self):
        rng = np.random.default_rng(14)
        em, crf = random_instance(rng, T=6)
        labels = [0, 1, 0, 0, 1, 1]
        c = 3.7
        shifted = em + c
        assert viterbi_decode(shifted, crf) == viterbi_decode(em, crf)
        assert crf_gold_score(shifted, crf, labels) == pytest.approx(
            crf_gold_score(em, crf, labels) + 6 * c, abs=1e-9
        )
        assert crf_log_partition(shifted, crf) == pytest.approx(
            crf_log_partition(em, crf) + 6 * c, abs=1e-9
        )
        assert crf_nll(shifted, crf, labels) == pytest.approx(
            crf_nll(em, crf, labels), abs=1e-9
        )
