import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hqopt.probability as prob
from hqopt.matrices import to_json
from hqopt.probability import (
    AsymmetryResult,
    IllConditionedError,
    bernoulli_moment4,
    chebyshev_tail,
    chernoff_tail,
    chi2_moment4,
    exhaustive_sign_prob,
    exp_closed_form,
    exp_moment4,
    form_tail,
    recip_exp_bound_holds,
    run_lemma_check,
)

from oracles import (
    asym_bound_moment,
    asym_prob,
    bernoulli_moment4_loop,
    bernoulli_moment4_trace,
    erlang_tail_at_mean,
    exp_asymmetry_scan,
    monte_carlo_hits,
    parabola_per_weight_log,
)

finite_taus = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)


def upper_weights(rng, n):
    return np.triu(rng.standard_normal((n, n)), k=1)


def sign_forms(w):
    """Psi of one upper matrix on each of the 2^n sign vectors of itertools.product."""
    signs = np.array(list(itertools.product([-1.0, 1.0], repeat=w.shape[0])))
    return 0.5 * np.einsum("ij,ij->i", signs @ (w + w.T), signs)


def all_sign_vectors(w):
    """(P{Psi <= 0}, mean Psi^4) of one upper matrix over all 2^n sign vectors."""
    psi = sign_forms(w)
    return np.count_nonzero(psi <= 0.0) / psi.size, float(np.mean(psi**4))


def padded(ws, n):
    """The upper matrices ws, each zero-padded to n x n, as one stack."""
    stack = np.zeros((len(ws), n, n))
    for out, w in zip(stack, ws):
        out[:w.shape[0], :w.shape[0]] = w
    return stack


class TestMomentFormulas:
    def test_chi2_values(self):
        assert chi2_moment4([1.0]) == 60.0
        assert chi2_moment4([1.0, 1.0]) == 144.0
        assert chi2_moment4([0.0, 0.0]) == 0.0

    def test_exp_values(self):
        assert exp_moment4([1.0]) == 9.0
        assert exp_moment4([1.0, 1.0]) == 24.0
        assert exp_moment4([0.0]) == 0.0

    @given(finite_taus)
    def test_chi2_dominated_by_variance_bound(self, taus):
        s2 = float(np.sum(np.asarray(taus) ** 2))
        assert chi2_moment4(taus) <= 60.0 * s2 * s2 + 1e-9 * (1.0 + s2 * s2)

    @given(finite_taus)
    def test_exp_dominated_by_variance_bound(self, taus):
        s2 = float(np.sum(np.asarray(taus) ** 2))
        assert exp_moment4(taus) <= 9.0 * s2 * s2 + 1e-9 * (1.0 + s2 * s2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            chi2_moment4([])

    def test_chi2_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        taus = np.array([1.0, 0.3, 2.0])
        g = rng.standard_normal((2_000_000, 3))
        psi = (g * g - 1.0) @ taus
        mc = float(np.mean(psi**4))
        assert mc == pytest.approx(chi2_moment4(taus), rel=0.05)

    def test_exp_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        taus = np.array([0.5, 1.5])
        e = rng.standard_exponential((2_000_000, 2))
        psi = (e - 1.0) @ taus
        mc = float(np.mean(psi**4))
        assert mc == pytest.approx(exp_moment4(taus), rel=0.05)


class TestBernoulliMoment:
    def test_two_point(self):
        w = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert bernoulli_moment4(w) == 1.0

    def test_all_ones_n4_matches_enumeration(self):
        w = np.triu(np.ones((4, 4)), k=1)
        _, m4 = exhaustive_sign_prob(w)
        assert bernoulli_moment4(w) == m4 == 168.0

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_enumeration(self, n, seed):
        w = upper_weights(np.random.default_rng(seed), n)
        _, m4 = exhaustive_sign_prob(w)
        assert bernoulli_moment4(w) == pytest.approx(m4, rel=1e-10, abs=1e-12)

    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_over_quadruples(self, n, seed):
        # the same products, summed in another order
        w = upper_weights(np.random.default_rng(seed), n)
        assert bernoulli_moment4(w) == pytest.approx(bernoulli_moment4_loop(w), rel=1e-12, abs=1e-14)

    @given(st.integers(min_value=2, max_value=14), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_trace_route_agrees(self, n, seed):
        # same moment through power sums of the hollow symmetrization
        w = upper_weights(np.random.default_rng(seed), n)
        a = bernoulli_moment4(w)
        assert bernoulli_moment4_trace(w) == pytest.approx(a, rel=1e-10, abs=1e-12)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_dominated_by_39_bound(self, n, seed):
        w = upper_weights(np.random.default_rng(seed), n)
        s2 = float(np.sum(w**2))
        assert bernoulli_moment4(w) <= 39.0 * s2 * s2 * (1.0 + 1e-12)

    def test_rejects_nonupper(self):
        with pytest.raises(ValueError):
            bernoulli_moment4(np.ones((3, 3)))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            bernoulli_moment4(np.zeros((1, 1)))


class TestAsymBound:
    def test_paper_constants(self):
        assert asym_bound_moment(4, 15) == pytest.approx((2 * math.sqrt(3) - 3) / 15)
        assert asym_bound_moment(4, 15) > 3 / 100
        assert asym_bound_moment(4, 9) > 1 / 20
        assert asym_bound_moment(4, 39) > 1 / 87

    def test_generic_exponent(self):
        assert asym_bound_moment(3, 4.0) == 0.25 * 4.0**-2.0
        assert asym_bound_moment(6, 8.0) == 0.25 * 8.0 ** (-2.0 / 4.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            asym_bound_moment(2.0, 5.0)
        with pytest.raises(ValueError):
            asym_bound_moment(4.0, 0.5)

    @given(st.floats(min_value=1.0, max_value=1e6))
    def test_sharpened_beats_generic(self, tau):
        assert asym_bound_moment(4.0, tau) > 0.25 / tau


class TestAsymProb:
    def test_chisq_single_weight(self):
        r = asym_prob("ChiSq", [1.0], samples=300_000, seed=7)
        exact = math.erfc(1.0 / math.sqrt(2.0))
        assert abs(r.estimate - exact) < 4.0 * r.confidence_radius
        assert r.lemma_id == "L3_1" and r.analytic_lower_bound == 3 / 100

    def test_exp_single_weight(self):
        r = asym_prob("Exp", [1.0], samples=300_000, seed=8)
        assert abs(r.estimate - math.exp(-1.0)) < 4.0 * r.confidence_radius

    def test_bernoulli_two_point_exact_half(self):
        # the sign family is exact: Psi = xi_1*xi_2 is -1 or +1 with equal odds
        assert exhaustive_sign_prob(np.array([[0.0, 1.0], [0.0, 0.0]])) == (0.5, 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_sign_enumeration_matches_all_sign_vectors(self, n):
        # half the vectors are enumerated; the law is the one over all 2^n
        w = upper_weights(np.random.default_rng(n), n)
        want_prob, want_m4 = all_sign_vectors(w)
        prob_le0, m4 = exhaustive_sign_prob(w)
        assert prob_le0 == want_prob
        assert m4 == pytest.approx(want_m4, rel=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            asym_prob("ChiSq", [0.0, 0.0])
        with pytest.raises(ValueError, match="all-zero"):
            exhaustive_sign_prob(np.zeros((3, 3)))

    def test_bad_kind_and_method(self):
        with pytest.raises(ValueError):
            asym_prob("Gauss", [1.0])
        # the sign family has no Monte Carlo estimator: exhaustive_sign_prob is exact
        with pytest.raises(ValueError, match="unknown family"):
            asym_prob("Bernoulli", np.array([[0.0, 1.0], [0.0, 0.0]]))
        # the family and the size pick the method; there is no method argument
        with pytest.raises(TypeError):
            asym_prob("ChiSq", [1.0], method="Exhaustive")
        with pytest.raises(TypeError):
            asym_prob("ChiSq", [1.0], method="ClosedForm")

    def test_deterministic_per_seed(self):
        a = asym_prob("Exp", [1.0, 2.0], samples=50_000, seed=3)
        b = asym_prob("Exp", [1.0, 2.0], samples=50_000, seed=3)
        c = asym_prob("Exp", [1.0, 2.0], samples=50_000, seed=4)
        assert a == b
        assert a.estimate != c.estimate


def _profile(rng, i):
    n = int(rng.integers(1, 9))
    kind = i % 3
    if kind == 0:
        return rng.random(n) + 1e-3
    if kind == 1:
        t = np.full(n, 1e-3)
        t[rng.integers(0, n)] = 1.0
        return t
    return rng.exponential(1.0, n) + 1e-6


class TestLemmaFloorsBulk:
    # The analytic floors hold with 3-sigma margin across 1000 random
    # weight profiles per family, spike shapes included.

    def test_chisq_thousand_profiles(self):
        rng = np.random.default_rng(11)
        for i in range(1000):
            taus = _profile(rng, i)
            r = asym_prob("ChiSq", taus, samples=30_000, seed=int(rng.integers(2**31)))
            assert r.estimate - 3 * r.confidence_radius > 3 / 100, (i, taus, r)

    def test_exp_thousand_profiles(self):
        rng = np.random.default_rng(12)
        for i in range(1000):
            taus = _profile(rng, i)
            r = asym_prob("Exp", taus, samples=30_000, seed=int(rng.integers(2**31)))
            assert r.estimate - 3 * r.confidence_radius > 1 / 20, (i, taus, r)

    def test_bernoulli_thousand_profiles(self):
        rng = np.random.default_rng(13)
        ws = []
        for i in range(1000):
            n = int(rng.integers(2, 13))
            if i % 3 == 2:
                u = rng.standard_normal(n)
                w = np.triu(np.outer(u, u) + 1e-3 * rng.standard_normal((n, n)), k=1)
            else:
                w = upper_weights(rng, n)
            if not np.any(w):
                w[0, 1] = 1.0
            ws.append(w)
        # zero-padding to n = 12 keeps every probability: four stacked calls of 250
        probs = np.concatenate([exhaustive_sign_prob(padded(ws[start:start + 250], 12))[0]
                                for start in range(0, 1000, 250)])
        for i, (w, prob_le0) in enumerate(zip(ws, probs)):
            assert prob_le0 > 1 / 87, (i, w)


class TestStackedSigns:
    # exhaustive_sign_prob and bernoulli_moment4 on stacks (..., n, n)

    @staticmethod
    def mixed_stack(seed, count):
        """count upper matrices of n in 2..12: Gaussian, near rank one, and small integers (Psi = 0 occurs)."""
        rng = np.random.default_rng(seed)
        ws = []
        for i in range(count):
            n = 2 + i % 11
            if i % 3 == 0:
                u = rng.standard_normal(n)
                w = np.triu(np.outer(u, u) + 1e-3 * rng.standard_normal((n, n)), k=1)
            elif i % 3 == 1:
                w = np.triu(rng.integers(-2, 3, (n, n)).astype(float), k=1)
            else:
                w = upper_weights(rng, n)
            if not np.any(w):
                w[0, 1] = 1.0
            ws.append(w)
        return ws

    def test_mixed_sizes_match_all_sign_vectors(self):
        ws = self.mixed_stack(0, 44)
        stack = padded(ws, 12)
        probs, m4s = exhaustive_sign_prob(stack)
        formulas = bernoulli_moment4(stack)
        assert probs.shape == m4s.shape == formulas.shape == (44,)
        ties = 0
        for w, prob_le0, m4, formula in zip(ws, probs, m4s, formulas):
            want_prob, want_m4 = all_sign_vectors(w)
            assert prob_le0 == want_prob
            assert m4 == pytest.approx(want_m4, rel=1e-12)
            assert formula == pytest.approx(want_m4, rel=1e-12)
            assert formula == pytest.approx(bernoulli_moment4(w), rel=1e-12)
            ties += bool(np.any(sign_forms(w) == 0.0))
        # Psi = 0 exactly on some vectors of some integer matrices: those count as <= 0
        assert ties > 0

    def test_stack_of_one_equals_the_matrix(self):
        for w in self.mixed_stack(1, 11):
            prob_le0, m4 = exhaustive_sign_prob(w)
            assert type(prob_le0) is float and type(m4) is float
            assert type(bernoulli_moment4(w)) is float
            probs, m4s = exhaustive_sign_prob(w[None])
            assert probs.shape == m4s.shape == (1,)
            assert (probs[0], m4s[0]) == (prob_le0, m4)
            assert bernoulli_moment4(w[None])[0] == bernoulli_moment4(w)

    def test_leading_axes_kept(self):
        stack = padded(self.mixed_stack(2, 6), 7).reshape(2, 3, 7, 7)
        probs, m4s = exhaustive_sign_prob(stack)
        assert probs.shape == m4s.shape == bernoulli_moment4(stack).shape == (2, 3)
        assert probs[1, 2] == exhaustive_sign_prob(stack[1, 2])[0]
        empty = np.zeros((0, 5, 5))
        assert [a.shape for a in (*exhaustive_sign_prob(empty), bernoulli_moment4(empty))] == [(0,)] * 3

    @pytest.mark.parametrize("size", [3, 12, 20])
    def test_zero_padded_matrix_keeps_its_bits(self, size):
        rng = np.random.default_rng(size)
        for n in range(2, min(size, 12) + 1):
            w = upper_weights(rng, n)
            prob_le0, m4 = exhaustive_sign_prob(w)
            big_prob, big_m4 = exhaustive_sign_prob(padded([w], size)[0])
            assert big_prob == prob_le0
            assert big_m4 == pytest.approx(m4, rel=1e-12)
            assert bernoulli_moment4(padded([w], size)[0]) == pytest.approx(bernoulli_moment4(w), rel=1e-12)

    def test_bad_slices_refused(self):
        stack = padded(self.mixed_stack(3, 5), 6)
        zero = stack.copy()
        zero[2] = 0.0
        with pytest.raises(ValueError, match="degenerate all-zero weights"):
            exhaustive_sign_prob(zero)
        lower = stack.copy()
        lower[4, 3, 1] = 1.0
        for evaluator in (exhaustive_sign_prob, bernoulli_moment4):
            with pytest.raises(ValueError, match="sign weights must be strictly upper triangular"):
                evaluator(lower)
            for shape in [(4, 1, 1), (4, 3, 2), (5,)]:
                with pytest.raises(ValueError, match="sign weights must form a square matrix, n >= 2"):
                    evaluator(np.zeros(shape))
        with pytest.raises(ValueError, match="capped at n = 20"):
            exhaustive_sign_prob(padded([np.triu(np.ones((3, 3)), 1)], 21))


class TestSignEnumerationMemory:
    # tracemalloc peaks of one call, measured with numpy 2.4: about 430 KB at n = 20
    # and 340 KB for the stack, against 42 MB per temporary at n = 20 when chunks
    # held 2^18 vectors

    @staticmethod
    def peak(stack):
        tracemalloc.start()
        try:
            exhaustive_sign_prob(stack)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_n20_matrix_peak(self):
        assert self.peak(upper_weights(np.random.default_rng(20), 20)) < 1_000_000

    def test_stack_of_64_at_n12_peak(self):
        rng = np.random.default_rng(12)
        assert self.peak(np.stack([upper_weights(rng, 12) for _ in range(64)])) < 1_000_000


class TestClosedForm:
    def test_frozen_two_weight_value(self):
        # hypoexponential tail at the mean for weights (2,1)
        assert exp_closed_form([2.0, 1.0]) == pytest.approx(
            2.0 * math.exp(-1.5) - math.exp(-3.0), abs=1e-14
        )

    def test_single_weight(self):
        assert exp_closed_form([1.0]) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert exp_closed_form([7.3]) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_scale_invariance(self):
        a = exp_closed_form([0.6, 0.4])
        assert exp_closed_form([6.0, 4.0]) == a
        assert exp_closed_form([0.003, 0.002]) == a

    def test_permutation_invariance_exact(self):
        assert exp_closed_form([2.0, 1.0, 0.5]) == exp_closed_form([0.5, 2.0, 1.0])

    def test_near_coincident_rejected(self):
        with pytest.raises(IllConditionedError, match="form_tail"):
            exp_closed_form([1.0, 1.0 + 1e-9])

    def test_gap_that_lost_digits_rejected(self):
        # the 183rd of the draws rng.random(n) + 0.05, n = rng.integers(1, 9),
        # from default_rng(0): 7 weights whose closest normalized pair is
        # 5.3e-5 apart, where the partial fractions were off by 9.3e-9
        rng = np.random.default_rng(0)
        for _ in range(183):
            taus = rng.random(int(rng.integers(1, 9))) + 0.05
        t = taus / taus.sum()
        gap = np.min(np.abs(np.subtract.outer(t, t))[np.triu_indices(7, 1)])
        assert len(taus) == 7 and gap == pytest.approx(5.3e-5, rel=0.01)
        with pytest.raises(IllConditionedError):
            exp_closed_form(taus)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            exp_closed_form([1.0, -0.5])
        with pytest.raises(ValueError):
            exp_closed_form([1.0, 0.0])

    def test_interval_and_conjecture_small_n(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            taus = np.sort(rng.random(n) + 0.02)[::-1]
            taus /= taus.sum()
            try:
                v = exp_closed_form(taus)
            except IllConditionedError:
                continue
            assert 1 / 20 < v < 19 / 20
            assert v > 1 / math.e

    def test_matches_monte_carlo_hundred_sets(self):
        rng = np.random.default_rng(22)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            taus = rng.random(n) + 0.05
            taus /= taus.sum()
            try:
                exact = exp_closed_form(taus)
            except IllConditionedError:
                continue
            r = asym_prob("Exp", taus, samples=200_000, seed=int(rng.integers(2**31)))
            stderr = max(r.confidence_radius / 1.959963984540054, 1e-12)
            assert abs(exact - r.estimate) <= 4.0 * stderr, (taus, exact, r.estimate)
            checked += 1

    def test_matches_ten_million_sample_run(self):
        taus = np.array([0.55, 0.25, 0.2])
        exact = exp_closed_form(taus)
        r = asym_prob("Exp", taus, samples=10_000_000, seed=99)
        stderr = r.confidence_radius / 1.959963984540054
        assert abs(exact - r.estimate) <= 4.0 * stderr


class TestErlangLimit:
    def test_known_values(self):
        assert erlang_tail_at_mean(1) == pytest.approx(math.exp(-1.0))
        assert erlang_tail_at_mean(2) == pytest.approx(3.0 * math.exp(-2.0))
        assert erlang_tail_at_mean(2) == pytest.approx(0.40600585, abs=1e-7)

    def test_matches_poisson_sum(self):
        for n in range(1, 9):
            ref = sum(math.exp(-n) * n**k / math.factorial(k) for k in range(n))
            assert erlang_tail_at_mean(n) == pytest.approx(ref, rel=1e-13)

    def test_closed_form_approaches_equal_limit(self):
        h = 1e-3
        v = exp_closed_form([0.5 + h, 0.5 - h])
        assert v == pytest.approx(erlang_tail_at_mean(2), abs=1e-4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            erlang_tail_at_mean(0)


class TestScan:
    def test_two_weight_scan(self):
        res = exp_asymmetry_scan(2, 1e-2, mixed_samples=20_000, seed=5)
        assert res["min_found"] > 1 / math.e
        assert res["max_found"] < (math.e - 1) / math.e
        assert res["equal_weights_value"] == pytest.approx(3 * math.exp(-2.0))
        # the minimum sits next to the simplex boundary
        assert min(res["argmin"]) <= 2e-2
        assert res["mixed_min"] > 1 / math.e - res["mixed_tolerance"]

    def test_three_weight_scan(self):
        res = exp_asymmetry_scan(3, 2.5e-2, mixed_samples=20_000, seed=6)
        assert res["min_found"] > 1 / math.e
        assert res["grid_points"] > 100

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            exp_asymmetry_scan(4)
        with pytest.raises(ValueError):
            exp_asymmetry_scan(2, resolution=0.5)


class TestTailBounds:
    def test_chernoff_examples(self):
        assert chernoff_tail([1.0], 2.0, "Real") == pytest.approx(math.exp(-0.25))
        assert chernoff_tail([1.0], 2.0, "Complex") == pytest.approx(math.exp(-0.5))
        assert chernoff_tail([1.0, -1.0], 3.0, "Real") == pytest.approx(math.exp(-3.0 * math.sqrt(2.0) / 8.0))

    def test_chernoff_all_negative_uses_alpha(self):
        # no positive weight: delta = 0 and the min is alpha
        assert chernoff_tail([-1.0, -2.0], 1.5, "Real") == pytest.approx(math.exp(-1.5 * 1.5 / 8.0))

    def test_params_validation(self):
        with pytest.raises(ValueError, match="alpha must be positive"):
            chernoff_tail([1.0], -1.0, "Real")
        with pytest.raises(ValueError, match="unknown field"):
            chernoff_tail([1.0], 1.0, "Quaternion")
        with pytest.raises(ValueError, match="sigma must be positive"):
            chernoff_tail([0.0], 1.0, "Real")
        with pytest.raises(ValueError, match="nonempty"):
            chernoff_tail([], 1.0, "Real")

    def test_chebyshev_examples(self):
        assert chebyshev_tail([1.0], 3.0) == 0.5
        assert chebyshev_tail([1.0], 1.0 + math.sqrt(200.0)) == pytest.approx(0.01)
        with pytest.raises(ValueError):
            chebyshev_tail([1.0], 1.0)

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_chebyshev_homogeneity(self, c):
        base = chebyshev_tail([0.3, 0.5], 2.5)
        assert chebyshev_tail([0.3 * c, 0.5 * c], 2.5) == pytest.approx(c * c * base)

    def test_empirical_dominated_fifty_configs(self):
        rng = np.random.default_rng(31)
        for i in range(50):
            r = int(rng.integers(1, 7))
            lam = rng.standard_normal(r)
            if i % 4 == 0:
                lam = -np.abs(lam)
            alpha = float(0.5 + 5.0 * rng.random())
            fieldname = "Real" if i % 2 == 0 else "Complex"
            if fieldname == "Real":
                q = (rng.standard_normal((200_000, r)) ** 2 - 1.0) @ lam
            else:
                q = (rng.standard_exponential((200_000, r)) - 1.0) @ lam
            freq = float(np.mean(q >= alpha * np.sqrt(np.sum(lam**2))))
            assert freq <= chernoff_tail(lam, alpha, fieldname), (i, freq)

            lam_pos = np.abs(lam) / np.sum(np.abs(lam))
            alpha_c = float(1.5 + 4.0 * rng.random())
            qc = (rng.standard_normal((200_000, r)) ** 2) @ lam_pos
            assert float(np.mean(qc >= alpha_c)) <= chebyshev_tail(lam_pos, alpha_c)

    def test_recip_exp_bound(self):
        assert recip_exp_bound_holds(0.0)
        assert recip_exp_bound_holds(0.5)
        assert recip_exp_bound_holds(-5.0)
        with pytest.raises(ValueError):
            recip_exp_bound_holds(0.6)

    @given(st.floats(min_value=-50.0, max_value=0.5))
    def test_recip_exp_bound_on_range(self, t):
        assert recip_exp_bound_holds(t)

    def test_recip_exp_bound_on_an_array(self):
        grid = np.linspace(-5.0, 0.5, 1101)
        holds = recip_exp_bound_holds(grid)
        assert holds.shape == grid.shape and holds.dtype == bool
        assert holds.tolist() == [recip_exp_bound_holds(float(t)) for t in grid] == [True] * 1101
        assert recip_exp_bound_holds(np.array([0.0])).tolist() == [True]  # equality at t = 0
        with pytest.raises(ValueError):
            recip_exp_bound_holds(np.array([-1.0, 0.25, 0.6]))


class TestResultTypes:
    def test_asymmetry_result_validation(self):
        with pytest.raises(ValueError, match="lemma id"):
            AsymmetryResult("L9_9", 0.1, 0.5, 0.01, "Quadrature", 10)
        with pytest.raises(ValueError, match="outside"):
            AsymmetryResult("L3_1", 0.1, 1.5, 0.01, "Quadrature", 10)
        with pytest.raises(ValueError, match="nonnegative"):
            AsymmetryResult("L3_1", 0.1, 0.5, -0.01, "Quadrature", 10)
        with pytest.raises(ValueError, match="exact"):
            AsymmetryResult("L3_1", 0.1, 0.5, 0.01, "Exhaustive", 10)
        with pytest.raises(ValueError, match="method"):
            AsymmetryResult("L3_1", 0.1, 0.5, 0.0, "Guess", 10)
        # the only methods are Exhaustive and Quadrature
        with pytest.raises(ValueError, match="method"):
            AsymmetryResult("L3_1", 0.1, 0.5, 0.01, "MonteCarlo", 10)

    def test_to_dict_round(self):
        r = AsymmetryResult("L3_4", 0.05, 0.4, 0.001, "Quadrature", 1000)
        d = to_json(r)
        assert d["lemma_id"] == "L3_4" and d["samples"] == 1000


class TestRegistry:
    @pytest.mark.parametrize("check_id", prob.CHECK_IDS)
    def test_all_checks_pass_small(self, check_id):
        out = run_lemma_check(check_id, samples=30_000, cases=6, seed=0)
        assert out.passed, (check_id, out.notes)
        assert out.check_id == check_id
        d = out.to_dict()
        assert isinstance(d["results"], list) and isinstance(d["notes"], list)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            run_lemma_check("L7_7")

    @pytest.mark.parametrize("check_id", prob.CHECK_IDS)
    @pytest.mark.parametrize("kwargs", [{"samples": 0}, {"cases": 0}, {"samples": -1}])
    def test_empty_runs_rejected(self, check_id, kwargs):
        with pytest.raises(ValueError, match=">= 1"):
            run_lemma_check(check_id, **kwargs)

    @pytest.mark.parametrize("name", ["samples", "cases"])
    @pytest.mark.parametrize("value", [True, 2.5, "3"])
    def test_bool_or_non_integer_count_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"need an integer {name} >= 1, got {value!r}"):
            run_lemma_check("L3_1", **{name: value})

    def test_numpy_integer_counts_and_seed_accepted(self):
        out = run_lemma_check("L3_1", samples=np.int64(10), cases=np.int32(3), seed=np.uint8(2))
        assert out == run_lemma_check("L3_1", samples=10, cases=3, seed=2)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            run_lemma_check("L3_1", samples=10, cases=1, seed=seed)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            asym_prob("ChiSq", [1.0], samples=10, seed=seed)
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {seed!r}"):
            exp_asymmetry_scan(2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert asym_prob("Exp", [1.0], samples=10, seed=np.int64(3)) == asym_prob(
            "Exp", [1.0], samples=10, seed=3)



    @pytest.mark.parametrize("check_id", prob.CHECK_IDS)
    def test_outcome_does_not_depend_on_samples(self, check_id):
        outs = [run_lemma_check(check_id, samples=s, cases=6, seed=2).to_dict() for s in (1, 1_000, 200_000)]
        assert outs[0] == outs[1] == outs[2]
        # every probability is enumerated or integrated, none sampled
        assert {r["method"] for r in outs[0]["results"]} <= {"Exhaustive", "Quadrature"}

    def test_checks_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a check started a thread")

        monkeypatch.setattr(threading, "Thread", no_thread)
        for check_id in prob.CHECK_IDS:
            assert run_lemma_check(check_id, cases=3).passed

    @pytest.mark.parametrize("check_id", sorted(set(prob.CHECK_IDS) - {"L4_1"}))
    def test_error_above_tolerance_fails_with_note(self, check_id, monkeypatch):
        # a node cap too small for 1e-9: the check fails and says why
        monkeypatch.setattr(prob, "_MAX_NODES", 9)
        out = run_lemma_check(check_id, cases=4)
        assert not out.passed
        assert any("quadrature error" in note and "at 9 nodes" in note for note in out.notes)


def _poisson_tail(k: int, y: float) -> float:
    """P{Gamma(k, 1) > y} = e^(-y) * sum_{i<k} y^i/i!."""
    return math.exp(-y) * sum(y**i / math.factorial(i) for i in range(k))


def _per_weight_log_tail(monkeypatch, weights, kind, x):
    """form_tail with the reference integrand: one complex log per weight at every node."""
    with monkeypatch.context() as patch:
        patch.setattr(prob, "_parabola", parabola_per_weight_log)
        return form_tail(weights, kind, x)


class TestFormTail:
    # the contour quadrature against closed forms, a plain Monte Carlo
    # oracle, the per-weight-log integrand, and its own symmetries

    def test_matches_exp_closed_form(self):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            taus = np.sort(rng.random(n) + 0.05)
            if np.min(np.diff(taus / taus.sum())) < 1e-3:
                continue  # the partial fractions lose digits as weights close up
            tail = form_tail(taus, "Exp", taus.sum())
            assert tail.error <= 1e-9
            assert float(tail.prob) == pytest.approx(exp_closed_form(taus), abs=1e-9)
            checked += 1

    @pytest.mark.parametrize("k", range(1, 9))
    def test_equal_exp_weights_match_erlang(self, k):
        if k > 1:  # where exp_closed_form refuses
            with pytest.raises(IllConditionedError):
                exp_closed_form(np.full(k, 0.3))
        tail = form_tail(np.full(k, 0.3), "Exp", 0.3 * k)
        assert float(tail.prob) == pytest.approx(erlang_tail_at_mean(k), abs=1e-9)
        assert float(tail.prob) == pytest.approx(_poisson_tail(k, k), abs=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("y", [0.1, 1.0, 4.0, 25.0])
    def test_equal_chisq_weights_match_poisson_sum(self, k, y):
        # 2k equal weights w give w*chi-square(2k), and chi-square(2k)/2 is Gamma(k, 1)
        tail = form_tail(np.full(2 * k, 0.7), "ChiSq", 0.7 * y)
        assert float(tail.prob) == pytest.approx(_poisson_tail(k, y / 2.0), abs=1e-9)

    @pytest.mark.parametrize("w", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 30.0])
    def test_single_chisq_weight_matches_erfc(self, w, x):
        # P{w*eta^2 > x} = erfc(sqrt(x/2w)); a negative weight gives the complement
        upper = math.erfc(math.sqrt(x / (2.0 * w)))
        assert float(form_tail([w], "ChiSq", x).prob) == pytest.approx(upper, abs=1e-12)
        assert float(form_tail([-w], "ChiSq", -x).prob) == pytest.approx(1.0 - upper, abs=1e-12)

    def test_heavy_single_shape(self):
        # E_0 + 1e-3*(E_1 + ... + E_7) > x: conditioning on the light part R,
        # P = E e^(-(x - R)) = e^(-x) (1 - 1e-3)^(-7), up to P{R > x} < e^(-900)
        taus = np.array([1.0] + [1e-3] * 7)
        x = float(taus.sum())
        tail = form_tail(taus, "Exp", x)
        assert float(tail.prob) == pytest.approx(math.exp(-x) * (1.0 - 1e-3) ** -7, abs=1e-12)

    @pytest.mark.parametrize("kind", ["ChiSq", "Exp"])
    @pytest.mark.parametrize("weights, x", [
        ([1.0, -0.5], 0.3),
        ([1.0, -0.5], -0.4),
        ([0.2, -1.5, 0.7, 0.05], 0.5),
        ([-1.0, -0.3], -1.2),
        ([1.0] + [1e-3] * 7, 1.007),
        ([0.4, -0.4, 0.1], 1e-2),
    ])
    def test_matches_plain_monte_carlo(self, kind, weights, x):
        samples = 200_000
        exact = float(form_tail(weights, kind, x).prob)
        freq = monte_carlo_hits(kind, weights, x, samples, seed=17) / samples
        assert abs(freq - exact) <= 4.0 * math.sqrt(exact * (1.0 - exact) / samples)

    def test_levels_at_or_below_zero_and_one_signed_forms(self):
        w = np.array([0.5, 1.5])
        for kind in ("ChiSq", "Exp"):
            # a form with positive weights exceeds every level below 0, and 0
            assert float(form_tail(w, kind, -1.0).prob) == 1.0
            assert float(form_tail(w, kind, 0.0).prob) == 1.0
            # one with negative weights never exceeds a level above 0: no node needed
            none = form_tail(-w, kind, 2.0)
            assert (float(none.prob), float(none.error), int(none.nodes)) == (0.0, 0.0, 0)
            # below 0, its tail is the complement of the positive form's
            assert float(form_tail(-w, kind, -2.0).prob) == 1.0 - float(form_tail(w, kind, 2.0).prob)
        with pytest.raises(ValueError, match="x != 0"):
            form_tail([1.0, -1.0], "ChiSq", 0.0)
        with pytest.raises(ValueError, match="unknown kind"):
            form_tail([1.0], "Gauss", 1.0)
        with pytest.raises(ValueError, match="finite"):
            form_tail([1.0, math.nan], "Exp", 1.0)
        with pytest.raises(ValueError, match="finite"):
            form_tail([1.0], "Exp", math.inf)

    @pytest.mark.parametrize("kind", ["ChiSq", "Exp"])
    def test_scale_invariance(self, kind):
        w = np.array([0.3, -0.2, 1.1, 0.05])
        base = form_tail(w, kind, 0.8)
        # a power of two rescales every intermediate exactly
        for c in (0.25, 8.0, 2.0**-20):
            scaled = form_tail(c * w, kind, c * 0.8)
            assert (float(scaled.prob), float(scaled.error), int(scaled.nodes)) == (
                float(base.prob), float(base.error), int(base.nodes))
        assert float(form_tail(3.7 * w, kind, 3.7 * 0.8).prob) == pytest.approx(float(base.prob), abs=1e-12)

    def test_rows_independent_of_batch_and_padding(self):
        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 9, size=30)
        w = np.zeros((30, 8))
        for i, n in enumerate(sizes):
            w[i, :n] = rng.standard_normal(n)
        x = rng.standard_normal(30)
        for kind in ("ChiSq", "Exp"):
            batch = form_tail(w, kind, x)
            assert batch.prob.shape == batch.error.shape == batch.nodes.shape == (30,)
            for i, n in enumerate(sizes):
                one = form_tail(w[i, :n], kind, x[i])
                assert (float(one.prob), float(one.error), int(one.nodes)) == (
                    batch.prob[i], batch.error[i], batch.nodes[i])

    def test_clipped_to_unit_interval(self):
        # the trapezoid sums land just outside [0, 1] by rounding: far below
        # the mean (sum 1 + 2.2e-16) and far above it (sum -4.6e-35)
        lam = [0.8891692283772107, 0.30710284846542163, 0.9440969226085693, 0.8253364287117005,
               0.7828139586125712, 0.7448824707667369, 0.8839265916211925]
        assert float(form_tail(lam, "ChiSq", 1.725325732407711e-05).prob) == 1.0
        lam = [0.6340709793474433, 0.496572693798853, 0.16354441619648027, 0.6737344377272737,
               0.318018387845798, 0.7108808632659449, 0.46035632886732475, 0.5074708605445272]
        assert float(form_tail(lam, "ChiSq", 118.93946902780937).prob) == 0.0

    def test_error_above_tolerance_at_node_cap(self):
        # at a level this small the trapezoid step at the node cap is too coarse
        tail = form_tail([1.0, -0.5], "ChiSq", 1e-12)
        assert int(tail.nodes) == prob._MAX_NODES
        assert float(tail.error) > 1e-9

    @pytest.mark.parametrize("kind", ["ChiSq", "Exp"])
    def test_matches_the_per_weight_log_integrand(self, kind, monkeypatch):
        # mixed-sign weights, rows zero-padded to each batch's width, and
        # levels of both signs from 1e-6 to 1e2
        rng = np.random.default_rng(29)
        levels = np.geomspace(1e-6, 1e2, 7)
        for width in (1, 2, 3, 8, 16, 17, 33, 64):
            sizes = np.concatenate(([width], rng.integers(1, width + 1, size=levels.size - 1)))
            w = np.zeros((levels.size, width))
            for i, n in enumerate(sizes):
                w[i, :n] = rng.standard_normal(n)
            x = rng.permutation(levels) * rng.choice([-1.0, 1.0], size=levels.size)
            tail = form_tail(w, kind, x)
            ref = _per_weight_log_tail(monkeypatch, w, kind, x)
            assert np.array_equal(tail.nodes, ref.nodes), width
            np.testing.assert_allclose(tail.prob, ref.prob, rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(tail.error, ref.error, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("kind", ["ChiSq", "Exp"])
    def test_wide_form_at_a_small_level_stays_finite(self, kind, monkeypatch):
        # 96 weights in [0.5, 1], one of them negative, at x = 1e-6: at the
        # last node the product of all 96 factors (of their roots for ChiSq)
        # exceeds the largest double
        w = np.linspace(0.5, 1.0, 96)
        w[40] *= -1.0
        scale, nu = prob._KINDS[kind]
        unit = w / w.max()
        xs = 1e-6 / (scale * w.max())
        u = math.sqrt(40.0 / xs) + 1.0
        z = 0.5 + u * u + 1j * u
        assert nu * np.sum(np.log(np.abs(1.0 - unit * z))) > math.log(np.finfo(float).max)
        tail = form_tail(w, kind, 1e-6)
        ref = _per_weight_log_tail(monkeypatch, w, kind, 1e-6)
        assert np.isfinite(tail.prob) and np.isfinite(tail.error)
        assert int(tail.nodes) == int(ref.nodes)
        assert float(tail.prob) == pytest.approx(float(ref.prob), abs=1e-13)
