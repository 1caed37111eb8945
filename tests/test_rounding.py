"""Tests for the randomized rounding schemes and their ratio certificates."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqopt import rounding
from hqopt.lowrank import LowRankSolution, reduce_rank
from hqopt.matrices import HermMatrix, SymMatrix
from hqopt.rounding import (
    GAUSSIAN_MAX,
    GAUSSIAN_MIN,
    SIGN_MAX,
    RoundingParams,
    _rank_one_on_face,
    bound_certificate_max,
    bound_certificate_min,
    complex_exact_extraction,
    gaussian_round_max,
    gaussian_round_min,
    per_constraint_tail_bound,
    round_solution,
    sign_round_max,
    sign_union_tail,
)
from hqopt.sdp import (
    COMPLEX,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    REAL,
    QcqpInstance,
    constraint_values,
    objective_value,
    solve_instance,
)


def _orth(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q


def rand_pd(rng, n):
    q = _orth(rng, n)
    return SymMatrix(q.T @ np.diag(rng.uniform(0.5, 2.0, n)) @ q)


def rand_indefinite(rng, n):
    # one guaranteed negative eigenvalue, trace kept clearly positive
    d = rng.uniform(0.5, 1.5, n)
    d[-1] = -0.3
    q = _orth(rng, n)
    return SymMatrix(q.T @ np.diag(d) @ q)


def herm_pd(rng, n):
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermMatrix.from_complex(b @ np.conj(b.T) / n + 0.2 * np.eye(n))


def min_case_one_indefinite(rng, n, m):
    constraints = (rand_indefinite(rng, n),) + tuple(rand_pd(rng, n) for _ in range(m))
    return QcqpInstance(
        sense=MINIMIZE, field=REAL, objective=SymMatrix(np.eye(n)), constraints=constraints
    )


def max_all_definite(rng, n, m):
    constraints = tuple(rand_pd(rng, n) for _ in range(m + 1))
    return QcqpInstance(sense=MAXIMIZE, field=REAL, objective=rand_pd(rng, n), constraints=constraints)


def max_one_indefinite(rng, n, m):
    constraints = (rand_indefinite(rng, n),) + tuple(rand_pd(rng, n) for _ in range(m))
    return QcqpInstance(sense=MAXIMIZE, field=REAL, objective=rand_pd(rng, n), constraints=constraints)


def field_point(inst, best_x):
    """A report's point in the instance's field: its (Re; Im) read back for complex data."""
    x = np.array(best_x)
    return x[: inst.n] + 1j * x[inst.n :] if inst.field == COMPLEX else x


def solved_pipeline(inst):
    sol = solve_instance(inst)
    assert sol.status == OPTIMAL
    return sol, reduce_rank(sol, inst)


@pytest.fixture(scope="module")
def min_pipeline():
    inst = min_case_one_indefinite(np.random.default_rng(11), n=8, m=6)
    sol, low = solved_pipeline(inst)
    return inst, sol, low


@pytest.fixture(scope="module")
def max_pipeline():
    inst = max_all_definite(np.random.default_rng(12), n=8, m=5)
    sol, low = solved_pipeline(inst)
    return inst, sol, low


class TestRoundingParams:
    def test_defaults(self):
        p = RoundingParams(GAUSSIAN_MIN)
        assert p.num_samples == 100
        assert p.seed == 0
        assert [f.name for f in dataclasses.fields(p)] == ["scheme", "num_samples", "seed"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"scheme": "Median"},
            {"scheme": GAUSSIAN_MIN, "num_samples": 0},
            {"scheme": GAUSSIAN_MIN, "num_samples": 1.5},
            {"scheme": GAUSSIAN_MIN, "seed": -1},
            {"scheme": GAUSSIAN_MIN, "num_samples": -5},
            {"scheme": GAUSSIAN_MIN, "seed": 1.5},
            {"scheme": "gaussianmin"},
            {"scheme": "ComplexExact"},
            {"scheme": GAUSSIAN_MIN, "seed": 2**128},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RoundingParams(**kwargs)

    def test_accepts_largest_stream_key(self):
        assert RoundingParams(GAUSSIAN_MIN, seed=2**128 - 1).seed == 2**128 - 1

    def test_frozen(self):
        p = RoundingParams(GAUSSIAN_MIN)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.seed = 1


class TestSampleStream:
    """Sample i's draw is a pure function of (seed, i)."""

    @pytest.mark.parametrize("scale", [1.0, math.sqrt(0.5), None])
    def test_random_access_matches_full_draw(self, scale):
        full = rounding._draw_rows(3, 0, 200, 5, scale)
        assert np.array_equal(rounding._draw_rows(3, 37, 50, 5, scale), full[37:87])
        assert np.array_equal(rounding._draw_rows(3, 199, 1, 5, scale), full[199:])

    def test_chunk_size_does_not_change_reports(self, min_pipeline, max_pipeline, monkeypatch):
        def reports():
            inst, _, low = min_pipeline
            mx, mx_sol, mx_low = max_pipeline
            return [
                gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, 500, seed=4)),
                sign_round_max(mx, mx_low, RoundingParams(SIGN_MAX, 500, seed=4)),
                gaussian_round_max(mx, mx_sol, RoundingParams(GAUSSIAN_MAX, 500, seed=4)),
            ]

        default = [r.to_json_dict() for r in reports()]
        monkeypatch.setattr(rounding, "_SAMPLE_CHUNK", 7)
        assert [r.to_json_dict() for r in reports()] == default

    def test_prefix_independent_of_num_samples(self, min_pipeline, monkeypatch):
        inst, _, low = min_pipeline
        drawn = []
        draw_rows = rounding._draw_rows

        def recording(*args):
            drawn.append(draw_rows(*args))
            return drawn[-1]

        monkeypatch.setattr(rounding, "_draw_rows", recording)
        gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, 100, seed=9))
        short = np.concatenate(drawn)
        drawn.clear()
        gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, 10_000, seed=9))
        long = np.concatenate(drawn)
        assert short.shape[0] == 100 and long.shape[0] == 10_000
        assert np.array_equal(long[:100], short)

    @pytest.mark.parametrize("scale", [1.0, None])
    def test_distinct_seeds(self, scale):
        a = rounding._draw_rows(3, 0, 20, 6, scale)
        assert not np.array_equal(a, rounding._draw_rows(4, 0, 20, 6, scale))
        assert not np.array_equal(a, rounding._draw_rows(2**64 + 3, 0, 20, 6, scale))

    @pytest.mark.parametrize("scale", [1.0, math.sqrt(0.5)])
    def test_gaussian_moments(self, scale):
        # variance one, or one half per real coordinate of a complex draw;
        # odd r leaves the last Box-Muller pair of every sample half used
        n = 200_000
        x = rounding._draw_rows(5, 0, n, 3, scale)
        var, five_sigma = scale * scale, 5.0 / math.sqrt(n)
        assert np.all(np.isfinite(x))
        assert np.all(np.abs(x.mean(axis=0)) <= five_sigma * scale)
        assert np.all(np.abs(x.var(axis=0) - var) <= math.sqrt(2.0) * five_sigma * var)
        cov = np.cov(x.T)
        assert np.all(np.abs(cov[~np.eye(3, dtype=bool)]) <= five_sigma * var)

    def test_signs_are_balanced(self):
        n = 200_000
        s = rounding._draw_rows(7, 0, n, 3, None)
        assert set(np.unique(s)) == {-1.0, 1.0}
        assert np.all(np.abs(s.mean(axis=0)) <= 5.0 / math.sqrt(n))
        assert abs(np.mean(s[:, 0] * s[:, 1])) <= 5.0 / math.sqrt(n)

    def test_complex_draws_match_the_real_embedding(self):
        # a complex sample xi = U d, d = row[:r] + i row[r:], is the point the
        # real 2n embedding [[Re, -Im], [Im, Re]] of U draws from the same row
        rng = np.random.default_rng(23)
        n, m, r, samples = 4, 5, 2, 3000
        inst = QcqpInstance(sense=MINIMIZE, field=COMPLEX, objective=herm_pd(rng, n),
                            constraints=tuple(herm_pd(rng, n) for _ in range(m + 1)))
        U = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        v_sdp = float(np.real(np.trace(inst.objective.a @ U @ np.conj(U.T))))
        low = LowRankSolution(U=U, r=r, objective_value=v_sdp, field=COMPLEX, meets_bound=True, steps=0)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, samples, seed=8))

        def embed(a):
            return np.block([[a.real, -a.imag], [a.imag, a.real]])

        rows = rounding._draw_rows(8, 0, samples, 2 * r, math.sqrt(0.5))
        Xi = rows @ embed(U).T
        vals = np.stack([np.einsum("si,si->s", Xi @ embed(h.a), Xi) for h in inst.constraints], axis=1)
        dens, raw = vals.min(axis=1), np.einsum("si,si->s", Xi @ embed(inst.objective.a), Xi)
        ok = np.flatnonzero(dens > 0.0)
        best = ok[np.argmin(raw[ok] / dens[ok])]
        gamma = 1.0 / (40.0 * m)
        assert report.samples_feasible == ok.size and report.samples_discarded == samples - ok.size
        assert report.joint_event_count == np.count_nonzero((dens >= gamma) & (raw <= 60.0 * v_sdp))
        want = Xi[best] / math.sqrt(dens[best])
        assert np.max(np.abs(np.array(report.best_x) - want)) <= 1e-12 * np.max(np.abs(want))
        assert report.best_objective == pytest.approx(raw[best] / dens[best], rel=1e-12)
        x = field_point(inst, report.best_x)
        assert constraint_values(inst, x).min() == pytest.approx(1.0, rel=1e-12)


class TestBoundCertificateMin:
    def test_real_values(self):
        assert bound_certificate_min(1, REAL) == pytest.approx(1.0e6 / math.pi, rel=1e-12)
        assert bound_certificate_min(10, REAL) == pytest.approx(1.0e8 / math.pi, rel=1e-12)

    def test_complex_values(self):
        for m in (1, 2, 3):
            assert bound_certificate_min(m, COMPLEX) == 1.0
        assert bound_certificate_min(4, COMPLEX) == 9600.0
        assert bound_certificate_min(5, COMPLEX) == 12000.0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bound_certificate_min(0, REAL)


class TestPerConstraintTailBound:
    def test_real_sqrt_branch(self):
        gamma = math.pi * 1e-6
        out = per_constraint_tail_bound(gamma, 4, REAL)
        assert out == pytest.approx(math.sqrt(gamma), rel=1e-12)

    def test_real_linear_branch(self):
        gamma, r = 0.01, 1000
        out = per_constraint_tail_bound(gamma, r, REAL)
        assert out == pytest.approx(2.0 * (r - 1) * gamma / (math.pi - 2.0), rel=1e-12)

    def test_complex_values(self):
        assert per_constraint_tail_bound(1.0 / 200.0, 2, COMPLEX) == pytest.approx(1.0 / 150.0)
        assert per_constraint_tail_bound(0.25, 10, COMPLEX) == pytest.approx(16.0 * 81.0 * 0.0625)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            per_constraint_tail_bound(0.0, 2, REAL)
        with pytest.raises(ValueError):
            per_constraint_tail_bound(1.5, 2, REAL)
        with pytest.raises(ValueError):
            per_constraint_tail_bound(0.5, 0, REAL)

    @settings(max_examples=50, deadline=None)
    @given(
        g1=st.floats(1e-8, 1.0),
        g2=st.floats(1e-8, 1.0),
        r=st.integers(1, 50),
        field=st.sampled_from([REAL, COMPLEX]),
    )
    def test_monotone_in_gamma(self, g1, g2, r, field):
        lo, hi = sorted((g1, g2))
        assert per_constraint_tail_bound(lo, r, field) <= per_constraint_tail_bound(hi, r, field)

    @settings(max_examples=50, deadline=None)
    @given(gamma=st.floats(1e-8, 1.0), r=st.integers(1, 50), field=st.sampled_from([REAL, COMPLEX]))
    def test_nondecreasing_in_rank(self, gamma, r, field):
        assert per_constraint_tail_bound(gamma, r, field) <= per_constraint_tail_bound(
            gamma, r + 1, field
        )


class TestSignUnionTail:
    def test_value(self):
        assert sign_union_tail(1, 1.0, 2.0) == pytest.approx(2.0 * math.exp(-1.0))

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 50), mu=st.integers(1, 20))
    def test_cited_alpha_gives_one_over_87(self, m, mu):
        alpha = 2.0 * math.log(174.0 * m * mu)
        assert sign_union_tail(m, float(mu), alpha) == pytest.approx(1.0 / 87.0, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sign_union_tail(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            sign_union_tail(1, 0.0, 1.0)


class TestBoundCertificateMax:
    def test_all_definite_uses_log_count(self):
        rng = np.random.default_rng(0)
        inst = max_all_definite(rng, n=4, m=4)
        cert = bound_certificate_max(inst, SymMatrix(np.eye(4)))
        assert cert["alpha"] == pytest.approx(21.0 + 8.0 * math.log(5.0), rel=1e-12)
        assert cert["bound"] == cert["alpha"]
        assert all(d["tag"] == "PSD" for d in cert["per_constraint"])

    def test_single_indefinite_unit_norm(self):
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(SymMatrix(np.diag([1.0, -1.0])),),
        )
        X_hat = SymMatrix(np.eye(2) / math.sqrt(2.0))
        cert = bound_certificate_max(inst, X_hat)
        assert cert["per_constraint"][0]["frob_norm"] == pytest.approx(1.0)
        assert cert["alpha"] == pytest.approx(1.0 + math.sqrt(200.0), rel=1e-12)

    def test_coupled_pair_frobenius_norms(self):
        # max x1^2 + x2^2/M with strongly coupled indefinite constraints, M = 10
        M = 10.0
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.diag([1.0, 1.0 / M])),
            constraints=(
                SymMatrix(np.array([[0.0, M / 2], [M / 2, 1.0]])),
                SymMatrix(np.array([[0.0, -M / 2], [-M / 2, 1.0]])),
                SymMatrix(np.diag([M, -M])),
            ),
        )
        X_hat = SymMatrix(np.diag([1.0 + 1.0 / M, 1.0]))
        cert = bound_certificate_max(inst, X_hat)
        norms = [d["frob_norm"] for d in cert["per_constraint"]]
        assert norms[0] ** 2 == pytest.approx(56.25, rel=1e-12)
        assert norms[1] ** 2 == pytest.approx(56.25, rel=1e-12)
        assert norms[2] ** 2 == pytest.approx(M * M * (1.0 + 1.0 / M) ** 2 + M * M, rel=1e-12)
        # all three constraints are indefinite, so only the indefinite term is present
        linear = (20.0 + 8.0 * math.log(3.0)) * max(norms)
        quad = math.sqrt(200.0 * sum(s * s for s in norms))
        assert cert["alpha"] == pytest.approx(1.0 + min(linear, quad), rel=1e-12)

    def test_complex_constants(self):
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=COMPLEX,
            objective=HermMatrix.from_complex(np.array([[1.0]])),
            constraints=(HermMatrix.from_complex(np.array([[2.0]])),),
        )
        X_hat = HermMatrix.from_complex(np.array([[0.5]]))
        cert = bound_certificate_max(inst, X_hat)
        assert cert["per_constraint"][0]["frob_norm"] == pytest.approx(1.0)
        assert cert["alpha"] == pytest.approx(16.0)
        assert cert["per_constraint"][0]["exp_tail"] == pytest.approx(math.exp(-15.0 / 4.0))
        assert cert["success_floor"] == pytest.approx(0.05 - math.exp(-15.0 / 4.0))


class TestGaussianRoundMin:
    def test_feasibility_and_certificate(self, min_pipeline):
        inst, sol, low = min_pipeline
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=200, seed=4))
        assert not report.failed
        x = field_point(inst, report.best_x)
        assert constraint_values(inst, x).min() >= 1.0 - 1e-9
        assert objective_value(inst, x) == pytest.approx(report.best_objective, abs=1e-9)
        assert report.v_sdp <= report.best_objective + 1e-7
        assert report.empirical_ratio == pytest.approx(report.best_objective / report.v_sdp)
        assert report.theoretical_bound == pytest.approx(bound_certificate_min(inst.m, REAL))
        assert report.certificate_satisfied
        assert not report.multi_indefinite_warning

    def test_deterministic(self, min_pipeline):
        inst, sol, low = min_pipeline
        p = RoundingParams(GAUSSIAN_MIN, num_samples=50, seed=9)
        a = gaussian_round_min(inst, low, p)
        b = gaussian_round_min(inst, low, p)
        assert a.best_x == b.best_x
        assert a.best_objective == b.best_objective
        assert a.joint_event_count == b.joint_event_count

    def test_more_samples_never_worse(self, min_pipeline):
        inst, sol, low = min_pipeline
        short = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=50, seed=2))
        long = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=200, seed=2))
        assert long.best_objective <= short.best_objective
        assert long.joint_event_count >= short.joint_event_count
        assert long.samples_feasible >= short.samples_feasible

    def test_single_constraint_is_exact(self):
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(4)),
            constraints=(SymMatrix(np.eye(4)),),
        )
        sol, low = solved_pipeline(inst)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=20))
        assert report.theoretical_bound == 1.0
        assert report.empirical_ratio == pytest.approx(1.0, abs=1e-9)
        assert report.certificate_satisfied

    def test_two_indefinite_constraints_claim_no_bound(self):
        # min |x|^2 with x2^2 >= 1 and x1^2 +- 10 x1 x2 >= 1
        M = 10.0
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(
                SymMatrix(np.diag([0.0, 1.0])),
                SymMatrix(np.array([[1.0, M / 2], [M / 2, 0.0]])),
                SymMatrix(np.array([[1.0, -M / 2], [-M / 2, 0.0]])),
            ),
        )
        sol, low = solved_pipeline(inst)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=400, seed=1))
        assert report.multi_indefinite_warning
        assert math.isinf(report.theoretical_bound)
        assert not report.bound_is_claimed
        assert not report.certificate_satisfied
        assert report.samples_feasible >= 1
        x = field_point(inst, report.best_x)
        assert constraint_values(inst, x).min() >= 1.0 - 1e-9

    def test_no_feasible_sample_reports_failure(self):
        # factor support lies where the only constraint is negative
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(SymMatrix(np.diag([1.0, -1.0])),),
        )
        low = LowRankSolution(
            U=np.array([[0.0], [1.0]]),
            r=1,
            objective_value=1.0,
            field=REAL,
            meets_bound=True,
            steps=0,
        )
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=30))
        assert report.failed
        assert report.best_x is None
        assert report.samples_feasible == 0
        assert "positive" in report.message
        payload = report.to_json_dict()
        assert payload["best_objective"] is None
        assert payload["empirical_ratio"] is None

    def test_sense_and_scheme_mismatch(self, min_pipeline, max_pipeline):
        inst, sol, low = min_pipeline
        with pytest.raises(ValueError, match="scheme"):
            gaussian_round_min(inst, low, RoundingParams(SIGN_MAX))
        max_inst, _, max_low = max_pipeline
        with pytest.raises(ValueError, match="minimization"):
            gaussian_round_min(max_inst, max_low, RoundingParams(GAUSSIAN_MIN))

    def test_complex_instance_embedded_output(self):
        rng = np.random.default_rng(5)
        n, m = 4, 5
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=COMPLEX,
            objective=herm_pd(rng, n),
            constraints=tuple(herm_pd(rng, n) for _ in range(m + 1)),
        )
        sol, low = solved_pipeline(inst)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=100, seed=3))
        assert not report.failed
        x = field_point(inst, report.best_x)
        assert len(report.best_x) == 2 * n
        assert constraint_values(inst, x).min() >= 1.0 - 1e-9
        assert report.theoretical_bound == pytest.approx(2400.0 * m)
        assert report.certificate_satisfied

    def test_joint_event_frequency_clears_floor(self):
        inst = min_case_one_indefinite(np.random.default_rng(21), n=6, m=4)
        sol, low = solved_pipeline(inst)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=4000, seed=0))
        assert report.joint_event_count / 4000.0 > 1.0 / 500.0


class TestSignRoundMax:
    def test_feasibility_and_certificate(self, max_pipeline):
        inst, sol, low = max_pipeline
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=200, seed=4))
        assert not report.failed
        x = field_point(inst, report.best_x)
        assert constraint_values(inst, x).max() <= 1.0 + 1e-9
        assert report.best_objective <= report.v_sdp + 1e-7
        assert report.empirical_ratio >= 1.0 - 1e-9
        assert report.certificate_satisfied
        assert report.samples_feasible + report.samples_discarded == 200

    def test_bound_matches_rank_formula(self, max_pipeline):
        inst, sol, low = max_pipeline
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=10))
        X_hat = low.reconstruct()
        mu_eff = max(
            1, min(inst.m, max(np.linalg.matrix_rank(A.a @ X_hat) for A in inst.constraints))
        )
        assert report.theoretical_bound == pytest.approx(2.0 * math.log(174.0 * inst.m * mu_eff))

    def test_bound_stable_under_factor_round_off(self, max_pipeline):
        # a 1e-12 relative change of U, far below the rank cut-off, moves neither
        # mu_eff nor the claimed bound; nor does a dust column at 1e-14
        inst, sol, low = max_pipeline
        U = low.U
        noise = np.random.default_rng(5).standard_normal(U.shape)
        dusty = np.column_stack([U, 1e-14 * np.linalg.norm(U) * noise[:, 0]])
        params = RoundingParams(SIGN_MAX, num_samples=10)
        bound = sign_round_max(inst, low, params).theoretical_bound
        for V in (U, dusty):
            perturbed = V + 1e-12 * np.linalg.norm(V) * np.random.default_rng(6).standard_normal(V.shape)
            assert rounding.effective_rank(inst.field_view.A, perturbed) == low.r
            moved = dataclasses.replace(low, U=perturbed, r=V.shape[1])
            assert sign_round_max(inst, moved, params).theoretical_bound == bound

    def test_effective_rank_of_known_ranks(self):
        # rank(A_k U) is 1, 2 and 1 for U spanning e1, e2, e3, so mu_eff = 2 < r = 3
        A = np.stack([np.diag([1.0, 0, 0, 0, 0]), np.diag([1.0, 1, 0, 0, 0]), np.diag([0.0, 0, 1, 1, 1])])
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        U = np.eye(5)[:, :3] @ np.diag([2.0, 1.0, 0.5]) @ Q
        assert rounding.effective_rank(A, U) == 2
        assert rounding.effective_rank(A[:1], U) == 1
        assert rounding.effective_rank(np.zeros((2, 5, 5)), U) == 0
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.diag([1.0, -1.0, 0.5, 0.2, 0.1])),
            constraints=tuple(SymMatrix(a) for a in A),
        )
        C_U = U.T @ inst.objective.a @ U
        low = LowRankSolution(U=U, r=3, objective_value=float(np.trace(C_U)), field=REAL,
                              meets_bound=True, steps=0)
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=10))
        assert report.theoretical_bound == pytest.approx(2.0 * math.log(174.0 * 2 * 2))

    def test_single_constraint_is_exact(self):
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(3)),
            constraints=(SymMatrix(np.eye(3)),),
        )
        sol, low = solved_pipeline(inst)
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=20))
        assert report.theoretical_bound == 1.0
        assert report.empirical_ratio == pytest.approx(1.0, abs=1e-9)

    def test_one_indefinite_keeps_bound(self):
        inst = max_one_indefinite(np.random.default_rng(14), n=6, m=4)
        sol, low = solved_pipeline(inst)
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=300, seed=8))
        assert not report.multi_indefinite_warning
        assert math.isfinite(report.theoretical_bound)
        assert report.certificate_satisfied

    def test_rejects_complex(self):
        rng = np.random.default_rng(2)
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=COMPLEX,
            objective=herm_pd(rng, 3),
            constraints=(herm_pd(rng, 3),),
        )
        low = LowRankSolution(
            U=np.eye(6)[:, :1], r=1, objective_value=1.0, field=COMPLEX, meets_bound=True, steps=0
        )
        with pytest.raises(ValueError, match="real"):
            sign_round_max(inst, low, RoundingParams(SIGN_MAX))

    def test_rejects_without_positive_aggregate(self):
        # no nonnegative combination of a single indefinite constraint is positive definite
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(SymMatrix(np.diag([1.0, -1.0])),),
        )
        low = LowRankSolution(
            U=np.array([[1.0], [0.0]]),
            r=1,
            objective_value=1.0,
            field=REAL,
            meets_bound=True,
            steps=0,
        )
        report = sign_round_max(inst, low, RoundingParams(SIGN_MAX, num_samples=20))
        assert report.failed and report.message == rounding._NO_AGGREGATE
        assert report.best_x is None and math.isnan(report.empirical_ratio)
        assert report.samples_feasible == report.samples_discarded == 0
        assert report.theoretical_bound == math.inf and not report.bound_is_claimed


class TestGaussianRoundMax:
    def test_feasibility_and_certificate(self):
        inst = max_one_indefinite(np.random.default_rng(15), n=8, m=5)
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        report = gaussian_round_max(inst, sol, RoundingParams(GAUSSIAN_MAX, num_samples=300, seed=4))
        assert not report.failed
        x = field_point(inst, report.best_x)
        assert constraint_values(inst, x).max() <= 1.0 + 1e-9
        assert report.best_objective <= report.v_sdp + 1e-7
        cert = bound_certificate_max(inst, sol.X)
        assert report.theoretical_bound == pytest.approx(cert["bound"])
        assert report.certificate_satisfied

    def test_requires_optimal_solution(self):
        # relaxation of: max x1 x2 + x1^2, x1 x2 <= 1, x1^2 - x2^2 <= 1 (unbounded)
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.array([[1.0, 0.5], [0.5, 0.0]])),
            constraints=(
                SymMatrix(np.array([[0.0, 0.5], [0.5, 0.0]])),
                SymMatrix(np.diag([1.0, -1.0])),
            ),
        )
        sol = solve_instance(inst)
        assert sol.status != OPTIMAL
        with pytest.raises(ValueError, match="Optimal"):
            gaussian_round_max(inst, sol, RoundingParams(GAUSSIAN_MAX))

    def test_joint_event_frequency_clears_floor(self):
        inst = max_one_indefinite(np.random.default_rng(16), n=8, m=4)
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        report = gaussian_round_max(inst, sol, RoundingParams(GAUSSIAN_MAX, num_samples=2000, seed=0))
        assert report.joint_event_count / 2000.0 > 1.0 / 100.0

    def test_complex_instance(self):
        rng = np.random.default_rng(17)
        n, m = 3, 2
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=COMPLEX,
            objective=herm_pd(rng, n),
            constraints=tuple(herm_pd(rng, n) for _ in range(m + 1)),
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        report = gaussian_round_max(inst, sol, RoundingParams(GAUSSIAN_MAX, num_samples=200, seed=6))
        assert not report.failed
        x = field_point(inst, report.best_x)
        assert len(report.best_x) == 2 * n
        assert constraint_values(inst, x).max() <= 1.0 + 1e-9
        assert report.certificate_satisfied


class TestRankOneOnFace:
    def test_unique_contact_point(self):
        # w* I w = 1/2 with 2 |w0|^2 >= 1 pins w = (1/sqrt(2), 0) up to phase
        C_hat = np.eye(2, dtype=complex)
        A_hat = np.diag([2.0, 0.0]).astype(complex)
        w = _rank_one_on_face(C_hat, [A_hat], 0.5)
        assert w is not None
        assert abs(w[0]) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert abs(w[1]) <= 1e-6
        assert float(np.real(np.conj(w) @ A_hat @ w)) >= 1.0 - 1e-7

    def test_zero_objective_uses_kernel(self):
        C_hat = np.diag([0.0, 1.0]).astype(complex)
        A_hat = np.diag([3.0, 0.0]).astype(complex)
        w = _rank_one_on_face(C_hat, [A_hat], 0.0)
        assert w is not None
        assert float(np.real(np.conj(w) @ A_hat @ w)) == pytest.approx(1.0)
        assert abs(np.conj(w) @ C_hat @ w) <= 1e-12

    def test_negative_objective_returns_none(self):
        assert _rank_one_on_face(np.eye(2, dtype=complex), [np.eye(2, dtype=complex)], -1.0) is None


class TestComplexExactExtraction:
    def test_ratio_one_across_constraint_counts(self):
        rng = np.random.default_rng(7)
        ranks_seen = set()
        for trial in range(24):
            n = 5
            m = trial % 3 + 1
            inst = QcqpInstance(
                sense=MINIMIZE,
                field=COMPLEX,
                objective=herm_pd(rng, n),
                constraints=tuple(herm_pd(rng, n) for _ in range(m + 1)),
            )
            sol = solve_instance(inst)
            if sol.status != OPTIMAL:
                continue
            low = reduce_rank(sol, inst)
            ranks_seen.add(low.r)
            report = complex_exact_extraction(inst, low)
            assert not report.failed, report.message
            assert report.empirical_ratio == pytest.approx(1.0, abs=1e-4)
            assert report.certificate_satisfied
            x = field_point(inst, report.best_x)
            assert constraint_values(inst, x).min() >= 1.0 - 1e-9
        # both the direct read-off and the rank-two face search must be exercised
        assert 1 in ranks_seen and 2 in ranks_seen

    def test_rejects_out_of_scope_instances(self):
        rng = np.random.default_rng(3)
        low = LowRankSolution(
            U=np.eye(4)[:, :1], r=1, objective_value=1.0, field=REAL, meets_bound=True, steps=0
        )
        real_inst = QcqpInstance(
            sense=MINIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(SymMatrix(np.eye(2)),),
        )
        with pytest.raises(ValueError, match="complex"):
            complex_exact_extraction(real_inst, low)
        many = QcqpInstance(
            sense=MINIMIZE,
            field=COMPLEX,
            objective=herm_pd(rng, 3),
            constraints=tuple(herm_pd(rng, 3) for _ in range(5)),
        )
        with pytest.raises(ValueError, match="m <= 3"):
            complex_exact_extraction(many, low)


class TestReportJson:
    def test_infinite_bound_serializes_as_string(self, min_pipeline):
        inst, sol, low = min_pipeline
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=10))
        payload = report.to_json_dict()
        assert payload["scheme"] == GAUSSIAN_MIN
        assert isinstance(payload["best_x"], list)
        assert isinstance(payload["empirical_ratio"], float)
        assert payload["theoretical_bound"] == pytest.approx(bound_certificate_min(inst.m, REAL))


class TestSampleCounts:
    def test_gaussian_min_counts_discards(self):
        # two indefinite constraints: some samples have a negative smallest value
        M = 10.0
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=REAL,
            objective=SymMatrix(np.eye(2)),
            constraints=(
                SymMatrix(np.diag([0.0, 1.0])),
                SymMatrix(np.array([[1.0, M / 2], [M / 2, 0.0]])),
                SymMatrix(np.array([[1.0, -M / 2], [-M / 2, 0.0]])),
            ),
        )
        sol, low = solved_pipeline(inst)
        report = gaussian_round_min(inst, low, RoundingParams(GAUSSIAN_MIN, num_samples=400, seed=1))
        assert report.samples_discarded > 0
        assert report.samples_feasible + report.samples_discarded == 400

    @pytest.mark.parametrize("scheme", [GAUSSIAN_MIN, SIGN_MAX, GAUSSIAN_MAX])
    def test_feasible_plus_discarded_is_num_samples(self, scheme, min_pipeline, max_pipeline):
        inst, sol, _ = min_pipeline if scheme == GAUSSIAN_MIN else max_pipeline
        report = round_solution(inst, sol, RoundingParams(scheme, num_samples=3000, seed=2))
        assert not report.failed
        assert report.samples_feasible + report.samples_discarded == 3000


class TestRoundSolution:
    def test_matches_the_scheme_functions(self, min_pipeline, max_pipeline):
        inst, sol, low = min_pipeline
        p = RoundingParams(GAUSSIAN_MIN, num_samples=50, seed=3)
        assert round_solution(inst, sol, p).best_x == gaussian_round_min(inst, low, p).best_x
        inst, sol, low = max_pipeline
        p = RoundingParams(SIGN_MAX, num_samples=50, seed=3)
        assert round_solution(inst, sol, p).best_x == sign_round_max(inst, low, p).best_x
        p = RoundingParams(GAUSSIAN_MAX, num_samples=50, seed=3)
        assert round_solution(inst, sol, p).best_x == gaussian_round_max(inst, sol, p).best_x

    @pytest.mark.parametrize("scheme", [SIGN_MAX, GAUSSIAN_MAX])
    def test_no_definite_aggregate_is_a_failed_report(self, scheme):
        # max x1^2 - x2^2 s.t. x1^2 - x2^2 <= 1: bounded, but no multiple of
        # the single indefinite constraint is positive definite
        inst = QcqpInstance(
            sense=MAXIMIZE,
            field=REAL,
            objective=SymMatrix(np.diag([1.0, -1.0])),
            constraints=(SymMatrix(np.diag([1.0, -1.0])),),
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        report = round_solution(inst, sol, RoundingParams(scheme, num_samples=20))
        assert report.failed
        assert "positive definite" in report.message
        assert report.samples_feasible == 0

    def test_exact_first_for_small_complex_min(self):
        rng = np.random.default_rng(7)
        inst = QcqpInstance(
            sense=MINIMIZE,
            field=COMPLEX,
            objective=herm_pd(rng, 4),
            constraints=tuple(herm_pd(rng, 4) for _ in range(3)),
        )
        sol = solve_instance(inst)
        p = RoundingParams(GAUSSIAN_MIN, num_samples=20)
        assert round_solution(inst, sol, p, exact_first=True).scheme == "ComplexExact"
        assert round_solution(inst, sol, p).scheme == GAUSSIAN_MIN


class TestReportScalars:
    @pytest.mark.parametrize("scheme", [GAUSSIAN_MIN, SIGN_MAX, GAUSSIAN_MAX])
    def test_fields_are_plain_python_values(self, scheme, min_pipeline, max_pipeline):
        inst, sol, _ = min_pipeline if scheme == GAUSSIAN_MIN else max_pipeline
        report = round_solution(inst, sol, RoundingParams(scheme, num_samples=50))
        for name in ("best_objective", "v_sdp", "empirical_ratio", "theoretical_bound"):
            assert type(getattr(report, name)) is float
        for name in ("certificate_satisfied", "bound_is_claimed", "multi_indefinite_warning", "failed"):
            assert type(getattr(report, name)) is bool
        json.dumps(report.to_json_dict())
