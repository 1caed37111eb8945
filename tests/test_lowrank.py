"""Tests for rank reduction of optimal SDP solutions."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqopt.lowrank import (
    LowRankSolution,
    NotPsdError,
    _unvec,
    _vec,
    factorize,
    pataki_bound,
    reduce_rank,
)
from hqopt.instances import CASE_A, OBJECTIVE_IDENTITY, GeneratorSpec, generate
from hqopt.matrices import hermitian_part, read_only_view
from hqopt.sdp import (
    COMPLEX,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    REAL,
    UNBOUNDED,
    QcqpInstance,
    SdpSolution,
    solve_instance,
)


def sym(rows):
    return hermitian_part(np.array(rows, dtype=float))


def rand_psd(n, rng, floor=0.1):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return hermitian_part(Q @ np.diag(np.abs(rng.standard_normal(n)) + floor) @ Q.T)


def rand_herm_psd(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = M @ np.conj(M.T) / n + 0.1 * np.eye(n)
    return hermitian_part(H)


def real_values(inst, X):
    vals = [float(np.trace(a.a @ X)) for a in inst.constraints]
    return vals, float(np.trace(inst.objective.a @ X))


def complex_values(inst, Xc):
    vals = [float(np.real(np.trace(a.to_complex() @ Xc))) for a in inst.constraints]
    return vals, float(np.real(np.trace(inst.objective.to_complex() @ Xc)))


class TestPatakiBound:
    def test_real_values(self):
        assert [pataki_bound(c, REAL) for c in (1, 2, 3, 6, 7, 10, 11)] == [
            1, 1, 2, 3, 3, 4, 4,
        ]

    def test_complex_values(self):
        assert [pataki_bound(c, COMPLEX) for c in (1, 3, 4, 9, 10)] == [1, 1, 2, 3, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            pataki_bound(0, REAL)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_real_bound_is_tight(self, c):
        r = pataki_bound(c, REAL)
        assert r * (r + 1) // 2 <= c < (r + 1) * (r + 2) // 2 or r == 1

    @given(st.integers(min_value=1, max_value=10_000))
    def test_complex_bound_is_tight(self, c):
        r = pataki_bound(c, COMPLEX)
        assert r * r <= c < (r + 1) ** 2 or r == 1


class TestFactorize:
    def test_identity(self):
        U = factorize(sym(np.eye(2)))
        assert U.shape == (2, 2)
        assert np.allclose(U @ U.T, np.eye(2), atol=1e-12)

    def test_rank_one_diag(self):
        U = factorize(sym([[4.0, 0.0], [0.0, 0.0]]))
        assert U.shape == (2, 1)
        assert np.allclose(np.abs(U[:, 0]), [2.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        U = factorize(sym(np.zeros((3, 3))))
        assert U.shape == (3, 0)

    def test_not_psd_raises(self):
        with pytest.raises(NotPsdError):
            factorize(sym([[1.0, 0.0], [0.0, -1e-3]]))

    def test_small_negative_within_tol(self):
        U = factorize(sym([[1.0, 0.0], [0.0, -1e-12]]))
        assert U.shape == (2, 1)

    def test_hermitian_input(self):
        H = hermitian_part(np.array([[2.0, 0.0], [0.0, 2.0]])
                           + 1j * np.array([[0.0, -1.0], [1.0, 0.0]]))
        U = factorize(H)
        assert np.allclose(U @ np.conj(U.T), H, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8), st.integers())
    def test_reconstruction_and_rank(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed % 2**32)
        Y = rng.standard_normal((n, k))
        X = sym(Y @ Y.T)
        U = factorize(X)
        assert np.linalg.norm(U @ U.T - X) <= 1e-8 * (1.0 + np.linalg.norm(X))
        assert U.shape[1] == np.linalg.matrix_rank(Y) if k else U.shape[1] == 0


class TestReduceRank:
    def test_rank_one_input_unchanged(self):
        # objective aligned with the single constraint: optimizer is rank one
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            sym([[1.0, 0.0], [0.0, 2.0]]),
            sym([[1.0, 0.0], [0.0, 0.0]]),
        ]))
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        assert low.r == 1
        assert low.steps == 0
        assert low.meets_bound

    def test_single_constraint_forces_rank_one(self):
        # identity objective, identity constraint: the solver's interior point
        # has full rank, reduction must collapse it to one
        n = 5
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(n), np.eye(n)]))
        sol = solve_instance(inst)
        assert np.linalg.matrix_rank(sol.X.a, tol=1e-6) > 1
        low = reduce_rank(sol, inst)
        assert low.r == 1
        assert low.meets_bound
        Xr = low.U @ np.conj(low.U.T)
        assert abs(np.trace(Xr) - 1.0) <= 1e-7
        assert abs(float(np.trace(inst.objective.a @ Xr)) - sol.objective_value) <= 1e-7

    def test_random_real_instance(self):
        rng = np.random.default_rng(7)
        n, p = 10, 6
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            np.eye(n),
            *(rand_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 3  # r(r+1)/2 <= 6
        assert low.meets_bound
        Xr = low.U @ np.conj(low.U.T)
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, Xr)
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7
        assert np.linalg.eigvalsh(Xr)[0] >= -1e-9
        assert np.linalg.norm(low.U @ low.U.T - Xr) <= 1e-8

    def test_objective_value_matches_input(self):
        rng = np.random.default_rng(3)
        n, p = 8, 4
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            rand_psd(n, rng),
            *(rand_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        assert abs(low.objective_value - sol.objective_value) <= 1e-7

    def test_max_sense_instance(self):
        M = 10.0
        inst = QcqpInstance(MAXIMIZE, REAL, np.stack([
            sym([[1.0, 0.0], [0.0, 1.0 / M]]),
            sym([[0.0, M / 2], [M / 2, 1.0]]),
            sym([[0.0, -M / 2], [-M / 2, 1.0]]),
            sym([[M, 0.0], [0.0, -M]]),
        ]))
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.meets_bound
        assert low.r <= 2
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, low.U @ np.conj(low.U.T))
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7

    def test_gap_example_reduces_to_two(self):
        # four constraints: bound is r(r+1)/2 <= 4, so r = 2
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            sym([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]),
            sym([[0, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            sym([[0, -0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
            sym([[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
            sym([[0, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
        ]))
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 2
        assert low.meets_bound
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, low.U @ np.conj(low.U.T))
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7

    def test_complex_instance(self):
        rng = np.random.default_rng(11)
        n, p = 6, 5
        inst = QcqpInstance(MINIMIZE, COMPLEX, np.stack([
            np.eye(n),
            *(rand_herm_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 2  # r <= sqrt(5)
        assert low.meets_bound
        Xc0 = sol.X.a
        Xcr = low.U @ np.conj(low.U.T)
        v0, o0 = complex_values(inst, Xc0)
        vr, orr = complex_values(inst, Xcr)
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7
        assert np.linalg.eigvalsh(Xcr)[0] >= -1e-9
        assert np.allclose(Xcr, np.conj(Xcr.T))

    def test_rank_never_increases(self):
        rng = np.random.default_rng(5)
        n, p = 7, 10  # bound r(r+1)/2 <= 10 -> r <= 4, likely above solver rank
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            np.eye(n),
            *(rand_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        input_rank = factorize(sol.X.a).shape[1]
        low = reduce_rank(sol, inst)
        assert low.r <= input_rank

    def test_idempotent_once_bound_met(self):
        rng = np.random.default_rng(7)
        n, p = 10, 6
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            np.eye(n),
            *(rand_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        sol2 = dataclasses.replace(sol, X=read_only_view(low.U @ np.conj(low.U.T)))
        again = reduce_rank(sol2, inst)
        assert again.r == low.r
        assert again.steps == 0
        assert np.allclose(again.U @ np.conj(again.U.T), low.U @ np.conj(low.U.T), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        n, p = 9, 5
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            np.eye(n),
            *(rand_psd(n, rng) for _ in range(p)),
        ]))
        sol = solve_instance(inst)
        a = reduce_rank(sol, inst)
        b = reduce_rank(sol, inst)
        assert a.r == b.r
        assert np.array_equal(a.U, b.U)

    def test_rejects_non_optimal(self):
        inst = QcqpInstance(MAXIMIZE, REAL, np.stack([
            sym([[1.0, 0.5], [0.5, 0.0]]),
            sym([[0.0, 0.5], [0.5, 0.0]]),
            sym([[1.0, 0.0], [0.0, -1.0]]),
        ]))
        sol = solve_instance(inst)
        assert sol.status == UNBOUNDED
        with pytest.raises(ValueError, match="Optimal"):
            reduce_rank(sol, inst)

    @pytest.mark.parametrize("seed", [32, 71])
    def test_large_objective_reaches_the_bound(self, seed):
        # v_sdp is about 62.2 (seed 32) and 234.7 (seed 71); the step to rank
        # two moves the objective by more than 1e-7 absolute, far less relative to it
        inst = generate(GeneratorSpec(n=10, m=3, case=CASE_A, sense=MINIMIZE,
                                      objective_kind=OBJECTIVE_IDENTITY, seed=seed, field=COMPLEX))
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        assert low.meets_bound and low.r == 2 and low.steps >= 1
        assert low.objective_value == pytest.approx(sol.objective_value, rel=1e-7)

    def test_stall_returns_best_rank_with_flag(self):
        # non-optimal X: the objective row is independent of the constraint
        # rows, so with 5 constraints on a rank-3 face (6 dof vs 6 rows) no
        # value-preserving direction exists and the reduction must stop honestly
        rng = np.random.default_rng(2)
        n = 3
        inst = QcqpInstance(MINIMIZE, REAL, np.stack([
            rand_psd(n, rng),
            *(rand_psd(n, rng) for _ in range(5)),
        ]))
        fake = SdpSolution(
            status=OPTIMAL,
            X=read_only_view(np.eye(n)),
            objective_value=float(np.trace(inst.objective.a)),
            dual_multipliers=(0.0,) * 5,
            dual_slack=None,
            primal_residual=0.0,
            dual_residual=0.0,
            gap=0.0,
            iterations=0,
            ray=None,
            infeasibility_certificate=None,
            field=REAL,
            n=n,
            message="synthetic",
        )
        low = reduce_rank(fake, inst)
        assert not low.meets_bound
        assert low.r == 3
        vr, orr = real_values(inst, low.U @ np.conj(low.U.T))
        assert max(abs(v - t) for v, t in zip(vr, [float(np.trace(a.a)) for a in inst.constraints])) <= 1e-7


class TestVec:
    """_vec writes a symmetric (Hermitian) matrix as the real vector the rank reduction's null-space system uses."""

    @staticmethod
    def draw(rng, shape, complex_field):
        a = rng.standard_normal(shape)
        if complex_field:
            a = a + 1j * rng.standard_normal(shape)
        return hermitian_part(a)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_isometry(self, r, complex_field):
        rng = np.random.default_rng(r)
        A, B = self.draw(rng, (r, r), complex_field), self.draw(rng, (r, r), complex_field)
        assert _vec(A).shape == ((r * r,) if complex_field else (r * (r + 1) // 2,))
        assert _vec(A) @ _vec(B) == pytest.approx(np.real(np.trace(A @ B)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("r", [1, 2, 5])
    def test_round_trip(self, r, complex_field):
        rng = np.random.default_rng(10 + r)
        H = self.draw(rng, (r, r), complex_field)
        back = _unvec(_vec(H), r, complex_field)
        assert back.dtype == H.dtype
        np.testing.assert_allclose(back, H, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_stack_is_vectorized_slice_by_slice(self, complex_field):
        stack = self.draw(np.random.default_rng(3), (4, 3, 3), complex_field)
        np.testing.assert_array_equal(_vec(stack), np.array([_vec(H) for H in stack]))
