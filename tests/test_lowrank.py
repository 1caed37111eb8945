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
    factorize,
    pataki_bound,
    reduce_rank,
)
from hqopt.matrices import HermMatrix, SymMatrix
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
    return SymMatrix(np.array(rows, dtype=float))


def rand_psd(n, rng, floor=0.1):
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return SymMatrix(Q @ np.diag(np.abs(rng.standard_normal(n)) + floor) @ Q.T)


def rand_herm_psd(n, rng):
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = M @ np.conj(M.T) / n + 0.1 * np.eye(n)
    return HermMatrix(H.real, H.imag)


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
        U = factorize(SymMatrix(np.eye(2)))
        assert U.shape == (2, 2)
        assert np.allclose(U @ U.T, np.eye(2), atol=1e-12)

    def test_rank_one_diag(self):
        U = factorize(sym([[4.0, 0.0], [0.0, 0.0]]))
        assert U.shape == (2, 1)
        assert np.allclose(np.abs(U[:, 0]), [2.0, 0.0], atol=1e-12)

    def test_zero_matrix(self):
        U = factorize(SymMatrix(np.zeros((3, 3))))
        assert U.shape == (3, 0)

    def test_not_psd_raises(self):
        with pytest.raises(NotPsdError):
            factorize(sym([[1.0, 0.0], [0.0, -1e-3]]))

    def test_small_negative_within_tol(self):
        U = factorize(sym([[1.0, 0.0], [0.0, -1e-12]]))
        assert U.shape == (2, 1)

    def test_hermitian_input(self):
        H = HermMatrix(np.array([[2.0, 0.0], [0.0, 2.0]]), np.array([[0.0, -1.0], [1.0, 0.0]]))
        U = factorize(H)
        assert np.allclose(U @ np.conj(U.T), H.to_complex(), atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8), st.integers())
    def test_reconstruction_and_rank(self, n, k, seed):
        k = min(k, n)
        rng = np.random.default_rng(seed % 2**32)
        Y = rng.standard_normal((n, k))
        X = SymMatrix(Y @ Y.T)
        U = factorize(X)
        assert np.linalg.norm(U @ U.T - X.a) <= 1e-8 * (1.0 + np.linalg.norm(X.a))
        assert U.shape[1] == np.linalg.matrix_rank(Y) if k else U.shape[1] == 0


class TestReduceRank:
    def test_rank_one_input_unchanged(self):
        # objective aligned with the single constraint: optimizer is rank one
        inst = QcqpInstance(MINIMIZE, REAL, sym([[1.0, 0.0], [0.0, 2.0]]), (sym([[1.0, 0.0], [0.0, 0.0]]),))
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        assert low.r == 1
        assert low.steps == 0
        assert low.meets_bound

    def test_single_constraint_forces_rank_one(self):
        # identity objective, identity constraint: the solver's interior point
        # has full rank, reduction must collapse it to one
        n = 5
        inst = QcqpInstance(MINIMIZE, REAL, SymMatrix(np.eye(n)), (SymMatrix(np.eye(n)),))
        sol = solve_instance(inst)
        assert np.linalg.matrix_rank(sol.X.a, tol=1e-6) > 1
        low = reduce_rank(sol, inst)
        assert low.r == 1
        assert low.meets_bound
        Xr = low.reconstruct()
        assert abs(np.trace(Xr) - 1.0) <= 1e-7
        assert abs(float(np.trace(inst.objective.a @ Xr)) - sol.objective_value) <= 1e-7

    def test_random_real_instance(self):
        rng = np.random.default_rng(7)
        n, p = 10, 6
        inst = QcqpInstance(
            MINIMIZE, REAL, SymMatrix(np.eye(n)), tuple(rand_psd(n, rng) for _ in range(p))
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 3  # r(r+1)/2 <= 6
        assert low.meets_bound
        Xr = low.reconstruct()
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, Xr)
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7
        assert np.linalg.eigvalsh(Xr)[0] >= -1e-9
        assert np.linalg.norm(low.U @ low.U.T - Xr) <= 1e-8

    def test_objective_value_matches_input(self):
        rng = np.random.default_rng(3)
        n, p = 8, 4
        inst = QcqpInstance(
            MINIMIZE, REAL, rand_psd(n, rng), tuple(rand_psd(n, rng) for _ in range(p))
        )
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        assert abs(low.objective_value - sol.objective_value) <= 1e-7

    def test_max_sense_instance(self):
        M = 10.0
        inst = QcqpInstance(
            MAXIMIZE,
            REAL,
            sym([[1.0, 0.0], [0.0, 1.0 / M]]),
            (
                sym([[0.0, M / 2], [M / 2, 1.0]]),
                sym([[0.0, -M / 2], [-M / 2, 1.0]]),
                sym([[M, 0.0], [0.0, -M]]),
            ),
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.meets_bound
        assert low.r <= 2
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, low.reconstruct())
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7

    def test_gap_example_reduces_to_two(self):
        # four constraints: bound is r(r+1)/2 <= 4, so r = 2
        inst = QcqpInstance(
            MINIMIZE,
            REAL,
            sym([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]]),
            (
                sym([[0, 0.5, 0, 0], [0.5, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                sym([[0, -0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
                sym([[0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
                sym([[0, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, -1, 0], [0, 0, 0, 0]]),
            ),
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 2
        assert low.meets_bound
        v0, o0 = real_values(inst, sol.X.a)
        vr, orr = real_values(inst, low.reconstruct())
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7

    def test_complex_instance(self):
        rng = np.random.default_rng(11)
        n, p = 6, 5
        inst = QcqpInstance(
            MINIMIZE,
            COMPLEX,
            HermMatrix(np.eye(n), np.zeros((n, n))),
            tuple(rand_herm_psd(n, rng) for _ in range(p)),
        )
        sol = solve_instance(inst)
        assert sol.status == OPTIMAL
        low = reduce_rank(sol, inst)
        assert low.r <= 2  # r <= sqrt(5)
        assert low.meets_bound
        Xc0 = sol.X.a
        Xcr = low.reconstruct()
        v0, o0 = complex_values(inst, Xc0)
        vr, orr = complex_values(inst, Xcr)
        assert max(abs(a - b) for a, b in zip(v0, vr)) <= 1e-7
        assert abs(o0 - orr) <= 1e-7
        assert np.linalg.eigvalsh(Xcr)[0] >= -1e-9
        assert np.allclose(Xcr, np.conj(Xcr.T))

    def test_rank_never_increases(self):
        rng = np.random.default_rng(5)
        n, p = 7, 10  # bound r(r+1)/2 <= 10 -> r <= 4, likely above solver rank
        inst = QcqpInstance(
            MINIMIZE, REAL, SymMatrix(np.eye(n)), tuple(rand_psd(n, rng) for _ in range(p))
        )
        sol = solve_instance(inst)
        input_rank = factorize(sol.X).shape[1]
        low = reduce_rank(sol, inst)
        assert low.r <= input_rank

    def test_idempotent_once_bound_met(self):
        rng = np.random.default_rng(7)
        n, p = 10, 6
        inst = QcqpInstance(
            MINIMIZE, REAL, SymMatrix(np.eye(n)), tuple(rand_psd(n, rng) for _ in range(p))
        )
        sol = solve_instance(inst)
        low = reduce_rank(sol, inst)
        sol2 = dataclasses.replace(sol, X=SymMatrix(low.reconstruct()))
        again = reduce_rank(sol2, inst)
        assert again.r == low.r
        assert again.steps == 0
        assert np.allclose(again.reconstruct(), low.reconstruct(), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        n, p = 9, 5
        inst = QcqpInstance(
            MINIMIZE, REAL, SymMatrix(np.eye(n)), tuple(rand_psd(n, rng) for _ in range(p))
        )
        sol = solve_instance(inst)
        a = reduce_rank(sol, inst, seed=42)
        b = reduce_rank(sol, inst, seed=42)
        assert a.r == b.r
        assert np.array_equal(a.U, b.U)

    def test_rejects_non_optimal(self):
        inst = QcqpInstance(
            MAXIMIZE,
            REAL,
            sym([[1.0, 0.5], [0.5, 0.0]]),
            (sym([[0.0, 0.5], [0.5, 0.0]]), sym([[1.0, 0.0], [0.0, -1.0]])),
        )
        sol = solve_instance(inst)
        assert sol.status == UNBOUNDED
        with pytest.raises(ValueError, match="Optimal"):
            reduce_rank(sol, inst)

    def test_stall_returns_best_rank_with_flag(self):
        # non-optimal X: the objective row is independent of the constraint
        # rows, so with 5 constraints on a rank-3 face (6 dof vs 6 rows) no
        # value-preserving direction exists and the reduction must stop honestly
        rng = np.random.default_rng(2)
        n = 3
        inst = QcqpInstance(
            MINIMIZE, REAL, rand_psd(n, rng), tuple(rand_psd(n, rng) for _ in range(5))
        )
        fake = SdpSolution(
            status=OPTIMAL,
            X=SymMatrix(np.eye(n)),
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
        vr, orr = real_values(inst, low.reconstruct())
        assert max(abs(v - t) for v, t in zip(vr, [float(np.trace(a.a)) for a in inst.constraints])) <= 1e-7
