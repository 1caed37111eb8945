"""Tests for the batched interior-point core and the stacked data it reads.

The IPM holds the row-normalized constraints of a batch as one
(B, p, n*n) array and forms its operators and Schur complement as batched
BLAS products; the instance generator builds each instance as one stack of
matrices and tags it with one eigvalsh.  Each is checked against its
one-at-a-time definition (generated instances bit for bit, with their
redraw counts), and every instance of a batched solve against its own
solve.
"""

import numpy as np
import pytest

from hqopt import _ipm, matrices
from hqopt.experiment import derive_seeds
from hqopt.instances import (
    CASE_A,
    CASE_C,
    CASES,
    FULL_RANK,
    INDEFINITE_SPECTRUM,
    OBJECTIVE_IDENTITY,
    OBJECTIVE_INDEFINITE,
    OBJECTIVE_KINDS,
    RANK_ONE,
    GeneratorSpec,
    generate,
    generate_report,
    indefinite_matrix,
    random_matrices,
)
from hqopt.matrices import hermitian_part
from hqopt.sdp import (
    COMPLEX,
    INDEFINITE,
    INFEASIBLE,
    MAXIMIZE,
    MINIMIZE,
    NSD,
    NUMERICAL_FAILURE,
    OPTIMAL,
    PSD,
    REAL,
    UNBOUNDED,
    QcqpInstance,
    batch_size,
    solve_instance,
    solve_instances,
    tag_matrix,
)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    B, p, n = 3, 7, 5
    A = rng.standard_normal((B, p, n, n))
    A = A + A.swapaxes(-1, -2)
    G = rng.standard_normal((B, p))  # the slack signs' stand-ins: a diagonal G
    X = rng.standard_normal((B, n, n))
    X = X + X.swapaxes(-1, -2)
    M = rng.standard_normal((B, n, n))
    W = M @ M.swapaxes(-1, -2) + np.eye(n)
    return dict(A=A, A2=A.reshape(B, p, n * n), G=G, Gfull=G[:, :, None] * np.eye(p), X=X, W=W,
                s=rng.random((B, p)), y=rng.standard_normal((B, p)), d2=rng.random((B, p)) + 0.1)


class TestFlatOperators:
    """Each batched operator against its one-instance trace definition, slice by slice."""

    def test_op_a_matches_trace_definition(self, data):
        got = _ipm.op_a(data["A2"], data["G"], data["X"], data["s"])
        for k in range(len(got)):
            want = np.einsum("ijk,jk->i", data["A"][k], data["X"][k]) + data["Gfull"][k] @ data["s"][k]
            assert _rel(got[k], want) <= 1e-12

    def test_op_at_matches_weighted_sum(self, data):
        got = _ipm.op_at(data["A2"], data["y"], 5)
        for k in range(len(got)):
            assert _rel(got[k], np.einsum("i,ijk->jk", data["y"][k], data["A"][k])) <= 1e-12

    def test_schur_matches_trace_definition(self, data):
        A, W, G, d2 = data["A"], data["W"], data["Gfull"], data["d2"]
        got = _ipm.schur_matrix(data["A2"], data["G"], W, d2, _ipm._schur_work(3, 7, 5, W.dtype))
        for k in range(len(got)):
            traces = [[np.trace(Ai @ W[k] @ Al @ W[k]) for Al in A[k]] for Ai in A[k]]
            want = np.array(traces) + (G[k] * d2[k]) @ G[k].T
            assert _rel(got[k], want) <= 1e-12
            assert np.array_equal(got[k], got[k].T)

    def test_schur_formed_in_parts_is_unchanged(self, data, monkeypatch):
        A2, G, W, d2 = data["A2"], data["G"], data["W"], data["d2"]
        whole = _ipm.schur_matrix(A2, G, W, d2, _ipm._schur_work(3, 7, 5, W.dtype))
        monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 4 * 7 * 25)  # one instance a part
        parts = _ipm.schur_matrix(A2, G, W, d2, _ipm._schur_work(3, 7, 5, W.dtype))
        assert np.array_equal(parts, whole)

    def test_complex_operators_match_trace_definitions(self):
        # Hermitian data: the same real calls over the float64 views give
        # Tr(A_i X), sum_i y_i A_i and Tr(A_i W A_j W)
        rng = np.random.default_rng(8)
        B, p, n = 2, 6, 4

        def herm(*shape):
            a = rng.standard_normal(shape + (n, n)) + 1j * rng.standard_normal(shape + (n, n))
            return a + np.conj(a.swapaxes(-1, -2))

        A, X, M = herm(B, p), herm(B), herm(B)
        W = M @ M + np.eye(n)
        g, s, y = rng.standard_normal((B, p)), rng.random((B, p)), rng.standard_normal((B, p))
        G = g[:, :, None] * np.eye(p)
        d2 = rng.random((B, p)) + 0.1
        A2 = A.view(np.float64).reshape(B, p, 2 * n * n)
        got_a, got_at = _ipm.op_a(A2, g, X, s), _ipm.op_at(A2, y, n)
        got_m = _ipm.schur_matrix(A2, g, W, d2, _ipm._schur_work(B, p, n, W.dtype))
        for k in range(B):
            assert _rel(got_a[k], np.trace(A[k] @ X[k], axis1=1, axis2=2).real + G[k] @ s[k]) <= 1e-12
            assert _rel(got_at[k], np.einsum("i,ijk->jk", y[k], A[k])) <= 1e-12
            traces = [[np.trace(Ai @ W[k] @ Al @ W[k]).real for Al in A[k]] for Ai in A[k]]
            assert _rel(got_m[k], np.array(traces) + (G[k] * d2[k]) @ G[k].T) <= 1e-12
        assert _ipm._dot(X, W) == pytest.approx(np.trace(X @ W, axis1=1, axis2=2).real, rel=1e-12)

    def test_adjoint_identity(self, data):
        A2, G, X, s, y = data["A2"], data["Gfull"], data["X"], data["s"], data["y"]
        lhs = np.sum(y * _ipm.op_a(A2, data["G"], X, s), axis=1)
        rhs = np.sum(X * _ipm.op_at(A2, y, 5), axis=(1, 2)) + np.sum(s * (G.swapaxes(1, 2) @ y[..., None])[..., 0], axis=1)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _same_solution(batch, solo):
    """Status, message and iterations equal; X, y, ray, certificate and objective to 1e-12 relative."""
    assert (batch.status, batch.message, batch.iterations) == (solo.status, solo.message, solo.iterations)
    for a, b in ((batch.X, solo.X), (batch.ray, solo.ray), (batch.dual_slack, solo.dual_slack)):
        assert (a is None) == (b is None)
        if a is not None:
            assert _rel(a.a, b.a) <= 1e-12
    for a, b in ((batch.dual_multipliers, solo.dual_multipliers),
                 (batch.infeasibility_certificate, solo.infeasibility_certificate)):
        assert (a is None) == (b is None)
        if a:
            assert _rel(np.array(a), np.array(b)) <= 1e-12
    assert batch.objective_value == pytest.approx(solo.objective_value, rel=1e-12, nan_ok=True)


class TestBatchedSolve:
    """One batched interior-point call gives every instance the result of its own solve."""

    def test_case_c_gaussian_max_outcomes(self):
        # the sweep of case C GaussianMax, m = 5, root seed 0: mostly certified
        # Unbounded, one Optimal, and five that run to the iteration cap while
        # the others leave the batch
        insts = []
        for i in range(20):
            seed = derive_seeds(0, 0, 5, i)[0]
            insts.append(generate(GeneratorSpec(n=10, m=5, case=CASE_C, sense=MAXIMIZE,
                                                objective_kind=OBJECTIVE_INDEFINITE, seed=seed)))
        batch = solve_instances(insts)
        solo = [solve_instance(inst) for inst in insts]
        for b, s in zip(batch, solo):
            _same_solution(b, s)
        assert {s.status for s in solo} == {UNBOUNDED, OPTIMAL, NUMERICAL_FAILURE}
        assert sum(s.message == "iteration cap reached" for s in solo) == 5

    def test_infeasible_instance_keeps_its_farkas_certificate(self):
        rng = np.random.default_rng(9)
        n, m = 6, 3

        def draw(sign):
            mats = []
            for _ in range(m + 1):
                q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                mats.append(hermitian_part(sign * q @ np.diag(rng.uniform(0.5, 2.0, n)) @ q.T))
            return QcqpInstance(MINIMIZE, REAL, np.stack([np.eye(n), *mats]))

        insts = [draw(1.0), draw(-1.0), draw(1.0)]  # every A_k of the middle one negative definite
        batch = solve_instances(insts)
        solo = [solve_instance(inst) for inst in insts]
        assert [s.status for s in solo] == [OPTIMAL, INFEASIBLE, OPTIMAL]
        for b, s in zip(batch, solo):
            _same_solution(b, s)
        assert batch[1].infeasibility_certificate == solo[1].infeasibility_certificate

    @pytest.mark.parametrize("m", [5, 30, 100])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_sweep_shaped_batch(self, field, m):
        insts = [
            generate(GeneratorSpec(n=10, m=m, case=case, sense=MINIMIZE,
                                   objective_kind=OBJECTIVE_IDENTITY, seed=seed, field=field))
            for case in (CASE_A, CASE_C)
            for seed in range(2)
        ]
        batch = solve_instances(insts)
        for inst, b in zip(insts, batch):
            _same_solution(b, solve_instance(inst))
        if m == 100:  # two of these leave on a failed step, while the others go on
            assert any(b.message == "accepted best iterate at fallback tolerance" for b in batch)

    def test_batch_size_counts_float64_slots(self):
        # an n x n matrix takes n^2 float64 slots, or 2 n^2 when complex
        assert batch_size(10, 30, REAL) == _ipm.batch_size(31, 100)
        assert batch_size(10, 30, COMPLEX) == _ipm.batch_size(31, 200) < batch_size(10, 30, REAL)
        assert batch_size(10, 100, COMPLEX) >= 3

    def test_capped_batches_match_one_call(self, monkeypatch):
        insts = [generate(GeneratorSpec(n=6, m=4, case=CASE_A, sense=MINIMIZE,
                                        objective_kind=OBJECTIVE_IDENTITY, seed=s)) for s in range(5)]
        whole = solve_instances(insts)
        monkeypatch.setattr(_ipm, "_BATCH_ELEMENTS", 2 * 5 * (36 + 10))  # two instances a batch
        assert _ipm.batch_size(5, 36) == 2
        for a, b in zip(solve_instances(insts), whole):
            _same_solution(a, b)


class TestSliceRetry:
    """A LAPACK failure in a batched call is charged to its own instance."""

    def test_singular_schur_slice_is_regularized_alone(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 4, 4))
        M[1] = 0.0
        M[1, 0, 0] = 1.0  # singular: the regularized retry solves it
        rhs = rng.standard_normal((3, 4, 2))
        fail = {}
        out = _ipm._solve(M, rhs, fail)
        assert not fail
        for k in (0, 2):
            assert np.array_equal(out[k], np.linalg.solve(M[k], rhs[k]))
        assert np.all(np.isfinite(out[1]))

    def test_failed_decomposition_is_charged_to_its_slice(self):
        def eigh_refusing_negative_trace(a):
            if np.trace(a, axis1=-2, axis2=-1).min() < 0:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return np.linalg.eigh(a)

        stack = np.stack([np.diag([1.0, 2.0]), -np.eye(2), np.diag([3.0, 1.0])])
        fail = {}
        vals, vecs = _ipm._eig(eigh_refusing_negative_trace, stack, fail, "scaling breakdown")
        assert fail == {1: "scaling breakdown"}
        assert np.array_equal(vals[1], np.ones(2)) and np.array_equal(vecs[1], np.eye(2))
        for k in (0, 2):
            assert np.array_equal(vals[k], np.linalg.eigh(stack[k])[0])


def _one_at_a_time(rng, n, count, spectrum, complex_field):
    """The draw as it was made before stacking: one QR and one product per matrix, then its wrapper."""
    out = []
    for _ in range(count):
        if spectrum == RANK_ONE:
            d = np.zeros(n)
            d[0] = abs(rng.standard_normal())
        elif spectrum == FULL_RANK:
            d = np.abs(rng.standard_normal(n))
        else:
            d = rng.standard_normal(n)
        g = rng.standard_normal((n, n))
        if complex_field:
            g = g + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        mat = rng.uniform() * (np.conj(q.T) @ np.diag(d) @ q)
        out.append(hermitian_part(mat))
    return out


def _indefinite_one_at_a_time(rng, n, complex_field):
    """An indefinite draw and its redraw count, one wrapper per draw."""
    redraws = 0
    while True:
        (mat,) = _one_at_a_time(rng, n, 1, INDEFINITE_SPECTRUM, complex_field)
        vals = np.linalg.eigvalsh(mat)
        tol = 1e-9 * max(1.0, float(np.abs(vals).max()))
        if vals[0] < -tol and vals[-1] > tol:
            return mat, redraws
        redraws += 1


def _instance_one_at_a_time(spec, draws):
    """The instance of a spec's draws-th draw, built one wrapper at a time, and its redraw count."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    complex_field = spec.field == COMPLEX
    spectrum = RANK_ONE if spec.psd_rank == 1 else FULL_RANK
    redraws = 0
    for _ in range(draws):
        constraints = []
        for _ in range(spec.num_indefinite):
            mat, k = _indefinite_one_at_a_time(rng, spec.n, complex_field)
            constraints.append(mat)
            redraws += k
        constraints += _one_at_a_time(
            rng, spec.n, spec.m + 1 - spec.num_indefinite, spectrum, complex_field
        )
        if spec.objective_kind == OBJECTIVE_IDENTITY:
            objective = np.eye(spec.n)
        else:
            objective, k = _indefinite_one_at_a_time(rng, spec.n, complex_field)
            redraws += k
    inst = QcqpInstance(spec.sense, spec.field, np.stack([objective, *constraints]))
    return inst, redraws


def _same_matrix(got, want):
    return np.array_equal(got.a, want.a)


def _tag_by_spectrum(a):
    vals, tol = np.linalg.eigvalsh(a), 1e-9 * np.linalg.norm(a, "fro")
    return PSD if vals[0] >= -tol else NSD if vals[-1] <= tol else INDEFINITE


class TestStackedDraws:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("spectrum", [FULL_RANK, RANK_ONE, INDEFINITE_SPECTRUM])
    def test_stacked_draw_equals_one_at_a_time(self, spectrum, complex_field):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        got = random_matrices(rng_a, 6, 9, spectrum, complex_field)
        want = _one_at_a_time(rng_b, 6, 9, spectrum, complex_field)
        assert got.shape == (9, 6, 6) and got.dtype == (complex if complex_field else float)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_empty_draw_reads_nothing(self):
        rng = np.random.default_rng(3)
        assert random_matrices(rng, 4, 0, FULL_RANK).shape == (0, 4, 4)
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("case", CASES)
    def test_tags_equal_per_matrix_tags(self, case, field):
        spec = GeneratorSpec(
            n=6, m=12, case=case, sense=MAXIMIZE, objective_kind=OBJECTIVE_INDEFINITE,
            seed=5, field=field,
        )
        inst = generate(spec)
        assert inst.tags == tuple(tag_matrix(a.a[None])[0] for a in inst.constraints)
        assert inst.tags == tuple(map(_tag_by_spectrum, inst.field_view.A))
        if case == CASE_C:
            assert set(inst.tags[1:]) == {PSD}


class TestGenerationReference:
    """Generated instances against the one-matrix-at-a-time recipe, bit for bit."""

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_indefinite_redraws(self, complex_field):
        # at n = 2 about half the draws are definite and are drawn again
        total = 0
        for seed in range(20):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got, k = indefinite_matrix(rng_a, 2, complex_field)
            want, k_ref = _indefinite_one_at_a_time(rng_b, 2, complex_field)
            assert np.array_equal(got, want) and k == k_ref
            total += k
        assert total > 0

    @pytest.mark.parametrize("objective_kind", OBJECTIVE_KINDS)
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("n", [2, 10])
    @pytest.mark.parametrize("case", CASES)
    def test_instances(self, case, n, field, objective_kind):
        # m = 12 gives cases B and D two indefinite constraints, so their
        # minimization draws go through the feasibility solve
        sense = MINIMIZE if objective_kind == OBJECTIVE_IDENTITY else MAXIMIZE
        for seed in range(3):
            spec = GeneratorSpec(
                n=n, m=12, case=case, sense=sense, objective_kind=objective_kind,
                seed=seed, field=field,
            )
            rep = generate_report(spec)
            got = rep.instance
            want, redraws = _instance_one_at_a_time(spec, rep.feasibility_retries + 1)
            assert rep.indefinite_regenerations == redraws
            assert got.field_stack.dtype == want.field_stack.dtype
            assert got.field_stack.tobytes() == want.field_stack.tobytes()
            assert got.tags == want.tags
            assert _same_matrix(got.objective, want.objective)
            assert all(map(_same_matrix, got.constraints, want.constraints))

    def test_generation_builds_no_matrix_wrappers(self, monkeypatch):
        def refuse(self, a):
            raise AssertionError(f"{type(self).__name__} built during generation")

        monkeypatch.setattr(matrices.ReadOnlyMatrix, "__init__", refuse)
        spec = GeneratorSpec(
            n=10, m=100, case=CASE_C, sense=MINIMIZE, objective_kind=OBJECTIVE_IDENTITY,
            seed=0, field=COMPLEX,
        )
        inst = generate(spec)
        assert inst.field_stack.shape == (102, 10, 10) and len(inst.tags) == 101
        assert "objective" not in vars(inst) and "constraints" not in vars(inst)
