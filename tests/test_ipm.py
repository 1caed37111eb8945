"""Tests for the interior-point core's flat operators and the stacked data they read.

The IPM holds the row-normalized constraints as one (p, n*n) array and
forms its operators and Schur complement as BLAS products; the instance
generator draws a stack of matrices at once and tags it with one
eigvalsh.  Each is checked against its one-matrix-at-a-time definition.
"""

import numpy as np
import pytest

from hqopt import _ipm
from hqopt.instances import (
    CASE_C,
    CASES,
    FULL_RANK,
    OBJECTIVE_INDEFINITE,
    RANK_ONE,
    GeneratorSpec,
    generate,
    random_matrices,
)
from hqopt.matrices import HermMatrix, SymMatrix
from hqopt.sdp import COMPLEX, INDEFINITE, MAXIMIZE, NSD, PSD, REAL, tag_matrix


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.fixture
def data():
    rng = np.random.default_rng(7)
    p, n, q = 7, 5, 3
    A = rng.standard_normal((p, n, n))
    A = A + A.transpose(0, 2, 1)
    G = rng.standard_normal((p, q))
    X = rng.standard_normal((n, n))
    X = X + X.T
    B = rng.standard_normal((n, n))
    W = B @ B.T + np.eye(n)
    return dict(A=A, A2=A.reshape(p, n * n), G=G, X=X, W=W, s=rng.random(q),
                y=rng.standard_normal(p), d2=rng.random(q) + 0.1)


class TestFlatOperators:
    def test_op_a_matches_trace_definition(self, data):
        want = np.einsum("ijk,jk->i", data["A"], data["X"]) + data["G"] @ data["s"]
        assert _rel(_ipm.op_a(data["A2"], data["G"], data["X"], data["s"]), want) <= 1e-12

    def test_op_at_matches_weighted_sum(self, data):
        want = np.einsum("i,ijk->jk", data["y"], data["A"])
        assert _rel(_ipm.op_at(data["A2"], data["y"], 5), want) <= 1e-12

    def test_schur_matches_trace_definition(self, data):
        A, W, G, d2 = data["A"], data["W"], data["G"], data["d2"]
        traces = [[np.trace(Ai @ W @ Al @ W) for Al in A] for Ai in A]
        want = np.array(traces) + (G * d2) @ G.T
        got = _ipm.schur_matrix(data["A2"], G, W, d2)
        assert _rel(got, want) <= 1e-12
        assert np.array_equal(got, got.T)

    def test_adjoint_identity(self, data):
        A2, G, X, s, y = data["A2"], data["G"], data["X"], data["s"], data["y"]
        lhs = y @ _ipm.op_a(A2, G, X, s)
        rhs = np.sum(X * _ipm.op_at(A2, y, 5)) + s @ (G.T @ y)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _one_at_a_time(rng, n, count, rank_one, complex_field):
    """The draw as it was made before stacking: one QR and one product per matrix."""
    out = []
    for _ in range(count):
        if rank_one:
            d = np.zeros(n)
            d[0] = abs(rng.standard_normal())
        else:
            d = np.abs(rng.standard_normal(n))
        g = rng.standard_normal((n, n))
        if complex_field:
            g = g + 1j * rng.standard_normal((n, n))
        q, _ = np.linalg.qr(g)
        mat = rng.uniform() * (np.conj(q.T) @ np.diag(d) @ q)
        out.append(HermMatrix.from_complex(mat) if complex_field else SymMatrix(mat))
    return out


def _tag_by_spectrum(a):
    vals, tol = np.linalg.eigvalsh(a), 1e-9 * np.linalg.norm(a, "fro")
    return PSD if vals[0] >= -tol else NSD if vals[-1] <= tol else INDEFINITE


class TestStackedDraws:
    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("spectrum", [FULL_RANK, RANK_ONE])
    def test_stacked_draw_equals_one_at_a_time(self, spectrum, complex_field):
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        got = random_matrices(rng_a, 6, 9, spectrum, complex_field)
        want = _one_at_a_time(rng_b, 6, 9, spectrum == RANK_ONE, complex_field)
        assert len(got) == 9
        for g, w in zip(got, want):
            assert type(g) is type(w)
            assert np.array_equal(g.a, w.a)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_empty_draw_reads_nothing(self):
        rng = np.random.default_rng(3)
        assert random_matrices(rng, 4, 0, FULL_RANK) == []
        assert rng.standard_normal() == np.random.default_rng(3).standard_normal()

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("case", CASES)
    def test_tags_equal_per_matrix_tags(self, case, field):
        spec = GeneratorSpec(
            n=6, m=12, case=case, sense=MAXIMIZE, objective_kind=OBJECTIVE_INDEFINITE,
            seed=5, field=field,
        )
        inst = generate(spec)
        assert inst.tags == tuple(tag_matrix(a) for a in inst.constraints)
        assert inst.tags == tuple(map(_tag_by_spectrum, inst.field_view.A))
        if case == CASE_C:
            assert set(inst.tags[1:]) == {PSD}
