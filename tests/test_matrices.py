import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hqopt.matrices import (
    DecompositionError,
    HermMatrix,
    SymMatrix,
    compress,
    frobenius_norm,
    sym_eig,
)


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return SymMatrix(a + a.T)


def random_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermMatrix.from_complex(a + a.conj().T)


class TestConstruction:
    def test_symmetrizes_small_asymmetry(self):
        m = SymMatrix(np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]]))
        assert m.a[0, 1] == m.a[1, 0]

    def test_strict_rejects_large_asymmetry(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), strict=True)

    def test_strict_accepts_tiny_asymmetry(self):
        SymMatrix(np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]]), strict=True)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_entries_frozen(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_herm_projects_re_im(self):
        h = HermMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]), np.zeros((2, 2)))
        assert h.re[0, 1] == h.re[1, 0] == 1.0

    def test_herm_strict_rejects_symmetric_im(self):
        # the imaginary part of a Hermitian matrix is antisymmetric
        with pytest.raises(ValueError):
            HermMatrix(np.eye(2), np.ones((2, 2)), strict=True)

    def test_herm_diagonal_im_vanishes(self):
        h = HermMatrix(np.eye(2), np.array([[0.5, 1.0], [-1.0, 0.5]]))
        assert h.im[0, 0] == 0.0 and h.im[1, 1] == 0.0


class TestEig:
    def test_descending_order(self):
        spec = sym_eig(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_allclose(spec.eigenvalues, [3.0, 2.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        m = random_sym(rng, 6)
        spec = sym_eig(m)
        np.testing.assert_allclose(spec.reconstruct(), m.a, atol=1e-12)

    def test_accepts_plain_ndarray(self):
        spec = sym_eig(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, -1.0])

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_orthonormal_and_exact(self, n, seed):
        rng = np.random.default_rng(seed)
        m = random_sym(rng, n)
        spec = sym_eig(m)
        v = spec.vectors
        scale = 1.0 + frobenius_norm(m)
        assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-10
        assert frobenius_norm(spec.reconstruct() - m.a) < 1e-10 * scale
        assert np.all(np.diff(spec.eigenvalues) <= 1e-12 * scale)


class TestTraceInner:
    def test_frobenius_known(self):
        m = np.diag([11.0, -10.0])
        assert frobenius_norm(m) == pytest.approx(np.sqrt(221.0))
        assert frobenius_norm(SymMatrix(m)) == pytest.approx(np.sqrt(221.0))

    def test_frobenius_hermitian(self):
        h = HermMatrix.from_complex(np.array([[1.0, 1j], [-1j, 1.0]]))
        assert frobenius_norm(h) == pytest.approx(2.0)


@pytest.mark.parametrize("complex_field", [False, True])
def test_compress_stack_matches_each_slice(complex_field):
    rng = np.random.default_rng(9)
    draw = random_herm if complex_field else random_sym
    stack = np.stack([draw(rng, 5).a for _ in range(4)])
    U = rng.standard_normal((5, 2)) + (1j * rng.standard_normal((5, 2)) if complex_field else 0.0)
    K = compress(stack, U)
    assert K.shape == (4, 2, 2)
    for M, k in zip(stack, K):
        assert np.array_equal(compress(M, U), k)
        np.testing.assert_allclose(k, np.conj(U).T @ M @ U, rtol=1e-12, atol=1e-12 * np.abs(M).max())


class TestJson:
    def test_sym_roundtrip_bit_exact(self):
        m = SymMatrix(np.array([[np.pi, 1e-17], [1e-17, -1.0 / 3.0]]))
        back = SymMatrix.from_json(m.to_json())
        assert np.array_equal(back.a, m.a)

    def test_herm_roundtrip_bit_exact(self):
        rng = np.random.default_rng(2)
        h = random_herm(rng, 3)
        back = HermMatrix.from_json(h.to_json())
        assert np.array_equal(back.re, h.re) and np.array_equal(back.im, h.im)

    def test_herm_from_json_without_im(self):
        h = HermMatrix.from_json(json.dumps({"n": 2, "re": [1, 0, 0, 1]}))
        assert np.array_equal(h.im, np.zeros((2, 2)))

    def test_sym_rejects_im_block(self):
        with pytest.raises(ValueError):
            SymMatrix.from_json(json.dumps({"n": 1, "re": [1], "im": [0]}))

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            json.dumps([1, 2]),
            json.dumps({"n": 2, "re": [1, 0, 0]}),
            json.dumps({"n": 0, "re": []}),
            json.dumps({"n": "2", "re": [1, 0, 0, 1]}),
            json.dumps({"n": True, "re": [1]}),
            json.dumps({"re": [1]}),
        ],
    )
    def test_malformed_json_rejected(self, payload):
        with pytest.raises(ValueError):
            SymMatrix.from_json(payload)


def test_decomposition_error_carries_residual():
    err = DecompositionError("bad", 0.25)
    assert err.residual == 0.25
    assert isinstance(err, RuntimeError)
