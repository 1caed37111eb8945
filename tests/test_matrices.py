import json

import numpy as np
import pytest

from hqopt.matrices import HermMatrix, SymMatrix, compress


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

    def test_herm_diagonal_im_vanishes(self):
        h = HermMatrix(np.eye(2), np.array([[0.5, 1.0], [-1.0, 0.5]]))
        assert h.im[0, 0] == 0.0 and h.im[1, 1] == 0.0


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
