import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from hqopt.matrices import (
    compress,
    hermitian_part,
    matrix_from_json,
    matrix_to_json,
    read_only_view,
    to_json,
)


def random_sym(rng, n):
    a = rng.standard_normal((n, n))
    return a + a.T


def random_herm(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return hermitian_part(a + a.conj().T)


def record(a, im=None):
    """The {"n", "re"[, "im"]} record of square entries, as a file holds them."""
    a = np.asarray(a, dtype=float)
    out = {"n": len(a), "re": a.reshape(-1).tolist()}
    if im is not None:
        out["im"] = np.asarray(im, dtype=float).reshape(-1).tolist()
    return out


class TestConstruction:
    def test_symmetrizes_small_asymmetry(self):
        m = matrix_from_json(record([[1.0, 2.0], [2.0 + 1e-12, 3.0]]), complex_field=False)
        assert m[0, 1] == m[1, 0]

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": np.zeros((2, 3)).ravel().tolist()}, complex_field=False)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            matrix_from_json(record([[np.nan, 0.0], [0.0, 0.0]]), complex_field=False)

    def test_entries_frozen(self):
        m = read_only_view(np.eye(2))
        with pytest.raises(ValueError):
            m.a[0, 0] = 5.0

    def test_herm_projects_re_im(self):
        h = matrix_from_json(record([[1.0, 2.0], [0.0, 3.0]], np.zeros((2, 2))), complex_field=True)
        assert h.real[0, 1] == h.real[1, 0] == 1.0

    def test_herm_diagonal_im_vanishes(self):
        h = matrix_from_json(record(np.eye(2), [[0.5, 1.0], [-1.0, 0.5]]), complex_field=True)
        assert h.imag[0, 0] == 0.0 and h.imag[1, 1] == 0.0


@pytest.mark.parametrize("complex_field", [False, True])
def test_compress_stack_matches_each_slice(complex_field):
    rng = np.random.default_rng(9)
    draw = random_herm if complex_field else random_sym
    stack = np.stack([draw(rng, 5) for _ in range(4)])
    U = rng.standard_normal((5, 2)) + (1j * rng.standard_normal((5, 2)) if complex_field else 0.0)
    K = compress(stack, U)
    assert K.shape == (4, 2, 2)
    for M, k in zip(stack, K):
        assert np.array_equal(compress(M, U), k)
        np.testing.assert_allclose(k, np.conj(U).T @ M @ U, rtol=1e-12, atol=1e-12 * np.abs(M).max())


class TestJson:
    def test_sym_roundtrip_bit_exact(self):
        m = np.array([[np.pi, 1e-17], [1e-17, -1.0 / 3.0]])
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))), complex_field=False)
        assert np.array_equal(back, m)

    def test_herm_roundtrip_bit_exact(self):
        rng = np.random.default_rng(2)
        h = random_herm(rng, 3)
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(h))), complex_field=True)
        assert np.array_equal(back.real, h.real) and np.array_equal(back.imag, h.imag)

    def test_herm_from_json_without_im(self):
        h = matrix_from_json({"n": 2, "re": [1, 0, 0, 1]}, complex_field=True)
        assert np.iscomplexobj(h) and np.array_equal(h.imag, np.zeros((2, 2)))

    def test_sym_rejects_im_block(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 1, "re": [1], "im": [0]}, complex_field=False)

    @pytest.mark.parametrize(
        "payload",
        [
            "not json",
            [1, 2],
            {"n": 2, "re": [1, 0, 0]},
            {"n": 0, "re": []},
            {"n": "2", "re": [1, 0, 0, 1]},
            {"n": True, "re": [1]},
            {"re": [1]},
        ],
        ids=lambda p: p if isinstance(p, str) else json.dumps(p),
    )
    def test_malformed_json_rejected(self, payload):
        with pytest.raises(ValueError):
            matrix_from_json(payload, complex_field=False)


@dataclass(frozen=True)
class Inner:
    zeta: float
    alpha: tuple


@dataclass(frozen=True)
class Outer:
    name: str
    inner: Inner
    count: int
    flag: bool
    missing: object = None


class TestToJson:
    def test_non_finite_floats(self):
        assert to_json(math.nan) is None
        assert to_json(math.inf) == "inf"
        assert to_json(-math.inf) == "-inf"
        assert to_json(np.float64(-np.inf)) == "-inf"

    def test_finite_float_is_a_plain_float(self):
        out = to_json(np.float64(0.1))
        assert type(out) is float and out == 0.1

    def test_nested_dataclass_in_field_order(self):
        value = Outer("x", Inner(math.nan, (1.0, math.inf)), 3, True)
        out = to_json(value)
        assert list(out) == ["name", "inner", "count", "flag", "missing"]
        assert list(out["inner"]) == ["zeta", "alpha"]
        assert out == {"name": "x", "inner": {"zeta": None, "alpha": [1.0, "inf"]},
                       "count": 3, "flag": True, "missing": None}

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_matrix_is_its_record(self, complex_field):
        rng = np.random.default_rng(4)
        a = random_herm(rng, 3) if complex_field else random_sym(rng, 3)
        out = to_json(read_only_view(a))
        assert out == matrix_to_json(a)
        assert ("im" in out) == complex_field

    def test_tuple_and_list_become_lists(self):
        assert to_json((1, (2.5, "a"), [None])) == [1, [2.5, "a"], [None]]

    def test_bool_int_str_unchanged(self):
        assert to_json(True) is True and to_json(False) is False
        assert type(to_json(7)) is int and to_json(7) == 7
        assert to_json("Optimal") == "Optimal"
