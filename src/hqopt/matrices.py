"""Dense symmetric and Hermitian matrix primitives.

Conventions used throughout the package:

* real symmetric matrices are stored as full dense ``float64`` arrays and
  are symmetrized ``(M + M.T) / 2`` on construction;
* Hermitian matrices are stored as a (real, imaginary) pair, and ``.a``
  gives the complex array under the name a ``SymMatrix`` gives its real
  one, so solver, rank reduction and sampler work on either field alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "HermMatrix",
    "SymMatrix",
    "hermitian_part",
    "read_only_view",
]


def _as_square_float(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def _sym_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _antisym_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - a.swapaxes(-1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 of a matrix or of every slice of a (k, n, n) stack.

    A complex array is projected part by part and reassembled as
    ``re + 1j * im``, exactly as a ``HermMatrix`` is built and read back, so
    a stack comes out bit for bit as its matrices wrapped one at a time.
    """
    if np.iscomplexobj(a):
        return _sym_part(a.real) + 1j * _antisym_part(a.imag)
    return _sym_part(a)


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, symmetrized on construction."""

    a: np.ndarray

    def __post_init__(self):
        arr = _as_square_float(self.a, "SymMatrix")
        object.__setattr__(self, "a", _freeze(_sym_part(arr)))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "re": self.a.reshape(-1).tolist()})

    @staticmethod
    def from_json(text: str) -> "SymMatrix":
        data = _load_matrix_json(text)
        if data.get("im") is not None:
            raise ValueError("unexpected 'im' block for a real matrix")
        n = data["n"]
        return SymMatrix(np.array(data["re"], dtype=float).reshape(n, n))


@dataclass(frozen=True, eq=False)
class HermMatrix:
    """Hermitian matrix stored as a (symmetric, antisymmetric) real pair."""

    re: np.ndarray
    im: np.ndarray

    def __post_init__(self):
        re = _as_square_float(self.re, "HermMatrix.re")
        im = _as_square_float(self.im, "HermMatrix.im")
        if re.shape != im.shape:
            raise ValueError("re/im shape mismatch")
        object.__setattr__(self, "re", _freeze(_sym_part(re)))
        object.__setattr__(self, "im", _freeze(_antisym_part(im)))

    @staticmethod
    def from_complex(h) -> "HermMatrix":
        arr = np.asarray(h, dtype=complex)
        return HermMatrix(arr.real, arr.imag)

    @property
    def n(self) -> int:
        return self.re.shape[0]

    def to_complex(self) -> np.ndarray:
        return self.re + 1j * self.im

    @property
    def a(self) -> np.ndarray:
        """The complex array, under the name SymMatrix gives its real one."""
        return self.to_complex()

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "re": self.re.reshape(-1).tolist(),
                "im": self.im.reshape(-1).tolist(),
            }
        )

    @staticmethod
    def from_json(text: str) -> "HermMatrix":
        data = _load_matrix_json(text)
        n = data["n"]
        re = np.array(data["re"], dtype=float).reshape(n, n)
        im = data.get("im")
        if im is None:
            im = np.zeros((n, n))
        else:
            im = np.array(im, dtype=float).reshape(n, n)
        return HermMatrix(re, im)


AnyMatrix = Union[SymMatrix, HermMatrix]


def read_only_view(a: np.ndarray) -> AnyMatrix:
    """Wrap a read-only symmetric (Hermitian) array without copying or re-projecting it.

    The caller has validated ``a``; a complex array becomes a HermMatrix
    whose re and im are views of it.
    """
    if np.iscomplexobj(a):
        mat = object.__new__(HermMatrix)
        object.__setattr__(mat, "re", a.real)
        object.__setattr__(mat, "im", a.imag)
    else:
        mat = object.__new__(SymMatrix)
        object.__setattr__(mat, "a", a)
    return mat


def _load_matrix_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "re" not in data:
        raise ValueError("matrix JSON must carry 'n' and row-major 're'")
    n = data["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")
    for key in ("re", "im"):
        block = data.get(key)
        if block is None:
            continue
        if not isinstance(block, list) or len(block) != n * n:
            raise ValueError(f"'{key}' must hold exactly n*n = {n * n} entries")
    return data


def compress(mats: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U* M U for a matrix M, or for every slice of a (k, n, n) stack, with U of shape (n, r).

    A point x = U d has x* M x = d* (U* M U) d, so the rank reduction, the
    sampler and the exact extraction all work on these r x r compressions.
    """
    return np.conj(U.T) @ mats @ U
