"""Dense symmetric and Hermitian matrix primitives.

Conventions used throughout the package:

* real symmetric matrices are stored as full dense ``float64`` arrays and
  are symmetrized ``(M + M.T) / 2`` on construction;
* Hermitian matrices are stored as a (real, imaginary) pair, and ``.a``
  gives the complex array under the name a ``SymMatrix`` gives its real
  one, so solver, rank reduction and sampler work on either field alike;
* spectra report eigenvalues in descending order with matching orthonormal
  eigenvector columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DecompositionError",
    "HermMatrix",
    "Spectrum",
    "SymMatrix",
    "frobenius_norm",
    "sym_eig",
]

# Construction-time tolerance: entry asymmetry beyond this raises in strict
# mode; below it the symmetric/antisymmetric projection is applied silently.
STRICT_TOL = 1e-8


class DecompositionError(RuntimeError):
    """Raised when an eigendecomposition fails; carries the residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


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


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Real symmetric matrix, symmetrized on construction.

    With ``strict=True`` an entry asymmetry larger than ``STRICT_TOL``
    raises instead of being projected away.
    """

    a: np.ndarray
    strict: bool = False

    def __post_init__(self):
        arr = _as_square_float(self.a, "SymMatrix")
        asym = float(np.max(np.abs(arr - arr.T), initial=0.0))
        if self.strict and asym > STRICT_TOL:
            raise ValueError(
                f"asymmetry {asym:.3e} exceeds strict tolerance {STRICT_TOL:.0e}"
            )
        object.__setattr__(self, "a", _freeze(0.5 * (arr + arr.T)))

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
    strict: bool = False

    def __post_init__(self):
        re = _as_square_float(self.re, "HermMatrix.re")
        im = _as_square_float(self.im, "HermMatrix.im")
        if re.shape != im.shape:
            raise ValueError("re/im shape mismatch")
        asym = max(
            float(np.max(np.abs(re - re.T), initial=0.0)),
            float(np.max(np.abs(im + im.T), initial=0.0)),
        )
        if self.strict and asym > STRICT_TOL:
            raise ValueError(
                f"hermiticity violation {asym:.3e} exceeds {STRICT_TOL:.0e}"
            )
        object.__setattr__(self, "re", _freeze(0.5 * (re + re.T)))
        object.__setattr__(self, "im", _freeze(0.5 * (im - im.T)))

    @staticmethod
    def from_complex(h, strict: bool = False) -> "HermMatrix":
        arr = np.asarray(h, dtype=complex)
        return HermMatrix(arr.real, arr.imag, strict=strict)

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


def _load_matrix_json(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed matrix JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "re" not in data:
        raise ValueError("matrix JSON must carry 'n' and row-major 're'")
    n = data["n"]
    if not isinstance(n, int) or n <= 0:
        raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")
    for key in ("re", "im"):
        block = data.get(key)
        if block is None:
            continue
        if not isinstance(block, list) or len(block) != n * n:
            raise ValueError(f"'{key}' must hold exactly n*n = {n * n} entries")
    return data


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues in descending order with matching eigenvector columns."""

    eigenvalues: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.eigenvalues) @ self.vectors.T


def sym_eig(m: SymMatrix | np.ndarray) -> Spectrum:
    """Full spectral decomposition of a real symmetric matrix.

    Eigenvalues come back in descending order. A LAPACK convergence failure
    is re-raised as :class:`DecompositionError` with the residual attached.
    """
    arr = m.a if isinstance(m, SymMatrix) else _as_square_float(m, "sym_eig input")
    arr = 0.5 * (arr + arr.T)
    try:
        vals, vecs = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    residual = float(np.linalg.norm((vecs * vals) @ vecs.T - arr, "fro"))
    if not np.isfinite(residual) or residual > 1e-8 * (1.0 + np.linalg.norm(arr, "fro")):
        raise DecompositionError(
            f"eigendecomposition residual {residual:.3e} out of tolerance", residual
        )
    return Spectrum(_freeze(vals), _freeze(vecs))


def frobenius_norm(a: AnyMatrix | np.ndarray) -> float:
    """Frobenius norm of a matrix (wrapper types or a plain, possibly complex, ndarray)."""
    arr = a.a if isinstance(a, (SymMatrix, HermMatrix)) else np.asarray(a)
    return float(np.linalg.norm(arr, "fro"))
