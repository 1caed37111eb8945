"""Dense symmetric and Hermitian matrix primitives.

Conventions used throughout the package:

* a matrix is a plain ``(n, n)`` array in its own field: ``float64`` and
  symmetric for real data, ``complex128`` and Hermitian for complex data;
  a stack of them is one ``(k, n, n)`` array;
* ``hermitian_part`` projects onto that set, part by part for complex data,
  and the JSON codec (``matrix_to_json``/``matrix_from_json``) reads and
  writes one matrix as a ``{"n", "re"[, "im"]}`` record, projecting on load;
* ``read_only_view`` wraps a frozen array as a ``ReadOnlyMatrix`` for the
  callers that take one matrix object at a time;
* ``to_json`` writes every report the command line prints: a dataclass as
  its fields in order, a ``ReadOnlyMatrix`` as its matrix record, NaN as
  null and +-inf as the strings "inf" and "-inf".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

__all__ = [
    "ReadOnlyMatrix",
    "hermitian_part",
    "matrix_from_json",
    "matrix_to_json",
    "read_only_view",
    "to_json",
]


def _sym_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _antisym_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a - a.swapaxes(-1, -2))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(M + M*) / 2 of a matrix or of every slice of a (k, n, n) stack.

    A complex array is projected part by part and reassembled as
    ``re + 1j * im``, as ``matrix_from_json`` assembles a loaded record, so a
    stack comes out bit for bit as its matrices projected one at a time.
    """
    if np.iscomplexobj(a):
        return _sym_part(a.real) + 1j * _antisym_part(a.imag)
    return _sym_part(a)


@dataclass(frozen=True, eq=False)
class ReadOnlyMatrix:
    """A read-only symmetric (real) or Hermitian (complex) array ``a``, made by read_only_view.

    The benchmark's checks read matrices through it: ``.a`` in the field,
    or ``.to_complex()`` for complex instances.
    """

    a: np.ndarray

    def to_complex(self) -> np.ndarray:
        return np.asarray(self.a, dtype=complex)


def read_only_view(a: np.ndarray) -> ReadOnlyMatrix:
    """Freeze a symmetric (Hermitian) array in place and wrap it, without copying or re-projecting it."""
    a.flags.writeable = False
    return ReadOnlyMatrix(a)


def matrix_to_json(a: np.ndarray) -> dict:
    """The {"n", "re"[, "im"]} record of a square array: row-major entries, "im" for complex data only."""
    record = {"n": a.shape[0], "re": a.real.reshape(-1).tolist()}
    if np.iscomplexobj(a):
        record["im"] = a.imag.reshape(-1).tolist()
    return record


def to_json(value):
    """The JSON value of a report: a dataclass as a dict of its fields in field order.

    A ReadOnlyMatrix is written as its matrix_to_json record, a tuple or a
    list entry by entry, a float as itself unless it is NaN (null) or +-inf
    ("inf", "-inf"), and None, int, bool and str unchanged.
    """
    if isinstance(value, ReadOnlyMatrix):
        return matrix_to_json(value.a)
    if is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(value) if math.isfinite(value) else ("inf" if value > 0 else "-inf")
    return value


def _finite_block(entries: list, n: int, key: str) -> np.ndarray:
    try:
        arr = np.array(entries, dtype=float).reshape(n, n)
    except TypeError as exc:
        raise ValueError(f"matrix '{key}' must hold numbers: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"matrix '{key}' contains non-finite entries")
    return arr


def matrix_from_json(record, complex_field: bool) -> np.ndarray:
    """The (n, n) array in the field that a {"n", "re"[, "im"]} record holds.

    The real part is symmetrized and the imaginary part antisymmetrized, as
    ``hermitian_part`` projects, so a slightly asymmetric file loads.  A
    complex record without "im" reads as real data; a real one may not
    carry "im".
    """
    if not isinstance(record, dict) or "n" not in record or "re" not in record:
        raise ValueError("matrix JSON must carry 'n' and row-major 're'")
    n = record["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValueError(f"matrix dimension must be a positive integer, got {n!r}")
    for key in ("re", "im"):
        block = record.get(key)
        if block is not None and (not isinstance(block, list) or len(block) != n * n):
            raise ValueError(f"'{key}' must hold exactly n*n = {n * n} entries")
    im = record.get("im")
    if im is not None and not complex_field:
        raise ValueError("unexpected 'im' block for a real matrix")
    re = _sym_part(_finite_block(record["re"], n, "re"))
    if not complex_field:
        return re
    return re + 1j * _antisym_part(np.zeros((n, n)) if im is None else _finite_block(im, n, "im"))


def compress(mats: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U* M U for a matrix M, or for every slice of a (k, n, n) stack, with U of shape (n, r).

    A point x = U d has x* M x = d* (U* M U) d, so the rank reduction, the
    sampler and the exact extraction all work on these r x r compressions.
    """
    return np.conj(U.T) @ mats @ U
