"""Rank reduction of optimal SDP solutions to the Pataki bound.

Given an optimal X, repeatedly finds a symmetric direction D = U Delta U^T
inside range(X) that keeps every constraint trace and the objective trace
fixed, then steps to the cone boundary so an eigenvalue vanishes.  The
objective row is carried in the null-space system alongside all m+1
constraint rows: at an optimum it is a linear combination of them (through
the dual multipliers), so it never blocks a reduction that the constraint
count permits, and keeping it pins the objective value exactly rather than
to solver dust.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .matrices import HermMatrix, SymMatrix
from .sdp import COMPLEX, OPTIMAL, PSD_TOL, QcqpInstance, SdpSolution

# relative cut-off: an eigenvalue (singular value) counts toward a rank when
# it exceeds RANK_TOL times the largest one
RANK_TOL = 1e-9
_VALUE_TOL = 1e-7


class NotPsdError(RuntimeError):
    """Raised when a factorization input has an eigenvalue below -PSD_TOL."""


@dataclass(frozen=True, eq=False)
class LowRankSolution:
    """Factor U with X = U U* (complex conjugate-transpose when field Complex)."""

    U: np.ndarray
    r: int
    objective_value: float
    field: str
    meets_bound: bool
    steps: int

    def reconstruct(self) -> np.ndarray:
        return self.U @ np.conj(self.U.T)


def pataki_bound(num_constraints: int, field: str) -> int:
    """Largest admissible rank: r(r+1)/2 <= count (real), r^2 <= count (complex)."""
    if num_constraints < 1:
        raise ValueError("constraint count must be positive")
    if field == COMPLEX:
        return max(1, math.isqrt(num_constraints))
    return max(1, (math.isqrt(8 * num_constraints + 1) - 1) // 2)


def factorize(X) -> np.ndarray:
    """U with columns sqrt(lam_i) q_i for eigenvalues above RANK_TOL * lam_max.

    Accepts SymMatrix, HermMatrix, or a plain (possibly complex) ndarray.
    Raises NotPsdError when an eigenvalue sits below -PSD_TOL, the solver's
    own acceptance threshold for an Optimal solution.
    """
    arr = X.a if isinstance(X, (SymMatrix, HermMatrix)) else np.asarray(X)
    vals, vecs = np.linalg.eigh(arr)
    if vals[0] < -PSD_TOL:
        raise NotPsdError(f"matrix has eigenvalue {vals[0]:.3e} below -{PSD_TOL:.1e}")
    lam_max = max(float(vals[-1]), 0.0)
    keep = vals > RANK_TOL * lam_max if lam_max > 0 else np.zeros(len(vals), bool)
    return vecs[:, keep] * np.sqrt(vals[keep])


@functools.lru_cache(maxsize=None)
def _triu(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The strict upper triangle's indices of an r x r matrix, made once per r."""
    iu = np.triu_indices(r, 1)
    for a in iu:
        a.flags.writeable = False
    return iu


def _svec(S: np.ndarray) -> np.ndarray:
    # isometry: svec(A) . svec(B) = <A, B>; S may be a (k, r, r) stack
    i, j = _triu(S.shape[-1])
    return np.concatenate([np.diagonal(S, axis1=-2, axis2=-1), math.sqrt(2.0) * S[..., i, j]], axis=-1)


def _unsvec(v: np.ndarray, r: int) -> np.ndarray:
    S = np.diag(v[:r]).astype(float)
    S[_triu(r)] = v[r:] / math.sqrt(2.0)
    return S + np.triu(S, 1).T


def _hvec(H: np.ndarray) -> np.ndarray:
    # H may be a (k, r, r) stack
    i, j = _triu(H.shape[-1])
    up = H[..., i, j]
    return np.concatenate(
        [np.real(np.diagonal(H, axis1=-2, axis2=-1)), math.sqrt(2.0) * np.real(up), math.sqrt(2.0) * np.imag(up)],
        axis=-1,
    )


def _unhvec(v: np.ndarray, r: int) -> np.ndarray:
    k = r * (r - 1) // 2
    H = np.diag(v[:r]).astype(complex)
    H[_triu(r)] = (v[r : r + k] + 1j * v[r + k :]) / math.sqrt(2.0)
    return H + np.conj(np.triu(H, 1)).T


def _traces(mats: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Re Tr(A_k X) for every A_k of a (k, d, d) stack, one product per slice as Tr(A_k @ X)."""
    return np.real(np.trace(mats @ X, axis1=-2, axis2=-1))


def _boundary_candidates(lam: np.ndarray):
    # step sizes that drive an eigenvalue of I + t*Delta to zero, shortest first
    out = []
    if lam[0] < -1e-14:
        out.append(-1.0 / lam[0])
    if lam[-1] > 1e-14:
        out.append(-1.0 / lam[-1])
    out.sort(key=abs)
    return out


def reduce_rank(sol: SdpSolution, inst: QcqpInstance, *, seed: int = 0) -> LowRankSolution:
    """Reduce an Optimal solution's rank to the Pataki bound, values preserved.

    Deterministic for a fixed seed; the seed only matters when the principal
    null direction is rejected and a randomized recombination is attempted.
    If no admissible step exists before the bound is met, the best rank
    reached is returned with meets_bound False, after at most 2n + 10 steps.
    """
    if sol.status != OPTIMAL:
        raise ValueError("rank reduction needs an Optimal solution")
    target = sol.X.a
    C, mats = inst.field_view
    vec, unvec = (_hvec, _unhvec) if inst.field == COMPLEX else (_svec, _unsvec)

    values = _traces(mats, target)
    obj_value = float(np.real(np.trace(C @ target)))
    bound = pataki_bound(len(mats), inst.field)
    U = factorize(target)
    r = U.shape[1]
    rng = np.random.default_rng(np.random.PCG64(seed))
    cap = 2 * target.shape[0] + 10

    def drift(Unew):
        Xn = Unew @ np.conj(Unew.T)
        dv = float(np.abs(_traces(mats, Xn) - values).max())
        do = abs(float(np.real(np.trace(C @ Xn))) - obj_value)
        return max(dv, do)

    steps = 0
    while r > bound and steps < cap:
        Uh = np.conj(U.T)
        # one row per constraint, then the objective's
        system = np.concatenate([vec(Uh @ mats @ U), vec(Uh @ C @ U)[None]])
        _, svals, Vh = np.linalg.svd(system, full_matrices=True)
        candidates = [Vh[-1]]
        null_dim = Vh.shape[0] - len(svals[svals > 1e-10])
        if null_dim > 1:
            mix = rng.standard_normal(null_dim)
            mixed = mix @ Vh[-null_dim:]
            candidates.append(mixed / np.linalg.norm(mixed))
        stepped = False
        for cand in candidates:
            Delta = unvec(cand, r)
            lam, V = np.linalg.eigh(Delta)
            for t in _boundary_candidates(lam):
                new_vals = 1.0 + t * lam
                keep = new_vals > RANK_TOL * max(float(new_vals.max()), 1e-300)
                if keep.sum() >= r:
                    continue
                Unew = (U @ V[:, keep]) * np.sqrt(new_vals[keep])
                if drift(Unew) <= _VALUE_TOL:
                    U, r = Unew, int(keep.sum())
                    stepped = True
                    break
            if stepped:
                break
        if not stepped:
            break
        steps += 1

    final_obj = float(np.real(np.trace(C @ (U @ np.conj(U.T)))))
    return LowRankSolution(
        U=U,
        r=r,
        objective_value=final_obj,
        field=inst.field,
        meets_bound=r <= bound,
        steps=steps,
    )
