"""Homogeneous quadratic instances, their semidefinite relaxations, and solves.

An instance is

    min  or max   x* C x
    subject to    x* A_k x >= 1 (minimization) or <= 1 (maximization),
                  k = 0..m,  x in R^n or C^n,

and its relaxation replaces xx* by a PSD matrix variable: an n x n real
symmetric one for real data and an n x n Hermitian one for complex data,
which the interior-point core solves in its own field.  Each instance
caches its data once, stacked, as ``field_view``; the solver, the rank
reduction and the sampler all read it.  A rounded point or a Slater
witness is reported as a tuple of reals, (Re x; Im x) for a complex x
(``real_point``).

slater_check decides whether some nonnegative combination of the A_k is
positive definite, which the max-form rounding needs.  Under the paper's
hypothesis for max problems (all but one A_k PSD) the answer follows from
eigenvalues; only the remaining instances run an interior-point probe.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _ipm
from .matrices import HermMatrix, SymMatrix, frobenius_norm

MINIMIZE = "Minimize"
MAXIMIZE = "Maximize"
SENSES = (MINIMIZE, MAXIMIZE)

REAL = "Real"
COMPLEX = "Complex"
FIELDS = (REAL, COMPLEX)

PSD = "PSD"
INDEFINITE = "Indefinite"
NSD = "NSD"

OPTIMAL = "Optimal"
INFEASIBLE = "Infeasible"
UNBOUNDED = "Unbounded"
NUMERICAL_FAILURE = "NumericalFailure"
STATUSES = (OPTIMAL, INFEASIBLE, UNBOUNDED, NUMERICAL_FAILURE)

# an Optimal solution may have eigenvalues down to -PSD_TOL; factorizations
# of it accept the same
PSD_TOL = 1e-8
_TAG_TOL = 1e-9
_SLATER_TOL = 1e-9

_SENSE_JSON = {MINIMIZE: "min", MAXIMIZE: "max"}
_FIELD_JSON = {REAL: "real", COMPLEX: "complex"}
_STATUS_JSON = {
    OPTIMAL: "optimal",
    INFEASIBLE: "infeasible",
    UNBOUNDED: "unbounded",
    NUMERICAL_FAILURE: "numerical_failure",
}


def tag_matrix(mat: SymMatrix | HermMatrix | np.ndarray) -> str | tuple:
    """Classify by spectrum: PSD iff min eig >= -1e-9 ||A||_F, NSD mirrored.

    mat is a SymMatrix, a HermMatrix, or its array in its own field; a
    stack of arrays (k, n, n) gives a tuple of k tags from one eigvalsh.
    """
    arr = mat.a if isinstance(mat, (SymMatrix, HermMatrix)) else np.asarray(mat)
    if arr.ndim == 2:
        return tag_matrix(arr[None])[0]
    vals = np.linalg.eigvalsh(arr)
    tol = _TAG_TOL * np.linalg.norm(arr, axis=(-2, -1))
    return tuple(
        PSD if lo >= -t else NSD if hi <= t else INDEFINITE
        for lo, hi, t in zip(vals[:, 0].tolist(), vals[:, -1].tolist(), tol.tolist())
    )


class MatrixView(NamedTuple):
    """An instance's objective and stacked constraints, read-only."""

    C: np.ndarray
    A: np.ndarray  # shape (m + 1, n, n)


@dataclass(frozen=True, eq=False)
class QcqpInstance:
    sense: str
    field: str
    objective: SymMatrix | HermMatrix
    constraints: tuple

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        want = HermMatrix if self.field == COMPLEX else SymMatrix
        for mat in (self.objective, *self.constraints):
            if not isinstance(mat, want):
                raise TypeError(f"{self.field} instances need {want.__name__} data")
            if mat.n != self.objective.n:
                raise ValueError("all matrices must share one dimension")

    @property
    def n(self) -> int:
        return self.objective.n

    @property
    def m(self) -> int:
        # constraints are indexed 0..m
        return len(self.constraints) - 1

    @cached_property
    def field_view(self) -> MatrixView:
        """C and the A_k in the instance's own field (complex for complex data)."""
        stack = np.stack([h.a for h in (self.objective, *self.constraints)])
        stack.flags.writeable = False
        return MatrixView(stack[0], stack[1:])

    @cached_property
    def tags(self) -> tuple:
        return tag_matrix(self.field_view.A)

    @property
    def psd_indices(self) -> tuple:
        return tuple(k for k, t in enumerate(self.tags) if t == PSD)

    @property
    def non_psd_indices(self) -> tuple:
        return tuple(k for k, t in enumerate(self.tags) if t != PSD)

    @property
    def indefinite_indices(self) -> tuple:
        return tuple(k for k, t in enumerate(self.tags) if t == INDEFINITE)

    def to_json_dict(self) -> dict:
        return {
            "sense": _SENSE_JSON[self.sense],
            "field": _FIELD_JSON[self.field],
            "C": json.loads(self.objective.to_json()),
            "A": [json.loads(a.to_json()) for a in self.constraints],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "QcqpInstance":
        try:
            sense = {"min": MINIMIZE, "max": MAXIMIZE}[data["sense"]]
            fld = {"real": REAL, "complex": COMPLEX}[data["field"]]
            raw_c, raw_a = data["C"], data["A"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance payload: {exc}") from exc
        loader = HermMatrix.from_json if fld == COMPLEX else SymMatrix.from_json
        objective = loader(json.dumps(raw_c))
        constraints = tuple(loader(json.dumps(a)) for a in raw_a)
        return QcqpInstance(sense, fld, objective, constraints)


def constraint_values(inst: QcqpInstance, x: np.ndarray) -> np.ndarray:
    """x* A_k x for every k, x a vector in the instance's field."""
    x = np.asarray(x)
    xh = np.conj(x)
    return np.array([float(np.real(xh @ (a @ x))) for a in inst.field_view.A])


def objective_value(inst: QcqpInstance, x: np.ndarray) -> float:
    x = np.asarray(x)
    return float(np.real(np.conj(x) @ (inst.field_view.C @ x)))


def real_point(x: np.ndarray) -> tuple:
    """A point as the tuple of reals a report carries: x, or (Re x; Im x) for a complex x."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = np.concatenate([x.real, x.imag])
    return tuple(float(v) for v in x)


@dataclass(frozen=True, eq=False)
class SdpStandardForm:
    """Equality standard form handed to the interior-point core."""

    n: int
    C: np.ndarray
    A: np.ndarray
    b: np.ndarray
    G: np.ndarray  # (p,): the slack signs, G's diagonal
    c_lin: np.ndarray
    maximize: bool
    field: str


def build_relaxation(inst: QcqpInstance) -> SdpStandardForm:
    """Relaxation with slack rows Tr(A_k X) -/+ s_k = 1, in the instance's own field.

    The slack matrix is diagonal, so G holds its diagonal, the signs.
    """
    C, A = inst.field_view
    p = A.shape[0]
    sign = 1.0 if inst.sense == MAXIMIZE else -1.0
    return SdpStandardForm(
        n=inst.n,
        C=C,
        A=A,
        b=np.ones(p),
        G=np.full(p, sign),
        c_lin=np.zeros(p),
        maximize=inst.sense == MAXIMIZE,
        field=inst.field,
    )


@dataclass(frozen=True, eq=False, kw_only=True)
class SdpSolution:
    """A packaged solve; X, dual_slack and ray are HermMatrix for complex data."""

    status: str
    X: SymMatrix | HermMatrix | None = None
    objective_value: float = math.nan
    dual_multipliers: tuple = ()
    dual_slack: SymMatrix | HermMatrix | None = None
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    gap: float = math.nan
    iterations: int
    ray: SymMatrix | HermMatrix | None = None
    infeasibility_certificate: tuple | None = None
    field: str
    n: int
    message: str

    def to_json_dict(self) -> dict:
        def num(v):
            if v is None or not np.isfinite(v):
                return None if v is None or v != v else ("inf" if v > 0 else "-inf")
            return float(v)

        def mat(m):
            return None if m is None else json.loads(m.to_json())

        return {
            "status": _STATUS_JSON[self.status],
            "objective_value": num(self.objective_value),
            "dual_multipliers": [float(v) for v in self.dual_multipliers],
            "X": mat(self.X),
            "dual_slack": mat(self.dual_slack),
            "primal_residual": num(self.primal_residual),
            "dual_residual": num(self.dual_residual),
            "gap": num(self.gap),
            "iterations": self.iterations,
            "ray": mat(self.ray),
            "infeasibility_certificate": list(self.infeasibility_certificate)
            if self.infeasibility_certificate is not None
            else None,
            "field": _FIELD_JSON[self.field],
            "n": self.n,
            "message": self.message,
        }


def _package(form: SdpStandardForm, res: _ipm.ConicResult, lam_min: float) -> SdpSolution:
    """An interior-point result as an SdpSolution; lam_min is lambda_min of an Optimal X."""
    flip = -1.0 if form.maximize else 1.0
    mat = HermMatrix.from_complex if form.field == COMPLEX else SymMatrix
    status, message = NUMERICAL_FAILURE, res.message
    if res.status == "optimal":
        status = OPTIMAL
        if lam_min < -PSD_TOL:
            status, message = NUMERICAL_FAILURE, "returned iterate lost definiteness"
        out = dict(
            X=mat(res.X),
            objective_value=flip * res.objective,
            dual_multipliers=tuple(float(v) for v in np.maximum(flip * res.y, 0.0)),
            dual_slack=mat(flip * res.Z if form.maximize else res.Z),
            primal_residual=res.primal_residual,
            dual_residual=res.dual_residual,
            gap=res.rel_gap,
        )
    elif res.status == "unbounded":
        # improving ray, normalized so Tr(C D) = 1 (max) or -1 (min)
        status = UNBOUNDED
        out = dict(
            objective_value=np.inf if form.maximize else -np.inf,
            primal_residual=res.primal_residual,
            ray=mat(res.ray[0]),
        )
    elif res.status == "infeasible":
        status = INFEASIBLE
        fy, fZ, _ = res.farkas
        out = dict(
            objective_value=np.inf if not form.maximize else -np.inf,
            dual_multipliers=tuple(float(v) for v in np.maximum(flip * fy, 0.0)),
            dual_slack=mat(fZ),
            dual_residual=res.dual_residual,
            infeasibility_certificate=tuple(float(v) for v in fy),
        )
    else:
        out = dict(
            X=mat(res.X) if np.all(np.isfinite(res.X)) else None,
            primal_residual=res.primal_residual,
            dual_residual=res.dual_residual,
            gap=res.rel_gap,
        )
    return SdpSolution(
        status=status,
        iterations=res.iterations,
        field=form.field,
        n=form.n,
        message=message,
        **out,
    )


def batch_size(n: int, m: int, field: str) -> int:
    """How many relaxations of n x n, m-constraint instances over field one interior-point batch holds.

    solve_instances splits a larger same-shape group into batches of this
    size; a caller that generates instances as it goes can take them this
    many at a time.
    """
    return _ipm.batch_size(m + 1, (2 if field == COMPLEX else 1) * n * n)


def solve_instances(insts) -> list[SdpSolution]:
    """Solve every instance's relaxation, in order.

    The relaxations that share a field and a shape (n and constraint
    count) go to the interior-point core in one call, which solves them
    batch_size at a time, and their Optimal iterates get one stacked
    lambda_min check.
    """
    forms = [build_relaxation(inst) for inst in insts]
    groups: dict = {}
    for i, form in enumerate(forms):
        groups.setdefault((form.field, form.A.shape), []).append(i)
    out = [None] * len(forms)
    for idx in groups.values():
        group = [forms[i] for i in idx]
        results = _ipm.solve_conic(
            np.array([-f.C if f.maximize else f.C for f in group]),
            [f.A for f in group],
            np.array([f.b for f in group]),
            np.array([f.G for f in group]),  # G's diagonals, as _ipm reads a diagonal G
            np.array([f.c_lin for f in group]),
        )
        optimal = [k for k, r in enumerate(results) if r.status == "optimal"]
        lam = np.full(len(results), np.nan)
        if optimal:
            lam[optimal] = np.linalg.eigvalsh(np.stack([results[k].X for k in optimal]))[:, 0]
        for i, f, r, lam_min in zip(idx, group, results, lam):
            out[i] = _package(f, r, lam_min)
    return out


def solve_instance(inst: QcqpInstance) -> SdpSolution:
    return solve_instances([inst])[0]


@dataclass(frozen=True)
class SlaterReport:
    """Whether some mu >= 0 with sum mu = 1 makes sum mu_k A_k positive definite.

    Every answer is checked by eigenvalues on the instance's own data.  A
    yes carries its certificate mu and t = lambda_min(sum mu_k A_k) >
    _SLATER_TOL.  A no carries either a unit witness x (real_point's
    (Re; Im) for complex data) with t = max_k x*A_k x <= _SLATER_TOL, which bounds lambda_min of
    every combination from above, and an empty certificate; or, from the
    interior-point probe, the probe's best mu and its lambda_min as t, with
    indeterminate set when the probe did not converge.
    """

    dual_slater: bool
    certificate: tuple
    t: float
    witness: tuple | None = None
    indeterminate: bool = False


def _probe_definite(mats: np.ndarray) -> tuple[np.ndarray, bool]:
    """The IPM's mu maximizing lambda_min(sum mu_k A_k) over the simplex, and its convergence.

    Epigraph game form: minimize u subject to u >= Tr(A_k X) for all k,
    Tr(X) = 1, X PSD; by duality the optimal u equals the best achievable
    lambda_min and the row multipliers recover mu.  The free epigraph level
    is shifted by R = 1 + max ||A_k||_F to keep it in the orthant.
    """
    p, n = mats.shape[:2]
    R = 1.0 + max(float(np.linalg.norm(M)) for M in mats)
    rows = np.concatenate([-mats, np.eye(n)[None]])
    q = p + 1  # u plus one surplus per epigraph row
    G = np.zeros((p + 1, q))
    G[:p, 0] = 1.0
    G[:p, 1:] = -np.eye(p)
    b = np.concatenate([np.full(p, R), [1.0]])
    c_lin = np.zeros(q)
    c_lin[0] = 1.0
    res = _ipm.solve_conic(np.zeros((1, n, n)), rows[None], b[None], G[None], c_lin[None])[0]
    converged = res.status == "optimal"
    mu = np.maximum(res.y[:p], 0.0)
    if not mu.sum() >= 1e-9:  # also when y is not finite
        return np.zeros(p), converged
    return mu / mu.sum(), converged


def _combination(A: np.ndarray, mu: np.ndarray, converged: bool = True) -> SlaterReport:
    """The report for weights mu: a yes exactly when lambda_min(sum mu_k A_k) > _SLATER_TOL."""
    t = float(np.linalg.eigvalsh(np.tensordot(mu, A, 1))[0])
    found = t > _SLATER_TOL
    return SlaterReport(found, tuple(float(v) for v in mu), t, indeterminate=not found and not converged)


def _refute(inst: QcqpInstance, x: np.ndarray) -> SlaterReport | None:
    """The no that the unit field vector x proves, if max_k x*A_k x <= _SLATER_TOL."""
    t = float(constraint_values(inst, x).max())
    if t > _SLATER_TOL:
        return None
    return SlaterReport(False, (), t, real_point(x))


def _closed_form(inst: QcqpInstance) -> SlaterReport | None:
    """Decide dual Slater from eigenvalues when at most one A_k is not PSD.

    Let P be the sum of the PSD constraints.  P > 0: mu is uniform on them.
    No other constraint: a kernel vector of P refutes.  Exactly one other,
    A_j: by Finsler's lemma (Polik & Terlaky, SIAM Review 2007) some
    A_j + s P is definite exactly when N* A_j N > 0, N spanning ker P, and
    otherwise N's bottom direction refutes.  None when the answer is open
    (two or more non-PSD constraints and P not definite) or fails its check.
    """
    A = inst.field_view.A
    psd, others = list(inst.psd_indices), inst.non_psd_indices
    on_psd = np.zeros(len(A))
    on_psd[psd] = 1.0
    if psd:
        report = _combination(A, on_psd / len(psd))
        if report.dual_slater:
            return report
    if len(others) > 1:
        return None
    P = np.tensordot(on_psd, A, 1)
    lam, V = np.linalg.eigh(P)
    if not others:
        return _refute(inst, V[:, 0])
    Aj = A[others[0]]
    kernel = lam <= _TAG_TOL * frobenius_norm(P)
    N, R = V[:, kernel], V[:, ~kernel]
    lam_n, W = np.linalg.eigh(np.conj(N.T) @ Aj @ N)
    if lam_n.size and lam_n[0] <= _SLATER_TOL:
        return _refute(inst, N @ W[:, 0])
    # in the basis (R, N), A_j + s P > 0 iff s diag(lam_R) > S, where -S is
    # the Schur complement of A_j's kernel block; s* is the least such s
    B = (np.conj(R.T) @ Aj @ N) @ W / np.sqrt(lam_n)
    S = B @ np.conj(B.T) - np.conj(R.T) @ Aj @ R
    d = 1.0 / np.sqrt(lam[~kernel])
    s_star = np.max(np.linalg.eigvalsh(d[:, None] * S * d[None, :]), initial=0.0)
    mu = (2.0 * s_star + 1.0) * on_psd
    mu[others[0]] = 1.0
    report = _combination(A, mu / mu.sum())
    return report if report.dual_slater else None


def slater_check(inst: QcqpInstance) -> SlaterReport:
    """Decide dual Slater in closed form; run the IPM probe only when that is open."""
    report = _closed_form(inst)
    if report is not None:
        return report
    mu, converged = _probe_definite(inst.field_view.A)
    return _combination(inst.field_view.A, mu, converged)
