"""Homogeneous quadratic instances, their semidefinite relaxations, and solves.

An instance is

    min  or max   x* C x
    subject to    x* A_k x >= 1 (minimization) or <= 1 (maximization),
                  k = 0..m,  x in R^n or C^n,

and its relaxation replaces xx* by a PSD matrix variable: an n x n real
symmetric one for real data and an n x n Hermitian one for complex data,
which the interior-point core solves in its own field and returns in the
instance's own sense, max or min.  An instance holds its data in one form
only: the read-only (m + 2, n, n) stack [C; A_0; ..; A_m] in its own field
(``field_stack``), validated once when the instance is built, with
``field_view`` splitting it into C and the A_k; the solver, the rank
reduction, the sampler and the JSON codec all read it.  A solution's X,
dual slack and ray are Hermitian-projected arrays in the same field, each
wrapped as a ``ReadOnlyMatrix``.  A rounded point or a Slater witness is
reported as a tuple of reals, (Re x; Im x) for a complex x
(``real_point``).

slater_check decides whether some nonnegative combination of the A_k is
positive definite, which the max-form rounding needs.  Under the paper's
hypothesis for max problems (all but one A_k PSD) the answer follows from
eigenvalues.  The remaining instances solve one more relaxation as a probe:
the max relaxation with C = I and every A_k shifted by max_k ||A_k||_F,
whose multipliers give the best combination.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import _ipm
from ._ipm import INFEASIBLE, NUMERICAL_FAILURE, OPTIMAL, UNBOUNDED
from .matrices import (
    ReadOnlyMatrix,
    compress,
    matrix_from_json,
    matrix_to_json,
    read_only_view,
    to_json,
)

MINIMIZE = "Minimize"
MAXIMIZE = "Maximize"
SENSES = (MINIMIZE, MAXIMIZE)

REAL = "Real"
COMPLEX = "Complex"
FIELDS = (REAL, COMPLEX)

PSD = "PSD"
INDEFINITE = "Indefinite"
NSD = "NSD"

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


def tag_matrix(a: np.ndarray) -> tuple:
    """Classify by spectrum: PSD iff min eig >= -1e-9 ||A||_F, NSD mirrored.

    a is a stack (k, n, n) of matrices in their own field; the k tags come
    from one eigvalsh.
    """
    vals = np.linalg.eigvalsh(a)
    tol = _TAG_TOL * np.linalg.norm(a, axis=(-2, -1))
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
    """An instance held as one validated, read-only (m + 2, n, n) stack [C; A_0; ..; A_m].

    The stack must be exactly symmetric (Hermitian) in the instance's field;
    the instance holds its own copy, validated and frozen on construction.
    """

    sense: str
    field: str
    field_stack: np.ndarray

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"sense must be one of {SENSES}")
        if self.field not in FIELDS:
            raise ValueError(f"field must be one of {FIELDS}")
        if len(self.field_stack) < 2:
            raise ValueError("at least one constraint is required")
        if self.field == REAL and np.iscomplexobj(self.field_stack):
            raise TypeError("Real instances need real data")
        stack = np.array(self.field_stack, dtype=complex if self.field == COMPLEX else float)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"the data must be a (m + 2, n, n) stack, got shape {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("the data contains non-finite entries")
        if not np.array_equal(stack, np.conj(stack.swapaxes(-1, -2))):
            raise ValueError("every matrix must be symmetric (Hermitian)")
        stack.flags.writeable = False
        object.__setattr__(self, "field_stack", stack)

    @property
    def n(self) -> int:
        return self.field_stack.shape[1]

    @property
    def m(self) -> int:
        # constraints are indexed 0..m
        return len(self.field_stack) - 2

    # objective and constraints: benchmark/checks.py (field_matrices) is their only program reader
    @cached_property
    def objective(self) -> ReadOnlyMatrix:
        return read_only_view(self.field_stack[0])

    @cached_property
    def constraints(self) -> tuple:
        return tuple(read_only_view(a) for a in self.field_stack[1:])

    @cached_property
    def field_view(self) -> MatrixView:
        """C and the A_k in the instance's own field, as views of field_stack."""
        stack = self.field_stack
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
            "C": matrix_to_json(self.field_stack[0]),
            "A": [matrix_to_json(a) for a in self.field_stack[1:]],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "QcqpInstance":
        try:
            sense = {"min": MINIMIZE, "max": MAXIMIZE}[data["sense"]]
            fld = {"real": REAL, "complex": COMPLEX}[data["field"]]
            raw_c, raw_a = data["C"], data["A"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed instance payload: {exc}") from exc
        if not isinstance(raw_a, list):
            raise ValueError(f"'A' must be a list of matrices, got {raw_a!r}")
        mats = [matrix_from_json(raw, fld == COMPLEX) for raw in (raw_c, *raw_a)]
        if any(len(a) != len(mats[0]) for a in mats):
            raise ValueError("all matrices must share one dimension")
        return QcqpInstance(sense, fld, np.stack(mats))


def constraint_values(inst: QcqpInstance, x: np.ndarray) -> np.ndarray:
    """x* A_k x for every k, x a vector in the instance's field."""
    x = np.asarray(x)
    return np.real((inst.field_view.A @ x) @ np.conj(x))


def objective_value(inst: QcqpInstance, x: np.ndarray) -> float:
    x = np.asarray(x)
    return float(np.real(np.conj(x) @ (inst.field_view.C @ x)))


def real_point(x: np.ndarray) -> tuple:
    """A point as the tuple of reals a report carries: x, or (Re x; Im x) for a complex x.

    The (Re x; Im x) layout is what benchmark/checks.py (point_feasible)
    reads from a rounding report's best_x.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = np.concatenate([x.real, x.imag])
    return tuple(float(v) for v in x)


@dataclass(frozen=True, eq=False, kw_only=True)
class SdpSolution:
    """A packaged solve.

    X, dual_slack and ray are ReadOnlyMatrix views of symmetric (Hermitian)
    arrays in the instance's field; the program reads their ``.a``, and
    benchmark/tracing.py reads ``X.a``.  to_report_dict writes the fields in
    the order declared here, with status and field spelled as in a file
    ("optimal", "real").
    """

    status: str
    objective_value: float = math.nan
    dual_multipliers: tuple = ()
    X: ReadOnlyMatrix | None = None
    dual_slack: ReadOnlyMatrix | None = None
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    gap: float = math.nan
    iterations: int
    ray: ReadOnlyMatrix | None = None
    infeasibility_certificate: tuple | None = None
    field: str
    n: int
    message: str

    def to_report_dict(self) -> dict:
        return to_json(self) | {"status": _STATUS_JSON[self.status], "field": _FIELD_JSON[self.field]}


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
    groups: dict = {}
    for i, inst in enumerate(insts):
        groups.setdefault((inst.field, inst.field_view.A.shape), []).append(i)
    out = [None] * len(insts)
    for idx in groups.values():
        group = [insts[i] for i in idx]
        solved = _ipm.solve_conic(
            np.array([inst.field_view.C for inst in group]),
            [inst.field_view.A for inst in group],
            [1.0 if inst.sense == MAXIMIZE else -1.0 for inst in group],
        )
        optimal = [fields for fields in solved if fields["status"] == OPTIMAL]
        if optimal:
            lam = np.linalg.eigvalsh(np.stack([fields["X"].a for fields in optimal]))[:, 0]
            for fields, lam_min in zip(optimal, lam.tolist()):
                if lam_min < -PSD_TOL:
                    fields.update(status=NUMERICAL_FAILURE, message="returned iterate lost definiteness")
        for i, inst, fields in zip(idx, group, solved):
            out[i] = SdpSolution(field=inst.field, n=inst.n, **fields)
    return out


def solve_instance(inst: QcqpInstance) -> SdpSolution:
    return solve_instances([inst])[0]


@dataclass(frozen=True)
class SlaterReport:
    """Whether some mu >= 0 with sum mu = 1 makes sum mu_k A_k positive definite.

    Every answer is checked by eigenvalues on the instance's own data.  An
    answer with a certificate mu has t = lambda_min(sum mu_k A_k), and is a
    yes exactly when t > _SLATER_TOL.  A no with an empty certificate has a
    t that bounds lambda_min of every combination from above: t = max_k
    x*A_k x for a unit witness x (real_point's (Re; Im) for complex data,
    the layout benchmark/checks.py reads from best_x),
    or, from the probe, t = max_k Tr(A_k D) for a PSD D of trace 1, with
    indeterminate set when that t exceeds _SLATER_TOL or the probe failed.
    """

    dual_slater: bool
    certificate: tuple
    t: float
    witness: tuple | None = None
    indeterminate: bool = False


def _probe_definite(inst: QcqpInstance) -> SlaterReport:
    """Decide dual Slater by max Tr X s.t. Tr((A_k + cI) X) <= 1, X PSD, c = max_k ||A_k||_F.

    As c >= -lambda_min(A_k) and sum mu_k (A_k + cI) = sum mu_k A_k + cI on
    the simplex, the dual min sum mu s.t. sum mu_k (A_k + cI) >= I is bounded
    with value 1 / (lambda* + c), lambda* the best lambda_min over the
    simplex, and the multipliers over their sum attain lambda*.  A yes is
    checked on the unshifted A_k.  A no comes from X, projected onto the PSD
    cone and scaled to trace 1 as D: lambda_min(sum mu_k A_k) <= max_k
    Tr(A_k D) for every mu on the simplex.  The probe goes through
    solve_instances, not solve_instance, so that a trace of solve_instance
    counts the relaxations of the instances alone.
    """
    A = inst.field_view.A
    c = float(np.linalg.norm(A, axis=(1, 2)).max())
    eye = np.eye(inst.n)
    probe = QcqpInstance(MAXIMIZE, inst.field, np.concatenate([eye[None], A + c * eye]))
    sol = solve_instances([probe])[0]
    if sol.status != OPTIMAL:
        return SlaterReport(False, (), math.inf, indeterminate=True)
    mu = np.array(sol.dual_multipliers)
    report = _combination(A, mu / mu.sum())
    if report.dual_slater:
        return report
    lam, V = np.linalg.eigh(sol.X.a)
    F = V * np.sqrt(np.maximum(lam, 0.0))
    F /= np.linalg.norm(F)  # D = F F* at trace 1
    t = float(np.trace(compress(A, F), axis1=1, axis2=2).real.max())
    return SlaterReport(False, (), t, indeterminate=t > _SLATER_TOL)


def _combination(A: np.ndarray, mu: np.ndarray) -> SlaterReport:
    """The report for weights mu: a yes exactly when lambda_min(sum mu_k A_k) > _SLATER_TOL."""
    t = float(np.linalg.eigvalsh(np.tensordot(mu, A, 1))[0])
    return SlaterReport(t > _SLATER_TOL, tuple(float(v) for v in mu), t)


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
    kernel = lam <= _TAG_TOL * np.linalg.norm(P, "fro")
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
    """Decide dual Slater in closed form; solve the probe relaxation only when that is open."""
    report = _closed_form(inst)
    return _probe_definite(inst) if report is None else report
