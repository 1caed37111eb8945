"""Random instance families and canonical hard examples with known values.

Generation follows the published experiment recipe: constraint matrices are
rand * Q^T diag(d) Q with Q orthogonal from a QR factorization of a Gaussian
matrix, where d is abs(randn) entries (full-rank PSD), a single abs(randn)
entry padded with zeros (rank-one PSD), or randn entries (indefinite).
Matrices are drawn as one (count, n, n) stack in the instance's field
(random_matrices): the random stream is read matrix by matrix in the
one-at-a-time order, then one stacked QR, one batched product and one
Hermitian projection build them, so a seed gives the same matrices bit for
bit as separate draws would.  An instance is the concatenation [C; A_0; ..;
A_m] of its draws, handed to ``QcqpInstance`` as one array; the canonical
examples are built as such stacks too.  The four canonical examples pin
down worst-case behaviour of the relaxation: an unbounded minimization
gap, coupled indefinite pairs whose true optimum grows like M^2, a
maximization family with ratio growing like 0.382 M, and a maximization
instance whose relaxation is unbounded while the original problem is not.
"""

import math
from dataclasses import dataclass

import numpy as np

from .matrices import hermitian_part
from .sdp import (
    COMPLEX,
    INFEASIBLE,
    MAXIMIZE,
    MINIMIZE,
    REAL,
    QcqpInstance,
    solve_instance,
)

CASE_A = "A_OneIndef_RestPD"
CASE_B = "B_TenPctIndef_RestPD"
CASE_C = "C_OneIndef_RestRank1"
CASE_D = "D_TenPctIndef_RestRank1"
CASES = (CASE_A, CASE_B, CASE_C, CASE_D)

OBJECTIVE_IDENTITY = "Identity"
OBJECTIVE_INDEFINITE = "Indefinite"
OBJECTIVE_KINDS = (OBJECTIVE_IDENTITY, OBJECTIVE_INDEFINITE)

MIN_COUPLING = "min_coupling"
MIN_GAP_INFINITE = "min_gap_infinite"
MAX_COUPLING = "max_coupling"
MAX_UNBOUNDED_RELAXATION = "max_unbounded_relaxation"
CANONICAL_IDS = (MIN_COUPLING, MIN_GAP_INFINITE, MAX_COUPLING, MAX_UNBOUNDED_RELAXATION)

_SPECTRUM_TOL = 1e-9
_MAX_FEASIBILITY_RETRIES = 20


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random instance; the same seed always yields the same instance."""

    n: int
    m: int
    case: str
    sense: str
    objective_kind: str
    seed: int
    field: str = REAL

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError("n must be a positive integer")
        if not isinstance(self.m, int) or isinstance(self.m, bool) or self.m < 0:
            raise ValueError("m must be a nonnegative integer")
        if self.case not in CASES:
            raise ValueError(f"unknown case {self.case!r}")
        if self.sense not in (MINIMIZE, MAXIMIZE):
            raise ValueError("sense must be Minimize or Maximize")
        if self.objective_kind not in OBJECTIVE_KINDS:
            raise ValueError(f"unknown objective kind {self.objective_kind!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.field not in (REAL, COMPLEX):
            raise ValueError("field must be Real or Complex")

    @property
    def num_indefinite(self) -> int:
        if self.case in (CASE_A, CASE_C):
            return 1
        return math.ceil(0.1 * (self.m + 1))

    @property
    def psd_rank(self) -> int:
        return 1 if self.case in (CASE_C, CASE_D) else self.n


@dataclass(frozen=True, eq=False)
class GenerationReport:
    """A generated instance plus the retry counters behind it."""

    instance: QcqpInstance
    spec: GeneratorSpec
    indefinite_regenerations: int
    feasibility_retries: int


@dataclass(frozen=True, eq=False)
class CanonicalExample:
    id: str
    M: float | None
    instance: QcqpInstance
    known_values: dict


def _generator_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


FULL_RANK = "full_rank"
RANK_ONE = "rank_one"
INDEFINITE_SPECTRUM = "indefinite"
_SPECTRA = (FULL_RANK, RANK_ONE, INDEFINITE_SPECTRUM)


def random_matrices(
    rng: np.random.Generator, n: int, count: int, spectrum: str, complex_field: bool = False
) -> np.ndarray:
    """count draws of rand * Q* diag(d) Q as one (count, n, n) stack, Hermitian-projected.

    d is abs(randn) entries (FULL_RANK), one abs(randn) entry padded with
    zeros (RANK_ONE) or randn entries (INDEFINITE_SPECTRUM); Q comes from a
    QR of a Gaussian matrix, complex for complex data.  Each matrix reads the
    stream with one standard_normal call for d, Re g and Im g together, then
    one uniform for the scale: the same values, in the same order, as
    separate calls for each.
    """
    if spectrum not in _SPECTRA:
        raise ValueError(f"unknown spectrum {spectrum!r}")
    dtype = complex if complex_field else float
    if not count:
        return np.empty((0, n, n), dtype=dtype)
    head = 1 if spectrum == RANK_ONE else n
    draws = np.empty((count, head + (2 if complex_field else 1) * n * n))
    scale = np.empty(count)
    for k in range(count):
        rng.standard_normal(out=draws[k])
        scale[k] = rng.uniform()
    if spectrum == RANK_ONE:
        d = np.zeros((count, n))
        d[:, 0] = np.abs(draws[:, 0])
    else:
        d = draws[:, :n] if spectrum == INDEFINITE_SPECTRUM else np.abs(draws[:, :n])
    g = draws[:, head:head + n * n].reshape(count, n, n)
    if complex_field:
        g = g + 1j * draws[:, head + n * n:].reshape(count, n, n)
    q, _ = np.linalg.qr(g)
    mats = scale[:, None, None] * ((np.conj(q.swapaxes(-1, -2)) * d[:, None, :]) @ q)
    return hermitian_part(mats)


def indefinite_matrix(rng: np.random.Generator, n: int, complex_field: bool = False):
    """Draw rand * Q^T diag(randn) Q, redrawing until both eigenvalue signs appear.

    Returns (matrix, regeneration_count), the matrix an (n, n) array in the
    field; a redraw has probability ~2^(1-n) and is impossible at n = 1,
    which raises instead.
    """
    if n < 2:
        raise ValueError("an indefinite matrix needs dimension at least 2")
    regenerated = 0
    while True:
        mat = random_matrices(rng, n, 1, INDEFINITE_SPECTRUM, complex_field)[0]
        vals = np.linalg.eigvalsh(mat)
        tol = _SPECTRUM_TOL * max(1.0, float(np.abs(vals).max()))
        if vals[0] < -tol and vals[-1] > tol:
            return mat, regenerated
        regenerated += 1


def _draw_instance(spec: GeneratorSpec, rng: np.random.Generator):
    # the stream is read in the order indefinite constraints, PSD
    # constraints, objective; the stack is [objective; constraints]
    complex_field = spec.field == COMPLEX
    regenerated = 0
    indefinite = []
    for _ in range(spec.num_indefinite):
        mat, redraws = indefinite_matrix(rng, spec.n, complex_field)
        regenerated += redraws
        indefinite.append(mat)
    spectrum = RANK_ONE if spec.psd_rank == 1 else FULL_RANK
    psd = random_matrices(rng, spec.n, spec.m + 1 - len(indefinite), spectrum, complex_field)

    if spec.objective_kind == OBJECTIVE_IDENTITY:
        objective = np.eye(spec.n, dtype=psd.dtype)
    else:
        objective, redraws = indefinite_matrix(rng, spec.n, complex_field)
        regenerated += redraws

    stack = np.concatenate([np.stack([objective, *indefinite]), psd])
    return QcqpInstance(spec.sense, spec.field, stack), regenerated


def _always_feasible(spec: GeneratorSpec) -> bool:
    # X = a vv^T + b I with v the top eigenvector of the single non-PSD
    # constraint meets every minimization constraint, so one indefinite
    # matrix can never make the relaxation infeasible
    return spec.sense == MAXIMIZE or spec.num_indefinite <= 1


def generate_report(spec: GeneratorSpec) -> GenerationReport:
    """Generate an instance, retrying infeasible multi-indefinite draws."""
    rng = _generator_rng(spec.seed)
    regenerated = 0
    for retry in range(_MAX_FEASIBILITY_RETRIES + 1):
        inst, redraws = _draw_instance(spec, rng)
        regenerated += redraws
        if _always_feasible(spec) or solve_instance(inst).status != INFEASIBLE:
            return GenerationReport(
                instance=inst,
                spec=spec,
                indefinite_regenerations=regenerated,
                feasibility_retries=retry,
            )
    raise RuntimeError(f"no feasible instance after {_MAX_FEASIBILITY_RETRIES} retries: {spec}")


def generate(spec: GeneratorSpec) -> QcqpInstance:
    return generate_report(spec).instance


def canonical(example_id: str, M: float | None = None) -> CanonicalExample:
    """Build one of the four canonical examples with its known analytic values.

    min_coupling and max_coupling take a coupling strength M > 0; the other
    two ignore M.
    """
    if example_id in (MIN_COUPLING, MAX_COUPLING):
        if M is None or M <= 0:
            raise ValueError(f"{example_id} needs a coupling strength M > 0")
    if example_id == MIN_COUPLING:
        # min |x|^2 s.t. x2^2 >= 1, x1^2 + M x1 x2 >= 1, x1^2 - M x1 x2 >= 1.
        # The relaxation value is 2: the coupled pair forces X11 >= 1 + M |X12|
        # and the first constraint forces X22 >= 1, attained at X = I.  Any
        # feasible point has x2^2 >= 1 and x1^2 >= 1 + M |x1 x2|, so
        # |x1| >= (M + sqrt(M^2 + 4)) / 2 and the true optimum grows like M^2.
        inst = QcqpInstance(MINIMIZE, REAL, np.array([
            np.eye(2),
            [[0.0, 0.0], [0.0, 1.0]],
            [[1.0, M / 2], [M / 2, 0.0]],
            [[1.0, -M / 2], [-M / 2, 0.0]],
        ]))
        root = (M + math.sqrt(M * M + 4.0)) / 2.0
        known = {"v_sdp": 2.0, "v_qp_lower": 1.0 + root * root}
    elif example_id == MIN_GAP_INFINITE:
        # min x4^2 with two sign-coupled constraints and two hyperbolic ones;
        # the relaxation reaches 0 at X = diag(4, 4, 1, 0) while every
        # feasible point has x4^2 >= 3
        inst = QcqpInstance(MINIMIZE, REAL, np.array([
            np.diag([0.0, 0.0, 0.0, 1.0]),
            [
                [0.0, 0.5, 0.0, 0.0],
                [0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
            [
                [0.0, -0.5, 0.0, 0.0],
                [-0.5, 0.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ],
            np.diag([0.5, 0.0, -1.0, 0.0]),
            np.diag([0.0, 0.5, -1.0, 0.0]),
        ]))
        known = {"v_sdp": 0.0, "v_qp_lower": 3.0}
    elif example_id == MAX_COUPLING:
        # max x1^2 + x2^2/M with coupled indefinite constraints; the
        # relaxation sits in [1 + 1/M, 1 + 2/M] while the true optimum decays
        # like 1/M, giving a ratio that grows like 0.382 M
        inst = QcqpInstance(MAXIMIZE, REAL, np.array([
            np.diag([1.0, 1.0 / M]),
            [[0.0, M / 2], [M / 2, 1.0]],
            [[0.0, -M / 2], [-M / 2, 1.0]],
            np.diag([M, -M]),
        ]))
        known = {
            "v_qp_upper": 2.618 / M,
            "v_sdp_lower": 1.0 + 1.0 / M,
            "v_sdp_upper": 1.0 + 2.0 / M,
            "ratio_lower": 0.382 * M,
        }
    elif example_id == MAX_UNBOUNDED_RELAXATION:
        # max x1 x2 + x1^2 s.t. x1 x2 <= 1, x1^2 - x2^2 <= 1: the relaxation
        # is unbounded along X = t [[1, -1], [-1, 1]] while the original
        # optimum is (3 + sqrt(5))/2
        inst = QcqpInstance(MAXIMIZE, REAL, np.array([
            [[1.0, 0.5], [0.5, 0.0]],
            [[0.0, 0.5], [0.5, 0.0]],
            np.diag([1.0, -1.0]),
        ]))
        known = {"v_qp": (3.0 + math.sqrt(5.0)) / 2.0, "sdp_status": "Unbounded"}
    else:
        raise ValueError(f"unknown canonical example {example_id!r}")
    return CanonicalExample(id=example_id, M=M, instance=inst, known_values=known)

