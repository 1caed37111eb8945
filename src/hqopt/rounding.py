"""Randomized rounding of SDP solutions and approximation-ratio certificates.

Three schemes extract feasible rank-one points from a solved relaxation:

* GaussianMin -- draw xi ~ N(0, X_reduced) and rescale by the smallest
  constraint value, for minimization problems;
* SignMax -- draw +-1 vectors through the factor that diagonalizes the
  objective, for maximization problems with a positive definite constraint
  aggregate;
* GaussianMax -- draw xi ~ N(0, X_hat) and rescale by the largest constraint
  value, for maximization problems with any number of indefinite constraints.

All three run the same sampler: points xi = F d for draws d, each rescaled
by its own binding constraint value, which dominates the accept/reject
argument behind the worst-case ratios.  The fixed-threshold joint events
those arguments use are counted separately so the stated success
probabilities can be audited.  Complex instances are sampled in their own
field: a complex Gaussian coordinate has independent real and imaginary
parts of variance one half, and a complex point is reported as (Re; Im).
round_solution picks the scheme for a solved instance.

All draws of one rounding call come from a single counter-based Philox4x64
stream (Salmon et al., SC'11) keyed by the seed.  Every sample consumes a
fixed number w of 64-bit words: r rounded up to even for real Gaussians,
2r for complex ones of rank r (the real parts, then the imaginary parts;
Box-Muller on pairs of 53-bit uniforms), and r for signs (one bit per
word).
Sample i owns the counter blocks [i b, (i + 1) b) with b = ceil(w / 4), each
block yielding four words, so its draw is a pure function of (seed, i): a
prefix of the sample sequence never depends on num_samples, and neither the
chunk size nor the order in which chunks are evaluated changes results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lowrank import RANK_TOL, LowRankSolution, factorize, reduce_rank
from .matrices import HermMatrix, SymMatrix, sym_eig
from .sdp import (
    COMPLEX,
    MAXIMIZE,
    MINIMIZE,
    OPTIMAL,
    QcqpInstance,
    SdpSolution,
    constraint_values,
    objective_value,
    real_point,
    slater_check,
)

GAUSSIAN_MIN = "GaussianMin"
SIGN_MAX = "SignMax"
GAUSSIAN_MAX = "GaussianMax"
SCHEMES = (GAUSSIAN_MIN, SIGN_MAX, GAUSSIAN_MAX)

# |v_sdp| at or below this counts as zero when forming ratios
_ZERO_TOL = 1e-9
# relative slack when comparing an empirical ratio against its certificate
_CERT_SLACK = 1e-9
# exact extraction certifies ratio 1 to 1e-4 (its face search is a grid)
_EXACT_SLACK = 5e-5
# samples evaluated per vectorized block; sample values do not depend on it
_SAMPLE_CHUNK = 2048
_NO_AGGREGATE = (
    "no nonnegative combination of the constraints is positive definite; "
    "the rescaling denominator is not guaranteed positive"
)


@dataclass(frozen=True)
class RoundingParams:
    """Scheme, sample count and seed of one rounding run."""

    scheme: str
    num_samples: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.num_samples, int) or self.num_samples < 1:
            raise ValueError("num_samples must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**128:
            # the seed is the 128-bit key of the sample stream
            raise ValueError("seed must be an integer in [0, 2**128)")


@dataclass(frozen=True, eq=False)
class RoundingReport:
    """Outcome of a rounding run.

    best_x is an n-vector for real instances and (Re; Im), 2n reals, for
    complex ones.  empirical_ratio is best/v_sdp for minimization and
    v_sdp/best for maximization.  theoretical_bound is +inf when no bound is
    claimed (more than one indefinite constraint in a scheme that allows one).
    samples_feasible + samples_discarded == num_samples whenever samples were
    drawn.
    """

    scheme: str
    seed: int
    num_samples: int
    best_x: tuple | None
    best_objective: float
    v_sdp: float
    empirical_ratio: float
    samples_feasible: int
    samples_discarded: int
    joint_event_count: int
    theoretical_bound: float
    certificate_satisfied: bool
    bound_is_claimed: bool
    multi_indefinite_warning: bool
    failed: bool
    message: str

    def to_json_dict(self) -> dict:
        def num(v: float):
            if math.isnan(v):
                return None
            if math.isinf(v):
                return "inf" if v > 0 else "-inf"
            return float(v)

        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "num_samples": self.num_samples,
            "best_x": None if self.best_x is None else [float(v) for v in self.best_x],
            "best_objective": num(self.best_objective),
            "v_sdp": num(self.v_sdp),
            "empirical_ratio": num(self.empirical_ratio),
            "samples_feasible": self.samples_feasible,
            "samples_discarded": self.samples_discarded,
            "joint_event_count": self.joint_event_count,
            "theoretical_bound": num(self.theoretical_bound),
            "certificate_satisfied": self.certificate_satisfied,
            "bound_is_claimed": self.bound_is_claimed,
            "multi_indefinite_warning": self.multi_indefinite_warning,
            "failed": self.failed,
            "message": self.message,
        }


def _draw_rows(seed: int, start: int, count: int, r: int, scale: float | None) -> np.ndarray:
    """Rows for samples start..start+count-1: N(0, scale^2), or +-1 signs when scale is None.

    One Philox stream keyed by seed is advanced to sample start's first
    counter block, and the whole chunk is read in one call.
    """
    w = r if scale is None else r + r % 2
    b = -(-w // 4)
    gen = np.random.Philox(key=seed)
    gen.advance(start * b)
    words = gen.random_raw(count * 4 * b).reshape(count, 4 * b)[:, :w]
    if scale is None:
        return 1.0 - 2.0 * (words >> 63)
    # Box-Muller; the radius uniform lies in (0, 1] so its log is finite
    angle = (2.0 * math.pi * 2.0**-53) * (words[:, 0::2] >> 11)
    radius = scale * np.sqrt(-2.0 * np.log(2.0**-53 * ((words[:, 1::2] >> 11) + 1)))
    rows = np.empty((count, w))
    rows[:, 0::2] = radius * np.cos(angle)
    rows[:, 1::2] = radius * np.sin(angle)
    return rows[:, :r]


def _quadform(Xi: np.ndarray, a: np.ndarray) -> np.ndarray:
    """xi* a xi for every row xi of Xi; a is Hermitian (symmetric for real rows)."""
    if np.iscomplexobj(Xi):
        # the rows of Xi a^T are a xi, and Re conj(xi) . (a xi) is a real dot
        # over the float64 views
        return np.einsum("si,si->s", (Xi @ a.T).view(np.float64), Xi.view(np.float64))
    return np.einsum("si,si->s", Xi @ a, Xi)


@dataclass(frozen=True)
class _Draws:
    """What the sampler kept: the best rescaled point and the sample counts."""

    best_objective: float = math.nan
    best_x: np.ndarray | None = None
    feasible: int = 0
    discarded: int = 0
    joint: int = 0


def _sample(
    inst: QcqpInstance,
    F: np.ndarray,
    p: RoundingParams,
    joint_event: Callable[[np.ndarray, np.ndarray], np.ndarray],
    signs: bool = False,
) -> _Draws:
    """Draw p.num_samples points xi = F d and keep the best rescaled one.

    d is a +-1 vector when signs is set, else standard Gaussian: for a
    complex instance d is complex, with variance one half in each real
    coordinate.  The denominator is min_k xi*A_k xi for minimization and
    max_k for maximization; a sample with a nonpositive denominator is discarded,
    otherwise xi / sqrt(denominator) is a feasible point with objective
    xi*C xi / denominator.  joint_event(denominator, xi*C xi) marks the
    samples inside the scheme's fixed-threshold joint event.
    """
    if F.shape[1] == 0:
        # every point is zero, so every denominator is
        return _Draws(discarded=p.num_samples)
    r = F.shape[1]
    complex_draw = inst.field == COMPLEX and not signs
    scale = None if signs else (math.sqrt(0.5) if complex_draw else 1.0)
    obj_mat, cons_mats = inst.field_view
    sign = 1.0 if inst.sense == MINIMIZE else -1.0
    best = math.inf  # sign * objective, smaller is better
    best_x = None
    feasible = joint = 0
    for start in range(0, p.num_samples, _SAMPLE_CHUNK):
        count = min(_SAMPLE_CHUNK, p.num_samples - start)
        if complex_draw:
            rows = _draw_rows(p.seed, start, count, 2 * r, scale)
            d = np.empty((count, r), complex)
            d.real, d.imag = rows[:, :r], rows[:, r:]
            Xi = d @ F.T
        else:
            Xi = _draw_rows(p.seed, start, count, r, scale) @ F.T
        vals = np.stack([_quadform(Xi, a) for a in cons_mats], axis=1)
        dens = vals.min(axis=1) if sign > 0 else vals.max(axis=1)
        raw = _quadform(Xi, obj_mat)
        joint += int(np.count_nonzero(joint_event(dens, raw)))
        ok = np.flatnonzero(dens > 0.0)
        feasible += ok.size
        if ok.size:
            keys = sign * (raw[ok] / dens[ok])
            j = int(np.argmin(keys))
            if keys[j] < best:
                best = float(keys[j])
                best_x = Xi[ok[j]] / math.sqrt(dens[ok[j]])
    return _Draws(sign * best, best_x, feasible, p.num_samples - feasible, joint)


def bound_certificate_min(m: int, field: str) -> float:
    """Worst-case min-form ratio: 1e6 m^2/pi real, 2400 m complex (1 for m <= 3)."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if field == COMPLEX:
        return 1.0 if m <= 3 else 2400.0 * m
    return 1.0e6 * m * m / math.pi


def per_constraint_tail_bound(gamma: float, r: int, field: str) -> float:
    """Bound on P{xi*A xi < gamma E(xi*A xi)} for one PSD constraint at rank r."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    if not isinstance(r, int) or r < 1:
        raise ValueError("r must be a positive integer")
    if field == COMPLEX:
        return max(4.0 * gamma / 3.0, 16.0 * (r - 1) ** 2 * gamma * gamma)
    return max(math.sqrt(gamma), 2.0 * (r - 1) * gamma / (math.pi - 2.0))


def sign_union_tail(m: int, mu: float, alpha: float) -> float:
    """Bound on P{max over PSD constraints of a sign-vector form > alpha}: 2 m mu e^(-alpha/2)."""
    if m < 0 or mu <= 0 or alpha <= 0:
        raise ValueError("need m >= 0, mu > 0, alpha > 0")
    return 2.0 * m * mu * math.exp(-alpha / 2.0)


def bound_certificate_max(inst: QcqpInstance, X_hat: SymMatrix | HermMatrix) -> dict:
    """Data-dependent max-form ratio certificate.

    Splits constraints into definite (D) and indefinite (I) by tag, measures
    s_k = ||A_k X_hat||_F, and evaluates

        alpha = 1 + max{ c0 + c1 log|D|,
                         min{ (c0 + c1 log|I|) max_I s_k, sqrt(c2 sum_I s_k^2) } }

    with (c0, c1, c2) = (20, 8, 200) real and (15, 4, 40) complex; an empty
    class drops its term from the max.  The ratio bound equals the chosen
    alpha.  per_constraint holds each constraint's exponential and Chebyshev
    tail bounds at that alpha, and success_floor is the union-bound lower
    estimate for the joint event probability.
    """
    if inst.field == COMPLEX:
        c0, c1, c2 = 15.0, 4.0, 40.0
        exp_div, cheb_mult, floor = 4.0, 1.0, 0.05
    else:
        c0, c1, c2 = 20.0, 8.0, 200.0
        exp_div, cheb_mult, floor = 8.0, 2.0, 0.03

    X = X_hat.a
    tags = inst.tags
    indef = set(inst.indefinite_indices)
    norms = [float(np.linalg.norm(A @ X)) for A in inst.field_view.A]

    terms = []
    n_def = len(inst.constraints) - len(indef)
    if n_def >= 1:
        terms.append(c0 + c1 * math.log(n_def))
    if indef:
        max_norm = max(norms[k] for k in indef)
        sum_sq = sum(norms[k] ** 2 for k in indef)
        terms.append(min((c0 + c1 * math.log(len(indef))) * max_norm, math.sqrt(c2 * sum_sq)))
    alpha = 1.0 + max(terms)

    per_constraint = []
    slack = alpha - 1.0
    for k, s in enumerate(norms):
        if s <= 1e-300:
            exp_tail = 0.0
            cheb_tail = 0.0
        else:
            exp_tail = math.exp(-min(slack / s, 1.0) * slack / (exp_div * s))
            cheb_tail = cheb_mult * s * s / (slack * slack)
        is_indef = k in indef
        per_constraint.append(
            {
                "index": k,
                "tag": tags[k],
                "frob_norm": s,
                "exp_tail": exp_tail,
                "chebyshev_tail": cheb_tail,
                "tail_bound": min(exp_tail, cheb_tail) if is_indef else exp_tail,
            }
        )
    success_floor = floor - sum(d["tail_bound"] for d in per_constraint)
    return {
        "alpha": alpha,
        "bound": alpha,
        "per_constraint": tuple(per_constraint),
        "success_floor": success_floor,
    }


def _ratio_min(best: float, v_sdp: float) -> float:
    if abs(v_sdp) <= _ZERO_TOL:
        return math.inf if best > _ZERO_TOL else 1.0
    return best / v_sdp


def _ratio_max(best: float, v_sdp: float) -> float:
    if abs(best) <= _ZERO_TOL:
        return math.inf if v_sdp > _ZERO_TOL else 1.0
    return v_sdp / best


def _report(
    scheme: str,
    seed: int,
    num_samples: int,
    sense: str,
    v_sdp: float,
    bound: float,
    claimed: bool,
    warn: bool,
    draws: _Draws,
    message: str = "every sample had a nonpositive rescaling denominator",
    cert_slack: float = _CERT_SLACK,
) -> RoundingReport:
    """The one constructor of RoundingReport; it stores plain Python scalars.

    The run failed when draws holds no point, and message then says why.
    The certificate holds when a claimed bound covers the ratio up to
    cert_slack (relative and absolute).
    """
    v_sdp, bound = float(v_sdp), float(bound)
    failed = draws.best_x is None
    if failed:
        best = ratio = math.nan
    else:
        best = float(draws.best_objective)
        ratio = float((_ratio_min if sense == MINIMIZE else _ratio_max)(best, v_sdp))
    return RoundingReport(
        scheme=scheme,
        seed=seed,
        num_samples=num_samples,
        best_x=None if failed else real_point(draws.best_x),
        best_objective=best,
        v_sdp=v_sdp,
        empirical_ratio=ratio,
        samples_feasible=draws.feasible,
        samples_discarded=draws.discarded,
        joint_event_count=draws.joint,
        theoretical_bound=bound,
        certificate_satisfied=bool(claimed and ratio <= bound * (1.0 + cert_slack) + cert_slack),
        bound_is_claimed=bool(claimed),
        multi_indefinite_warning=bool(warn),
        failed=failed,
        message=message if failed else "",
    )


def gaussian_round_min(
    inst: QcqpInstance, lowrank: LowRankSolution, p: RoundingParams
) -> RoundingReport:
    """Round a minimization solution by Gaussian sampling from X_reduced.

    Each sample xi with min_k xi*A_k xi > 0 rescales to x = xi / sqrt(min_k),
    making its smallest constraint value exactly 1.  The joint event
    {min_k xi*A_k xi >= gamma, xi*C xi <= mu v_sdp} is counted at the cited
    gamma = pi/(1e4 m^2), mu = 100 (real) or gamma = 1/(40 m), mu = 60
    (complex).  With more than one indefinite constraint no worst-case bound
    exists and the report says so; with a single constraint the reduced
    solution is rank one and the bound is exactly 1.  A complex instance
    claims 2400 m for every m: bound_certificate_min's 1 for m <= 3 is the
    relaxation's gap, which only complex_exact_extraction attains.
    """
    if inst.sense != MINIMIZE:
        raise ValueError("gaussian_round_min needs a minimization instance")
    if p.scheme != GAUSSIAN_MIN:
        raise ValueError(f"params.scheme is {p.scheme!r}, expected {GAUSSIAN_MIN!r}")
    complex_field = inst.field == COMPLEX
    v_sdp = lowrank.objective_value
    m = inst.m
    warn = len(inst.indefinite_indices) > 1
    if warn:
        bound = math.inf
    elif m == 0:
        bound = 1.0
    else:
        bound = 2400.0 * m if complex_field else bound_certificate_min(m, inst.field)

    if m == 0:
        gamma = 1.0
    elif complex_field:
        gamma = 1.0 / (40.0 * m)
    else:
        gamma = math.pi / (1.0e4 * m * m)
    mu = 60.0 if complex_field else 100.0

    draws = _sample(inst, lowrank.U, p,
                    lambda dens, raw: (dens >= gamma) & (raw <= mu * v_sdp))
    return _report(p.scheme, p.seed, p.num_samples, inst.sense, v_sdp, bound, not warn, warn, draws)


def effective_rank(A: np.ndarray, U: np.ndarray) -> int:
    """max_k rank(A_k U U*) for a stack A of constraints and a full-column-rank factor U.

    rank(A_k U U*) = rank(A_k U), so this is one stacked product and one
    stacked singular-value call.  A singular value counts when it exceeds
    lowrank.RANK_TOL times the largest one of the same product, the
    cut-off the rank reduction uses, so round-off in U moves no rank.
    """
    sv = np.linalg.svd(A @ U, compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[:, :1], axis=1).max(initial=0))


def sign_round_max(inst: QcqpInstance, lowrank: LowRankSolution, p: RoundingParams) -> RoundingReport:
    """Round a real maximization solution with +-1 vectors through U Q.

    Q diagonalizes U^T C U, so every sign vector carries the full objective
    value Tr(C X_hat) and only the rescaling denominator max_k xi^T A_k xi
    varies.  Denominators that are not positive are discarded with a counter
    (they signal a violated positivity assumption).  The claimed bound is
    alpha = 2 log(174 m mu_eff) with mu_eff = min{m, max_k rank(A_k X_hat)}
    (see effective_rank), provided at most one constraint is indefinite;
    the joint event counts samples with denominator at most alpha.  Without a positive definite
    constraint aggregate (slater_check) the report is a failed one and no
    sample is drawn.
    """
    if inst.sense != MAXIMIZE:
        raise ValueError("sign_round_max needs a maximization instance")
    if p.scheme != SIGN_MAX:
        raise ValueError(f"params.scheme is {p.scheme!r}, expected {SIGN_MAX!r}")
    if inst.field == COMPLEX:
        raise ValueError("sign rounding is defined for real instances")
    if not slater_check(inst).dual_slater:
        return _report(p.scheme, p.seed, p.num_samples, inst.sense, lowrank.objective_value,
                       math.inf, False, False, _Draws(), _NO_AGGREGATE)

    U = lowrank.U
    m = inst.m
    warn = len(inst.indefinite_indices) > 1
    mu_eff = max(1, min(m, effective_rank(inst.field_view.A, U)))
    alpha = 2.0 * math.log(174.0 * max(1, m) * mu_eff)
    if warn:
        bound = math.inf
    else:
        bound = 1.0 if m == 0 else alpha

    Q = sym_eig(U.T @ inst.objective.a @ U).vectors
    draws = _sample(inst, U @ Q, p, lambda dens, raw: dens <= alpha, signs=True)
    return _report(p.scheme, p.seed, p.num_samples, inst.sense, lowrank.objective_value,
                   bound, not warn, warn, draws)


def gaussian_round_max(inst: QcqpInstance, sol: SdpSolution, p: RoundingParams) -> RoundingReport:
    """Round a maximization solution by Gaussian sampling from the full X_hat.

    Works with any number of indefinite constraints; the claimed bound is the
    data-dependent certificate of bound_certificate_max.  The joint event
    counts samples with max_k xi*A_k xi <= alpha and xi*C xi >= v_sdp.  As
    in sign_round_max, no positive definite constraint aggregate gives a
    failed report.
    """
    if inst.sense != MAXIMIZE:
        raise ValueError("gaussian_round_max needs a maximization instance")
    if p.scheme != GAUSSIAN_MAX:
        raise ValueError(f"params.scheme is {p.scheme!r}, expected {GAUSSIAN_MAX!r}")
    if sol.status != OPTIMAL:
        raise ValueError("gaussian_round_max needs an Optimal solution")
    if not slater_check(inst).dual_slater:
        return _report(p.scheme, p.seed, p.num_samples, inst.sense, sol.objective_value,
                       math.inf, False, False, _Draws(), _NO_AGGREGATE)

    alpha = bound_certificate_max(inst, sol.X)["alpha"]
    v_sdp = sol.objective_value
    F = factorize(sol.X)
    draws = _sample(inst, F, p, lambda dens, raw: (dens <= alpha) & (raw >= v_sdp))
    return _report(p.scheme, p.seed, p.num_samples, inst.sense, v_sdp, alpha, True, False, draws)


def _lorentz_row(H: np.ndarray) -> tuple[float, np.ndarray]:
    """Trace pairing of a 2x2 Hermitian H against W, in Lorentz coordinates.

    W = [[t + x1, x2 + i x3], [x2 - i x3, t - x1]] is PSD exactly when
    t >= ||x||, rank one exactly on the boundary t = ||x||, and
    Tr(H W) = f_t * t + f_x . x with the coefficients returned here.
    """
    f_t = float(H[0, 0].real + H[1, 1].real)
    f_x = np.array([H[0, 0].real - H[1, 1].real, 2.0 * H[0, 1].real, 2.0 * H[0, 1].imag])
    return f_t, f_x


def _sphere_grid(t_lo, t_hi, p_lo, p_hi, n_t, n_p):
    theta = np.linspace(t_lo, t_hi, n_t)
    phi = np.linspace(p_lo, p_hi, n_p)
    T, P = np.meshgrid(theta, phi, indexing="ij")
    U = np.stack([np.cos(T), np.sin(T) * np.cos(P), np.sin(T) * np.sin(P)])
    return T, P, U.reshape(3, -1)


def _rank_one_on_face(C_hat: np.ndarray, A_hats: list, v: float):
    """Rank-one W = w w* with Tr(C_hat W) = v and Tr(A_hat_k W) >= 1, or None.

    Rank-one PSD 2x2 matrices are the rays s (1, u) of the Lorentz-cone
    boundary, u on the unit sphere.  Fixing the objective pins s = v / den(u),
    so the search is two-dimensional: maximize the smallest constraint value
    over the sphere by a zooming grid.
    """
    c_t, c_x = _lorentz_row(C_hat)
    rows = [_lorentz_row(A) for A in A_hats]

    if abs(v) <= _ZERO_TOL:
        # objective value zero with C_hat PSD: w must lie in the kernel
        lam, vec = np.linalg.eigh(C_hat)
        for idx in range(len(lam)):
            if abs(lam[idx]) > 1e-9 * max(1.0, abs(lam[-1])):
                continue
            w = vec[:, idx]
            vals = [float(np.real(np.conj(w) @ A @ w)) for A in A_hats]
            if min(vals) > 1e-12:
                return w / math.sqrt(min(vals))
        return None
    if v < 0.0:
        return None

    def score(U):
        den = c_t + c_x @ U
        vals = np.stack([v * (a_t + a_x @ U) / np.where(den > 1e-14, den, np.nan) for a_t, a_x in rows])
        s = np.nanmin(vals, axis=0)
        s[~(den > 1e-14)] = -np.inf
        return np.where(np.isnan(s), -np.inf, s)

    t_lo, t_hi, p_lo, p_hi = 0.0, math.pi, 0.0, 2.0 * math.pi
    n_t, n_p = 384, 768
    best = None
    for level in range(6):
        T, P, U = _sphere_grid(t_lo, t_hi, p_lo, p_hi, n_t, n_p)
        s = score(U)
        k = int(np.argmax(s))
        if not math.isfinite(s[k]):
            return None
        best = (float(T.ravel()[k]), float(P.ravel()[k]), float(s[k]))
        span_t = (t_hi - t_lo) / n_t * 4.0
        span_p = (p_hi - p_lo) / n_p * 4.0
        t_lo, t_hi = best[0] - span_t, best[0] + span_t
        p_lo, p_hi = best[1] - span_p, best[1] + span_p
        n_t = n_p = 64
    theta, phi, val = best
    if val < 1.0 - 1e-7:
        return None
    u = np.array([math.cos(theta), math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)])
    s_ray = v / (c_t + c_x @ u)
    W = s_ray * np.array(
        [[1.0 + u[0], u[1] + 1j * u[2]], [u[1] - 1j * u[2], 1.0 - u[0]]]
    )
    lam, vec = np.linalg.eigh(W)
    if lam[-1] <= 0.0:
        return None
    return math.sqrt(lam[-1]) * vec[:, -1]


def complex_exact_extraction(inst: QcqpInstance, lowrank: LowRankSolution) -> RoundingReport:
    """Extract a feasible point matching v_sdp for complex minimization, m <= 3.

    With at most four constraints the relaxation is tight: after rank
    reduction r <= 2, and a rank-one optimal point exists.  r = 1 reads the
    factor directly; r = 2 searches the rank-one boundary of the 2x2 optimal
    face.  Returns a report whose ratio is 1 up to numerical tolerance, or a
    flagged failure when no point is found.
    """
    if inst.field != COMPLEX or inst.sense != MINIMIZE:
        raise ValueError("exact extraction applies to complex minimization instances")
    if inst.m > 3:
        raise ValueError("exact extraction applies to instances with m <= 3")
    v_sdp = lowrank.objective_value
    r = lowrank.r

    def finish(x_c: np.ndarray | None, message: str) -> RoundingReport:
        draws = _Draws()
        if x_c is not None:
            min_val = float(constraint_values(inst, x_c).min())
            if min_val > 0.0:
                x = x_c / math.sqrt(min_val) if min_val < 1.0 else x_c
                draws = _Draws(objective_value(inst, x), x, feasible=1)
        return _report("ComplexExact", 0, 0, MINIMIZE, v_sdp, 1.0, True, False, draws,
                       message, cert_slack=_EXACT_SLACK)

    if r == 1:
        return finish(lowrank.U[:, 0], "rank-one factor is not feasible")
    if r == 2:
        U = lowrank.U
        C, mats = inst.field_view
        C_hat = np.conj(U.T) @ C @ U
        A_hats = [np.conj(U.T) @ A @ U for A in mats]
        w = _rank_one_on_face(C_hat, A_hats, v_sdp)
        if w is None:
            return finish(None, "no rank-one point found on the optimal face")
        return finish(U @ w, "rank-one point is not feasible")
    return finish(None, f"factor rank {r} exceeds 2")


def round_solution(
    inst: QcqpInstance, sol: SdpSolution, p: RoundingParams, exact_first: bool = False
) -> RoundingReport:
    """Round an Optimal relaxation with the scheme p.scheme names.

    GaussianMin and SignMax round the rank-reduced solution, GaussianMax the
    full one.  With exact_first, a complex minimization with m <= 3 tries
    complex_exact_extraction first and falls back to Gaussian sampling when
    it finds no point.
    """
    if p.scheme == GAUSSIAN_MIN:
        low = reduce_rank(sol, inst)
        if exact_first and inst.field == COMPLEX and inst.m <= 3:
            report = complex_exact_extraction(inst, low)
            if not report.failed:
                return report
        return gaussian_round_min(inst, low, p)
    if p.scheme == GAUSSIAN_MAX:
        return gaussian_round_max(inst, sol, p)
    return sign_round_max(inst, reduce_rank(sol, inst), p)
