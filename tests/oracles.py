"""Reference computations that only the tests call.

Each one checks the package from outside the program's pipeline: a grid
search for the true optimum of a small real instance, a scan of the
exponential favorable-side probability over weight grids, the moment-ratio
asymmetry bound, two more routes to the sign family's fourth moment, a
plain Monte Carlo count of a weighted form's tail and the favorable-side
probability of one weight vector by it, two tail bounds of the rounding
arguments, and one sweep task run by itself.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from hqopt.experiment import ExperimentConfig, ExperimentRecord, _run_tasks
from hqopt.probability import (
    CHI2_ASYM_BOUND,
    EXP_ASYM_BOUND,
    SHARPENED_COEFF,
    _as_upper_weights,
    _as_weights,
    _check_seed,
    _closed_form_batch,
)
from hqopt.sdp import COMPLEX, MAXIMIZE, REAL, QcqpInstance

_SCAN_CHUNK = 1 << 16  # weight vectors per closed-form batch; values do not depend on it
_MC_CHUNK = 1 << 16  # Monte Carlo samples per draw; counts do not depend on it
_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# ---------------------------------------------------------------------------
# grid oracle for the true optimum


@dataclass(frozen=True)
class BruteGrid:
    """Search box and resolution for the grid oracle."""

    radius: float = 6.0
    points: int = 41
    refine_rounds: int = 8
    direction_count: int = 4096
    starts: int = 8

    def __post_init__(self) -> None:
        if self.radius <= 0 or self.points < 5 or self.refine_rounds < 0 or self.starts < 1:
            raise ValueError("need radius > 0, points >= 5, refine_rounds >= 0, starts >= 1")


def _direction_grid(n: int, count: int) -> np.ndarray:
    if n == 1:
        return np.array([[1.0], [-1.0]])
    if n == 2:
        angles = np.linspace(0.0, 2.0 * math.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # Fibonacci sphere
    i = np.arange(count) + 0.5
    phi = math.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _quad_batch(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    return np.einsum("pi,ij,pj->p", P, A, P)


def brute_force_qcqp(inst: QcqpInstance, grid: BruteGrid | None = None) -> float:
    """Grid-with-refinement oracle for the true optimum of a small instance.

    Only real instances with n <= 3 are supported.  Returns +-inf when a
    feasible ray makes the objective unbounded (radial growth test), raises
    when no grid point is feasible at the final resolution.
    """
    if inst.field != REAL:
        raise ValueError("the grid oracle supports real instances only")
    n = inst.n
    if n > 3:
        raise ValueError("the grid oracle supports n <= 3 only")
    g = grid or BruteGrid()
    C, As = inst.field_view
    maximize = inst.sense == MAXIMIZE

    dirs = _direction_grid(n, g.direction_count)
    cons_dir = np.stack([_quad_batch(A, dirs) for A in As])
    obj_dir = _quad_batch(C, dirs)
    if maximize:
        ray = (cons_dir.max(axis=0) <= 1e-12) & (obj_dir >= 1e-9)
        if bool(ray.any()):
            return math.inf
    else:
        ray = (cons_dir.min(axis=0) >= 1e-9) & (obj_dir <= -1e-9)
        if bool(ray.any()):
            return -math.inf

    def scan(center: np.ndarray, half: float):
        axes = [np.linspace(center[i] - half, center[i] + half, g.points) for i in range(n)]
        mesh = np.meshgrid(*axes, indexing="ij")
        P = np.stack([m.ravel() for m in mesh], axis=1)
        vals = np.stack([_quad_batch(A, P) for A in As])
        feas = (vals.max(axis=0) <= 1.0) if maximize else (vals.min(axis=0) >= 1.0)
        if not bool(feas.any()):
            return None, None
        obj = _quad_batch(C, P)
        obj = np.where(feas, obj, -math.inf if maximize else math.inf)
        order = np.argsort(-obj if maximize else obj)
        return P[order], obj[order]

    def refine(point: np.ndarray, start_half: float, start_val: float) -> float:
        # pan at constant width while the optimum sits on the box edge (a
        # coarse start may land far from its basin); shrink once interior
        best_val = start_val
        half = start_half
        shrinks = 0
        pans = 0
        while shrinks < g.refine_rounds:
            ranked, vals = scan(point, half)
            if ranked is None:
                break
            val_new = float(vals[0])
            better = val_new > best_val if maximize else val_new < best_val
            if better:
                best_val = val_new
            step = 2.0 * half / (g.points - 1)
            on_edge = bool(np.any(np.abs(ranked[0] - point) >= half - 1.5 * step))
            point = ranked[0]
            if on_edge and pans < 32:
                pans += 1
                continue
            half = 4.0 * half / (g.points - 1)
            shrinks += 1
        return best_val

    center = np.zeros(n)
    half = g.radius
    ranked = None
    for attempt in range(4):
        ranked, vals = scan(center, half)
        if ranked is not None:
            break
        half *= 2.0
    if ranked is None:
        raise ValueError("no feasible grid point found; widen the search box")

    # refine from several spatially separated starts: distinct local basins
    # can differ and the global grid alone cannot tell which one wins
    spacing = 2.0 * half / (g.points - 1)
    starts = []
    for idx in range(len(ranked)):
        if not math.isfinite(vals[idx]):
            break
        p = ranked[idx]
        if all(float(np.max(np.abs(p - q))) > 2.0 * spacing for q, _ in starts):
            starts.append((p, float(vals[idx])))
        if len(starts) >= g.starts:
            break
    best = -math.inf if maximize else math.inf
    for p, v in starts:
        out = refine(p, 4.0 * half / (g.points - 1), v)
        best = max(best, out) if maximize else min(best, out)
    return best


# ---------------------------------------------------------------------------
# asymmetry bounds and moments


def asym_bound_moment(t: float, tau: float) -> float:
    """Moment-ratio lower bound on P{Phi >= 0} for zero-mean unit-variance Phi.

    tau bounds the normalized t-th absolute moment E|Phi|^t.  Generic
    exponent: 0.25*tau^(-2/(t-2)).  At t = 4 the sharper constant
    (2*sqrt(3)-3)/tau applies and is returned instead.
    """
    if t <= 2.0:
        raise ValueError(f"moment exponent must exceed 2, got {t}")
    if tau < 1.0:
        raise ValueError(f"tau must be >= 1 (Jensen), got {tau}")
    if t == 4.0:
        return SHARPENED_COEFF / tau
    return 0.25 * tau ** (-2.0 / (t - 2.0))


def bernoulli_moment4_loop(w) -> float:
    """bernoulli_moment4 as one Python loop over the index quadruples i<j<k<l."""
    arr = _as_upper_weights(w)
    n = arr.shape[0]
    v = arr[np.triu_indices(n, k=1)]
    s2 = float(np.sum(v**2))
    s4 = float(np.sum(v**4))
    cyc = 0.0
    for i, j, k, l in combinations(range(n), 4):
        cyc += arr[i, j] * arr[j, k] * arr[k, l] * arr[i, l]
        cyc += arr[i, j] * arr[j, l] * arr[k, l] * arr[i, k]
        cyc += arr[i, k] * arr[j, k] * arr[j, l] * arr[i, l]
    return s4 + 3.0 * (s2 * s2 - s4) + 24.0 * cyc


def bernoulli_moment4_trace(w) -> float:
    """bernoulli_moment4 by an independent route: traces of the hollow symmetrization.

    With W = w + w^T, Psi = xi^T W xi / 2, and the moments of xi^T W xi
    are power sums of W.
    """
    arr = _as_upper_weights(w)
    wm = arr + arr.T
    fro2 = float(np.sum(wm**2))
    p4 = float(np.sum(wm**4))
    w2 = wm @ wm
    d = np.diag(w2)
    full = (12.0 * fro2 * fro2 + 32.0 * p4
            + 48.0 * float(np.trace(w2 @ w2)) - 96.0 * float(np.sum(d**2)))
    return full / 16.0


# ---------------------------------------------------------------------------
# exponential favorable-side probability scan


class VerificationError(RuntimeError):
    """The scan found a value outside the conjectured interval."""


def erlang_tail_at_mean(n: int) -> float:
    """P{Gamma(n,1) >= n}: the equal-weights limit of the closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    acc = 0.0
    term = 1.0
    for k in range(n):
        if k > 0:
            term *= n / k
        acc += term
    return math.exp(-n) * acc


def exp_asymmetry_scan(n: int, resolution: float = 1e-3, *,
                       mixed_resolution: float | None = None,
                       mixed_samples: int = 100_000, seed: int = 0) -> dict:
    """Scan the exponential favorable-side probability over weight grids.

    Positive weights on the sum-1 simplex are evaluated with the exact
    closed form (grid step = resolution; near-coincident points replaced
    by the exact equal-weights value).  Mixed-sign weights with positive
    sum are covered by a coarser plain Monte Carlo sweep, since the closed
    form is restricted to positive weights.  Raises VerificationError when
    the minimum drops below 1/e beyond the stated tolerances; the
    conjecture this checks is that the value stays inside (1/e, (e-1)/e).
    """
    if n not in (2, 3):
        raise ValueError("scan supports n = 2 and n = 3 only")
    if not 0.0 < resolution <= 0.25:
        raise ValueError("resolution must lie in (0, 0.25]")
    if mixed_resolution is None:
        # the Monte Carlo sweep is the expensive part; keep its grid
        # coarse enough that the two-dimensional case stays interactive
        mixed_resolution = 0.05 if n == 2 else 0.25
    _check_seed(seed)
    rng = np.random.default_rng(np.random.PCG64(seed))

    points = _simplex_grid(n, resolution)
    gaps = np.min(np.abs(points[:, :, None] - points[:, None, :])
                  + np.eye(n) * 2.0, axis=(1, 2))
    distinct = points[gaps >= 1e-6]
    values = np.empty(distinct.shape[0])
    for start in range(0, distinct.shape[0], _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, distinct.shape[0])
        values[start:stop] = _closed_form_batch(distinct[start:stop])
    equal_value = erlang_tail_at_mean(n)
    idx = int(np.argmin(values)) if values.size else -1
    if idx >= 0 and values[idx] < equal_value:
        min_found, argmin = float(values[idx]), tuple(float(x) for x in distinct[idx])
    else:
        min_found, argmin = equal_value, tuple([1.0 / n] * n)
    max_found = float(np.max(values, initial=equal_value))

    mixed_min, mixed_argmin, mixed_radius = _mixed_sign_scan(
        n, mixed_resolution, mixed_samples, rng)

    floor = 1.0 / math.e
    ceiling = (math.e - 1.0) / math.e
    tolerance = resolution
    mixed_tolerance = 3.0 * mixed_radius + mixed_resolution
    result = {
        "n": n,
        "min_found": min_found,
        "argmin": argmin,
        "max_found": max_found,
        "equal_weights_value": equal_value,
        "grid_points": int(distinct.shape[0]),
        "tolerance": tolerance,
        "mixed_min": mixed_min,
        "mixed_argmin": mixed_argmin,
        "mixed_radius": mixed_radius,
        "mixed_tolerance": mixed_tolerance,
    }
    if min_found <= floor - tolerance or max_found >= ceiling + tolerance:
        raise VerificationError(
            f"positive-weight scan escaped (1/e, (e-1)/e): min {min_found}, "
            f"max {max_found}")
    if mixed_min <= floor - mixed_tolerance:
        raise VerificationError(
            f"mixed-sign scan dipped below 1/e beyond tolerance: {mixed_min}")
    return result


def _simplex_grid(n: int, resolution: float) -> np.ndarray:
    steps = int(round(1.0 / resolution))
    if n == 2:
        a = np.arange(1, steps) / steps
        return np.column_stack([a, 1.0 - a])
    a = np.arange(1, steps) / steps
    aa, bb = np.meshgrid(a, a, indexing="ij")
    mask = aa + bb < 1.0 - 0.5 / steps
    aa, bb = aa[mask], bb[mask]
    return np.column_stack([aa, bb, 1.0 - aa - bb])


def _mixed_sign_scan(n: int, resolution: float, samples: int,
                     rng: np.random.Generator) -> tuple[float, tuple, float]:
    # Weight vectors with at least one negative entry, normalized to sum
    # 1 (the probability only allows positive rescaling).  Coordinates
    # range over [-2, 3]; the minimum sits near the one-dominant-weight
    # boundary, where the value approaches 1/e from above.
    span = np.arange(-2.0, 3.0 + resolution / 2, resolution)
    if n == 2:
        grid = np.column_stack([span, 1.0 - span])
    else:
        aa, bb = np.meshgrid(span, span, indexing="ij")
        grid = np.column_stack([aa.ravel(), bb.ravel(), 1.0 - aa.ravel() - bb.ravel()])
    keep = np.all(np.abs(grid) > 1e-9, axis=1) & np.any(grid < 0.0, axis=1)
    grid = grid[keep]
    best = (1.0, tuple([1.0 / n] * n))
    worst_radius = 0.0
    for row in grid:
        hits = monte_carlo_hits("Exp", row, float(np.sum(row)), samples, int(rng.integers(2**63)))
        est = hits / samples
        if est < best[0]:
            best = (est, tuple(float(x) for x in row))
            worst_radius = _wilson_radius(hits, samples)
    return best[0], best[1], worst_radius


# ---------------------------------------------------------------------------
# plain Monte Carlo


def monte_carlo_hits(kind: str, weights, x: float, samples: int, seed: int) -> int:
    """How many of samples draws of sum_j w_j*Y_j exceed x, independently of form_tail.

    Y_j are squared standard normals for "ChiSq" and unit exponentials for
    "Exp", all drawn from one PCG64 generator seeded with seed.
    """
    w = np.asarray(weights, dtype=float)
    gen = np.random.default_rng(np.random.PCG64(seed))
    hits = 0
    for start in range(0, samples, _MC_CHUNK):
        shape = (min(_MC_CHUNK, samples - start), w.size)
        y = gen.standard_normal(shape) ** 2 if kind == "ChiSq" else gen.standard_exponential(shape)
        hits += int(np.count_nonzero(y @ w > x))
    return hits


def _wilson_radius(successes: int, total: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    z2 = _Z95 * _Z95
    p = successes / total
    spread = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total))
    return spread / (1.0 + z2 / total)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A favorable-side frequency with its 95% Wilson radius and its analytic floor."""

    lemma_id: str
    analytic_lower_bound: float
    estimate: float
    confidence_radius: float
    samples: int


# family -> the lemma id and proven floor of its favorable-side probability
_FAMILIES = {"ChiSq": ("L3_1", CHI2_ASYM_BOUND), "Exp": ("L3_4", EXP_ASYM_BOUND)}


def asym_prob(kind: str, weights, samples: int = 1_000_000, seed: int = 0) -> MonteCarloEstimate:
    """Estimate P{Psi >= 0} for one 1-D weight vector by plain Monte Carlo.

    kind selects the family, "ChiSq" or "Exp"; the analytic_lower_bound
    field carries its proven constant, 3/100 or 1/20.  The sign family is
    exact: see probability.exhaustive_sign_prob.
    """
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family {kind!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_seed(seed)
    taus = _as_weights(weights)
    if not np.any(taus):
        raise ValueError("degenerate all-zero weights")
    lemma_id, bound = _FAMILIES[kind]
    # P{Psi >= 0} = P{sum tau_i*Y_i > sum tau_i}: the weights are not all zero, so there is no atom
    hits = monte_carlo_hits(kind, taus, float(np.sum(taus)), samples, seed)
    return MonteCarloEstimate(lemma_id, bound, hits / samples, _wilson_radius(hits, samples), samples)


# ---------------------------------------------------------------------------
# tail bounds of the rounding arguments


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


# ---------------------------------------------------------------------------
# one sweep task


def run_single(config: ExperimentConfig, case: str, case_index: int, m: int, index: int) -> ExperimentRecord:
    """Generate, solve, and round one sweep instance; failures stay in-row."""
    return _run_tasks(config, [(case, case_index, m, index)])[0]
