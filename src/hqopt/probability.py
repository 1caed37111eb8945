"""Asymmetry probabilities, moment identities, and tail bounds for random quadratic forms.

Three weighted-form families recur throughout the package:

* ``ChiSq``: Psi = sum_i tau_i*(eta_i^2 - 1), eta_i i.i.d. standard normal;
* ``Exp``:   Psi = sum_i tau_i*(eta_i - 1), eta_i i.i.d. unit-rate exponential;
* ``Bernoulli``: Psi = sum_{i<j} w_ij*xi_i*xi_j, xi_i i.i.d. uniform signs.

Each family carries an exact fourth-moment identity, an analytic lower
bound on the probability of landing on the favorable side of zero, and
estimators that verify those bounds numerically: Monte Carlo for ChiSq
and Exp, a closed form for Exp, and exhaustive enumeration for the
signs.  The check registry at the bottom packages the verification runs
behind stable string ids for the CLI.

Every Monte Carlo evaluation has its own seed, one draw of the check's
own generator, which also makes the check's cases.  Its samples are split
into blocks of _MC_BLOCK, and block j is drawn from its own PCG64
generator seeded with SeedSequence(seed, spawn_key=(j,)).  A block's hits
thus depend on the seed, j and the block length only: the count is the
same for any worker count and block order, and the first N samples of an
evaluation are the same for every sample count.

A check first draws all its cases and builds one evaluation per Monte
Carlo count.  All its (evaluation, block) pairs then go into one claim
queue, counted on W = min(CPUs the process may run on
(os.sched_getaffinity), blocks in the queue) threads, the caller working
beside W - 1 threads that it starts and joins before returning; the
generator fills, ufuncs and matrix products release the GIL.  Only then
does the check judge its cases.  A queue of one block, or one CPU, counts
inline and starts no thread; to count serially, pin the process to one
CPU (taskset -c 0).  The output is the same either way.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "AsymmetryResult",
    "CHI2_ASYM_BOUND",
    "CheckOutcome",
    "EXP_ASYM_BOUND",
    "IllConditionedError",
    "LEMMA_IDS",
    "CHECK_IDS",
    "SIGN_ASYM_BOUND",
    "SHARPENED_COEFF",
    "TailBoundParams",
    "bernoulli_moment4",
    "chebyshev_tail",
    "chernoff_tail",
    "chi2_moment4",
    "exhaustive_sign_prob",
    "exp_closed_form",
    "exp_moment4",
    "recip_exp_bound_holds",
    "run_lemma_check",
]

# Analytic lower bounds on the favorable-side probabilities.
CHI2_ASYM_BOUND = 3.0 / 100.0  # P{sum tau_i(eta_i^2-1) >= 0}, tau >= 0
EXP_ASYM_BOUND = 1.0 / 20.0    # P{sum tau_i(eta_i-1) >= 0},  tau >= 0
SIGN_ASYM_BOUND = 1.0 / 87.0   # P{sum_{i<j} w_ij xi_i xi_j <= 0}

# Sharpened fourth-moment asymmetry coefficient: P >= (2*sqrt(3)-3)/tau.
SHARPENED_COEFF = 2.0 * math.sqrt(3.0) - 3.0

LEMMA_IDS = ("L2_1", "L2_2", "L3_1", "L3_2", "L3_4", "L3_5", "L4_1")
CHECK_IDS = LEMMA_IDS + ("L5_1",)

_METHODS = ("Exhaustive", "MonteCarlo")
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
_MC_BLOCK = 1 << 14  # Monte Carlo samples per seeded block
_CHUNK = 1 << 18  # rows per vectorized step of the sign enumeration
_EXHAUSTIVE_CAP = 20  # sign vectors enumerated up to 2^20


class IllConditionedError(ValueError):
    """Closed-form evaluation refused because weights nearly coincide."""


@dataclass(frozen=True)
class AsymmetryResult:
    """One favorable-side probability estimate with its analytic floor."""

    lemma_id: str
    analytic_lower_bound: float
    estimate: float
    confidence_radius: float
    method: str
    samples: int

    def __post_init__(self):
        if self.lemma_id not in LEMMA_IDS:
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError(f"estimate {self.estimate} outside [0,1]")
        if self.confidence_radius < 0.0:
            raise ValueError("confidence radius must be nonnegative")
        if self.method == "Exhaustive" and self.confidence_radius != 0.0:
            raise ValueError("exhaustive estimates are exact")

    def to_dict(self) -> dict:
        return {
            "lemma_id": self.lemma_id,
            "analytic_lower_bound": self.analytic_lower_bound,
            "estimate": self.estimate,
            "confidence_radius": self.confidence_radius,
            "method": self.method,
            "samples": self.samples,
        }


@dataclass(frozen=True)
class TailBoundParams:
    """Inputs of the quadratic-form deviation bound; sigma and delta are read off lambdas."""

    lambdas: tuple
    alpha: float
    field: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.size == 0:
            raise ValueError("lambdas must be nonempty")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.field not in ("Real", "Complex"):
            raise ValueError(f"unknown field {self.field!r}")
        object.__setattr__(self, "lambdas", tuple(float(x) for x in lam))

    @property
    def sigma(self) -> float:
        """The Frobenius norm of the weights, sqrt(sum lam^2)."""
        return float(np.sqrt(np.sum(np.asarray(self.lambdas) ** 2)))

    @property
    def delta(self) -> float:
        """The largest weight, or 0 when none is positive."""
        return float(max(np.max(self.lambdas), 0.0))


# ---------------------------------------------------------------------------
# analytic bound evaluators


def chi2_moment4(taus) -> float:
    """E(sum tau_i(eta_i^2-1))^4 = 48*sum tau^4 + 12*(sum tau^2)^2."""
    t = _as_weights(taus)
    s2 = float(np.sum(t**2))
    return 48.0 * float(np.sum(t**4)) + 12.0 * s2 * s2


def exp_moment4(taus) -> float:
    """E(sum tau_i(eta_i-1))^4 = 6*sum tau^4 + 3*(sum tau^2)^2."""
    t = _as_weights(taus)
    s2 = float(np.sum(t**2))
    return 6.0 * float(np.sum(t**4)) + 3.0 * s2 * s2


def _as_weights(taus) -> np.ndarray:
    t = np.asarray(taus, dtype=float).reshape(-1)
    if t.size == 0:
        raise ValueError("weight vector must be nonempty")
    if not np.all(np.isfinite(t)):
        raise ValueError("weights must be finite")
    return t


def _as_upper_weights(w) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
        raise ValueError("sign weights must form a square matrix, n >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(np.tril(arr) != 0.0):
        raise ValueError("sign weights must be strictly upper triangular")
    return arr


def bernoulli_moment4(w) -> float:
    """Exact fourth moment of Psi = sum_{i<j} w_ij*xi_i*xi_j, xi i.i.d. signs.

    E(Psi^4) = sum w^4 + 6*sum over weight pairs of w^2*w^2 + W, where W
    collects 24 times the three four-cycle products on every index
    quadruple i<j<k<l.
    """
    arr = _as_upper_weights(w)
    n = arr.shape[0]
    iu = np.triu_indices(n, k=1)
    v = arr[iu]
    s2 = float(np.sum(v**2))
    s4 = float(np.sum(v**4))
    total = s4 + 3.0 * (s2 * s2 - s4)
    cyc = 0.0
    for i, j, k, l in combinations(range(n), 4):
        cyc += arr[i, j] * arr[j, k] * arr[k, l] * arr[i, l]
        cyc += arr[i, j] * arr[j, l] * arr[k, l] * arr[i, k]
        cyc += arr[i, k] * arr[j, k] * arr[j, l] * arr[i, l]
    return total + 24.0 * cyc


# ---------------------------------------------------------------------------
# probability estimators


def _wilson_radius(successes: int, total: int) -> float:
    """Half-width of the 95% Wilson score interval."""
    if total <= 0:
        raise ValueError("sample count must be positive")
    z2 = _Z95 * _Z95
    p = successes / total
    spread = _Z95 * math.sqrt(p * (1.0 - p) / total + z2 / (4.0 * total * total))
    return spread / (1.0 + z2 / total)


def exhaustive_sign_prob(w) -> tuple[float, float]:
    """Exact (P{Psi <= 0}, E Psi^4) over all 2^n sign vectors, n <= 20."""
    arr = _as_upper_weights(w)
    n = arr.shape[0]
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration capped at n = {_EXHAUSTIVE_CAP}")
    if not np.any(arr):
        raise ValueError("degenerate all-zero weights")
    wm = arr + arr.T
    total = 1 << n
    count = 0
    m4 = 0.0
    bits = np.arange(n)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = np.arange(start, stop, dtype=np.int64)
        signs = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(float)
        psi = 0.5 * np.einsum("ij,ij->i", signs @ wm, signs)
        count += int(np.count_nonzero(psi <= 0.0))
        m4 += float(np.sum(psi**4))
    return count / total, m4 / total


def _workers(blocks: int) -> int:
    """Threads counting this many blocks, the caller included: at most one per usable CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, blocks)


class _Evaluation(NamedTuple):
    """One Monte Carlo count: draw(gen, k) returns k values sampled from gen, event marks the hits."""

    samples: int
    seed: int
    draw: Callable[[np.random.Generator, int], np.ndarray]
    event: Callable[[np.ndarray], np.ndarray]


def _mc_counts(evaluations: list[_Evaluation]) -> list[int]:
    """The hits of every evaluation, its blocks counted from one claim queue.

    Block j of an evaluation holds its samples [j*_MC_BLOCK, (j+1)*_MC_BLOCK)
    and draws them from its own generator, seeded with
    SeedSequence(seed, spawn_key=(j,)).  The caller and _workers(blocks) - 1
    threads take (evaluation, block) pairs, in order, from one shared
    iterator until it runs out or a block raises; every thread is joined
    before the counts are returned or the first exception re-raised.  One
    worker (one block in the queue, or one CPU) counts inline and starts no
    thread.
    """
    hits = [[0] * -(-ev.samples // _MC_BLOCK) for ev in evaluations]
    claims = iter([(e, j) for e, blocks in enumerate(hits) for j in range(len(blocks))])
    lock = threading.Lock()
    failures = []

    def work() -> None:
        try:
            while True:
                with lock:
                    claim = None if failures else next(claims, None)
                if claim is None:
                    return
                e, j = claim
                samples, seed, draw, event = evaluations[e]
                gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(j,))))
                k = min(_MC_BLOCK, samples - j * _MC_BLOCK)
                hits[e][j] = int(np.count_nonzero(event(draw(gen, k))))
        except BaseException as exc:  # re-raised by the caller, after every join
            failures.append(exc)

    threads = []
    try:
        for _ in range(_workers(sum(map(len, hits))) - 1):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise failures[0]
    return [sum(blocks) for blocks in hits]


# Weighted forms, drawn k at a time: the favorable-side families (centered)
# and the PSD-weighted forms of the quantile and tail checks.  Each squares
# and shifts its k x n draw in place: the bits are those of a new array per
# step, and a block allocates one such array instead of up to three.
def _centered_chi2(gen: np.random.Generator, k: int, taus: np.ndarray) -> np.ndarray:
    g = gen.standard_normal((k, taus.size))
    np.square(g, out=g)
    g -= 1.0
    return g @ taus


def _centered_exp(gen: np.random.Generator, k: int, taus: np.ndarray) -> np.ndarray:
    e = gen.standard_exponential((k, taus.size))
    e -= 1.0
    return e @ taus


def _chi2_form(gen: np.random.Generator, k: int, lam: np.ndarray) -> np.ndarray:
    g = gen.standard_normal((k, lam.size))
    np.square(g, out=g)
    return g @ lam


def _exp_form(gen: np.random.Generator, k: int, lam: np.ndarray) -> np.ndarray:
    return gen.standard_exponential((k, lam.size)) @ lam


def _form_evaluation(samples: int, seed: int,
                     draw: Callable[[np.random.Generator, int, np.ndarray], np.ndarray],
                     weights: np.ndarray, level: float, below: bool = False) -> _Evaluation:
    """Count draw(gen, k, weights) >= level, or < level when below.

    The weights and level are bound here, once per case: a lambda written
    in a check's loop would read the loop's last case when the queue runs.
    """
    event = (lambda v: v < level) if below else (lambda v: v >= level)
    return _Evaluation(samples, seed, lambda gen, k: draw(gen, k, weights), event)


def _mc_result(lemma_id: str, bound: float, hits: int, samples: int) -> AsymmetryResult:
    return AsymmetryResult(lemma_id, bound, hits / samples, _wilson_radius(hits, samples),
                           "MonteCarlo", samples)


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        # it seeds np.random.SeedSequence, which takes non-negative integers only
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


# The favorable-side families of the asymmetry checks: the lemma id and bound
# their results carry, and their draw
_FAMILIES = {
    "ChiSq": ("L3_1", CHI2_ASYM_BOUND, _centered_chi2),
    "Exp": ("L3_4", EXP_ASYM_BOUND, _centered_exp),
}


# ---------------------------------------------------------------------------
# exponential-combination closed form


def exp_closed_form(taus) -> float:
    """P{sum tau_i(eta_i-1) >= 0} for positive distinct weights, exactly.

    The probability is invariant under positive rescaling of the weights,
    so inputs are normalized to sum 1 first; the hypoexponential tail then
    evaluates to sum_i e^(-1/tau_i) / prod_{j != i} (1 - tau_j/tau_i).
    Weights closer than 1e-6 after normalization make the partial-fraction
    coefficients blow up and are rejected.
    """
    t = _as_weights(taus)
    if np.any(t <= 0.0):
        raise ValueError("closed form requires strictly positive weights; "
                         "use the Monte Carlo estimator for mixed signs")
    t = t / np.sum(t)
    if t.size > 1:
        gaps = np.abs(t[:, None] - t[None, :])[np.triu_indices(t.size, k=1)]
        if float(np.min(gaps)) < 1e-6:
            raise IllConditionedError(
                "weights nearly coincide after normalization; the partial "
                "fractions are ill-conditioned -- use the Monte Carlo estimator")
    return float(_closed_form_batch(t[None, :])[0])


def _closed_form_batch(t: np.ndarray) -> np.ndarray:
    # rows are weight vectors already normalized to sum 1, entries distinct
    ratios = 1.0 - t[:, None, :] / t[:, :, None]
    k = t.shape[1]
    ratios[:, np.arange(k), np.arange(k)] = 1.0
    return np.sum(np.exp(-1.0 / t) / np.prod(ratios, axis=2), axis=1)


# ---------------------------------------------------------------------------
# tail bounds


def chernoff_tail(p: TailBoundParams) -> float:
    """Upper bound on P{sum lam_i*eta_i^2 - sum lam_i >= alpha*sigma}.

    exp(-min{alpha, sigma/delta}*alpha/8) for real squared normals,
    exponent divided by 4 instead of 8 for complex ones.  With delta = 0
    (no positive weight) the min degenerates to alpha.
    """
    if p.sigma <= 0.0:
        raise ValueError("degenerate: sigma must be positive")
    ratio = p.alpha if p.delta == 0.0 else min(p.alpha, p.sigma / p.delta)
    divisor = 8.0 if p.field == "Real" else 4.0
    return math.exp(-ratio * p.alpha / divisor)


def chebyshev_tail(lambdas, alpha: float) -> float:
    """Variance bound 2*sum(lam^2)/(alpha-1)^2 on P{sum lam_i*eta_i^2 >= alpha}.

    Valid as a tail bound when sum(lam) <= 1 (the deviation then exceeds
    alpha-1); the caller is responsible for that normalization.
    """
    if alpha <= 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha}")
    lam = _as_weights(lambdas)
    return 2.0 * float(np.sum(lam**2)) / ((alpha - 1.0) ** 2)


def recip_exp_bound_holds(t: float) -> bool:
    """Check 1/(1-t) <= e^(t+t^2) for t <= 1/2 (equality at t = 0)."""
    if t > 0.5:
        raise ValueError("inequality is only claimed for t <= 1/2")
    # compare logs so large negative t cannot overflow the right side
    return -math.log1p(-t) <= t + t * t


# ---------------------------------------------------------------------------
# check registry


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one registered verification run."""

    check_id: str
    passed: bool
    results: tuple = ()
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
            "notes": list(self.notes),
        }


def _random_tau(rng: np.random.Generator, index: int) -> np.ndarray:
    """Nonnegative weight profiles, cycling through adversarial shapes."""
    n = int(rng.integers(1, 9))
    shape = index % 4
    if shape == 0:
        return rng.random(n) + 1e-3
    if shape == 1:  # heavy single coordinate
        t = np.full(n, 1e-3)
        t[rng.integers(0, n)] = 1.0
        return t
    if shape == 2:  # two scales
        t = rng.random(n) * 1e-2
        t[: max(1, n // 4)] = 1.0 + rng.random(max(1, n // 4))
        return t
    return rng.exponential(1.0, n) + 1e-6


def _random_sign_weights(rng: np.random.Generator, index: int,
                         n_low: int = 3, n_high: int = 12) -> np.ndarray:
    n = int(rng.integers(n_low, n_high + 1))
    if index % 3 == 2:  # near-rank-one profile
        u = rng.standard_normal(n)
        w = np.triu(np.outer(u, u) + 1e-3 * rng.standard_normal((n, n)), k=1)
    else:
        w = np.triu(rng.standard_normal((n, n)), k=1)
    if not np.any(w):
        w[0, 1] = 1.0
    return w


def _check_moment_families(check_id: str, bound_fn: Callable[[float], float],
                           samples: int, cases: int, seed: int) -> CheckOutcome:
    """Shared body of the two moment-asymmetry checks.

    Instantiates the three weighted families, computes the exact
    normalized fourth moment, and verifies the estimated favorable-side
    probability clears bound_fn(tau4) with 3-sigma margin.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    evaluations = []
    drawn = []  # per case: tau4, and (estimate, sign vectors) when exhaustive
    for i in range(cases):
        family = i % 3
        if family == 2:
            w = _random_sign_weights(rng, i)
            est, m4 = exhaustive_sign_prob(w)
            m2 = float(np.sum(w**2))
            drawn.append((m4 / (m2 * m2), (est, 1 << w.shape[0])))
            continue
        taus = _random_tau(rng, i)
        if family == 0:
            m2 = 2.0 * float(np.sum(taus**2))
            tau4 = chi2_moment4(taus) / (m2 * m2)
        else:
            m2 = float(np.sum(taus**2))
            tau4 = exp_moment4(taus) / (m2 * m2)
        draw = _centered_chi2 if family == 0 else _centered_exp
        evaluations.append(_form_evaluation(samples, int(rng.integers(2**63)), draw, taus, 0.0))
        drawn.append((tau4, None))
    counts = iter(_mc_counts(evaluations))
    results = []
    notes = []
    for i, (tau4, exact) in enumerate(drawn):
        bound = bound_fn(tau4)
        if exact is None:
            res = _mc_result(check_id, bound, next(counts), samples)
        else:
            res = AsymmetryResult(check_id, bound, exact[0], 0.0, "Exhaustive", exact[1])
        results.append(res)
        if res.estimate - 3.0 * res.confidence_radius <= bound:
            notes.append(f"case {i}: estimate {res.estimate:.5f} within 3 radii of bound {bound:.5f}")
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _check_l2_1(samples: int, cases: int, seed: int) -> CheckOutcome:
    return _check_moment_families("L2_1", lambda tau4: 0.25 / tau4, samples, cases, seed)


def _check_l2_2(samples: int, cases: int, seed: int) -> CheckOutcome:
    out = _check_moment_families("L2_2", lambda tau4: SHARPENED_COEFF / tau4,
                                 samples, cases, seed)
    # the sharpened coefficient must beat the generic one on a tau grid
    grid = np.linspace(1.0, 1000.0, 2000)
    sharper = np.all(SHARPENED_COEFF / grid > 0.25 / grid)
    notes = out.notes + (f"sharpening 2*sqrt(3)-3 > 1/4 on grid: {bool(sharper)}",)
    return CheckOutcome("L2_2", out.passed and bool(sharper), out.results, notes)


def _asym_cases(kind: str, samples: int, cases: int, seed: int) -> list[_Evaluation]:
    """One favorable-side evaluation per random weight profile, drawn from the check's generator."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    draw = _FAMILIES[kind][2]
    evaluations = []
    for i in range(cases):
        taus = _random_tau(rng, i)
        evaluations.append(_form_evaluation(samples, int(rng.integers(0, 2**31)), draw, taus, 0.0))
    return evaluations


def _judge_asym(kind: str, samples: int, counts: list[int]) -> tuple[list, list]:
    """The results of _asym_cases' counts, and a note per case within 3 radii of the bound."""
    lemma_id, bound, _ = _FAMILIES[kind]
    results = []
    notes = []
    for i, hits in enumerate(counts):
        res = _mc_result(lemma_id, bound, hits, samples)
        results.append(res)
        if res.estimate - 3.0 * res.confidence_radius <= bound:
            notes.append(f"case {i}: estimate {res.estimate:.5f} too close to {bound}")
    return results, notes


def _check_l3_1(samples: int, cases: int, seed: int) -> CheckOutcome:
    results, notes = _judge_asym("ChiSq", samples, _mc_counts(_asym_cases("ChiSq", samples, cases, seed)))
    return CheckOutcome("L3_1", not notes, tuple(results), tuple(notes))


def _check_l3_4(samples: int, cases: int, seed: int) -> CheckOutcome:
    evaluations = _asym_cases("Exp", samples, cases, seed)
    # Monte Carlo against the closed form, in the same queue
    rng = np.random.default_rng(np.random.PCG64(seed + 1))
    closed = []
    for i in range(5):
        n = int(rng.integers(2, 7))
        taus = np.sort(rng.random(n) + 0.05)
        taus /= taus.sum()
        if np.min(np.diff(taus)) < 1e-3:
            continue
        closed.append((i, exp_closed_form(taus)))
        evaluations.append(_form_evaluation(samples, int(rng.integers(0, 2**31)), _centered_exp, taus, 0.0))
    counts = _mc_counts(evaluations)
    results, notes = _judge_asym("Exp", samples, counts[:cases])
    for (i, exact), hits in zip(closed, counts[cases:]):
        est = hits / samples
        stderr = max(_wilson_radius(hits, samples) / _Z95, 1e-12)
        agree = abs(exact - est) <= 4.0 * stderr
        in_range = EXP_ASYM_BOUND < exact < 1.0 - EXP_ASYM_BOUND
        if not (agree and in_range):
            notes.append(f"closed-form case {i}: exact {exact:.5f} vs MC {est:.5f}")
    return CheckOutcome("L3_4", not notes, tuple(results), tuple(notes))


def _quantile_event_check(check_id: str, draw, ceiling: float, samples: int,
                          cases: int, seed: int) -> CheckOutcome:
    """P{Q < gamma*E(Q)} stays below ceiling for PSD-weighted forms Q."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    evaluations = []
    for i in range(cases):
        r = int(rng.integers(1, 9))
        lam = rng.random(r) + 1e-6
        if i % 3 == 1:
            lam[0] *= 100.0
        gamma = 1.0 if i % 4 == 0 else float(rng.random())
        mean = float(np.sum(lam))
        evaluations.append(_form_evaluation(samples, int(rng.integers(2**63)), draw, lam,
                                            gamma * mean, below=True))
    results = []
    notes = []
    for i, hits in enumerate(_mc_counts(evaluations)):
        res = _mc_result(check_id, 0.0, hits, samples)
        results.append(res)
        if res.estimate + 3.0 * res.confidence_radius >= ceiling:
            notes.append(f"case {i}: P(below gamma*mean) = {res.estimate:.5f} too close to {ceiling}")
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _check_l3_2(samples: int, cases: int, seed: int) -> CheckOutcome:
    return _quantile_event_check("L3_2", _chi2_form, 1.0 - CHI2_ASYM_BOUND, samples, cases, seed)


def _check_l3_5(samples: int, cases: int, seed: int) -> CheckOutcome:
    # complex quadratic forms reduce to exponential weights in the eigenbasis
    return _quantile_event_check("L3_5", _exp_form, 1.0 - EXP_ASYM_BOUND, samples, cases, seed)


def _check_l4_1(samples: int, cases: int, seed: int) -> CheckOutcome:
    del samples  # exhaustive throughout
    rng = np.random.default_rng(np.random.PCG64(seed))
    results = []
    notes = []
    passed = True
    for i in range(cases):
        w = _random_sign_weights(rng, i)
        prob, m4 = exhaustive_sign_prob(w)
        results.append(AsymmetryResult("L4_1", SIGN_ASYM_BOUND, prob, 0.0,
                                       "Exhaustive", 1 << w.shape[0]))
        if prob <= SIGN_ASYM_BOUND:
            passed = False
            notes.append(f"case {i}: exact probability {prob:.6f} <= 1/87")
        formula = bernoulli_moment4(w)
        if abs(formula - m4) > 1e-10 * max(1.0, abs(m4)):
            passed = False
            notes.append(f"case {i}: moment formula {formula} vs enumeration {m4}")
        s2 = float(np.sum(w**2))
        if formula > 39.0 * s2 * s2 * (1.0 + 1e-12):
            passed = False
            notes.append(f"case {i}: fourth moment exceeds 39*(sum w^2)^2")
    return CheckOutcome("L4_1", passed, tuple(results), tuple(notes))


def _check_l5_1(samples: int, cases: int, seed: int) -> CheckOutcome:
    rng = np.random.default_rng(np.random.PCG64(seed))
    evaluations = []
    bounds = []  # per drawn case: its index, Chernoff bound and variance bound
    for i in range(cases):
        r = int(rng.integers(1, 9))
        lam = rng.standard_normal(r)
        if i % 3 == 0:
            lam = -np.abs(lam)  # delta = 0 branch
        alpha = float(0.5 + 5.5 * rng.random())
        fieldname = "Real" if i % 2 == 0 else "Complex"
        params = TailBoundParams(lam, alpha, fieldname)
        if params.sigma == 0.0:
            continue
        # real squared normals; complex forms reduce to exponential weights
        draw = _centered_chi2 if fieldname == "Real" else _centered_exp
        evaluations.append(_form_evaluation(samples, int(rng.integers(2**63)), draw, lam,
                                            alpha * params.sigma))
        # variance-route bound on the same kind of form, normalized weights
        lam_pos = np.abs(lam) / max(np.sum(np.abs(lam)), 1e-12)
        alpha_c = float(1.5 + 5.0 * rng.random())
        evaluations.append(_form_evaluation(samples, int(rng.integers(2**63)), _chi2_form, lam_pos,
                                            alpha_c))
        bounds.append((i, chernoff_tail(params), chebyshev_tail(lam_pos, alpha_c)))
    counts = _mc_counts(evaluations)
    notes = []
    for (i, bound, cheb), tail_hits, form_hits in zip(bounds, counts[0::2], counts[1::2]):
        freq = tail_hits / samples
        if freq > bound:
            notes.append(f"case {i}: exceedance frequency {freq:.5f} above bound {bound:.5f}")
        freq = form_hits / samples
        if freq > cheb:
            notes.append(f"case {i}: frequency {freq:.5f} above variance bound {cheb:.5f}")
    grid_ok = all(recip_exp_bound_holds(t) for t in np.linspace(-5.0, 0.5, 1101))
    if not grid_ok:
        notes.append("reciprocal-exponential inequality failed on grid")
    passed = not notes
    notes.append(f"reciprocal-exponential inequality on [-5, 1/2] grid: {grid_ok}")
    return CheckOutcome("L5_1", passed, (), tuple(notes))


_CHECKS: dict[str, Callable[[int, int, int], CheckOutcome]] = {
    "L2_1": _check_l2_1,
    "L2_2": _check_l2_2,
    "L3_1": _check_l3_1,
    "L3_2": _check_l3_2,
    "L3_4": _check_l3_4,
    "L3_5": _check_l3_5,
    "L4_1": _check_l4_1,
    "L5_1": _check_l5_1,
}


def run_lemma_check(check_id: str, *, samples: int = 200_000, cases: int = 24,
                    seed: int = 0) -> CheckOutcome:
    """Run one registered verification by id (see CHECK_IDS)."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; choose from {CHECK_IDS}")
    if samples < 1 or cases < 1:
        raise ValueError(f"need samples >= 1 and cases >= 1, got {samples} and {cases}")
    _check_seed(seed)
    return _CHECKS[check_id](samples, cases, seed)
