"""Asymmetry probabilities, moment identities, and tail bounds for random quadratic forms.

Three weighted-form families recur throughout the package:

* ``ChiSq``: Psi = sum_i tau_i*(eta_i^2 - 1), eta_i i.i.d. standard normal;
* ``Exp``:   Psi = sum_i tau_i*(eta_i - 1), eta_i i.i.d. unit-rate exponential;
* ``Bernoulli``: Psi = sum_{i<j} w_ij*xi_i*xi_j, xi_i i.i.d. uniform signs.

Each family carries an exact fourth-moment identity, an analytic lower
bound on the probability of landing on the favorable side of zero, and
deterministic evaluators that verify those bounds: contour quadrature
(form_tail) for ChiSq and Exp, a closed form for Exp, and exhaustive
enumeration for the signs.  The check registry at the bottom, _CHECKS, is
the one place a check is defined: each row maps a check id to the body that
runs it and that body's parameters (its family and bound), and CHECK_IDS,
the ids the CLI offers, are its keys in order.

form_tail gives the tail P{sum_j w_j*Y_j > x} of a weighted sum of
chi-square(1) or unit exponential variables by inverting its moment
generating function on a parabola in the right half-plane (Gil-Pelaez
inversion, as in Imhof, Biometrika 1961), along which the integrand
decays like a Gaussian, with the trapezoid rule.  Each value carries an
a-posteriori error: the gap between the sums on all its nodes and on every
other node.  A check judges value and error together against its bound,
and fails a value whose error exceeds 1e-9.  Nothing in a check samples:
its output depends on its seed and case count only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .matrices import to_json

__all__ = [
    "AsymmetryResult",
    "CHI2_ASYM_BOUND",
    "CheckOutcome",
    "EXP_ASYM_BOUND",
    "FormTail",
    "IllConditionedError",
    "CHECK_IDS",
    "SIGN_ASYM_BOUND",
    "SHARPENED_COEFF",
    "bernoulli_moment4",
    "chebyshev_tail",
    "chernoff_tail",
    "chi2_moment4",
    "exhaustive_sign_prob",
    "exp_closed_form",
    "exp_moment4",
    "form_tail",
    "recip_exp_bound_holds",
    "run_lemma_check",
]

# Analytic lower bounds on the favorable-side probabilities.
CHI2_ASYM_BOUND = 3.0 / 100.0  # P{sum tau_i(eta_i^2-1) >= 0}, tau >= 0
EXP_ASYM_BOUND = 1.0 / 20.0    # P{sum tau_i(eta_i-1) >= 0},  tau >= 0
SIGN_ASYM_BOUND = 1.0 / 87.0   # P{sum_{i<j} w_ij xi_i xi_j <= 0}

# Sharpened fourth-moment asymmetry coefficient: P >= (2*sqrt(3)-3)/tau.
SHARPENED_COEFF = 2.0 * math.sqrt(3.0) - 3.0

_METHODS = ("Exhaustive", "Quadrature")
# kind -> (kappa per unit weight, nu): M(s) = prod_j (1 - kappa_j*s)^(-nu_j)
_KINDS = {"ChiSq": (2.0, 0.5), "Exp": (1.0, 1.0)}
_TOL = 1e-9  # largest quadrature error a check accepts
_MAX_NODES = (1 << 16) + 1  # odd, like every node count
_CHUNK = 1 << 18  # rows per vectorized step of the sign enumeration
_EXHAUSTIVE_CAP = 20  # sign vectors enumerated up to 2^20


class IllConditionedError(ValueError):
    """Closed-form evaluation refused because weights nearly coincide."""


@dataclass(frozen=True)
class AsymmetryResult:
    """One favorable-side probability with its analytic floor.

    confidence_radius is the quadrature error (0 for an enumeration) and
    samples the node count (the number of sign vectors for an enumeration).
    """

    lemma_id: str
    analytic_lower_bound: float
    estimate: float
    confidence_radius: float
    method: str
    samples: int

    def __post_init__(self):
        if self.lemma_id not in CHECK_IDS:
            raise ValueError(f"unknown lemma id {self.lemma_id!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 <= self.estimate <= 1.0:
            raise ValueError(f"estimate {self.estimate} outside [0,1]")
        if self.confidence_radius < 0.0:
            raise ValueError("confidence radius must be nonnegative")
        if self.method == "Exhaustive" and self.confidence_radius != 0.0:
            raise ValueError("exhaustive estimates are exact")


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
    i, j, k, l = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    cyc = (arr[i, j] * arr[j, k] * arr[k, l] * arr[i, l]
           + arr[i, j] * arr[j, l] * arr[k, l] * arr[i, k]
           + arr[i, k] * arr[j, k] * arr[j, l] * arr[i, l])
    return total + 24.0 * float(np.sum(cyc))


# ---------------------------------------------------------------------------
# probability evaluators


def exhaustive_sign_prob(w) -> tuple[float, float]:
    """Exact (P{Psi <= 0}, E Psi^4) over all 2^n sign vectors, n <= 20.

    Psi(-xi) = Psi(xi), so the 2^(n-1) vectors with xi_0 = +1 carry the
    same law; they are the only ones enumerated.
    """
    arr = _as_upper_weights(w)
    n = arr.shape[0]
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration capped at n = {_EXHAUSTIVE_CAP}")
    if not np.any(arr):
        raise ValueError("degenerate all-zero weights")
    wm = arr + arr.T
    total = 1 << (n - 1)
    count = 0
    m4 = 0.0
    bits = np.arange(n)
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        idx = 2 * np.arange(start, stop, dtype=np.int64) + 1  # bit 0 set: xi_0 = +1
        signs = (((idx[:, None] >> bits) & 1) * 2 - 1).astype(float)
        psi = 0.5 * np.einsum("ij,ij->i", signs @ wm, signs)
        count += int(np.count_nonzero(psi <= 0.0))
        m4 += float(np.sum(psi**4))
    return count / total, m4 / total


class FormTail(NamedTuple):
    """form_tail's values, each with its quadrature error and node count (0 where none was needed)."""

    prob: np.ndarray
    error: np.ndarray
    nodes: np.ndarray


def form_tail(weights, kind: str, x) -> FormTail:
    """P{sum_j w_j*Y_j > x} for each row of weights, Y_j i.i.d. chi-square(1) (ChiSq) or Exp(1) (Exp).

    weights has shape (..., n); shorter forms are padded with zero weights.
    x broadcasts against weights.shape[:-1], the shape of every output.

    The moment generating function is M(s) = prod_j (1 - kappa_j*s)^(-nu_j),
    with kappa = 2w and nu = 1/2 for ChiSq, or kappa = w and nu = 1 for Exp.
    For x > 0 the tail is

        P = (1/pi) int_0^inf Im[M(s) e^(-s x) s'(u)/s] du,
        s(u) = s*(1/2 + u^2 + i u),  s* = 1/max kappa,

    on a parabola that passes left of every singularity of M and along
    which e^(-s x) decays like e^(-x' u^2), x' = x*s*.  For x <= 0 the value
    is 1 - P{-sum_j w_j*Y_j >= -x}; a tail with no positive kappa is 0.  The
    trapezoid rule takes N ~ 80 + 90/sqrt(x') nodes, N odd, on
    [0, sqrt(40/x') + 1].  The error is the gap between the N-node sum and
    the (N+1)/2-node sum on every other node; N doubles, up to _MAX_NODES,
    while the error exceeds 1e-9.  Probabilities are clipped to [0, 1], and
    each row's value depends on that row alone.
    """
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {tuple(_KINDS)}")
    scale, nu = _KINDS[kind]
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0 or w.shape[-1] == 0:
        raise ValueError("weights need a nonempty last axis")
    shape = w.shape[:-1]
    level = np.broadcast_to(np.asarray(x, dtype=float), shape).reshape(-1)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(level))):
        raise ValueError("weights and x must be finite")
    flip = level <= 0.0
    kappa = scale * w.reshape(-1, w.shape[-1])
    kappa[flip] *= -1.0
    level = np.abs(level)
    top = kappa.max(axis=1)
    live = np.flatnonzero(top > 0.0)
    if np.any(level[live] == 0.0):
        raise ValueError("P{Q > 0} needs x != 0 when a weight is negative")
    prob = np.zeros(level.size)
    error = np.zeros(level.size)
    nodes = np.zeros(level.size, dtype=np.int64)
    n = np.minimum(80.0 + 90.0 / np.sqrt(level[live] / top[live]), _MAX_NODES)
    nodes[live] = 2 * np.ceil((n - 1.0) / 2.0).astype(np.int64) + 1
    todo = live
    while todo.size:
        prob[todo], error[todo] = _parabola(kappa[todo] / top[todo, None], nu,
                                            level[todo] / top[todo], nodes[todo])
        todo = todo[(error[todo] > _TOL) & (nodes[todo] < _MAX_NODES)]
        nodes[todo] = np.minimum(2 * nodes[todo] - 1, _MAX_NODES)
    prob[flip] = 1.0 - prob[flip]
    return FormTail(np.clip(prob, 0.0, 1.0).reshape(shape), error.reshape(shape), nodes.reshape(shape))


def _parabola(unit: np.ndarray, nu: float, xs: np.ndarray,
              nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid sums of form_tail's integral, and their errors, one row per form.

    unit holds kappa/max kappa, so that with z = s/s*, kappa*s = unit*z and
    s*x = xs*z.  The rows' nodes lie end to end in one array, and a row's
    sums read its own nodes only.
    """
    h = (np.sqrt(40.0 / xs) + 1.0) / (nodes - 1)
    starts = np.cumsum(nodes) - nodes
    row = np.repeat(np.arange(nodes.size), nodes)
    k = np.arange(row.size) - starts[row]
    u = k * h[row]
    z = 0.5 + u * u + 1j * u
    log_m = -xs[row] * z
    for col in unit.T:
        log_m -= nu * np.log(1.0 - col[row] * z)
    g = np.imag(np.exp(log_m) * (2.0 * u + 1j) / z)
    g[starts] *= 0.5
    fine = np.add.reduceat(g, starts) * (h / math.pi)
    coarse = np.add.reduceat(np.where(k % 2 == 0, g, 0.0), starts) * (2.0 * h / math.pi)
    return fine, np.abs(fine - coarse)


def _tails(forms: list[tuple[str, np.ndarray, float]]) -> list[tuple[float, float, int]]:
    """form_tail's (probability, error, nodes) of every (kind, weights, x), in order: one call per kind."""
    out = [None] * len(forms)
    for kind in _KINDS:
        at = [i for i, form in enumerate(forms) if form[0] == kind]
        if not at:
            continue
        weights = np.zeros((len(at), max(forms[i][1].size for i in at)))
        for row, i in enumerate(at):
            weights[row, :forms[i][1].size] = forms[i][1]
        tail = form_tail(weights, kind, [forms[i][2] for i in at])
        for row, i in enumerate(at):
            out[i] = (float(tail.prob[row]), float(tail.error[row]), int(tail.nodes[row]))
    return out


def _judge(case: int, error: float, nodes: int, clears: bool, failure: str) -> list[str]:
    """No note for a value within 1e-9 that clears its bound; else a note saying which of the two failed."""
    if error > _TOL:
        return [f"case {case}: quadrature error {error:.1e} above {_TOL:.0e} at {nodes} nodes"]
    return [] if clears else [f"case {case}: {failure}"]


def _floor_notes(results: list[AsymmetryResult]) -> list[str]:
    """The notes of results whose value, less its error, must exceed their analytic floor."""
    notes = []
    for i, res in enumerate(results):
        notes += _judge(i, res.confidence_radius, res.samples,
                        res.estimate - res.confidence_radius > res.analytic_lower_bound,
                        f"estimate {res.estimate:.5f} within its error of bound {res.analytic_lower_bound:.5f}")
    return notes


def _is_integer(value) -> bool:
    """An int or numpy integer; a bool is neither here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_seed(seed) -> None:
    if not _is_integer(seed) or seed < 0:
        # it seeds np.random.PCG64, which takes non-negative integers only
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


# ---------------------------------------------------------------------------
# exponential-combination closed form


def exp_closed_form(taus) -> float:
    """P{sum tau_i(eta_i-1) >= 0} for positive distinct weights, exactly.

    The probability is invariant under positive rescaling of the weights,
    so inputs are normalized to sum 1 first; the hypoexponential tail then
    evaluates to sum_i e^(-1/tau_i) / prod_{j != i} (1 - tau_j/tau_i).
    Weights closer than 1e-3 after normalization make the partial-fraction
    coefficients blow up and are rejected: at a gap of 5.3e-5 the sum was
    already off by 9.3e-9, while gaps of 1.6e-3 and more kept it within
    3.2e-10 of a 50-digit evaluation.
    """
    t = _as_weights(taus)
    if np.any(t <= 0.0):
        raise ValueError("closed form requires strictly positive weights; "
                         "use form_tail for mixed signs")
    t = t / np.sum(t)
    if t.size > 1:
        gaps = np.abs(t[:, None] - t[None, :])[np.triu_indices(t.size, k=1)]
        if float(np.min(gaps)) < 1e-3:
            raise IllConditionedError(
                "weights nearly coincide after normalization; the partial "
                "fractions are ill-conditioned -- use form_tail")
    return float(_closed_form_batch(t[None, :])[0])


def _closed_form_batch(t: np.ndarray) -> np.ndarray:
    # rows are weight vectors already normalized to sum 1, entries distinct
    ratios = 1.0 - t[:, None, :] / t[:, :, None]
    k = t.shape[1]
    ratios[:, np.arange(k), np.arange(k)] = 1.0
    return np.sum(np.exp(-1.0 / t) / np.prod(ratios, axis=2), axis=1)


# ---------------------------------------------------------------------------
# tail bounds


def chernoff_tail(lambdas, alpha: float, field: str) -> float:
    """Upper bound on P{sum lam_i*eta_i^2 - sum lam_i >= alpha*sigma}, sigma = sqrt(sum lam^2).

    exp(-min{alpha, sigma/delta}*alpha/8) for real squared normals, delta
    the largest weight; exponent divided by 4 instead of 8 for complex ones.
    With no positive weight (delta = 0) the min degenerates to alpha.
    """
    lam = _as_weights(lambdas)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if field not in ("Real", "Complex"):
        raise ValueError(f"unknown field {field!r}")
    sigma = float(np.sqrt(np.sum(lam**2)))
    if sigma <= 0.0:
        raise ValueError("degenerate: sigma must be positive")
    delta = max(float(np.max(lam)), 0.0)
    ratio = alpha if delta == 0.0 else min(alpha, sigma / delta)
    divisor = 8.0 if field == "Real" else 4.0
    return math.exp(-ratio * alpha / divisor)


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
        return to_json(self)


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


def _random_sign_weights(rng: np.random.Generator, index: int) -> np.ndarray:
    n = int(rng.integers(3, 13))  # 3 to 12 signs
    if index % 3 == 2:  # near-rank-one profile
        u = rng.standard_normal(n)
        w = np.triu(np.outer(u, u) + 1e-3 * rng.standard_normal((n, n)), k=1)
    else:
        w = np.triu(rng.standard_normal((n, n)), k=1)
    if not np.any(w):
        w[0, 1] = 1.0
    return w


# The favorable side of a ChiSq or Exp profile tau is the tail form (kind, tau, sum tau):
# P{sum tau_i(Y_i - 1) >= 0} = P{sum tau_i*Y_i > sum tau_i}.


def _moment_families(check_id: str, coeff: float, cases: int, seed: int) -> CheckOutcome:
    """The three weighted families' favorable-side probability, less its error, clears coeff/tau4.

    tau4 is the case's exact normalized fourth moment E(Psi^4)/(E Psi^2)^2.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    forms = []
    drawn = []  # per case: tau4, method, and (estimate, error, sign vectors) when enumerated
    for i in range(cases):
        family = i % 3
        if family == 2:
            w = _random_sign_weights(rng, i)
            est, m4 = exhaustive_sign_prob(w)
            m2 = float(np.sum(w**2))
            drawn.append((m4 / (m2 * m2), "Exhaustive", (est, 0.0, 1 << w.shape[0])))
            continue
        taus = _random_tau(rng, i)
        if family == 0:
            m2 = 2.0 * float(np.sum(taus**2))
            tau4 = chi2_moment4(taus) / (m2 * m2)
        else:
            m2 = float(np.sum(taus**2))
            tau4 = exp_moment4(taus) / (m2 * m2)
        forms.append(("ChiSq" if family == 0 else "Exp", taus, float(np.sum(taus))))
        drawn.append((tau4, "Quadrature", None))
    tails = iter(_tails(forms))
    results = []
    for tau4, method, exact in drawn:
        prob, error, nodes = exact or next(tails)
        results.append(AsymmetryResult(check_id, coeff / tau4, prob, error, method, nodes))
    notes = _floor_notes(results)
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _sharpened_moment_families(check_id: str, coeff: float, cases: int, seed: int) -> CheckOutcome:
    """_moment_families, and the sharpened coefficient beats the generic 1/4 on a tau grid."""
    out = _moment_families(check_id, coeff, cases, seed)
    grid = np.linspace(1.0, 1000.0, 2000)
    sharper = bool(np.all(coeff / grid > 0.25 / grid))
    notes = out.notes + (f"sharpening 2*sqrt(3)-3 > 1/4 on grid: {sharper}",)
    return CheckOutcome(check_id, out.passed and sharper, out.results, notes)


def _asymmetry(check_id: str, kind: str, bound: float, cases: int, seed: int) -> CheckOutcome:
    """The favorable-side probability of one random profile per case, less its error, clears bound."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    profiles = [_random_tau(rng, i) for i in range(cases)]
    results = [AsymmetryResult(check_id, bound, prob, error, "Quadrature", nodes)
               for prob, error, nodes in _tails([(kind, t, float(np.sum(t))) for t in profiles])]
    notes = _floor_notes(results)
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _exp_asymmetry(check_id: str, kind: str, bound: float, cases: int, seed: int) -> CheckOutcome:
    """_asymmetry, and the quadrature agrees with exp_closed_form on five more profiles."""
    out = _asymmetry(check_id, kind, bound, cases, seed)
    rng = np.random.default_rng(np.random.PCG64(seed + 1))
    closed = []
    for i in range(5):
        n = int(rng.integers(2, 7))
        taus = np.sort(rng.random(n) + 0.05)
        taus /= taus.sum()
        try:
            closed.append((i, taus, exp_closed_form(taus)))
        except IllConditionedError:
            continue
    notes = list(out.notes)
    tails = _tails([(kind, taus, float(np.sum(taus))) for _, taus, _ in closed])
    for (i, _, exact), (est, error, _) in zip(closed, tails):
        agree = abs(exact - est) <= _TOL and error <= _TOL
        in_range = bound < exact < 1.0 - bound
        if not (agree and in_range):
            notes.append(f"closed-form case {i}: exact {exact:.12f} vs quadrature {est:.12f} +- {error:.1e}")
    return CheckOutcome(check_id, not notes, out.results, tuple(notes))


def _quantile_event(check_id: str, kind: str, ceiling: float, cases: int, seed: int) -> CheckOutcome:
    """P{Q < gamma*E(Q)} stays below ceiling for PSD-weighted forms Q.

    Complex quadratic forms reduce to exponential weights in the eigenbasis.
    """
    rng = np.random.default_rng(np.random.PCG64(seed))
    forms = []
    for i in range(cases):
        r = int(rng.integers(1, 9))
        lam = rng.random(r) + 1e-6
        if i % 3 == 1:
            lam[0] *= 100.0
        gamma = 1.0 if i % 4 == 0 else float(rng.random())
        forms.append((kind, lam, gamma * float(np.sum(lam))))
    results = []
    notes = []
    for i, (above, error, nodes) in enumerate(_tails(forms)):
        results.append(AsymmetryResult(check_id, 0.0, 1.0 - above, error, "Quadrature", nodes))
        notes += _judge(i, error, nodes, 1.0 - above + error < ceiling,
                        f"P(below gamma*mean) = {1.0 - above:.5f} within its error of {ceiling}")
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _check_l4_1(check_id: str, cases: int, seed: int) -> CheckOutcome:
    rng = np.random.default_rng(np.random.PCG64(seed))
    results = []
    notes = []
    for i in range(cases):
        w = _random_sign_weights(rng, i)
        prob, m4 = exhaustive_sign_prob(w)
        results.append(AsymmetryResult(check_id, SIGN_ASYM_BOUND, prob, 0.0,
                                       "Exhaustive", 1 << w.shape[0]))
        if prob <= SIGN_ASYM_BOUND:
            notes.append(f"case {i}: exact probability {prob:.6f} <= 1/87")
        formula = bernoulli_moment4(w)
        if abs(formula - m4) > 1e-10 * max(1.0, abs(m4)):
            notes.append(f"case {i}: moment formula {formula} vs enumeration {m4}")
        s2 = float(np.sum(w**2))
        if formula > 39.0 * s2 * s2 * (1.0 + 1e-12):
            notes.append(f"case {i}: fourth moment exceeds 39*(sum w^2)^2")
    return CheckOutcome(check_id, not notes, tuple(results), tuple(notes))


def _check_l5_1(check_id: str, cases: int, seed: int) -> CheckOutcome:
    rng = np.random.default_rng(np.random.PCG64(seed))
    forms = []  # per drawn case: the deviation tail, then the variance-route tail
    bounds = []  # per drawn case: its index, Chernoff bound and variance bound
    for i in range(cases):
        r = int(rng.integers(1, 9))
        lam = rng.standard_normal(r)
        if i % 3 == 0:
            lam = -np.abs(lam)  # delta = 0 branch
        alpha = float(0.5 + 5.5 * rng.random())
        fieldname = "Real" if i % 2 == 0 else "Complex"
        sigma = float(np.sqrt(np.sum(lam**2)))
        if sigma == 0.0:
            continue
        # P{sum lam_i(Y_i - 1) >= alpha*sigma}: real squared normals; complex
        # forms reduce to exponential weights
        kind = "ChiSq" if fieldname == "Real" else "Exp"
        forms.append((kind, lam, alpha * sigma + float(np.sum(lam))))
        # variance-route bound on a chi-square form, normalized weights
        lam_pos = np.abs(lam) / max(np.sum(np.abs(lam)), 1e-12)
        alpha_c = float(1.5 + 5.0 * rng.random())
        forms.append(("ChiSq", lam_pos, alpha_c))
        bounds.append((i, chernoff_tail(lam, alpha, fieldname), chebyshev_tail(lam_pos, alpha_c)))
    tails = _tails(forms)
    notes = []
    for (i, chernoff, cheb), deviation, form in zip(bounds, tails[0::2], tails[1::2]):
        for (prob, error, nodes), bound, name in ((deviation, chernoff, "Chernoff"),
                                                  (form, cheb, "variance")):
            notes += _judge(i, error, nodes, prob + error <= bound,
                            f"tail {prob:.5f} within its error of {name} bound {bound:.5f}")
    grid_ok = all(recip_exp_bound_holds(t) for t in np.linspace(-5.0, 0.5, 1101))
    if not grid_ok:
        notes.append("reciprocal-exponential inequality failed on grid")
    passed = not notes
    notes.append(f"reciprocal-exponential inequality on [-5, 1/2] grid: {grid_ok}")
    return CheckOutcome(check_id, passed, (), tuple(notes))


# check id -> (body, its parameters): the id's outcome is body(check_id, *parameters, cases, seed)
_CHECKS = {
    "L2_1": (_moment_families, 0.25),
    "L2_2": (_sharpened_moment_families, SHARPENED_COEFF),
    "L3_1": (_asymmetry, "ChiSq", CHI2_ASYM_BOUND),
    "L3_2": (_quantile_event, "ChiSq", 1.0 - CHI2_ASYM_BOUND),
    "L3_4": (_exp_asymmetry, "Exp", EXP_ASYM_BOUND),
    "L3_5": (_quantile_event, "Exp", 1.0 - EXP_ASYM_BOUND),
    "L4_1": (_check_l4_1,),
    "L5_1": (_check_l5_1,),
}
CHECK_IDS = tuple(_CHECKS)


def run_lemma_check(check_id: str, *, samples: int = 200_000, cases: int = 24,
                    seed: int = 0) -> CheckOutcome:
    """Run one registered verification by id (see CHECK_IDS).

    samples is checked (an integer >= 1) and otherwise ignored: no check
    samples, so the outcome depends on the id, cases and seed only.
    """
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check id {check_id!r}; choose from {CHECK_IDS}")
    for name, value in (("samples", samples), ("cases", cases)):
        if not _is_integer(value) or value < 1:
            raise ValueError(f"need an integer {name} >= 1, got {value!r}")
    _check_seed(seed)
    body, *parameters = _CHECKS[check_id]
    return body(check_id, *parameters, cases, seed)
