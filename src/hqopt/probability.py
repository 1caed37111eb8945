"""Asymmetry probabilities, moment identities, and tail bounds for random quadratic forms.

Three weighted-form families recur throughout the package:

* ``ChiSq``: Psi = sum_i tau_i*(eta_i^2 - 1), eta_i i.i.d. standard normal;
* ``Exp``:   Psi = sum_i tau_i*(eta_i - 1), eta_i i.i.d. unit-rate exponential;
* ``Bernoulli``: Psi = sum_{i<j} w_ij*xi_i*xi_j, xi_i i.i.d. uniform signs.

Each family carries an exact fourth-moment identity, an analytic lower
bound on the probability of landing on the favorable side of zero, and
deterministic evaluators that verify those bounds: contour quadrature
(form_tail) for ChiSq and Exp, a closed form for Exp, and exhaustive
enumeration for the signs.  A check draws all its cases first and then
makes one evaluator call per family: form_tail once per kind, and
exhaustive_sign_prob and bernoulli_moment4 once each on the stack of its
sign-weight matrices, zero-padded to the largest n.  The enumeration
meets in the middle: every sign vector is a low and a high half, and the
coupling of every low half with a chunk of high halves is one product
over the whole stack.  The check registry at the bottom, _CHECKS, is
the one place a check is defined: each row maps a check id to the body that
runs it and that body's parameters (its family and bound), and CHECK_IDS,
the ids the CLI offers, are its keys in order.

form_tail gives the tail P{sum_j w_j*Y_j > x} of a weighted sum of
chi-square(1) or unit exponential variables by inverting its moment
generating function on a parabola in the right half-plane (Gil-Pelaez
inversion, as in Imhof, Biometrika 1961), along which the integrand
decays like a Gaussian, with the trapezoid rule.  At each node the moment
generating function is one product: e^(-s x) divided by the factors
1 - kappa_j*s of the nonzero weights, or by their principal square roots
for chi-square, which are the analytic branch because no factor crosses
the negative real axis on the parabola.  Each value carries an
a-posteriori error: the gap between the sums on all its nodes and on every
other node.  A check judges value and error together against its bound,
and fails a value whose error exceeds 1e-9.  Nothing in a check samples:
its output depends on its seed and case count only.
"""

from __future__ import annotations

import functools
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
_FOLD = 16  # factors per complex log: each is about 40/x' at most, so 16 stay finite for x' > 1e-17
_BUDGET = 1 << 14  # rows x cases elements per step of the sign enumeration
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
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] < 2:
        raise ValueError("sign weights must form a square matrix, n >= 2")
    if not np.all(np.isfinite(arr)):
        raise ValueError("weights must be finite")
    if np.any(np.tril(arr) != 0.0):
        raise ValueError("sign weights must be strictly upper triangular")
    return arr


def _per_matrix(arr: np.ndarray, values: np.ndarray):
    """values, one per matrix of arr: a plain float for one n x n matrix, else an array of arr.shape[:-2]."""
    return float(values[0]) if arr.ndim == 2 else values.reshape(arr.shape[:-2])


@functools.cache
def _quadruples(n: int) -> tuple[np.ndarray, ...]:
    """The index quadruples i<j<k<l of range(n), as four read-only index arrays, built once per n."""
    table = np.array(list(combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4).T
    table.setflags(write=False)
    return tuple(table)


def bernoulli_moment4(w):
    """Exact fourth moment of Psi = sum_{i<j} w_ij*xi_i*xi_j, xi i.i.d. signs.

    E(Psi^4) = sum w^4 + 6*sum over weight pairs of w^2*w^2 + W, where W
    collects 24 times the three four-cycle products on every index
    quadruple i<j<k<l.  w is one strictly upper n x n matrix, giving a
    float, or a stack (..., n, n) of them, giving an array of shape (...).
    """
    arr = _as_upper_weights(w)
    stack = arr.reshape(-1, *arr.shape[-2:])
    iu, ju = np.triu_indices(arr.shape[-1], k=1)
    sq = stack[:, iu, ju] ** 2
    s2 = np.sum(sq, axis=1)
    s4 = np.sum(sq * sq, axis=1)
    i, j, k, l = _quadruples(arr.shape[-1])
    cyc = (stack[:, i, j] * stack[:, j, k] * stack[:, k, l] * stack[:, i, l]
           + stack[:, i, j] * stack[:, j, l] * stack[:, k, l] * stack[:, i, k]
           + stack[:, i, k] * stack[:, j, k] * stack[:, j, l] * stack[:, i, l])
    return _per_matrix(arr, s4 + 3.0 * (s2 * s2 - s4) + 24.0 * np.sum(cyc, axis=1))


# ---------------------------------------------------------------------------
# probability evaluators


def exhaustive_sign_prob(w):
    """Exact (P{Psi <= 0}, E Psi^4) over all 2^n sign vectors, n <= 20.

    w is one strictly upper n x n matrix, giving two floats, or a stack
    (..., n, n) of them, giving two arrays of shape (...).  Psi(-xi) =
    Psi(xi), so the 2^(n-1) vectors with xi_0 = +1 carry the same law; they
    are the only ones enumerated.  Each vector splits into a low half
    (xi_0 = +1) and a high half, and Psi is the low half's form, plus the
    high half's, plus their coupling; the coupling of every low half with
    a chunk of high halves is one product over the whole stack.  A chunk
    takes as many high halves as keep its rows x cases within _BUDGET
    elements, and at least one; besides the chunk, only the two halves'
    forms are held, about cases x 3 x 2^(n/2) values.  Psi^4 is (Psi^2)^2.
    Zero-padding a matrix to a larger n repeats each of its vectors a power
    of two times, so its P{Psi <= 0} is unchanged.
    """
    arr = _as_upper_weights(w)
    n = arr.shape[-1]
    if n > _EXHAUSTIVE_CAP:
        raise ValueError(f"exhaustive enumeration capped at n = {_EXHAUSTIVE_CAP}")
    stack = arr.reshape(-1, n, n)
    if not np.all(np.any(stack, axis=(1, 2))):
        raise ValueError("degenerate all-zero weights")
    half = (n + 1) // 2
    low = _sign_table(half)[1::2]  # xi_0 = +1
    high = _sign_table(n - half)
    low_form = np.einsum("ai,cij,aj->ca", low, stack[:, :half, :half], low)
    high_form = np.einsum("ai,cij,aj->ca", high, stack[:, half:, half:], high)
    count = np.zeros(len(stack), dtype=np.int64)
    m4 = np.zeros(len(stack))
    step = max(1, _BUDGET // max(1, len(stack) * len(low)))
    for start in range(0, len(high), step):
        part = slice(start, start + step)
        psi = low @ (stack[:, :half, half:] @ high[part].T)  # (cases, len(low), step)
        psi += low_form[:, :, None]
        psi += high_form[:, None, part]
        count += np.count_nonzero(psi <= 0.0, axis=(1, 2))
        psi *= psi
        psi *= psi  # Psi^4 as (Psi^2)^2: x**4 goes through pow, 50 to 70 times slower
        m4 += np.sum(psi, axis=(1, 2))
    total = 1 << (n - 1)
    return _per_matrix(arr, count / total), _per_matrix(arr, m4 / total)


def _sign_table(k: int) -> np.ndarray:
    """All 2^k sign vectors of length k, one per row: row r has xi_b = +1 where bit b of r is set."""
    return ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) * 2.0 - 1.0


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
    which e^(-s x) decays like e^(-x' u^2), x' = x*s*.  At each node
    M(s) e^(-s x) is e^(-s x) over the product of the factors 1 - kappa_j*s
    of the row's nonzero weights (Exp), or of their principal square roots
    (ChiSq).  A factor's imaginary part, -u*kappa_j*s*, keeps one sign for
    u > 0, and at u = 0 the factor is 1 - kappa_j*s*/2 >= 1/2, so none
    crosses the negative real axis and the principal root is the analytic
    branch of (1 - kappa_j*s)^(1/2).  Past every 16 factors the partial
    product is folded into a complex log, so no product overflows however
    many weights a row has.  For x <= 0 the value
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
    s*x = xs*z: each node's value is e^(-xs*z) over the product of the
    factors 1 - unit_j*z, or of their principal roots (see form_tail).
    Rows are taken in decreasing order of their nonzero count, each with
    its nonzero weights moved to the front in order, and their nodes lie
    end to end in one array, so the nodes that column j multiplies are one
    leading slice.  A row's sums read its own nodes only.
    """
    width = np.count_nonzero(unit, axis=1)
    order = np.argsort(-width)
    width, xs, nodes, unit = width[order], xs[order], nodes[order], unit[order]
    filled = unit != 0.0
    packed = np.zeros_like(unit)  # each row's nonzero weights, moved to its front in order
    packed[np.nonzero(filled)[0], np.cumsum(filled, axis=1)[filled] - 1] = unit[filled]
    h = (np.sqrt(40.0 / xs) + 1.0) / (nodes - 1)
    ends = np.cumsum(nodes)
    starts = ends - nodes
    # depth[j] rows have more than j nonzero weights; their nodes are the first reach[j]
    depth = np.count_nonzero(width[:, None] > np.arange(width[0] + 1), axis=0)
    reach = np.concatenate(([0], ends))[depth]
    row = np.repeat(np.arange(nodes.size), nodes)
    k = np.arange(row.size) - starts[row]
    u = k * h[row]
    z = 0.5 + u * u + 1j * u
    log_m = -xs[row] * z
    prod = np.ones(z.size, dtype=complex)
    for j in range(width[0]):
        end = reach[j]
        factor = 1.0 - np.repeat(packed[:depth[j], j], nodes[:depth[j]]) * z[:end]
        prod[:end] *= factor if nu == 1.0 else np.sqrt(factor)
        if (j + 1) % _FOLD == 0:
            end = reach[j + 1]
            log_m[:end] -= np.log(prod[:end])
            prod[:end] = 1.0
    g = np.imag(np.exp(log_m) * (2.0 * u + 1j) / (z * prod))
    g[starts] *= 0.5
    fine = np.add.reduceat(g, starts) * (h / math.pi)
    coarse = np.add.reduceat(np.where(k % 2 == 0, g, 0.0), starts) * (2.0 * h / math.pi)
    back = np.argsort(order)
    return fine[back], np.abs(fine - coarse)[back]


def _padded(arrays: list[np.ndarray]) -> np.ndarray:
    """arrays, all of one ndim, zero-padded at the end of every axis to the largest extent and stacked."""
    out = np.zeros((len(arrays), *np.max([a.shape for a in arrays], axis=0)))
    for row, a in zip(out, arrays):
        row[tuple(map(slice, a.shape))] = a
    return out


def _tails(forms: list[tuple[str, np.ndarray, float]]) -> list[tuple[float, float, int]]:
    """form_tail's (probability, error, nodes) of every (kind, weights, x), in order: one call per kind."""
    out = [None] * len(forms)
    for kind in _KINDS:
        at = [i for i, form in enumerate(forms) if form[0] == kind]
        if not at:
            continue
        tail = form_tail(_padded([forms[i][1] for i in at]), kind, [forms[i][2] for i in at])
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


def recip_exp_bound_holds(t):
    """Check 1/(1-t) <= e^(t+t^2) for t <= 1/2 (equality at t = 0), elementwise for an array t."""
    t = np.asarray(t, dtype=float)
    if np.any(t > 0.5):
        raise ValueError("inequality is only claimed for t <= 1/2")
    # compare logs so large negative t cannot overflow the right side
    return -np.log1p(-t) <= t + t * t


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
    signs = []  # every third case's sign weights
    tau4s = []  # the other cases' tau4
    for i in range(cases):
        family = i % 3
        if family == 2:
            signs.append(_random_sign_weights(rng, i))
            continue
        taus = _random_tau(rng, i)
        if family == 0:
            m2 = 2.0 * float(np.sum(taus**2))
            tau4s.append(chi2_moment4(taus) / (m2 * m2))
        else:
            m2 = float(np.sum(taus**2))
            tau4s.append(exp_moment4(taus) / (m2 * m2))
        forms.append(("ChiSq" if family == 0 else "Exp", taus, float(np.sum(taus))))
    tails = zip(tau4s, _tails(forms))
    if signs:  # none when cases < 3
        probs, m4s = exhaustive_sign_prob(_padded(signs))
        exact = zip(signs, probs.tolist(), m4s.tolist())
    results = []
    for i in range(cases):
        if i % 3 == 2:
            w, prob, m4 = next(exact)
            m2 = float(np.sum(w**2))
            results.append(AsymmetryResult(check_id, coeff / (m4 / (m2 * m2)), prob, 0.0,
                                           "Exhaustive", 1 << w.shape[0]))
        else:
            tau4, (prob, error, nodes) = next(tails)
            results.append(AsymmetryResult(check_id, coeff / tau4, prob, error, "Quadrature", nodes))
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
    ws = [_random_sign_weights(rng, i) for i in range(cases)]
    stack = _padded(ws)
    probs, m4s = exhaustive_sign_prob(stack)
    results = []
    notes = []
    for i, (w, prob, m4, formula) in enumerate(zip(ws, probs.tolist(), m4s.tolist(),
                                                   bernoulli_moment4(stack).tolist())):
        results.append(AsymmetryResult(check_id, SIGN_ASYM_BOUND, prob, 0.0,
                                       "Exhaustive", 1 << w.shape[0]))
        if prob <= SIGN_ASYM_BOUND:
            notes.append(f"case {i}: exact probability {prob:.6f} <= 1/87")
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
    grid_ok = bool(np.all(recip_exp_bound_holds(np.linspace(-5.0, 0.5, 1101))))
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
