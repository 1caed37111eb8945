"""Homogeneous self-dual interior-point core for batches of QCQP relaxations.

Solves, for every instance of a batch,
    minimize    <C, X>
    subject to  <A_i, X> + g_i s_i = 1,   i = 1..p
                X Hermitian PSD (n x n, real symmetric for real data),
                s >= 0 (p scalars),

g_i = -1 for a >= row and +1 for a <= row (the slack signs), with
Nesterov-Todd scaling and a Mehrotra predictor-corrector step inside the
simplified homogeneous model, so infeasibility and unboundedness come out
as certificates instead of crashes.  <A, B> = Re Tr(A* B), which is
Tr(A B) for Hermitian A and B.  Residuals are reported in row-normalized
units: each row is divided by max(1, ||(A_i, g_i)||_F) before solving, and
the objective by max(1, ||C||_F).

One field.  Complex data is solved at its own dimension n, as SeDuMi
(Sturm 1999) and SDPT3 handle Hermitian cones: X and Z are Hermitian and
every transpose of a cone matrix is the conjugate transpose.  Each inner
product <A, B> is a real dot over the arrays' float64 views, in which a
complex entry is its (re, im) pair, so the constraint map, its adjoint,
the row norms and the Schur complement stay real BLAS calls; only the
n x n products of the scaling are complex.  Real data goes through
exactly the real calls.

Batch layout.  Every array has a leading batch axis, and the instances of
one call share their field, n and p: C is (B, n, n), A (B, p, n, n) and
the slack signs G (B, p).  The slack products are elementwise, and the
Schur complement's slack part is a diagonal.  The constraints are
flattened once to a real (B, p, k) stack A2, k = n*n float64 slots for
real data and 2*n*n for complex.  The map X, s -> <A_i, X> + g_i s_i is
one batched matrix-vector product (op_a), its adjoint's matrix part one
batched vector-matrix product (op_at), and the Schur complement
M_ij = <A_i, W A_j W> is the batched product A2 (W A W)^T over the stack
W A_j W (schur_matrix), as SDPT3 forms it (Toh, Todd & Tutuncu, Optim.
Methods Softw. 1999).  Every step of an iteration runs once on the stacks
of the instances still in the batch, and each instance's slice goes
through the same BLAS and LAPACK calls that it would alone.  So its
iterates do not depend on the rest of the batch, and a batch of one is
the solo solve.

Leaving the batch.  An instance leaves at the top of an iteration when it
has converged or found a certificate.  It leaves at the end of one when
its step failed (scaling breakdown, degenerate Schur system, non-finite
search direction, a LAPACK error) or its step size collapsed; its iterate
is then the one that iteration started from.  A leaving instance gets the
loose certificate test and the best-iterate fallback at once and is
packaged as its own ConicResult; the rest go on with the stacks
compacted.  A batched eigh, eigvalsh or solve that raises is redone one
slice at a time, the Schur solve with the same regularized retry, so a
failure is charged to its own instance only.

The cap.  A call is solved as consecutive batches of batch_size(p, k)
instances, which keeps B * p * (k + 2p), the float64 slots of the stacked
constraints and Schur matrices, under _BATCH_ELEMENTS = 2^17 (1 MiB);
schur_matrix forms the stacks W A_j and W A_j W a quarter of that at a
time, in buffers the batch keeps.  So an n = 10 sweep solves complex
m = 100 relaxations three at a time and every smaller shape four or more
at a time (batch_size).  Stacking pays at every shape; the cap is set by
memory.  It was picked from sweeps at 2^16, 2^17 and 2^18 while complex
data was still solved in a real 2n x 2n embedding: 2^18 was a little
faster again, but raised a min sweep's peak resident memory by 7% where
2^17 raised it by 3%.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_STEP_FRACTION = 0.98
_EIG_FLOOR = 1e-14
_BATCH_ELEMENTS = 2**17
# stopping rule: relative gap and row-normalized residuals, certificate test
_GAP_TOL = 1e-8
_FEAS_TOL = 1e-9
_CERT_TOL = 1e-9
_MAX_ITER = 200


def batch_size(p: int, k: int) -> int:
    """Instances per batch for p constraints of k float64 slots each, under _BATCH_ELEMENTS.

    An n x n matrix takes k = n^2 slots, or 2 n^2 when complex.  An
    instance holds p k slots of constraints and 2 p^2 of Schur matrix, one
    p^2 of them while it is symmetrized.  The relaxations of an n = 10
    sweep (p = m + 1) batch 195 (real) or 103 (complex) at m = 5, 26 or 16
    at m = 30, and 4 or 3 at m = 100.
    """
    return max(1, _BATCH_ELEMENTS // (p * (k + 2 * p)))


@dataclass(frozen=True)
class ConicResult:
    """One relaxation's outcome; an unbounded one holds its improving ray in
    X, an infeasible one its Farkas certificate in (y, Z)."""

    status: str  # optimal | infeasible | unbounded | numerical_failure
    X: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    iterations: int
    message: str
    objective: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    rel_gap: float = np.nan


def _t(M):
    return M.swapaxes(-1, -2)


def _h(M):
    """The conjugate transpose of every matrix of a stack."""
    return _t(M).conj() if M.dtype.kind == "c" else _t(M)


def _sym(M):
    return 0.5 * (M + _h(M))


def _real(a):
    """A complex array as its float64 view, each entry an (re, im) pair; a real one as it is."""
    return np.ascontiguousarray(a).view(np.float64) if a.dtype.kind == "c" else a


def _flat(X):
    """A (B, n, n) stack as (B, k) float64 rows."""
    return _real(X).reshape(X.shape[0], -1)


def _mats(rows, n):
    """float64 rows (..., k) as (..., n, n) matrices, complex when k = 2 n^2."""
    if rows.shape[-1] != n * n:
        rows = rows.view(np.complex128)
    return rows.reshape(rows.shape[:-1] + (n, n))


def _dot(a, b):
    """<a_k, b_k> = Re Tr(a_k* b_k) for every instance k, as one BLAS dot per slice; shape (B,)."""
    if a.dtype.kind == "c":
        a, b = _real(a), _real(b)
    B = len(a)
    if B == 1:  # the same ddot on contiguous copies, without the batched call's overhead
        return np.array([np.vdot(a, b)])
    k = a.size // B
    return (a.reshape(B, 1, k) @ b.reshape(B, k, 1)).ravel()


def _mv(M, v):
    """M_k v_k for every instance k."""
    return (M @ v[..., None])[..., 0]


def _diagonal(M):
    """The diagonals of a (B, k, k) stack, as a writable (B, k) view."""
    k = M.shape[-1]
    return M.reshape(len(M), k * k)[:, :: k + 1]


def _diag(v):
    """The (B, k, k) stack of diagonal matrices with diagonals v."""
    out = np.zeros(v.shape + v.shape[-1:])
    _diagonal(out)[:] = v
    return out


def _min1(a):
    """Python's min(1.0, a) per instance: a NaN a gives 1.0."""
    return np.fmin(1.0, a)


# per-instance masks are short, and a list is quicker to test than an array
def _any(mask):
    return any(mask.tolist())


def _all(mask):
    return all(mask.tolist())


def op_a(A2, G, X, s):
    """<A_i, X> + g_i s_i for every row of every instance; A2 is (B, p, k) float64 rows, G (B, p) signs."""
    return _mv(A2, _flat(X)) + G * s


def op_at(A2, y, n):
    """sum_i y_i A_i for every instance, as a (B, n, n) stack (the adjoint's matrix part)."""
    return _mats((y[:, None, :] @ A2)[:, 0], n)


def _slots(n, dtype):
    """The float64 slots of an n x n matrix of dtype: n^2, or 2 n^2 when complex."""
    return n * n * np.dtype(dtype).itemsize // 8


def _schur_step(p, k):
    """Instances per part in schur_matrix: at most _BATCH_ELEMENTS / 4 slots of W A_j, one at least."""
    return max(1, _BATCH_ELEMENTS // 4 // (p * k))


def _schur_work(B, p, n, dtype):
    """Buffers for schur_matrix: W A_j and W A_j W of one part, and M for B instances.

    A batch keeps them for all its iterations.  Formed afresh, a stack larger
    than the C allocator's mmap threshold (128 KiB by default; the W A_j of one
    complex m = 100 relaxation is 158 KiB) is a new mapping every iteration,
    and faulting its pages in again cost half as much time as the products.
    """
    k = min(B, _schur_step(p, _slots(n, dtype)))
    return np.empty((k, p, n, n), dtype), np.empty((k, p, n, n), dtype), np.empty((B, p, p))


def schur_matrix(A2, G, W, d2, work):
    """M_ij = <A_i, W A_j W> + [i = j] g_i d2_i g_i for every instance, from batched GEMMs.

    The stacks W A_j and W A_j W are formed one part of _schur_step
    instances at a time, so they add a fraction of the constraint stack to
    a batch's memory.  work holds the buffers (_schur_work) for at least
    this many instances; M is written into the last one.  W A_j is a
    complex product for complex data, and M one real GEMM over the float64
    views either way.
    """
    B, p, k, n = *A2.shape, W.shape[-1]
    step = _schur_step(p, k)
    WA, WAW, M = work
    M = M[:B]
    for lo in range(0, B, step):
        Wk = W[lo : lo + step, None]
        j = len(Wk)
        np.matmul(Wk, _mats(A2[lo : lo + j], n), out=WA[:j])
        np.matmul(WA[:j], Wk, out=WAW[:j])
        np.matmul(A2[lo : lo + j], _t(_real(WAW[:j]).reshape(j, p, k)), out=M[lo : lo + j])
    _diagonal(M)[:] += (G * d2) * G
    M += _t(M)  # symmetrized in place, one (B, p, p) stack fewer than _sym
    M *= 0.5
    return M


class _AllFailed(Exception):
    """Every instance of the batch has failed its step: the iteration stops early."""


def _all_failed(fail, rows):
    if len(fail) == len(rows):
        raise _AllFailed


def _charge(fail, bad, message):
    """Record message for every instance in the mask bad that has no failure yet."""
    if _any(bad):
        for i in np.flatnonzero(bad).tolist():
            fail.setdefault(i, message)


def _eig(fn, stack, fail, message=None):
    """np.linalg.eigh or eigvalsh over a stack; on LinAlgError, one slice at a time.

    A slice that raises on its own is charged to its instance and gets the
    decomposition of the identity in its place.
    """
    try:
        return fn(stack)
    except np.linalg.LinAlgError:
        pass
    parts = []
    for i, mat in enumerate(stack):
        try:
            parts.append(fn(mat))
        except np.linalg.LinAlgError as exc:
            fail.setdefault(i, message or str(exc) or "linear algebra breakdown")
            parts.append(fn(np.broadcast_to(np.eye(mat.shape[-1]), mat.shape)))
    if isinstance(parts[0], tuple):
        return tuple(map(np.stack, zip(*parts)))
    return np.stack(parts)


def _solve(M, rhs, fail):
    """M_k u = rhs_k for every instance; a singular M_k is retried regularized, alone.

    rhs is (B, p, k) with k explicit, which numpy reads the same before and
    after 2.0.
    """
    try:
        return np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError:
        pass
    out = np.zeros_like(rhs)
    p = M.shape[-1]
    for i in range(len(M)):
        try:
            out[i] = np.linalg.solve(M[i], rhs[i])
        except np.linalg.LinAlgError:
            reg = M[i] + (1e-13 * np.trace(M[i]) / max(p, 1) + 1e-300) * np.eye(p)
            try:
                out[i] = np.linalg.solve(reg, rhs[i])
            except np.linalg.LinAlgError as exc:
                fail.setdefault(i, str(exc) or "linear algebra breakdown")
    return out


class _Problem(NamedTuple):
    """The row-normalized data of the instances in a batch."""

    A2: np.ndarray  # (B, p, n*n)
    Gs: np.ndarray  # (B, p)
    bs: np.ndarray  # (B, p)
    Cs: np.ndarray  # (B, n, n)
    norm_b: np.ndarray
    norm_c: np.ndarray

    def take(self, rows):
        return _Problem(*(f[rows] for f in self))

    def compact(self, keep):
        """The rows in the mask keep; A2's rows move up in place, so no second A2 is made."""
        A2 = self.A2
        idx = np.flatnonzero(keep)
        for j, k in enumerate(idx.tolist()):
            if j != k:
                A2[j] = A2[k]
        return _Problem(A2[: len(idx)], *(f[keep] for f in self[1:]))


def _split(o, q):
    """The orthant block (s, w, tau, kappa) of a (B, 2q + 2) stack, as views."""
    return o[:, :q], o[:, q : 2 * q], o[:, 2 * q], o[:, 2 * q + 1]


def _metrics(P, X, y, Z, o):
    """pres, dres, relative gap and both objectives of the iterate over tau, and that iterate.

    Values of an instance with tau <= 1e-12 are not meaningful.
    """
    n, q = X.shape[-1], (o.shape[1] - 2) // 2
    tau = o[:, 2 * q]
    t1, t3 = tau[:, None], tau[:, None, None]
    xh, yh, Zh, oh = X / t3, y / t1, Z / t3, o / t1
    sh, wh = oh[:, :q], oh[:, q : 2 * q]
    pres = np.abs(op_a(P.A2, P.Gs, xh, sh) - P.bs).max(axis=1) / P.norm_b
    Rdh = P.Cs - op_at(P.A2, yh, n) - Zh
    rdh = P.Gs * yh + wh
    dres = np.maximum(np.sqrt(_dot(Rdh, Rdh)), np.abs(rdh).max(axis=1)) / P.norm_c
    pobj = _dot(P.Cs, xh)
    dobj = _dot(P.bs, yh)
    relgap = np.abs(pobj - dobj) / (1.0 + np.maximum(np.abs(pobj), np.abs(dobj)))
    return pres, dres, relgap, pobj, dobj, (xh, yh, Zh, oh)


def _certificates(P, X, y, Z, o, tol, AX, Aty, Gty):
    """Masks of the instances whose iterate is a primal ray (unbounded) or a Farkas y (infeasible).

    AX, Aty and Gty are A(X, s), A^T y and G y.  Also returns the ray's
    objective <C, X> and the Farkas b . y that scale the certificates.
    """
    w = _split(o, (o.shape[1] - 2) // 2)[1]
    cobj = _dot(P.Cs, X)
    by = _dot(P.bs, y)
    ray = cobj < -1e-14
    farkas = by > 1e-14
    if _any(ray):
        ray &= np.abs(AX).max(axis=1) / -cobj <= tol
        farkas &= ~ray
    if _any(farkas):
        R = Aty + Z
        res = np.maximum(np.sqrt(_dot(R, R)), np.abs(Gty + w).max(axis=1))
        farkas &= res / by <= tol
    return ray, farkas, cobj, by


def _operators(P, X, y, o):
    """A(X, s), A^T y and G y."""
    s = o[:, : (o.shape[1] - 2) // 2]
    return op_a(P.A2, P.Gs, X, s), op_at(P.A2, y, X.shape[-1]), P.Gs * y


def solve_conic(C, A, G) -> list[ConicResult]:
    """Solve a batch of relaxations of one shape; one ConicResult per instance, in order.

    G is the (B, p) slack signs.  A may also be a sequence of B (p, n, n)
    arrays, which is read without stacking it.  Complex C or A make the
    batch complex: X and Z are then Hermitian, and G stays real.
    """
    dtype = complex if np.iscomplexobj(C) or np.iscomplexobj(A[0]) else float
    C = np.asarray(C, dtype)
    G = np.asarray(G, float)
    B, p, n = len(A), len(A[0]), C.shape[-1]
    size = batch_size(p, _slots(n, dtype))
    if B <= size:
        return _solve_batch(C, A, G)
    return [
        res
        for lo in range(0, B, size)
        for res in _solve_batch(*(a[lo : lo + size] for a in (C, A, G)))
    ]


def _solve_batch(C, A, G):
    B, p, n = len(A), len(A[0]), C.shape[-1]

    # row and objective normalization (undone on exit); where() keeps Python's
    # max(1.0, x), which ignores a NaN x
    Aflat = [_real(np.asarray(a, C.dtype)).reshape(p, -1) for a in A]
    k = Aflat[0].shape[-1]
    rown = np.maximum(1.0, np.sqrt(np.array([np.sum(a * a, axis=-1) for a in Aflat]) + G * G))
    A2 = np.empty((B, p, k))
    for a, r, out in zip(Aflat, rown, A2):
        np.divide(a, r[:, None], out=out)
    cn = np.sqrt(_dot(C, C))
    cn = np.where(cn > 1.0, cn, 1.0)
    bs, Cs = 1.0 / rown, C / cn[:, None, None]
    # the working stacks, rows of the instances still in the batch: the data,
    # X, y, Z and the orthant block o = (s, w, tau, kappa)
    P = _Problem(A2, G / rown, bs, Cs, 1.0 + np.abs(bs).max(axis=-1), 1.0 + np.sqrt(_dot(Cs, Cs)))
    del A2
    nu = n + p + 1
    rows = np.arange(B)
    eye = np.eye(n)
    I = np.repeat(np.eye(n, dtype=C.dtype)[None], B, 0)  # X and Z start here; no stack is changed in place
    state = [I, np.zeros((B, p)), I, np.ones((B, 2 * p + 2))]
    stalls = [0] * B
    # the best iterate over tau and its score; the first iteration's score
    # is finite, so inf stands in for "none yet" (and state for its iterate)
    best, best_score = list(state), np.full(B, np.inf)
    converged = np.zeros(B, bool)
    certified = np.zeros(B, bool)
    out = [None] * B  # by position in the call
    work = _schur_work(B, p, n, C.dtype)

    def finish(leaving, it, why, mets=None):
        """Package the leaving rows' results and drop them from the working stacks.

        mets holds the working rows' metrics of this iterate, if computed.
        Returns the mask of the rows that stay, or None when none does.
        """
        nonlocal P, rows, state, best, best_score, stalls
        idx = np.flatnonzero(leaving)
        every = len(idx) == len(rows)
        take = (lambda v: v) if every else (lambda v: v[idx])
        gone = rows[idx].tolist()
        results = _results(
            P if every else P.take(idx),
            [take(v) for v in state], [take(v) for v in best], best_score[idx],
            converged[gone], certified[gone], [why(k) for k in idx.tolist()], it,
            [(Aflat[i], G[i : i + 1], rown[i], cn[i]) for i in gone],
            None if mets is None else [take(v) for v in mets],
        )
        for i, res in zip(gone, results):
            out[i] = res
        if every:
            rows = rows[:0]
            return None
        keep = ~leaving
        P, rows, best_score = P.compact(keep), rows[keep], best_score[keep]
        stalls = [k for k, kept in zip(stalls, keep.tolist()) if kept]
        state, best = [v[keep] for v in state], [v[keep] for v in best]
        return keep

    with np.errstate(all="ignore"):  # a failed instance runs on to the end of its iteration
        for it in range(_MAX_ITER):
            X, y, Z, o = state
            s, w, tau, kappa = _split(o, p)
            *mets, scaled = _metrics(P, X, y, Z, o)
            pres, dres, relgap = mets[:3]
            infeas = np.maximum(pres, dres)
            score = np.maximum(infeas, relgap) / 1e-7  # the largest of the three over 1e-7
            live = tau > 1e-12
            better = live & (score < best_score)
            if _all(better):
                best, best_score = list(scaled), score
            elif _any(better):
                best_score = np.where(better, score, best_score)
                best = [np.where(better.reshape((-1,) + (1,) * (v.ndim - 1)), v, b) for v, b in zip(scaled, best)]
            done = live & (infeas <= _FEAS_TOL) & (relgap <= _GAP_TOL)
            AX, Aty, Gty = _operators(P, X, y, o)
            ray, farkas, cobj, by = _certificates(P, X, y, Z, o, _CERT_TOL, AX, Aty, Gty)
            leaving = done | ray | farkas
            if _any(leaving):
                converged[rows[done]] = True
                certified[rows[leaving & ~done]] = True
                keep = finish(leaving, it, lambda k: "converged" if done[k] else "certificate found", mets)
                if keep is None:
                    break
                X, y, Z, o = state
                s, w, tau, kappa = _split(o, p)
                AX, Aty, Gty, cobj, by = (v[keep] for v in (AX, Aty, Gty, cobj, by))
                mets = [v[keep] for v in mets]

            fail = {}  # working row -> why its step failed, the first reason kept
            t1, t3 = tau[:, None], tau[:, None, None]
            rp = AX - P.bs * t1
            Rd = -Aty + P.Cs * t3 - Z
            rd = -Gty - w
            rg = by - cobj - kappa
            mu = (_dot(X, Z) + _dot(s, w) + tau * kappa) / nu

            try:
                # Nesterov-Todd scaling: W = R R* with R* Z R = R^-1 X R^-* = diag(sig)
                lx, Qx = _eig(np.linalg.eigh, X, fail, "scaling breakdown")
                lx = np.maximum(lx, _EIG_FLOOR * np.maximum(lx[:, -1:], 1e-100))
                rx = np.sqrt(lx)[:, None, :]
                Qxt = _h(Qx)
                Xh = (Qx * rx) @ Qxt
                Xhi = (Qx / rx) @ Qxt
                lm, Pm = _eig(np.linalg.eigh, _sym(Xh @ Z @ Xh), fail, "scaling breakdown")
                _all_failed(fail, rows)
                lm = np.maximum(lm, _EIG_FLOOR * np.maximum(lm[:, -1:], 1e-100))
                sig = np.sqrt(lm)
                q4 = (lm**0.25)[:, None, :]
                R = Xh @ (Pm / q4)
                Rinv = _h(Pm * q4) @ Xhi
                Rt, Rinvt = _h(R), _h(Rinv)
                W = R @ Rt
                root = np.sqrt(sig)
                scale = (root[:, :, None] * root[:, None, :])[:, None]
                d = np.sqrt(s / w)
                v = np.sqrt(s * w)
                d2 = d * d

                M = schur_matrix(P.A2, P.Gs, W, d2, work)
                WCW = W @ P.Cs @ W
                h = _mv(P.A2, _flat(WCW))
                g = _dot(P.Cs, WCW)
                WRdW = W @ Rd @ W
                f_vec = op_a(P.A2, P.Gs, WRdW, d2 * rd)
                e_c = _dot(P.Cs, WRdW)
                b_h = P.bs - h
                gk = g + kappa / tau
                rhs = np.empty((len(rows), p, 2))
                rhs[..., 1] = h + P.bs

                def direction(eta, RRc, rc_l, rc_t):
                    """dX, dy, dZ and the orthant block's direction (ds, dw, dtau, dkappa).

                    RRc is R Rc_t, the scaled complementarity residual's
                    matrix part times R.
                    """
                    Rc_full = _sym(RRc @ Rt)
                    rcs = d * rc_l
                    A_rc = op_a(P.A2, P.Gs, Rc_full, rcs)
                    e1 = eta[:, None]
                    rhs[..., 0] = -e1 * rp - A_rc + e1 * f_vec
                    q2 = -eta * rg + _dot(P.Cs, Rc_full) - eta * e_c + rc_t / tau
                    uv = _solve(M, rhs, fail)
                    u_, v_ = uv[..., 0], uv[..., 1]
                    den = gk + _dot(b_h, v_)
                    for i, x in enumerate(den.tolist()):
                        if not 1e-300 <= abs(x) < math.inf:  # also NaN
                            fail.setdefault(i, "degenerate Schur system")
                    dtau = (q2 - _dot(b_h, u_)) / den
                    dt1 = dtau[:, None]
                    dy = u_ + v_ * dt1
                    dZ = _sym(-op_at(P.A2, dy, n) + P.Cs * dtau[:, None, None] + eta[:, None, None] * Rd)
                    dw_ = -(P.Gs * dy) + e1 * rd
                    dX = _sym(Rc_full - W @ dZ @ W)
                    ds_ = rcs - d2 * dw_
                    dk1 = (rc_t - kappa * dtau)[:, None] / t1
                    do = np.concatenate([ds_, dw_, dt1, dk1], axis=1)
                    B_ = len(do)
                    every = (dX.reshape(B_, -1), dZ.reshape(B_, -1), dy, do, dt1 + dk1)
                    finite = np.isfinite(np.concatenate(every, axis=1)).all(axis=1)
                    _charge(fail, ~finite, "non-finite search direction")
                    _all_failed(fail, rows)
                    if fail:  # the failed rows ride along on a zero direction
                        for arr in (dX, dy, dZ, do):
                            arr[list(fail)] = 0.0
                    return dX, dy, dZ, do

                def step_limit(dX, dZ, do):
                    """The largest step keeping X, Z and the orthant block feasible, and the scaled dX, dZ.

                    The PSD limit is max alpha with diag(sig) + alpha*D >= 0 for
                    both scaled directions, via I + alpha*S, from one stacked
                    eigvalsh; where nothing limits it, it is 1e300 instead of
                    inf, which changes no step, as steps are at most 1.  The
                    orthant ratios never compare NaN, so minimum() keeps
                    Python's min, where a NaN PSD limit stays NaN.
                    """
                    dXs, dZs = Rinv @ dX @ Rinvt, Rt @ dZ @ R
                    S = np.stack([dXs, dZs], axis=1) / scale
                    lmin = _eig(np.linalg.eigvalsh, _sym(S), fail)[..., 0].min(axis=1)
                    _all_failed(fail, rows)
                    ratio = np.where(do < 0, -o / do, np.inf).min(axis=1)
                    return np.minimum(-1.0 / np.minimum(lmin, -1e-300), ratio), dXs, dZs

                # R diag(-sig) as a product with -sig's columns: the same values
                dXa, _, dZa, doa = direction(np.ones(len(rows)), R * -sig[:, None, :], -v, -tau * kappa)
                a_aff, dXt_a, dZt_a = step_limit(dXa, dZa, doa)
                a_aff = _min1(a_aff)
                a3 = a_aff[:, None, None]
                sa, wa, ta, ka = _split(o + a_aff[:, None] * doa, p)
                mu_aff = (_dot(X + a3 * dXa, Z + a3 * dZa) + _dot(sa, wa) + ta * ka) / nu
                # libm's pow one value at a time, as the scalar steps have always
                # computed it; numpy's SIMD pow can differ in the last bit
                sigma = np.array([min(1.0, max(0.0, r**3)) for r in np.maximum(mu_aff, 0.0) / mu])

                dsa, dwa, dtaua, dkappaa = _split(doa, p)
                corr = _sym(dXt_a @ dZt_a)
                E = 0.5 * (sig[:, :, None] + sig[:, None, :])
                smu = sigma * mu
                Rc_t = (smu[:, None, None] * eye - _diag(sig * sig) - corr) / E
                rc_l = (smu[:, None] - v * v - (dsa / d) * (d * dwa)) / v
                rc_t = smu - tau * kappa - dtaua * dkappaa
                dX, dy, dZ, do = direction(1.0 - sigma, R @ Rc_t, rc_l, rc_t)
                alpha = _min1(_STEP_FRACTION * step_limit(dX, dZ, do)[0])

                stalls = [k + 1 if a < 1e-8 else 0 for k, a in zip(stalls, alpha.tolist())]
                for i, k in enumerate(stalls):
                    if k >= 3:
                        fail.setdefault(i, "step size collapsed")
            except _AllFailed:
                pass
            if fail:
                failed = np.zeros(len(rows), bool)
                failed[list(fail)] = True
                keep = finish(failed, it, fail.get, mets)
                if keep is None:
                    break
                X, y, Z, o = state
                dX, dy, dZ, do, alpha = (a[keep] for a in (dX, dy, dZ, do, alpha))
            a1, a3 = alpha[:, None], alpha[:, None, None]
            state = [_sym(X + a3 * dX), y + a1 * dy, _sym(Z + a3 * dZ), o + a1 * do]
        else:
            if len(rows):
                finish(np.ones(len(rows), bool), _MAX_ITER, lambda k: "iteration cap reached")

    return out


def _results(P, state, best, best_score, converged, certified, messages, it, raw, mets):
    """One ConicResult per row of these stacks, which leave the batch after iteration it.

    A row that left without a verdict gets the loose certificate test and
    then the best-iterate fallback.  raw holds each row's original A (flat),
    G, row norms and objective scale; mets, the first five values _metrics
    gives for state, or None when they are not at hand.
    """
    X, y, Z, o = state
    B, n, q = len(X), X.shape[-1], (o.shape[1] - 2) // 2
    kind = fallback = [0] * B
    with np.errstate(all="ignore"):
        if not _all(converged):
            tol = np.where(certified, _CERT_TOL, 1e-7)
            ray, farkas, cobj, by = _certificates(P, X, y, Z, o, tol, *_operators(P, X, y, o))
            kind = np.where(converged, 0, np.where(ray, 1, np.where(farkas, 2, 0))).tolist()
            fallback = ((np.array(kind) == 0) & ~converged & (best_score <= 1.0)).tolist()
        if any(fallback):
            X, y, Z, o = (v.copy() for v in state)
            for i in np.flatnonzero(fallback):
                X[i], y[i], Z[i], o[i] = (v[i] for v in best)
                o[i, 2 * q] = 1.0
        if mets is None or any(fallback):
            mets = _metrics(P, X, y, Z, o)[:5]
    pres, dres, relgap, pobj = (v.tolist() for v in mets[:4])
    s, w, tau, _ = _split(o, q)
    converged, certified, tau = converged.tolist(), certified.tolist(), tau.tolist()

    out = []
    for i, (Aflat, G, rown, cn) in enumerate(raw):
        if kind[i]:
            message = messages[i] if certified[i] else "certificate found (loose)"
        else:
            message = "accepted best iterate at fallback tolerance" if fallback[i] else messages[i]
        if kind[i] == 1:
            rX, rs = X[i] / -cobj[i], s[i] / -cobj[i]
            scale = cn * max(-_dot(P.Cs[i : i + 1], rX[None])[0], 1e-300)
            rX, rs = rX / scale, rs / scale  # <C_orig, rX> = -1
            pres_ray = np.abs(op_a(Aflat[None], G, rX[None], rs[None])).max()
            out.append(ConicResult(
                status="unbounded", X=_sym(rX), y=np.zeros(len(rown)), Z=np.zeros_like(rX),
                objective=-np.inf,
                primal_residual=float(pres_ray), iterations=it, message=message,
            ))
        elif kind[i] == 2:
            fy, fZ, fw = y[i] / by[i] / rown, Z[i] / by[i], w[i] / by[i]  # b.fy = 1
            R = op_at(Aflat[None], fy[None], n)[0] + fZ
            res = max(np.linalg.norm(R), np.max(np.abs(G[0] * fy + fw)))
            out.append(ConicResult(
                status="infeasible", X=np.full_like(fZ, np.nan), y=fy, Z=_sym(fZ),
                dual_residual=float(res), iterations=it, message=message,
            ))
        else:
            # optimal or numerical_failure: the iterate, unscaled
            ok = tau[i] > 1e-12
            t = max(tau[i], 1e-300)
            out.append(ConicResult(
                status="optimal" if converged[i] or fallback[i] else "numerical_failure",
                X=_sym(X[i] / t), y=y[i] / t * cn / rown, Z=_sym(Z[i] / t) * cn,
                objective=pobj[i] * cn if ok else np.nan,
                primal_residual=float(pres[i]) if ok else np.nan,
                dual_residual=float(dres[i]) if ok else np.nan,
                rel_gap=float(relgap[i]) if ok else np.nan,
                iterations=it, message=message,
            ))
    return out
