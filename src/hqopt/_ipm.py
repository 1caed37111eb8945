"""Homogeneous self-dual interior-point core for small dense conic programs.

Solves
    minimize    <C, X> + c_lin . s
    subject to  Tr(A_i X) + G_i . s = b_i,   i = 1..p
                X symmetric PSD (n x n),  s >= 0 (q scalars)

with Nesterov-Todd scaling and a Mehrotra predictor-corrector step inside
the simplified homogeneous model, so infeasibility and unboundedness come
out as certificates instead of crashes.  Residuals are reported in
row-normalized units: each row is divided by max(1, ||(A_i, G_i)||_F)
before solving, and the objective by max(1, ||C||_F, ||c_lin||_inf).

The operators work on the constraints flattened once to a (p, n*n) array
A2: the map X, s -> Tr(A_i X) + G_i . s is one matrix-vector product
(op_a), its adjoint's matrix part one vector-matrix product (op_at), and
the Schur complement M_ij = Tr(A_i W A_j W) is the single product
A2 (W A W)^T over the stack W A_j W (schur_matrix), as SDPT3 forms it
(Toh, Todd & Tutuncu, Optim. Methods Softw. 1999).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_STEP_FRACTION = 0.98
_EIG_FLOOR = 1e-14


class _DirectionFailure(Exception):
    """Newton system produced a non-finite or degenerate direction."""


@dataclass(frozen=True)
class ConicResult:
    status: str  # optimal | infeasible | unbounded | numerical_failure
    X: np.ndarray
    s: np.ndarray
    y: np.ndarray
    Z: np.ndarray
    w: np.ndarray
    iterations: int
    message: str
    objective: float = np.nan
    dual_objective: float = np.nan
    primal_residual: float = np.nan
    dual_residual: float = np.nan
    rel_gap: float = np.nan
    ray: tuple[np.ndarray, np.ndarray] | None = None
    farkas: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


def _sym(M):
    return 0.5 * (M + M.T)


def _ip(A, B):
    return float(np.vdot(A, B))


def op_a(A2, G, X, s):
    """Tr(A_i X) + G_i . s for every row; A2 holds the A_i flattened, (p, n*n)."""
    return A2 @ X.ravel() + G @ s


def op_at(A2, y, n):
    """sum_i y_i A_i as an n x n matrix (the adjoint's matrix part)."""
    return (y @ A2).reshape(n, n)


def schur_matrix(A2, G, W, d2):
    """M_ij = Tr(A_i W A_j W) + sum_k G_ik d2_k G_jk, from one GEMM."""
    p, n = A2.shape[0], W.shape[0]
    WAW = W @ A2.reshape(p, n, n) @ W
    return _sym(A2 @ WAW.reshape(p, n * n).T + (G * d2) @ G.T)


def _nt_scaling(X, Z):
    lx, Qx = np.linalg.eigh(X)
    lx = np.maximum(lx, _EIG_FLOOR * max(lx[-1], 1e-100))
    rx = np.sqrt(lx)
    Xh = (Qx * rx) @ Qx.T
    Xhi = (Qx / rx) @ Qx.T
    M0 = _sym(Xh @ Z @ Xh)
    lm, P = np.linalg.eigh(M0)
    lm = np.maximum(lm, _EIG_FLOOR * max(lm[-1], 1e-100))
    sig = np.sqrt(lm)
    q4 = lm**0.25
    R = Xh @ (P / q4)
    Rinv = (P * q4).T @ Xhi
    return R, Rinv, R @ R.T, sig


def _psd_step_limit(dX_scaled, dZ_scaled, sig):
    # max alpha with diag(sig) + alpha*D >= 0 for both directions, via
    # I + alpha*S, from one stacked eigvalsh
    root = np.sqrt(sig)
    S = np.stack([dX_scaled, dZ_scaled]) / np.outer(root, root)
    lmin = float(np.linalg.eigvalsh(0.5 * (S + S.swapaxes(1, 2)))[:, 0].min())
    return np.inf if lmin >= -1e-300 else 1.0 / (-lmin)


def _ratio_limit(x, dx):
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def solve_conic(
    C,
    A,
    b,
    G=None,
    c_lin=None,
    *,
    gap_tol: float = 1e-8,
    feas_tol: float = 1e-9,
    cert_tol: float = 1e-9,
    max_iter: int = 200,
) -> ConicResult:
    C = np.asarray(C, float)
    Amat = np.asarray(A, float)
    b = np.asarray(b, float)
    p, n = Amat.shape[0], C.shape[0]
    if G is None:
        G = np.zeros((p, 0))
    G = np.asarray(G, float)
    q = G.shape[1]
    c_lin = np.zeros(q) if c_lin is None else np.asarray(c_lin, float)

    # row and objective normalization (undone on exit)
    Aflat = Amat.reshape(p, n * n)
    rown = np.maximum(1.0, np.sqrt(np.sum(Aflat * Aflat, axis=1) + np.sum(G * G, axis=1)))
    cn = max(1.0, float(np.linalg.norm(C)), float(np.max(np.abs(c_lin), initial=0.0)))
    A2 = Aflat / rown[:, None]  # the row-normalized A_i, flattened
    Gs = G / rown[:, None]
    bs = b / rown
    Cs = C / cn
    cl = c_lin / cn

    def opA(X, s):
        return op_a(A2, Gs, X, s)

    def opAt_mat(y):
        return op_at(A2, y, n)

    norm_b = 1.0 + float(np.max(np.abs(bs)))
    norm_c = 1.0 + max(float(np.linalg.norm(Cs)), float(np.max(np.abs(cl), initial=0.0)))

    X = np.eye(n)
    Z = np.eye(n)
    s = np.ones(q)
    w = np.ones(q)
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nu = n + q + 1

    best = None  # (score, snapshot)
    status, message = "numerical_failure", "iteration cap reached"
    ray = farkas = None
    stalls = 0
    it = 0

    def metrics():
        xh, sh = X / tau, s / tau
        yh, Zh, wh = y / tau, Z / tau, w / tau
        pres = float(np.max(np.abs(opA(xh, sh) - bs))) / norm_b
        Rdh = Cs - opAt_mat(yh) - Zh
        rdh = cl - Gs.T @ yh - wh
        dres = max(float(np.linalg.norm(Rdh)), float(np.max(np.abs(rdh), initial=0.0))) / norm_c
        pobj = _ip(Cs, xh) + cl @ sh
        dobj = bs @ yh
        relgap = abs(pobj - dobj) / (1.0 + max(abs(pobj), abs(dobj)))
        return pres, dres, relgap, pobj, dobj

    def certificates(tol):
        # dual-infeasible direction => primal ray; Farkas y => infeasible
        cobj = _ip(Cs, X) + cl @ s
        if cobj < -1e-14:
            quality = float(np.max(np.abs(opA(X, s)))) / (-cobj)
            if quality <= tol:
                return "unbounded", (X / (-cobj), s / (-cobj)), None
        by = bs @ y
        if by > 1e-14:
            res = max(
                float(np.linalg.norm(opAt_mat(y) + Z)),
                float(np.max(np.abs(Gs.T @ y + w), initial=0.0)),
            )
            if res / by <= tol:
                return "infeasible", None, (y / by, Z / by, w / by)
        return None, None, None

    while it < max_iter:
        if tau > 1e-12:
            pres, dres, relgap, _, _ = metrics()
            score = max(pres / 1e-7, dres / 1e-7, relgap / 1e-7)
            if best is None or score < best[0]:
                best = (score, (X / tau, s / tau, y / tau, Z / tau, w / tau))
            if pres <= feas_tol and dres <= feas_tol and relgap <= gap_tol:
                status, message = "optimal", "converged"
                break
        kind, ray_c, farkas_c = certificates(cert_tol)
        if kind is not None:
            status, message, ray, farkas = kind, "certificate found", ray_c, farkas_c
            break

        rp = opA(X, s) - bs * tau
        Rd = -opAt_mat(y) + Cs * tau - Z
        rd = -Gs.T @ y + cl * tau - w
        rg = bs @ y - (_ip(Cs, X) + cl @ s) - kappa
        mu = (_ip(X, Z) + s @ w + tau * kappa) / nu

        try:
            R, Rinv, W, sig = _nt_scaling(X, Z)
        except np.linalg.LinAlgError:
            message = "scaling breakdown"
            break
        d = np.sqrt(s / w) if q else np.zeros(0)
        v = np.sqrt(s * w) if q else np.zeros(0)
        d2 = d * d

        M = schur_matrix(A2, Gs, W, d2)
        WCW = W @ Cs @ W
        h = opA(WCW, d2 * cl)
        g = _ip(Cs, WCW) + cl @ (d2 * cl)
        WRdW = W @ Rd @ W
        f_vec = opA(WRdW, d2 * rd)
        e_c = _ip(Cs, WRdW) + cl @ (d2 * rd)

        def direction(eta, Rc_t, rc_l, rc_t):
            Rc_full = _sym(R @ Rc_t @ R.T)
            rcs = d * rc_l
            A_rc = opA(Rc_full, rcs)
            q1 = -eta * rp - A_rc + eta * f_vec
            q2 = -eta * rg + (_ip(Cs, Rc_full) + cl @ rcs) - eta * e_c + rc_t / tau
            try:
                uv = np.linalg.solve(M, np.column_stack([q1, h + bs]))
            except np.linalg.LinAlgError:
                reg = M + (1e-13 * np.trace(M) / max(p, 1) + 1e-300) * np.eye(p)
                uv = np.linalg.solve(reg, np.column_stack([q1, h + bs]))
            u_, v_ = uv[:, 0], uv[:, 1]
            den = (g + kappa / tau) + (bs - h) @ v_
            if not np.isfinite(den) or abs(den) < 1e-300:
                raise _DirectionFailure("degenerate Schur system")
            dtau = (q2 - (bs - h) @ u_) / den
            dy = u_ + v_ * dtau
            dZ = _sym(-opAt_mat(dy) + Cs * dtau + eta * Rd)
            dw_ = -Gs.T @ dy + cl * dtau + eta * rd
            dX = _sym(Rc_full - W @ dZ @ W)
            ds_ = rcs - d2 * dw_
            dkappa = (rc_t - kappa * dtau) / tau
            if not (
                np.all(np.isfinite(dX))
                and np.all(np.isfinite(ds_))
                and np.all(np.isfinite(dy))
                and np.all(np.isfinite(dZ))
                and np.all(np.isfinite(dw_))
                and np.isfinite(dtau + dkappa)
            ):
                raise _DirectionFailure("non-finite search direction")
            return dX, ds_, dy, dZ, dw_, dtau, dkappa

        def step_limit(dX, ds_, dZ, dw_, dtau, dkappa):
            a = _psd_step_limit(Rinv @ dX @ Rinv.T, R.T @ dZ @ R, sig)
            a = min(a, _ratio_limit(s, ds_), _ratio_limit(w, dw_))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        try:
            aff = direction(1.0, np.diag(-sig), -v, -tau * kappa)
            dXa, dsa, _, dZa, dwa, dtaua, dkappaa = aff
            a_aff = min(1.0, step_limit(dXa, dsa, dZa, dwa, dtaua, dkappaa))
            mu_aff = (
                _ip(X + a_aff * dXa, Z + a_aff * dZa)
                + (s + a_aff * dsa) @ (w + a_aff * dwa)
                + (tau + a_aff * dtaua) * (kappa + a_aff * dkappaa)
            ) / nu
            sigma = min(1.0, max(0.0, (max(mu_aff, 0.0) / mu) ** 3))

            dXt_a = Rinv @ dXa @ Rinv.T
            dZt_a = R.T @ dZa @ R
            corr = _sym(dXt_a @ dZt_a)
            E = 0.5 * np.add.outer(sig, sig)
            Rc_t = (sigma * mu * np.eye(n) - np.diag(sig * sig) - corr) / E
            rc_l = (sigma * mu - v * v - (dsa / d) * (d * dwa)) / v if q else v
            rc_t = sigma * mu - tau * kappa - dtaua * dkappaa
            dX, ds, dy, dZ, dw, dtau, dkappa = direction(1.0 - sigma, Rc_t, rc_l, rc_t)
            alpha = min(1.0, _STEP_FRACTION * step_limit(dX, ds, dZ, dw, dtau, dkappa))
        except (_DirectionFailure, np.linalg.LinAlgError) as exc:
            message = str(exc) or "linear algebra breakdown"
            break
        if alpha < 1e-8:
            stalls += 1
            if stalls >= 3:
                message = "step size collapsed"
                break
        else:
            stalls = 0

        X = _sym(X + alpha * dX)
        s = s + alpha * ds
        y = y + alpha * dy
        Z = _sym(Z + alpha * dZ)
        w = w + alpha * dw
        tau += alpha * dtau
        kappa += alpha * dkappa
        it += 1

    # loose fallback classification when the loop ended without a verdict
    if status == "numerical_failure":
        kind, ray_c, farkas_c = certificates(1e-7)
        if kind is not None:
            status, message, ray, farkas = kind, "certificate found (loose)", ray_c, farkas_c
        elif best is not None and best[0] <= 1.0:
            status, message = "optimal", "accepted best iterate at fallback tolerance"
            X, s, y, Z, w = best[1]
            tau = 1.0

    if status == "unbounded":
        rX, rs = ray
        scale = cn * max(-(_ip(Cs, rX) + cl @ rs), 1e-300)
        rX, rs = rX / scale, rs / scale  # <C_orig, rX> + c_lin_orig . rs = -1
        return ConicResult(
            status="unbounded",
            X=_sym(rX),
            s=rs,
            y=np.zeros(p),
            Z=np.zeros((n, n)),
            w=np.zeros(q),
            objective=-np.inf,
            dual_objective=-np.inf,
            primal_residual=float(np.max(np.abs(op_a(Aflat, G, rX, rs)))),
            iterations=it,
            ray=(_sym(rX), rs),
            message=message,
        )

    if status == "infeasible":
        fy, fZ, fw = farkas
        fy = fy / rown  # original-units multipliers, b.fy = 1
        return ConicResult(
            status="infeasible",
            X=np.full((n, n), np.nan),
            s=np.full(q, np.nan),
            y=fy,
            Z=_sym(fZ),
            w=fw,
            dual_residual=float(
                max(
                    np.linalg.norm(op_at(Aflat, fy, n) + fZ),
                    np.max(np.abs(G.T @ fy + fw), initial=0.0),
                )
            ),
            iterations=it,
            farkas=(fy, _sym(fZ), fw),
            message=message,
        )

    # optimal or numerical_failure: the iterate, unscaled
    pres, dres, relgap, pobj, dobj = metrics() if tau > 1e-12 else (np.nan,) * 5
    t = max(tau, 1e-300)
    return ConicResult(
        status=status,
        X=_sym(X / t),
        s=s / t,
        y=y / t * cn / rown,
        Z=_sym(Z / t) * cn,
        w=w / t * cn,
        objective=pobj * cn,
        dual_objective=dobj * cn,
        primal_residual=pres,
        dual_residual=dres,
        rel_gap=relgap,
        iterations=it,
        message=message,
    )
