"""Correctness checks made after the timed part of every run.

Each check is computed here from the instance's own matrices (Hermitian
ones for complex instances), not by asking hqopt whether its answer is right
and not against a stored copy of earlier output.  Every function returns an
empty string when the check passes and a one-line reason when it fails.
"""

from __future__ import annotations

import math

import numpy as np

# slack on the dual slack's smallest eigenvalue, relative to the data scale
EIG_TOL = 1e-6
# distance allowed between sum(y) and the reported relaxation value, relative
# to max(1, |v_sdp|); v_sdp is only certified to this accuracy
VALUE_TOL = 1e-6
# relative slack on a rounded point's constraint values and objective
POINT_TOL = 1e-9


def field_matrices(inst) -> tuple[np.ndarray, list[np.ndarray]]:
    """Objective and constraints in the instance's own field."""
    if inst.field == "Complex":
        return inst.objective.to_complex(), [a.to_complex() for a in inst.constraints]
    return inst.objective.a, [a.a for a in inst.constraints]


def dual_certificate(inst, multipliers, v_sdp: float) -> str:
    """y >= 0, the dual slack is PSD, and sum(y) matches the relaxation value.

    Minimization: S = C - sum y_k A_k.  Maximization: S = sum y_k A_k - C.
    Both are the Lagrange duals of the relaxation with right-hand sides 1.
    """
    C, mats = field_matrices(inst)
    y = np.asarray(multipliers, dtype=float)
    if y.shape != (len(mats),):
        return f"{y.size} multipliers for {len(mats)} constraints"
    if not np.all(np.isfinite(y)) or float(y.min()) < 0.0:
        return "multipliers are not finite and nonnegative"
    combo = sum(yk * A for yk, A in zip(y, mats))
    S = C - combo if inst.sense == "Minimize" else combo - C
    S = 0.5 * (S + np.conj(S.T))
    scale = 1.0 + np.linalg.norm(C) + sum(yk * np.linalg.norm(A) for yk, A in zip(y, mats))
    lam = float(np.linalg.eigvalsh(S)[0])
    if lam < -EIG_TOL * scale:
        return f"dual slack eigenvalue {lam:.3e} below -{EIG_TOL:.0e} x {scale:.3g}"
    total = float(y.sum())
    if not math.isfinite(v_sdp) or abs(total - v_sdp) > VALUE_TOL * max(1.0, abs(v_sdp)):
        return f"sum(y) = {total!r} but v_sdp = {v_sdp!r}"
    return ""


def ratio_in_range(sense: str, v_sdp: float, v_hat: float, ratio: float, bound: float) -> str:
    """The reported ratio equals its definition and lies in [1, bound].

    The lower end holds up to the accuracy of v_sdp: the rounded value may not
    beat the relaxation by more than VALUE_TOL * max(1, |v_sdp|).
    """
    if not all(math.isfinite(v) for v in (v_sdp, v_hat, ratio)):
        return f"non-finite value: v_sdp={v_sdp!r} v_hat={v_hat!r} ratio={ratio!r}"
    expected = v_hat / v_sdp if sense == "Minimize" else v_sdp / v_hat
    if abs(expected - ratio) > 1e-12 * abs(expected):
        return f"ratio {ratio!r} is not the quotient {expected!r}"
    beats = v_sdp - v_hat if sense == "Minimize" else v_hat - v_sdp
    if beats > VALUE_TOL * max(1.0, abs(v_sdp)):
        return f"rounded value {v_hat!r} beats the relaxation value {v_sdp!r}"
    if not ratio <= bound * (1.0 + 1e-9):
        return f"ratio {ratio!r} above its bound {bound!r}"
    return ""


def point_feasible(inst, x_embedded, best_objective: float) -> str:
    """A rounded point meets every constraint and attains the reported objective.

    Complex points arrive as the real 2n vector (Re; Im).
    """
    C, mats = field_matrices(inst)
    x = np.asarray(x_embedded, dtype=float)
    if inst.field == "Complex":
        x = x[: inst.n] + 1j * x[inst.n :]
    if x.shape != (inst.n,):
        return f"point has shape {x.shape}, expected ({inst.n},)"
    vals = [float(np.real(np.conj(x) @ A @ x)) for A in mats]
    if inst.sense == "Minimize" and min(vals) < 1.0 - POINT_TOL:
        return f"min_k x*A_k x = {min(vals)!r} < 1"
    if inst.sense == "Maximize" and max(vals) > 1.0 + POINT_TOL:
        return f"max_k x*A_k x = {max(vals)!r} > 1"
    obj = float(np.real(np.conj(x) @ C @ x))
    if abs(obj - best_objective) > POINT_TOL * max(1.0, abs(obj)):
        return f"x*Cx = {obj!r} but the report says {best_objective!r}"
    return ""
