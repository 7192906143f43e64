"""Slow oracle for the hull solver's KKT polish: the plain active-set
Newton step, which evaluates the whole stack and re-slices the active rows
at every step.  ``solve._polish`` must accept and decline exactly as this
one does, and agree with it on what it returns; this one takes the
epigraph maximum ``fx`` at x where ``solve._polish`` takes the stack
values."""

import numpy as np

from qcqp_hull.core import stack_values


def _grads(d, idx, x) -> np.ndarray:
    """Gradients 2(A_k x + b_k) at x of the stacked quadratics ``idx``, one per row."""
    return 2.0 * (d.A[idx] @ x + d.b[idx])


def _polish(d, box, x, fx, scale):
    """Newton steps on the KKT system of min tau, g_e <= tau, h_r <= 0 for
    the active set at x.  Returns (x*, value, bound) at an isolated KKT
    point, where bound is the weak-duality bound of its multipliers, or
    None when the guess fails or lands on a singular (non-isolated) one."""
    width = np.max(box[:, 1] - box[:, 0])
    if np.any(x - box[:, 0] < 1e-7 * width) or np.any(box[:, 1] - x < 1e-7 * width):
        return None  # box-active optimum: leave to the cutting planes
    ne = len(d.epigraph)
    athr = 1e-5 * max(1.0, abs(fx))
    vals = stack_values(d, x)
    E = np.flatnonzero(vals[:ne] >= fx - athr)
    R = ne + np.flatnonzero(vals[ne:] >= -athr)
    active = np.r_[E, R]  # multiplier order: lam for E, then mu for R
    n = len(x)
    nE, nA = len(E), len(active)
    u = np.concatenate([x, [fx], np.full(nE, 1.0 / nE), np.zeros(nA - nE)])
    J = np.zeros((n + 1 + nA, n + 1 + nA))
    J[n + 1 : n + 1 + nE, n] = -1.0
    J[n, n + 1 : n + 1 + nE] = 1.0
    for _ in range(50):
        xc, tau, mult = u[:n], u[n], u[n + 1 :]
        vals = stack_values(d, xc)
        grads = _grads(d, active, xc)
        F = np.concatenate([mult @ grads, [np.sum(mult[:nE]) - 1.0], vals[E] - tau, vals[R]])
        J[:n, :n] = 2.0 * np.tensordot(mult, d.A[active], 1)
        J[:n, n + 1 :] = grads.T
        J[n + 1 :, :n] = grads
        if np.max(np.abs(F)) <= 1e-11 * scale:
            break
        try:
            u = u + np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(u)):
            return None
    else:
        return None
    # A singular Jacobian marks a KKT point that is not isolated, e.g. one
    # inside a flat optimal face: not an extreme point, so keep cutting.
    if np.any(mult < -1e-8) or np.linalg.cond(J) > 1e10:
        return None
    if np.any(xc < box[:, 0] - 1e-9) or np.any(xc > box[:, 1] + 1e-9):
        return None
    fx_all = float(np.max(vals[:ne]))
    if fx_all > tau + 1e-7 * scale:
        return None  # an inactive epigraph constraint took over
    if np.any(vals[ne:] > 1e-7 * scale):
        return None
    # Weak duality: for lam >= 0 summing to 1 and mu >= 0, every feasible
    # (x, tau) has tau >= sum_k w_k q_k(x) >= min over x of that quadratic.
    w = np.maximum(mult, 0.0)
    w[:nE] /= np.sum(w[:nE])
    Aw, bw = np.tensordot(w, d.A[active], 1), w @ d.b[active]
    y = np.linalg.lstsq(Aw, -bw, rcond=None)[0]
    solvable = np.max(np.abs(Aw @ y + bw)) <= 1e-9 * scale
    bound = float(w @ d.c[active] + bw @ y) if solvable else -np.inf
    return xc, fx_all, bound

