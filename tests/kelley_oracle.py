"""Kelley's cutting-plane hull solver with its active-set Newton polish, as
the package shipped it before the SLSQP solve replaced it, kept verbatim as
a test oracle for ``solve.minimize_soc``.  ``opposite_pairs`` is the
lineality-pair rule that ``SocDescription`` carried for the polish.

A Kelley loop on f(x) = max_e g_e(x) subject to the homogeneous
constraints and a user box, on one HiGHS LP in (x, tau) per solve: each
iteration appends its cuts as rows and re-solves warm by dual simplex.
Every LP iterate seeds an active-set Newton polish on the KKT system, and
the solve stops at the first polish that lands on an isolated KKT point;
the polish's multipliers give the weak-duality bound that certifies the
value.  A Newton run whose KKT residual sets no new minimum for
POLISH_STALL_STEPS steps in a row is declined at once.
"""

from __future__ import annotations

import numpy as np

from qcqp_hull._lp import CuttingPlaneLP
from qcqp_hull.core import stack_values
from qcqp_hull.errors import InfeasibleRegion
from qcqp_hull.hull import SocDescription
from qcqp_hull.solve import SolveResult, _as_box

# _polish declines a Newton run whose KKT residual max|F| sets no new
# minimum for this many steps in a row.  The accepted runs of the benchmark
# solves go at most one step without a new minimum, but the one of
# barvinok_random(2, 1, seed=32) goes three, so this must stay above 3.
POLISH_STALL_STEPS = 5


def opposite_pairs(d) -> np.ndarray:
    """Stack indices (k, l), k < l, of homogeneous rows with q_l = -q_k within
    1e-9 of max|q_k|, which together say q_k(x) = 0: one per lineality line."""
    ne = len(d.epigraph)
    H = np.column_stack([d.A.reshape(len(d.c), -1), d.b, d.c])[ne:]
    tol = 1e-9 * np.maximum(1.0, np.abs(H).max(axis=1))
    close = [np.abs(H + row).max(axis=1) <= t for row, t in zip(H, tol)]
    return ne + np.argwhere(np.triu(np.reshape(close, (len(H), len(H))), 1))


def _values_grads(A, b, c, x, grads=None):
    """Values x'A_k x + 2b_k'x + c_k and gradients 2(A_k x + b_k) at x of the
    stacked quadratics (A, b, c), one per row, from one product A x.  The
    gradients are written into ``grads`` when it is given."""
    Ax = A @ x
    grads = np.add(Ax, b, out=grads)
    grads *= 2.0
    return Ax @ x + 2.0 * (b @ x) + c, grads


def minimize_soc(
    d: SocDescription, box, tol: float = 1e-8, max_iter: int = 10_000
) -> SolveResult:
    """Minimize 2t subject to the hull description inside the box.

    Raises InfeasibleRegion when a Kelley LP is infeasible, which proves
    the homogeneous constraints infeasible inside the box."""
    if not d.epigraph:
        raise ValueError("hull description has no epigraph constraints")
    n = d.dim
    box = _as_box(box, n)
    ne = len(d.epigraph)  # stack rows: epigraph, then homogeneous
    a_max = np.abs(d.A[:ne]).max(axis=(1, 2))
    scale = max(1.0, float(np.max(a_max + np.abs(d.b[:ne]).max(axis=1) + np.abs(d.c[:ne]))))
    feas_tol = 1e-9 * scale

    # Columns (x, tau): x in the box, tau free, minimize tau.
    lp = CuttingPlaneLP(
        np.r_[np.zeros(n), 1.0], np.r_[box[:, 0], -np.inf], np.r_[box[:, 1], np.inf]
    )

    def add_cuts(x, vals):
        # The largest epigraph constraint cuts tau; every violated
        # homogeneous constraint cuts x.
        idx = np.concatenate([[np.argmax(vals[:ne])], ne + np.flatnonzero(vals[ne:] > feas_tol)])
        rows = np.zeros((len(idx), n + 1))
        rows[0, n] = -1.0
        grads = _values_grads(d.A[idx], d.b[idx], d.c[idx], x, rows[:, :n])[1]
        lp.add_rows(rows, grads @ x - vals[idx])

    x0 = box.mean(axis=1)
    add_cuts(x0, stack_values(d, x0))

    best_val = np.inf
    best_x = x0.copy()
    lb = -np.inf
    status = "iteration_limit"
    it = 0
    for it in range(1, max_iter + 1):
        lp_status, z = lp.solve()
        if lp_status == "infeasible":
            raise InfeasibleRegion("homogeneous hull constraints are infeasible inside the box")
        if lp_status != "optimal":
            break
        x = z[:n]
        lb = max(lb, float(z[n]))
        vals = stack_values(d, x)
        fx = float(np.max(vals[:ne]))
        if np.all(vals[ne:] <= feas_tol) and fx < best_val:
            best_val, best_x = fx, x.copy()
        if best_val - lb <= tol:
            status = "converged"
            break
        polished = _polish(d, box, x, vals, scale)
        if polished is not None:
            best_x, best_val, dual_bound = polished
            lb = max(lb, dual_bound)
            status = "converged"
            break
        add_cuts(x, vals)

    if status == "converged" and _box_active_improving(d, box, best_x):
        status = "unbounded"
    return SolveResult(
        value=float(best_val),
        minimizer=best_x,
        iterations=it,
        status=status,
        lower_bound=float(lb),
        gap=float(best_val - lb),
    )


def _polish(d, box, x, vals, scale):
    """Newton steps on the KKT system of min tau, g_e <= tau, h_r <= 0 for
    the active set at x, where ``vals`` is the stack at x.  Returns (x*,
    value, bound) at an isolated KKT point, where bound is the weak-duality
    bound of its multipliers, or None when the guess fails or lands on a
    singular (non-isolated) one.  A run that is not converged after 50
    steps, or whose residual max|F| sets no new minimum for
    POLISH_STALL_STEPS steps in a row, is declined.  An active pair of
    ``opposite_pairs(d)`` enters as its first row, placed last, an equality
    with a free-sign multiplier.  The steps read only the active rows; the
    full stack is evaluated at most once, at the converged point."""
    width = np.max(box[:, 1] - box[:, 0])
    if np.any(x - box[:, 0] < 1e-7 * width) or np.any(box[:, 1] - x < 1e-7 * width):
        return None  # box-active optimum: leave to the cutting planes
    ne = len(d.epigraph)
    fx = float(np.max(vals[:ne]))
    athr = 1e-5 * max(1.0, abs(fx))
    E = np.flatnonzero(vals[:ne] >= fx - athr)
    R = ne + np.flatnonzero(vals[ne:] >= -athr)
    pairs, nF = opposite_pairs(d), 0
    if len(pairs):
        # h <= 0 and -h <= 0 would make J singular: keep h = 0, as a last row.
        pairs = pairs[np.isin(pairs, R).all(axis=1)]
        R, nF = np.r_[np.setdiff1d(R, pairs), pairs[:, 0]], len(pairs)
    active = np.concatenate([E, R])  # multiplier order: lam for E, mu for R, free last nF
    A, b, c = d.A[active], d.b[active], d.c[active]
    n = len(x)
    nE, nA = len(E), len(active)
    A_flat = A.reshape(nA, n * n)
    u = np.concatenate([x, [fx], np.full(nE, 1.0 / nE), np.zeros(nA - nE)])
    F = np.empty(n + 1 + nA)
    J = np.zeros((n + 1 + nA, n + 1 + nA))
    J[n + 1 : n + 1 + nE, n] = -1.0
    J[n, n + 1 : n + 1 + nE] = 1.0
    grads = J[n + 1 :, :n]  # the active gradients, one per row
    best, stalled = np.inf, 0
    for _ in range(50):
        xc, tau, mult = u[:n], u[n], u[n + 1 :]
        act = _values_grads(A, b, c, xc, grads)[0]
        np.matmul(mult, grads, out=F[:n])
        F[n] = mult[:nE].sum() - 1.0
        np.subtract(act[:nE], tau, out=F[n + 1 : n + 1 + nE])
        F[n + 1 + nE :] = act[nE:]
        J[:n, :n] = 2.0 * (mult @ A_flat).reshape(n, n)
        J[:n, n + 1 :] = grads.T
        res = np.abs(F).max()
        if res <= 1e-11 * scale:
            break
        if res < best:
            best, stalled = res, 0
        else:
            stalled += 1
            if stalled == POLISH_STALL_STEPS:
                return None  # diverging or stuck
        try:
            u += np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(u).all():
            return None
    else:
        return None
    # A singular Jacobian marks a KKT point that is not isolated, e.g. one
    # inside a flat optimal face: not an extreme point, so keep cutting.
    if np.any(mult[: nA - nF] < -1e-8) or np.linalg.cond(J) > 1e10:
        return None
    if np.any(xc < box[:, 0] - 1e-9) or np.any(xc > box[:, 1] + 1e-9):
        return None
    vals = stack_values(d, xc)
    fx_all = float(np.max(vals[:ne]))
    if fx_all > tau + 1e-7 * scale:
        return None  # an inactive epigraph constraint took over
    if np.any(vals[ne:] > 1e-7 * scale):
        return None
    # Weak duality: for lam >= 0 summing to 1 and mu >= 0 (of any sign on an
    # equality), feasible (x, tau) have tau >= sum_k w_k q_k(x) >= its min.
    w = np.maximum(mult, 0.0)
    w[nA - nF :] = mult[nA - nF :]
    w[:nE] /= np.sum(w[:nE])
    Aw, bw = (w @ A_flat).reshape(n, n), w @ b
    y = np.linalg.lstsq(Aw, -bw, rcond=None)[0]
    solvable = np.max(np.abs(Aw @ y + bw)) <= 1e-9 * scale
    bound = float(w @ c + bw @ y) if solvable else -np.inf
    return xc, fx_all, bound


def _box_active_improving(d, box, x) -> bool:
    """True when a box bound binds at x and relaxing it improves the max."""
    ne = len(d.epigraph)
    width = np.maximum(box[:, 1] - box[:, 0], 1.0)
    vals = stack_values(d, x)
    fx = float(np.max(vals[:ne]))
    athr = 1e-6 * max(1.0, abs(fx))
    E = np.flatnonzero(vals[:ne] >= fx - athr)
    R = ne + np.flatnonzero(vals[ne:] >= -athr)
    grads_g = _values_grads(d.A[E], d.b[E], d.c[E], x)[1]
    grads_h = _values_grads(d.A[R], d.b[R], d.c[R], x)[1]
    for i in range(len(x)):
        for sign, bound in ((-1.0, box[i, 0]), (1.0, box[i, 1])):
            if abs(x[i] - bound) > 1e-6 * width[i]:
                continue
            # Directional derivatives along the outward axis direction.
            df = np.max(sign * grads_g[:, i])
            blocked = np.any(sign * grads_h[:, i] > 1e-8)
            if df < -1e-8 and not blocked:
                return True
    return False
