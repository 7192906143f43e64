"""Minimize the relaxed objective over the SOC hull description, plus an
independent brute-force oracle on the original problem.

The hull solver is a Kelley cutting-plane loop on f(x) = max_e g_e(x)
subject to the homogeneous constraints and a user box, on one HiGHS LP in
(x, tau) per solve: each iteration appends its cuts as rows and re-solves
warm by dual simplex, through the binding bundled with scipy.optimize.
Pure cutting planes stall well short of the 1e-4 minimizer accuracy this
package promises, so every LP iterate seeds an active-set Newton polish on
the KKT system, and the solve stops at the first polish that lands on an
isolated KKT point (nonsingular Newton Jacobian).  An isolated minimizer
is an extreme point of the optimal set, hence under the convex hull result
a point of the QCQP epigraph; a KKT point inside a flat optimal face is
declined and Kelley keeps cutting.  The polish's multipliers give the
weak-duality bound that certifies the value.  Box-active optima, which the
polish declines, end on the Kelley LP gap.  The rows are assumed convex,
as the hull description's are.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import _kernels
from ._lp import CuttingPlaneLP
from .core import Qcqp, stack_values
from .errors import InfeasibleRegion, NoFeasiblePoint
from .hull import SocDescription

# brute_force: zoom levels and points per axis after the first grid,
# inequality slack, and the multistart generator's seed
BRUTE_REFINE_LEVELS = 3
BRUTE_REFINE_POINTS = 81
BRUTE_FEAS_TOL = 1e-9
MULTISTART_SEED = 0


@dataclass(frozen=True, eq=False)
class SolveResult:
    value: float  # min 2t over the hull description
    minimizer: np.ndarray
    iterations: int
    # "converged" | "iteration_limit" | "unbounded".  "iteration_limit"
    # with value inf: the budget ran out (or an LP failed) before any LP
    # iterate met the homogeneous constraints; that is no proof of
    # infeasibility, which only an infeasible LP gives.
    status: str
    # A lower bound on min 2t over the description in the box: the larger
    # of the Kelley LP bound and the polish's weak-duality bound.
    lower_bound: float
    gap: float  # value - lower_bound


def _as_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError(f"box must be (lo, hi) per axis for dimension {n}")
    return box


def _grads(d, idx, x) -> np.ndarray:
    """Gradients 2(A_k x + b_k) at x of the stacked quadratics ``idx``, one per row."""
    return 2.0 * (d.A[idx] @ x + d.b[idx])


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
        idx = np.r_[np.argmax(vals[:ne]), ne + np.flatnonzero(vals[ne:] > feas_tol)]
        grads = _grads(d, idx, x)
        tau = np.r_[-1.0, np.zeros(len(idx) - 1)]
        lp.add_rows(np.column_stack([grads, tau]), grads @ x - vals[idx])

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
        polished = _polish(d, box, x, fx, scale)
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


def _box_active_improving(d, box, x) -> bool:
    """True when a box bound binds at x and relaxing it improves the max."""
    ne = len(d.epigraph)
    width = np.maximum(box[:, 1] - box[:, 0], 1.0)
    vals = stack_values(d, x)
    fx = float(np.max(vals[:ne]))
    athr = 1e-6 * max(1.0, abs(fx))
    grads_g = _grads(d, np.flatnonzero(vals[:ne] >= fx - athr), x)
    grads_h = _grads(d, ne + np.flatnonzero(vals[ne:] >= -athr), x)
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


# ---------------------------------------------------------------------------
# Brute-force oracle on the original QCQP


def brute_force(p: Qcqp, box, grid_points: int = 400, starts: int = 10_000):
    """Best feasible objective value (in 2t units) found in the box.

    N <= 3 uses a dense grid with recursive zoom refinement; equality
    constraints are relaxed proportionally to the current grid spacing.
    Higher dimensions fall back to random multistart with penalized local
    descent.  Returns (value, x); raises NoFeasiblePoint when nothing in
    the box satisfies the constraints.
    """
    n = p.dim
    box = _as_box(box, n)
    if n > 3:
        return _multistart(p, box, starts)

    corner = np.linalg.norm(np.max(np.abs(box), axis=1))
    grad_bound = 2.0 * np.linalg.norm(p.A, 2, axis=(1, 2)) * corner + 2.0 * np.linalg.norm(p.b, axis=1)

    mi = p.num_inequalities
    eq_ids = list(range(mi + 1, p.num_constraints + 1))

    def sweep(lo, hi, pts):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        h = max(float(ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        vals = _kernels.eval_quadratics(p.A, p.b, p.c, X)
        ok = np.ones(X.shape[0], dtype=bool)
        eq_tols = {}
        for i in range(1, p.num_constraints + 1):
            if i - 1 < mi:
                ok &= vals[i] <= BRUTE_FEAS_TOL
            else:
                eq_tols[i] = h * grad_bound[i] + 1e-12
                ok &= np.abs(vals[i]) <= eq_tols[i]
        if not np.any(ok):
            return None
        obj = np.where(ok, vals[0], np.inf)
        j = int(np.argmin(obj))
        return float(obj[j]), X[j], h, eq_tols

    first = sweep(box[:, 0], box[:, 1], grid_points)
    if first is None:
        raise NoFeasiblePoint("no feasible grid point in the box")
    value, x, h, eq_tols = first
    for _ in range(BRUTE_REFINE_LEVELS):
        # The zoom window must cover the drift of the relaxed-equality band
        # when its tolerance tightens at the next level.
        drift = 0.0
        for i in eq_ids:
            g = 2.0 * float(np.linalg.norm(p.A[i] @ x + p.b[i]))
            drift = max(drift, eq_tols[i] / max(g, 1e-6))
        half = 2.0 * h + drift
        lo = np.maximum(x - half, box[:, 0])
        hi = np.minimum(x + half, box[:, 1])
        nxt = sweep(lo, hi, BRUTE_REFINE_POINTS)
        if nxt is None:
            break
        value, x, h, eq_tols = nxt
    return value, x


def _multistart(p: Qcqp, box, starts: int):
    rng = np.random.default_rng(MULTISTART_SEED)
    n = p.dim
    mi = p.num_inequalities
    scale = max(1.0, float(np.max(np.abs(p.A))))
    tol = max(BRUTE_FEAS_TOL, 1e-7 * scale)

    def penalized(x, rho):
        vals = stack_values(p, x)
        pen = np.sum(np.maximum(vals[1 : mi + 1], 0.0) ** 2) + np.sum(vals[mi + 1 :] ** 2)
        return vals[0] + rho * pen

    best_val, best_x = np.inf, None
    for _ in range(starts):
        x = rng.uniform(box[:, 0], box[:, 1])
        for rho in (1e3, 1e5, 1e7):
            res = minimize(
                penalized,
                x,
                args=(rho,),
                method="L-BFGS-B",
                bounds=[(lo, hi) for lo, hi in box],
                options={"maxiter": 200},
            )
            x = res.x
        vals = stack_values(p, x)
        feasible = np.all(vals[1 : mi + 1] <= tol) and np.all(np.abs(vals[mi + 1 :]) <= tol)
        if feasible and vals[0] < best_val:
            best_val, best_x = vals[0], x.copy()
    if best_x is None:
        raise NoFeasiblePoint("multistart found no feasible point in the box")
    return float(best_val), best_x
