"""Minimize the relaxed objective over the SOC hull description, plus an
independent brute-force grid oracle on the original problem at N <= 3.

The hull solver is a Kelley cutting-plane loop on f(x) = max_e g_e(x)
subject to the homogeneous constraints and a user box, on one HiGHS LP in
(x, tau) per solve: each iteration appends its cuts as rows and re-solves
warm by dual simplex, through the binding bundled with scipy.optimize.
Pure cutting planes stall well short of the 1e-4 minimizer accuracy this
package promises, so every LP iterate seeds an active-set Newton polish on
the KKT system, and the solve stops at the first polish that lands on an
isolated KKT point (nonsingular Newton Jacobian).  A Newton run whose
KKT residual sets no new minimum for POLISH_STALL_STEPS steps in a row is
declined at once: such runs mostly diverge, and on every solve tested
they were declined anyway, at the 50-step cap or at a negative
multiplier.  An isolated minimizer is an extreme point of the optimal set,
hence under the convex hull result a point of the QCQP epigraph; a KKT
point inside a flat optimal face is declined and Kelley keeps cutting.
The polish's multipliers give the weak-duality bound that certifies the
value; a linear equality's rows h <= 0 and -h <= 0 enter as one row h = 0.
The full stack is evaluated once per Kelley iteration and once per
converged polish, for its accept checks; each Newton step touches only the
active sub-stack, sliced once per polish, through one matrix-vector
product A x that gives both the active values and their gradients.
Box-active optima, which the polish declines, end on the Kelley LP gap.
The rows are assumed convex, as the hull description's are.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._lp import CuttingPlaneLP
from .core import Qcqp, objective_and_violations, stack_values, violations_in_place
from .errors import InfeasibleRegion, NoFeasiblePoint
from .hull import SocDescription

# brute_force: zoom levels and points per axis after the first grid,
# inequality slack, and the most grid points evaluated at once
BRUTE_REFINE_LEVELS = 3
BRUTE_REFINE_POINTS = 81
BRUTE_FEAS_TOL = 1e-9
BRUTE_SLAB_POINTS = 400**2

# _polish declines a Newton run whose KKT residual max|F| sets no new
# minimum for this many steps in a row.  The accepted runs of the benchmark
# solves go at most one step without a new minimum, but the one of
# barvinok_random(2, 1, seed=32) goes three, so this must stay above 3.
POLISH_STALL_STEPS = 5


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
    if box.shape != (n, 2) or not np.all(np.isfinite(box)) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError(f"box must be finite (lo, hi) per axis for dimension {n}")
    return box


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
    ``d.opposite_pairs`` enters as its first row, placed last, an equality
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
    pairs, nF = d.opposite_pairs, 0
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


# ---------------------------------------------------------------------------
# Brute-force oracle on the original QCQP


def brute_force(p: Qcqp, box, grid_points: int | None = None):
    """Best feasible objective value (in 2t units) found in the box, for
    N <= 3 only; raises ValueError for N > 3.

    A dense grid with recursive zoom refinement; equality constraints are
    relaxed proportionally to the current grid spacing.  The first grid has
    ``grid_points`` points per axis, an integer >= 2, by default min(400,
    floor(BRUTE_SLAB_POINTS^(1/N))): 400 at N <= 2 and 54 at N = 3, so the
    default first grid is one slab.  Each grid is evaluated in slabs of
    whole layers along the first axis, at most BRUTE_SLAB_POINTS points or
    one layer each, so memory stays bounded at N = 3.  A slab goes through
    ``_kernels.eval_quadratics_grid`` from its axes, without a point array;
    the first best point in C order of the grid (meshgrid "ij" order) wins.
    Returns (value, x); raises NoFeasiblePoint when nothing in the box
    satisfies the constraints.
    """
    n = p.dim
    if n > 3:
        raise ValueError(f"the brute-force grid oracle runs at N <= 3, got N = {n}")
    box = _as_box(box, n)
    if grid_points is None:
        # The 1e-9 keeps the exact square root at N = 2 from rounding down.
        grid_points = min(400, int(BRUTE_SLAB_POINTS ** (1.0 / n) + 1e-9))
    elif not isinstance(grid_points, numbers.Integral) or grid_points < 2:
        # One point per axis is the box's lower corner, and zooming keeps it there.
        raise ValueError(f"grid_points must be an integer >= 2, got {grid_points!r}")

    corner = np.linalg.norm(np.max(np.abs(box), axis=1))
    grad_bound = 2.0 * np.linalg.norm(p.A, 2, axis=(1, 2)) * corner + 2.0 * np.linalg.norm(p.b, axis=1)

    mi = p.num_inequalities

    def sweep(lo, hi, pts):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        h = max(float(ax[1] - ax[0]) for ax in axes)
        # Per-row tolerances: the inequality slack, then the equality bands.
        eq_tols = h * grad_bound[mi + 1 :] + 1e-12
        tols = np.r_[np.full(mi, BRUTE_FEAS_TOL), eq_tols].reshape((-1,) + (1,) * n)
        # Both evaluators round within a few 1e-16 of this bound on the
        # objective's terms in the window, so every point within tie_tol of
        # the grid's best may be the point sweep's minimum.
        xmax = np.maximum(np.abs(lo), np.abs(hi))
        tie_tol = 1e-13 * (xmax @ np.abs(p.A[0]) @ xmax + 2.0 * np.abs(p.b[0]) @ xmax + abs(p.c[0]))
        # Slabs of whole first-axis layers; the first best point in grid
        # order wins, as in one sweep of the whole grid.
        step = max(1, BRUTE_SLAB_POINTS // pts ** (n - 1))
        best = None
        for start in range(0, pts, step):
            slab = [axes[0][start : start + step], *axes[1:]]
            obj, viol = violations_in_place(p, _kernels.eval_quadratics_grid(p.A, p.b, p.c, slab))
            ok = np.all(viol <= tols, axis=0)
            if not np.any(ok):
                continue
            obj = np.where(ok, obj, np.inf)
            # The grid sum rounds differently from the point evaluator, so
            # every point within rounding of the grid's best is re-read at
            # its point: ties then break as in a sweep of the point array.
            near = np.flatnonzero(obj <= obj.min() + tie_tol)
            X = np.stack([ax[i] for ax, i in zip(slab, np.unravel_index(near, obj.shape))], axis=1)
            vals = objective_and_violations(p, X)[0]
            j = int(np.argmin(vals))
            if best is None or vals[j] < best[0]:
                best = float(vals[j]), X[j]
        return None if best is None else (*best, h, eq_tols)

    first = sweep(box[:, 0], box[:, 1], grid_points)
    if first is None:
        raise NoFeasiblePoint("no feasible grid point in the box")
    value, x, h, eq_tols = first
    for _ in range(BRUTE_REFINE_LEVELS):
        # The zoom window must cover the drift of the relaxed-equality band
        # when its tolerance tightens at the next level.
        drift = 0.0
        for i, eq_tol in enumerate(eq_tols, start=mi + 1):
            g = 2.0 * float(np.linalg.norm(p.A[i] @ x + p.b[i]))
            drift = max(drift, eq_tol / max(g, 1e-6))
        half = 2.0 * h + drift
        lo = np.maximum(x - half, box[:, 0])
        hi = np.minimum(x + half, box[:, 1])
        nxt = sweep(lo, hi, BRUTE_REFINE_POINTS)
        if nxt is None:
            break
        value, x, h, eq_tols = nxt
    return value, x
