"""Minimize the relaxed objective over the SOC hull description, plus an
independent brute-force grid oracle on the original problem at N <= 3.

The hull solver is one SLSQP solve (Kraft 1988, scipy.optimize.minimize)
of min tau subject to g_e(x) <= tau, h_r(x) <= 0 and the user box, whose
bounds enter as constraint rows so that they get multipliers too.  The
multipliers give the weak-duality bound that certifies the value (and a
phase-I solve's bound proves the homogeneous rows infeasible), so SLSQP's
own exit status decides nothing.  A walk then moves the minimizer to an
extreme point of the optimal set, which under the convex hull result is a
point of the QCQP epigraph.  The rows are assumed convex, as the hull
description's are.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import Qcqp, aggregate, objective_and_violations, stack_values, violations_in_place
from .errors import InfeasibleRegion, NoFeasiblePoint
from .hull import SocDescription
from .linalg import solve_homogeneous

# brute_force: zoom levels and points per axis after the first grid,
# inequality slack, and the most grid points evaluated at once
BRUTE_REFINE_LEVELS = 3
BRUTE_REFINE_POINTS = 81
BRUTE_FEAS_TOL = 1e-9
BRUTE_SLAB_POINTS = 400**2


@dataclass(frozen=True, eq=False)
class SolveResult:
    value: float  # min 2t over the hull description
    minimizer: np.ndarray
    iterations: int  # SLSQP iterations
    # "converged" | "iteration_limit" | "unbounded".  "iteration_limit":
    # no certified gap, with value inf when the solve ended outside the
    # homogeneous constraints; that is no proof of infeasibility, which
    # only raises InfeasibleRegion.  "unbounded": certified only by a bound
    # with box multipliers, so a box bound binds and a larger box lowers
    # the value.
    status: str
    # A lower bound on min 2t over the description in the box, at most
    # value: the weak-duality bound of the solve's multipliers.
    lower_bound: float
    gap: float  # value - lower_bound


def _as_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2) or not np.all(np.isfinite(box)) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError(f"box must be finite (lo, hi) per axis for dimension {n}")
    return box


def minimize_soc(
    d: SocDescription, box, tol: float = 1e-8, max_iter: int = 10_000
) -> SolveResult:
    """Minimize 2t subject to the hull description inside the box.

    ``tol``, the gap relative to the rows' scale that certifies the value,
    must be a positive finite number.  Raises InfeasibleRegion when the
    homogeneous constraints are proved infeasible inside the box."""
    from scipy.optimize import minimize  # loads with the first solve, not the package

    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if not d.epigraph:
        raise ValueError("hull description has no epigraph constraints")
    n = d.dim
    box = _as_box(box, n)
    ne, K = d.num_epigraph, len(d.c)  # stack rows: epigraph, then homogeneous
    a_max = np.abs(d.A[:ne]).max(axis=(1, 2))
    scale = max(1.0, float(np.max(a_max + np.abs(d.b[:ne]).max(axis=1) + np.abs(d.c[:ne]))))
    feas_tol = 1e-9 * scale

    # Rows r(z) >= 0 in z = (x, tau): tau - g_e(x), -h_r(x), x - lo, hi - x.
    jac = np.zeros((K + 2 * n, n + 1))
    jac[:ne, n] = 1.0
    jac[K:, :n] = np.vstack([np.eye(n), -np.eye(n)])

    def rows(z):
        v = stack_values(d, z[:n])
        v[:ne] -= z[n]
        return np.concatenate([-v, z[:n] - box[:, 0], box[:, 1] - z[:n]])

    def rows_jac(z):
        jac[:K, :n] = -2.0 * (d.A @ z[:n] + d.b)
        return jac

    x0 = box.mean(axis=1)
    e_tau = np.eye(n + 1)[n]
    res = minimize(
        lambda z: z[n],
        np.r_[x0, np.max(stack_values(d, x0)[:ne])],
        jac=lambda z: e_tau,
        method="SLSQP",
        constraints={"type": "ineq", "fun": rows, "jac": rows_jac},
        # SLSQP's stopping tests compare changes and residuals against ftol.
        options={"maxiter": max_iter, "ftol": 1e-14 * scale},
    )
    # SLSQP's own status is no verdict: it often ends on "positive
    # directional derivative" at the optimum.  The certificate decides.
    w = np.maximum(res.multipliers, 0.0)
    x = np.clip(res.x[:n], box[:, 0], box[:, 1])
    vals = stack_values(d, x)
    if np.any(vals[ne:] > feas_tol):
        # Phase I, min s subject to h_r(x) <= s in the box: a certified
        # bound above feas_tol proves that no x of the box meets the rows.
        phase1 = minimize_soc(SocDescription(d.A[ne:], d.b[ne:], d.c[ne:], K - ne), box, tol, max_iter)
        if phase1.lower_bound > feas_tol:
            raise InfeasibleRegion("homogeneous hull constraints are infeasible inside the box")
        value, lb, status = np.inf, -np.inf, "iteration_limit"
    else:
        x = _extreme_point(d, box, x, float(np.max(vals[:ne])), feas_tol)
        value = float(np.max(stack_values(d, x)[:ne]))
        # The bound without the box terms bounds the problem without the
        # box too: when it certifies the value, a larger box cannot lower it.
        status, lb = "converged", _dual_bound(d, box, np.r_[w[:K], np.zeros(2 * n)], scale)
        if value - lb > tol * scale:
            status, lb = "unbounded", max(lb, _dual_bound(d, box, w, scale))
        # The bounds hold on the exact rows; x meets them within feas_tol,
        # so value may sit below them, and min(value, bound) is a bound too.
        lb = min(value, lb)
        if value - lb > tol * scale:
            status = "iteration_limit"
    return SolveResult(
        value=value, minimizer=x, iterations=int(res.nit), status=status,
        lower_bound=float(lb), gap=float(value - lb),
    )


def _dual_bound(d, box, w, scale) -> float:
    """The weak-duality bound of multipliers w >= 0 on the stack rows, then
    the lower and upper box rows, scaled so the epigraph weights sum to 1:
    every feasible (x, tau) of the box has tau >= sum_k w_k q_k(x) +
    w_lo'(lo - x) + w_hi'(x - hi), so tau >= its minimum over x.  -inf when
    that is unbounded below or the epigraph weights are all 0."""
    n, K, ne = d.dim, len(d.c), d.num_epigraph
    weight = w[:ne].sum()
    if weight <= 0.0:
        return -np.inf
    A, b, c = aggregate(d, w[:K] / weight)
    lo, hi = w[K : K + n] / weight, w[K + n :] / weight
    b = b + 0.5 * (hi - lo)
    y = np.linalg.lstsq(A, -b, rcond=None)[0]
    if np.max(np.abs(A @ y + b)) > 1e-9 * scale:
        return -np.inf
    return float(c + lo @ box[:, 0] - hi @ box[:, 1] + b @ y)


def _extreme_point(d, box, x, level, athr):
    """Walk from x, a point of the optimal set {g_e <= level, h_r <= 0, box},
    to an extreme point of it.  A row within ``athr`` of its bound is
    active; each step goes along a kernel vector u of the active rows'
    Hessians and gradients (each pair scaled by the row's largest
    coefficient) and the active bounds, which keeps every active row
    constant, to the nearest root of an inactive row.  Each step adds the
    hit row, so the kernel shrinks, and at most N steps end where only
    u = 0 is left."""
    n, ne, K = len(x), d.num_epigraph, len(d.c)
    I = np.eye(n)
    row_scale = np.maximum(np.abs(d.A).max(axis=(1, 2)), np.abs(d.b).max(axis=1))
    for _ in range(n):
        q = stack_values(d, x)
        q[:ne] -= level
        # The rows as q(x) <= 0: the stack, then x - hi <= 0 and lo - x <= 0.
        c = np.minimum(np.concatenate([q, x - box[:, 1], box[:, 0] - x]), 0.0)
        grads = d.A @ x + d.b
        act = c >= -athr
        k = np.flatnonzero(act[:K])
        s = np.maximum(row_scale[k], 1e-300)[:, None, None]
        E = np.vstack([
            (d.A[k] / s).reshape(-1, n),
            grads[k] / s[:, 0],
            I[act[K : K + n] | act[K + n :]],
        ])
        u = solve_homogeneous(E)
        if u is None:
            break
        # Along x + a u each row is a2 a^2 + a1 a + c; the positive root of
        # an inactive one is -2c / (a1 + sqrt(a1^2 - 4 a2 c)), finite when
        # the denominator is positive.
        a2 = np.concatenate([np.einsum("i,kij,j->k", u, d.A, u), np.zeros(2 * n)])
        a1 = np.concatenate([2.0 * grads @ u, u, -u])
        den = a1 + np.sqrt(np.maximum(a1 * a1 - 4.0 * a2 * c, 0.0))
        ok = ~act & (den > 0.0)
        x = x + float(np.min(-2.0 * c[ok] / den[ok])) * u
    return np.clip(x, box[:, 0], box[:, 1])


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
