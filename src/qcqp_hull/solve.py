"""Minimize the relaxed objective over the SOC hull description, plus an
independent brute-force oracle on the original problem.

The hull solver is a Kelley cutting-plane loop on f(x) = max_e g_e(x)
subject to the homogeneous constraints and a user box, with an active-set
Newton polish from the latest iterate once the gap is small, and at every
iteration until some iterate is feasible (pure cutting planes stall well
before the 1e-4 minimizer accuracy this package promises, and iterates
that approach a curved constraint from outside may never be feasible).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog, minimize

from . import _kernels
from .core import Qcqp, constraint_values, eval_quadratic
from .errors import InfeasibleRegion, NoFeasiblePoint
from .hull import SocDescription


@dataclass(frozen=True, eq=False)
class SolveResult:
    value: float  # min 2t over the hull description
    minimizer: np.ndarray
    iterations: int
    status: str  # "converged" | "iteration_limit" | "unbounded"
    lower_bound: float
    gap: float


def _as_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.shape == (2,):
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2) or np.any(box[:, 0] > box[:, 1]):
        raise ValueError(f"box must be (lo, hi) per axis for dimension {n}")
    return box


def _grad(q, x):
    return 2.0 * (q.A @ x + q.b)


def minimize_soc(
    d: SocDescription, box, tol: float = 1e-8, max_iter: int = 10_000
) -> SolveResult:
    """Minimize 2t subject to the hull description inside the box."""
    if not d.epigraph:
        raise ValueError("hull description has no epigraph constraints")
    n = d.dim
    box = _as_box(box, n)
    gs, hs = d.epigraph, d.homogeneous
    scale = max(1.0, max(float(np.max(np.abs(q.A))) + float(np.max(np.abs(q.b))) + abs(q.c) for q in gs))
    feas_tol = 1e-9 * scale

    cuts_A: list = []
    cuts_b: list = []

    def add_obj_cut(x):
        i = int(np.argmax([eval_quadratic(g, x) for g in gs]))
        g = gs[i]
        grad = _grad(g, x)
        cuts_A.append(np.concatenate([grad, [-1.0]]))
        cuts_b.append(float(grad @ x - eval_quadratic(g, x)))

    def add_feas_cuts(x):
        added = False
        for h in hs:
            val = eval_quadratic(h, x)
            if val > feas_tol:
                grad = _grad(h, x)
                cuts_A.append(np.concatenate([grad, [0.0]]))
                cuts_b.append(float(grad @ x - val))
                added = True
        return added

    x0 = box.mean(axis=1)
    add_obj_cut(x0)
    add_feas_cuts(x0)

    bounds = [(lo, hi) for lo, hi in box] + [(None, None)]
    c = np.zeros(n + 1)
    c[n] = 1.0

    best_val = np.inf
    best_x = x0.copy()
    x, fx = x0, max(eval_quadratic(g, x0) for g in gs)  # latest LP iterate
    lb = -np.inf
    status = "iteration_limit"
    it = 0

    def polish():
        # The best feasible iterate can be far from the optimum, or absent.
        out = _polish(gs, hs, box, x, fx, scale)
        if out is None and np.isfinite(best_val):
            out = _polish(gs, hs, box, best_x, best_val, scale)
        return out

    for it in range(1, max_iter + 1):
        res = linprog(c, A_ub=np.array(cuts_A), b_ub=np.array(cuts_b), bounds=bounds, method="highs")
        if res.status == 2:
            raise InfeasibleRegion("homogeneous hull constraints are infeasible inside the box")
        if not res.success:
            break
        x = res.x[:n]
        lb = max(lb, float(res.x[n]))
        fx = max(eval_quadratic(g, x) for g in gs)
        hviol = max((eval_quadratic(h, x) for h in hs), default=0.0)
        if hviol <= feas_tol and fx < best_val:
            best_val, best_x = fx, x.copy()
        add_obj_cut(x)
        add_feas_cuts(x)
        if np.isfinite(best_val):
            gap = best_val - lb
            if gap <= tol:
                status = "converged"
                break
            due = gap <= max(1e-6 * max(1.0, abs(best_val)), 10 * tol) or it % 40 == 0
        else:
            due = True  # no feasible iterate yet; Kelley alone may never find one
        if due:
            polished = polish()
            if polished is not None:
                best_x, best_val = polished
                status = "converged"
                break

    if status != "converged":
        polished = polish()
        if polished is not None:
            best_x, best_val = polished
            status = "converged"

    if not np.isfinite(best_val):
        raise InfeasibleRegion("no point satisfying the homogeneous constraints was found")

    if status == "converged" and _box_active_improving(gs, hs, box, best_x):
        status = "unbounded"
    return SolveResult(
        value=float(best_val),
        minimizer=best_x,
        iterations=it,
        status=status,
        lower_bound=float(lb),
        gap=float(best_val - lb),
    )


def _polish(gs, hs, box, x, fx, scale):
    """Newton steps on the KKT system of min tau, g_e <= tau, h_r <= 0 for
    the active set at x.  Returns (x*, value) or None when the guess fails."""
    width = np.max(box[:, 1] - box[:, 0])
    if np.any(x - box[:, 0] < 1e-7 * width) or np.any(box[:, 1] - x < 1e-7 * width):
        return None  # box-active optimum: leave to the cutting planes
    athr = 1e-5 * max(1.0, abs(fx))
    E = [i for i, g in enumerate(gs) if eval_quadratic(g, x) >= fx - athr]
    R = [i for i, h in enumerate(hs) if eval_quadratic(h, x) >= -athr]
    n = len(x)
    nE, nR = len(E), len(R)
    u = np.concatenate([x, [fx], np.full(nE, 1.0 / nE), np.zeros(nR)])
    for _ in range(50):
        xc, tau = u[:n], u[n]
        lam, mu = u[n + 1 : n + 1 + nE], u[n + 1 + nE :]
        grads_g = [_grad(gs[i], xc) for i in E]
        grads_h = [_grad(hs[i], xc) for i in R]
        F = np.concatenate(
            [
                sum(l * g for l, g in zip(lam, grads_g))
                + (sum(m * g for m, g in zip(mu, grads_h)) if nR else 0.0),
                [np.sum(lam) - 1.0],
                [eval_quadratic(gs[i], xc) - tau for i in E],
                [eval_quadratic(hs[i], xc) for i in R],
            ]
        )
        if np.max(np.abs(F)) <= 1e-11 * scale:
            break
        H = sum(l * 2.0 * gs[i].A for l, i in zip(lam, E))
        if nR:
            H = H + sum(m * 2.0 * hs[i].A for m, i in zip(mu, R))
        J = np.zeros((n + 1 + nE + nR, n + 1 + nE + nR))
        J[:n, :n] = H
        for k, g in enumerate(grads_g):
            J[:n, n + 1 + k] = g
            J[n + 1 + k, :n] = g
            J[n + 1 + k, n] = -1.0
        for k, g in enumerate(grads_h):
            J[:n, n + 1 + nE + k] = g
            J[n + 1 + nE + k, :n] = g
        J[n, n + 1 : n + 1 + nE] = 1.0
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            return None
        u = u + step
    else:
        return None
    xc, tau = u[:n], float(u[n])
    lam, mu = u[n + 1 : n + 1 + nE], u[n + 1 + nE :]
    if np.max(np.abs(F)) > 1e-9 * scale or np.any(lam < -1e-8) or np.any(mu < -1e-8):
        return None
    if np.any(xc < box[:, 0] - 1e-9) or np.any(xc > box[:, 1] + 1e-9):
        return None
    fx_all = max(eval_quadratic(g, xc) for g in gs)
    if fx_all > tau + 1e-7 * scale:
        return None  # an inactive epigraph constraint took over
    if any(eval_quadratic(h, xc) > 1e-7 * scale for h in hs):
        return None
    return xc, fx_all


def _box_active_improving(gs, hs, box, x) -> bool:
    """True when a box bound binds at x and relaxing it improves the max."""
    width = np.maximum(box[:, 1] - box[:, 0], 1.0)
    fx = max(eval_quadratic(g, x) for g in gs)
    athr = 1e-6 * max(1.0, abs(fx))
    active_g = [g for g in gs if eval_quadratic(g, x) >= fx - athr]
    active_h = [h for h in hs if eval_quadratic(h, x) >= -athr]
    for i in range(len(x)):
        for sign, bound in ((-1.0, box[i, 0]), (1.0, box[i, 1])):
            if abs(x[i] - bound) > 1e-6 * width[i]:
                continue
            d = np.zeros(len(x))
            d[i] = sign  # outward
            df = max(float(_grad(g, x) @ d) for g in active_g)
            blocked = any(float(_grad(h, x) @ d) > 1e-8 for h in active_h)
            if df < -1e-8 and not blocked:
                return True
    return False


# ---------------------------------------------------------------------------
# Brute-force oracle on the original QCQP


def brute_force(
    p: Qcqp,
    box,
    grid_points: int = 400,
    refine_levels: int = 3,
    refine_points: int = 81,
    feas_tol: float = 1e-9,
    starts: int = 10_000,
    seed: int = 0,
):
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
        return _multistart(p, box, starts, seed, feas_tol)

    quads = p.quadratics()
    A_stack = np.array([q.A for q in quads])
    b_stack = np.array([q.b for q in quads])
    c_stack = np.array([q.c for q in quads])
    corner = np.max(np.abs(box), axis=1)
    grad_bound = np.array(
        [2.0 * np.linalg.norm(q.A, 2) * np.linalg.norm(corner) + 2.0 * np.linalg.norm(q.b) for q in quads]
    )

    mi = p.num_inequalities
    eq_ids = list(range(mi + 1, len(quads)))

    def sweep(lo, hi, pts):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        h = max(float(ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in axes)
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.ravel() for m in mesh], axis=1)
        vals = _kernels.eval_quadratics(A_stack, b_stack, c_stack, X)
        ok = np.ones(X.shape[0], dtype=bool)
        eq_tols = {}
        for i in range(1, len(quads)):
            if i - 1 < mi:
                ok &= vals[i] <= feas_tol
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
    for _ in range(refine_levels):
        # The zoom window must cover the drift of the relaxed-equality band
        # when its tolerance tightens at the next level.
        drift = 0.0
        for i in eq_ids:
            g = 2.0 * float(np.linalg.norm(quads[i].A @ x + quads[i].b))
            drift = max(drift, eq_tols[i] / max(g, 1e-6))
        half = 2.0 * h + drift
        lo = np.maximum(x - half, box[:, 0])
        hi = np.minimum(x + half, box[:, 1])
        nxt = sweep(lo, hi, refine_points)
        if nxt is None:
            break
        value, x, h, eq_tols = nxt
    return value, x


def _multistart(p: Qcqp, box, starts: int, seed: int, feas_tol: float):
    rng = np.random.default_rng(seed)
    n = p.dim
    mi = p.num_inequalities
    scale = max(1.0, max(float(np.max(np.abs(q.A))) for q in p.quadratics()))
    tol = max(feas_tol, 1e-7 * scale)

    def penalized(x, rho):
        vals = constraint_values(p, x)
        pen = np.sum(np.maximum(vals[:mi], 0.0) ** 2) + np.sum(vals[mi:] ** 2)
        return eval_quadratic(p.objective, x) + rho * pen

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
        vals = constraint_values(p, x)
        feasible = np.all(vals[:mi] <= tol) and np.all(np.abs(vals[mi:]) <= tol)
        if feasible:
            obj = eval_quadratic(p.objective, x)
            if obj < best_val:
                best_val, best_x = obj, x.copy()
    if best_x is None:
        raise NoFeasiblePoint("multistart found no feasible point in the box")
    return float(best_val), best_x
