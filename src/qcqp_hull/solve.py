"""Minimize the relaxed objective over the SOC hull description, plus an
independent brute-force grid oracle on the original problem at N <= 3.

The hull solver first works on the Lagrangian dual of the description
over its row weights w (epigraph weights on the simplex, ray weights >= 0):

    phi(w) = min_x sum_k w_k q_k(x) = c(w) - b(w)'A(w)^-1 b(w),
    d phi / d w_k = q_k(x(w)),  x(w) = -A(w)^-1 b(w),

a smooth concave program in K weights (Ben-Tal & Teboulle 1996; Ben-Tal &
den Hertog 2014).  From the best of a few weightings where phi is
finite, Newton steps on the KKT system of the weighted rows refine
(x(w), w): an active-set method that adds the most violated row before
each step and drops the rows whose weight turns negative.  A walk then
moves x to an extreme point of the optimal set, which under the convex
hull result is a point of the QCQP epigraph.  phi(w) is a weak-duality
bound without box terms, so it certifies the value for every box; the
dual result stands only when x lies in the box, meets the homogeneous
rows within feas_tol and the bound is within rounding (DUAL_GAP) of the
value.  A certified x outside the box is the optimum without the box, so
there a box bound binds.  phi(w), x(w) and every certifying bound, the
primal's too, come from one rule, _lagrangian_min: an eigenvalue of A(w)
within tau = 1e-12 max(scale, max|A(w)|) of 0 is a null direction, and
one below -tau makes phi -inf.

Otherwise the primal runs, warm-started from x(w) clipped to the box: one
SLSQP solve (Kraft 1988, scipy.optimize.minimize) of min tau subject to
g_e(x) <= tau, h_r(x) <= 0 and the user box, whose bounds enter as
constraint rows so that they get multipliers too.  Its multipliers give
the weak-duality bound that certifies the value (and a phase-I solve's
bound proves the homogeneous rows infeasible), so SLSQP's own exit status
decides nothing.  The rows are assumed convex, as the hull description's
are.
"""

from __future__ import annotations

import numbers
import operator
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

# The dual path: the gap, relative to the rows' scale, at which its value
# is as accurate as the primal's, and the most Newton steps of its
# refinement (those here certify within 6).
DUAL_GAP = 1e-12
DUAL_NEWTON_STEPS = 8


@dataclass(frozen=True, eq=False)
class SolveResult:
    value: float  # min 2t over the hull description
    minimizer: np.ndarray
    # SLSQP iterations of the primal solve over (x, tau); 0 on the dual
    # path, which takes Newton steps only.
    iterations: int
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
    # "dual" when the dual's row weights certified the value, else
    # "primal": the primal solve ran and decided the status.
    path: str = "primal"


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
    must be a positive finite number, and ``max_iter`` an integer >= 1.
    The dual over the row weights runs first; the primal, with at most
    ``max_iter`` SLSQP iterations, only when the dual's result does not stand.
    Raises InfeasibleRegion when the homogeneous constraints are proved
    infeasible inside the box."""
    if not 0.0 < tol < np.inf:  # NaN fails too
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if operator.index(max_iter) < 1:  # "abc" and 2.0 are a TypeError
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter}")
    if not d.epigraph:
        raise ValueError("hull description has no epigraph constraints")
    box = _as_box(box, d.dim)
    scale = _scale(d)
    dual = _minimize_dual(d, box, min(tol, DUAL_GAP) * scale, scale)
    if isinstance(dual, SolveResult):
        return dual
    return _minimize_primal(d, box, tol, max_iter, scale, x0=dual)


def _scale(d) -> float:
    """The epigraph rows' largest coefficient sum, at least 1: the unit of
    every gap and feasibility tolerance."""
    ne = d.num_epigraph
    a_max = np.abs(d.A[:ne]).max(axis=(1, 2))
    return max(1.0, float(np.max(a_max + np.abs(d.b[:ne]).max(axis=1) + np.abs(d.c[:ne]))))


def _lagrangian_min(A, b, c, scale):
    """(phi, x): the minimum of x'Ax + 2b'x + c and a minimizer, or None
    when it is unbounded below.  One threshold tau = 1e-12 max(scale,
    max|A|) decides: when A - tau I has a Cholesky factor, x comes from
    one of A; otherwise from an eigendecomposition of A, where an
    eigenvalue below -tau is unbounded, one within tau is a null direction
    along which b must vanish (residual at most 1e-9 scale), and the rest
    are inverted."""
    from scipy.linalg.lapack import dpotrf, dpotrs

    tau = 1e-12 * max(scale, np.abs(A).max())
    if dpotrf(A - tau * np.eye(len(A)), lower=1, clean=0)[1] == 0:
        x = -dpotrs(dpotrf(A, lower=1, clean=0)[0], b, lower=1)[0]
    else:
        lam, V = np.linalg.eigh(A)
        if lam[0] < -tau:
            return None
        keep = lam > tau
        x = -V[:, keep] @ ((V[:, keep].T @ b) / lam[keep])
        if np.max(np.abs(A @ x + b)) > 1e-9 * scale:
            return None
    return float(c + b @ x), x


def _dual_start(d, scale):
    """Row weights where phi is finite, with their (phi, x(w)): the best
    of the epigraph barycentre, the barycentre plus unit ray weights and
    each single epigraph row.  Each phi is a true weak-duality bound on its
    own, since _lagrangian_min, which _dual_bound calls too, refuses the
    weightings where phi is -inf; None when it refuses all of these."""
    ne, K = d.num_epigraph, len(d.c)
    W = np.zeros((ne + 2, K))
    W[:2, :ne] = 1.0 / ne
    W[1, ne:] = 1.0
    W[2:, :ne] = np.eye(ne)
    found = [(w, r) for w, *abc in zip(W, *aggregate(d, W)) if (r := _lagrangian_min(*abc, scale))]
    return max(found, key=lambda f: f[1][0], default=None)


def _minimize_dual(d, box, gap_tol, scale):
    """Maximize phi over the row weights by Newton steps from the start
    (see the module docstring): a "dual" SolveResult when x lies in the
    box, meets the homogeneous rows within feas_tol and the bound without
    box terms is within ``gap_tol`` of the value; otherwise the point the
    primal starts from, or None for the box centre."""
    start = _dual_start(d, scale)
    if start is None:
        return None
    n, ne = d.dim, d.num_epigraph
    w, (_, x) = start
    x, w, g = _refine(d, x, w, gap_tol, scale)
    # Certified without the box, x is optimal without it: outside the box,
    # a box bound binds and only the primal's box multipliers can tell.
    if g > gap_tol or np.any(x < box[:, 0]) or np.any(x > box[:, 1]):
        return np.clip(x, box[:, 0], box[:, 1])
    x = _extreme_point(d, box, x, float(np.max(stack_values(d, x)[:ne])), 1e-9 * scale)
    value = float(np.max(stack_values(d, x)[:ne]))
    lb = _dual_bound(d, box, np.concatenate([w, np.zeros(2 * n)]), scale)
    if not abs(value - lb) <= gap_tol:
        return x
    lb = min(value, lb)
    return SolveResult(
        value=value, minimizer=x, iterations=0, status="converged",
        lower_bound=lb, gap=value - lb, path="dual",
    )


def _refine(d, x, w, gap_tol, scale):
    """Newton steps on the KKT system from (x, w), an active-set method:
    before each step the row most violated at x joins the rows with
    positive weight, and after it the rows whose weight went negative
    leave.  Returns (x, w, gap) of the iterate with the smallest gap
    |value - phi(w)|, inf where x misses a homogeneous row by more than
    feas_tol.  It stops once the gap is within gap_tol, or after two steps
    that end feasible without lowering it."""
    ne = d.num_epigraph
    feas_tol = 1e-9 * scale

    def gap(x, w):
        v = stack_values(d, x)
        r = _lagrangian_min(*aggregate(d, w), scale)
        if r is None or np.any(v[ne:] > feas_tol):
            return v, np.inf
        return v, abs(float(np.max(v[:ne])) - r[0])

    v, g = gap(x, w)
    best, stalls = (x, w, g), 0
    for _ in range(DUAL_NEWTON_STEPS):
        active = w > 0.0
        if best[2] <= gap_tol or stalls == 2 or not active[:ne].any():
            break
        tau = float(np.max(v[:ne][active[:ne]]))
        violation = np.concatenate([v[:ne] - tau, v[ne:]])
        violation[active] = -np.inf
        k = int(np.argmax(violation))
        active[k] |= violation[k] > feas_tol
        x, w = _kkt_step(d, x, w, np.flatnonzero(active), v, tau)
        v, g = gap(x, w)
        if g < best[2]:
            best = x, w, g
        else:
            stalls += g < np.inf
    return best


def _kkt_step(d, x, w, S, v, tau):
    """One Newton step on the KKT system of the rows S in (x, tau, w_S),
    from row values v = q(x) and level tau: A(w) x + b(w) = 0, q_k(x) =
    tau on the epigraph rows of S and 0 on its rays, and the epigraph
    weights summing to 1.  Least squares (pivoted QR), since a flat optimal
    face or a row active without weight makes it singular.  Returns the
    new (x, w), with the weights the step drives below 0 set to 0 and the
    rest rescaled so the epigraph weights sum to 1 again: phi(w) is then
    the bound _dual_bound certifies."""
    from scipy.linalg.lapack import dgelsy, dgelsy_lwork

    n, ne, m = d.dim, d.num_epigraph, len(S)
    epi = (S < ne).astype(float)
    A, b, _ = aggregate(d, w)
    G = d.A[S] @ x + d.b[S]  # half-gradients of the rows of S
    J = np.zeros((n + m + 1, n + 1 + m))
    J[:n, :n] = A
    J[:n, n + 1 :] = G.T
    J[n : n + m, :n] = 2.0 * G
    J[n : n + m, n] = -epi
    J[n + m, n + 1 :] = epi
    F = np.concatenate([A @ x + b, v[S] - tau * epi, [epi @ w[S] - 1.0]])
    # scipy.linalg.lstsq's gelsy path, without its wrapper's overhead
    eps = np.finfo(float).eps
    step = dgelsy(J, -F, np.zeros(len(F), dtype=np.int32), eps, int(dgelsy_lwork(*J.shape, 1, eps)[0]))[1]
    w = w.copy()
    w[S] = np.maximum(w[S] + step[n + 1 :], 0.0)
    weight = w[:ne].sum()
    return x + step[:n], (w / weight if weight > 0.0 else w)


def _minimize_primal(d, box, tol, max_iter, scale, x0=None) -> SolveResult:
    """The primal SLSQP solve over (x, tau) from x0 (default the box
    centre), certified by its multipliers (see the module docstring)."""
    from scipy.optimize import minimize  # loads with the first SLSQP solve, not the package

    n = d.dim
    ne, K = d.num_epigraph, len(d.c)  # stack rows: epigraph, then homogeneous
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

    if x0 is None:
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
        phase1 = SocDescription(d.A[ne:], d.b[ne:], d.c[ne:], K - ne)
        if _minimize_primal(phase1, box, tol, max_iter, _scale(phase1)).lower_bound > feas_tol:
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
    w_lo'(lo - x) + w_hi'(x - hi), so tau >= its minimum over x, which
    _lagrangian_min gives.  -inf when the epigraph weights are all 0 or
    that minimum is unbounded below."""
    n, K, ne = d.dim, len(d.c), d.num_epigraph
    weight = w[:ne].sum()
    if weight <= 0.0:
        return -np.inf
    A, b, c = aggregate(d, w[:K] / weight)
    lo, hi = w[K : K + n] / weight, w[K + n :] / weight
    r = _lagrangian_min(A, b + 0.5 * (hi - lo), c + lo @ box[:, 0] - hi @ box[:, 1], scale)
    return -np.inf if r is None else r[0]


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
