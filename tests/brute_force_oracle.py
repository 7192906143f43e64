"""Slow oracle for the brute-force grid search: the point-array sweep,
which builds every slab's meshgrid, stacks it into a (P, N) point array
and evaluates it through ``core.objective_and_violations``.
``solve.brute_force`` must return the same minimizer, the same value up to
rounding and raise NoFeasiblePoint on the same problems.  The function
is kept as it was; its constants are ``solve``'s, bound at import, so a
test that changes the slab size sets it in both modules."""

import numpy as np

from qcqp_hull.core import Qcqp, objective_and_violations
from qcqp_hull.errors import NoFeasiblePoint
from qcqp_hull.solve import (
    BRUTE_FEAS_TOL,
    BRUTE_REFINE_LEVELS,
    BRUTE_REFINE_POINTS,
    BRUTE_SLAB_POINTS,
    _as_box,
)


def brute_force(p: Qcqp, box, grid_points: int | None = None):
    """Best feasible objective value (in 2t units) found in the box, for
    N <= 3 only; raises ValueError for N > 3.

    A dense grid with recursive zoom refinement; equality constraints are
    relaxed proportionally to the current grid spacing.  The first grid has
    ``grid_points`` points per axis, by default min(400,
    floor(BRUTE_SLAB_POINTS^(1/N))): 400 at N <= 2 and 54 at N = 3, so the
    default first grid is one slab.  Each grid is evaluated in slabs of
    whole layers along the first axis, at most BRUTE_SLAB_POINTS points or
    one layer each, so memory stays bounded at N = 3.  Returns (value, x);
    raises NoFeasiblePoint when nothing in the box satisfies the
    constraints.
    """
    n = p.dim
    if n > 3:
        raise ValueError(f"the brute-force grid oracle runs at N <= 3, got N = {n}")
    box = _as_box(box, n)
    if grid_points is None:
        # The 1e-9 keeps the exact square root at N = 2 from rounding down.
        grid_points = min(400, int(BRUTE_SLAB_POINTS ** (1.0 / n) + 1e-9))

    corner = np.linalg.norm(np.max(np.abs(box), axis=1))
    grad_bound = 2.0 * np.linalg.norm(p.A, 2, axis=(1, 2)) * corner + 2.0 * np.linalg.norm(p.b, axis=1)

    mi = p.num_inequalities

    def sweep(lo, hi, pts):
        axes = [np.linspace(lo[i], hi[i], pts) for i in range(n)]
        h = max(float(ax[1] - ax[0]) if len(ax) > 1 else 0.0 for ax in axes)
        # Per-row tolerances: the inequality slack, then the equality bands.
        eq_tols = h * grad_bound[mi + 1 :] + 1e-12
        tols = np.r_[np.full(mi, BRUTE_FEAS_TOL), eq_tols]
        # Slabs of whole first-axis layers; the first best point in grid
        # order wins, as in one sweep of the whole grid.
        step = max(1, BRUTE_SLAB_POINTS // pts ** (n - 1))
        best = None
        for start in range(0, pts, step):
            mesh = np.meshgrid(axes[0][start : start + step], *axes[1:], indexing="ij")
            X = np.stack([m.ravel() for m in mesh], axis=1)
            obj, viol = objective_and_violations(p, X)
            ok = np.all(viol <= tols[:, None], axis=0)
            if not np.any(ok):
                continue
            obj = np.where(ok, obj, np.inf)
            j = int(np.argmin(obj))
            if best is None or obj[j] < best[0]:
                best = float(obj[j]), X[j]
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
