"""Brute-force hull oracle for N = 2 instances, independent of the SOC
description path: densely sample the true epigraph over a box (with exact
root-solved points on each constraint boundary), take the 3D convex hull
of the samples extended by the vertical upward ray, and decide membership
of probe points against the hull's facet inequalities (the membership LP
collapses to evaluating them once qhull has the facet description)."""

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from qcqp_hull import _kernels
from qcqp_hull.core import EpigraphPoint, stack_values
from qcqp_hull.hull import dsdp_membership


def _quad_1d_roots(a, b, c):
    """Real roots of a x^2 + b x + c = 0 (degenerate cases included)."""
    if abs(a) > 1e-14:
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        r = np.sqrt(disc)
        return [(-b - r) / (2 * a), (-b + r) / (2 * a)]
    if abs(b) > 1e-14:
        return [-c / b]
    return []


def sample_epigraph_cloud(p, box, resolution, feas_tol=1e-7):
    """(K, 3) array of points (x1, x2, q0(x)/2) of the true epigraph graph,
    grid samples plus constraint-boundary roots along every grid line."""
    ax1 = np.linspace(box[0][0], box[0][1], resolution)
    ax2 = np.linspace(box[1][0], box[1][1], resolution)
    G1, G2 = np.meshgrid(ax1, ax2, indexing="ij")
    X = np.stack([G1.ravel(), G2.ravel()], axis=1)

    extra = []
    for q in p.constraints:
        A, b = q.A, q.b
        for c1 in ax1:  # fix x1, roots in x2
            roots = _quad_1d_roots(
                A[1, 1], 2 * (A[0, 1] * c1 + b[1]), A[0, 0] * c1 * c1 + 2 * b[0] * c1 + q.c
            )
            extra.extend([c1, r] for r in roots if box[1][0] <= r <= box[1][1])
        for c2 in ax2:  # fix x2, roots in x1
            roots = _quad_1d_roots(
                A[0, 0], 2 * (A[0, 1] * c2 + b[0]), A[1, 1] * c2 * c2 + 2 * b[1] * c2 + q.c
            )
            extra.extend([r, c2] for r in roots if box[0][0] <= r <= box[0][1])
    if extra:
        X = np.vstack([X, np.array(extra)])

    vals = _kernels.eval_quadratics(p.A, p.b, p.c, X)
    mi = p.num_inequalities
    feas = np.all(vals[1 : mi + 1] <= feas_tol, axis=0)
    feas &= np.all(np.abs(vals[mi + 1 :]) <= feas_tol, axis=0)
    return np.column_stack([X[feas], 0.5 * vals[0][feas]])


def oracle_membership(cloud, probes, tol=1e-9):
    """Boolean verdicts for each probe: in conv(cloud) + upward ray?

    The ray is materialized by a lifted copy of the cloud: the hull of
    cloud united with cloud + H e_t equals conv(cloud) + [0, H] e_t, so
    its facet inequalities decide extended membership exactly for probes
    far below the cap at height H.
    """
    probes = np.asarray(probes, dtype=float)
    t_lo, t_hi = float(np.min(cloud[:, 2])), float(np.max(cloud[:, 2]))
    H = (t_hi - t_lo) + 2.0 * max(float(np.max(probes[:, 2])) - t_lo, 1.0) + 10.0
    lifted = cloud.copy()
    lifted[:, 2] += H
    body = np.vstack([cloud, lifted])
    try:
        hull = ConvexHull(body)
    except QhullError:
        hull = ConvexHull(body, qhull_options="QJ")
    eqs = hull.equations  # rows (n, d) with n . x + d <= 0 inside, |n| = 1
    out = np.empty(probes.shape[0], dtype=bool)
    for start in range(0, probes.shape[0], 200):
        chunk = probes[start : start + 200]
        margins = eqs[:, :3] @ chunk.T + eqs[:, 3:4]
        out[start : start + 200] = np.max(margins, axis=0) <= tol
    return out


def sample_margin_probes(p, soc, probe_box, count, rng, spread, margin=1e-3, tol=1e-8):
    """Probes (x1, x2, t) with |hull membership residual| >= margin,
    paired with the hull verdict being tested."""
    probes, labels = [], []
    attempts = 0
    while len(probes) < count and attempts < 100 * count:
        attempts += 1
        x = rng.uniform([probe_box[0][0], probe_box[1][0]], [probe_box[0][1], probe_box[1][1]])
        svals = stack_values(soc, x)
        ne = len(soc.epigraph)
        if np.all(svals[ne:] <= tol):
            tmin = 0.5 * np.max(svals[:ne])
        else:
            tmin = 0.5 * stack_values(p, x)[0]
        t = tmin + rng.uniform(-spread, spread)
        pt = EpigraphPoint(x, t)
        inside, worst = dsdp_membership(soc, pt, tol)
        if abs(worst) < margin:
            continue
        probes.append([x[0], x[1], t])
        labels.append(inside)
    return np.array(probes), np.array(labels)


def oracle_agreement(p, soc, rng, probe_box, sample_box, resolution=501, count=1000, spread=5.0):
    cloud = sample_epigraph_cloud(p, sample_box, resolution)
    if cloud.shape[0] < 4:
        raise AssertionError("oracle sampling found too little of the epigraph")
    probes, labels = sample_margin_probes(p, soc, probe_box, count, rng, spread)
    verdicts = oracle_membership(cloud, probes)
    return float(np.mean(verdicts == labels)), len(probes)
