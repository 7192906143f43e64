"""Slow oracle for double description's bookkeeping: ``gamma.dd_vrep`` as
it was with per-row Python loops for the row dedup and the generator
order, a point-dedup pass over the finished vertices and rays, a separate
whole-space branch and a list-membership basis-first row order.  The
shipped ``dd_vrep`` must give byte-identical vertices and rays."""

import itertools

import numpy as np

from qcqp_hull.errors import GuardExceeded
from qcqp_hull.gamma import DD_GUARD, DD_TOL, RANK_TOL, PolyhedronH, PolyhedronV, _initial_basis_rows


def _dedup_rows(h: PolyhedronH) -> np.ndarray:
    """Indices of the first of each distinct nonconstant normalized row."""
    seen = set()
    order = []
    for i in np.flatnonzero(h.nontrivial):
        key = tuple(np.round(np.concatenate([h.A[i], [h.beta[i]]]), 10))
        if key not in seen:
            seen.add(key)
            order.append(i)
    return np.array(order, dtype=int)


def _dd_cone(B: np.ndarray) -> np.ndarray:
    """Extreme rays of the pointed cone {x : Bx >= 0} (B full column rank).

    The rows are reordered basis-first, so the rows processed before row
    k are the prefix B[:k].  Two rays are adjacent when they are the only
    rays active on every processed row that both are active on."""
    dim = B.shape[1]
    first = _initial_basis_rows(B, dim)
    if first is None:
        raise AssertionError("cone is not pointed: rows do not span")
    B = B[first + [i for i in range(B.shape[0]) if i not in first]]
    rays = np.linalg.inv(B[:dim]).T  # row k: ray with B[:dim] @ ray = e_k
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    for k in range(dim, B.shape[0]):
        vals = rays @ B[k]
        neg = np.flatnonzero(vals < -DD_TOL)
        if neg.size == 0:
            continue
        pos = np.flatnonzero(vals > DD_TOL)
        act = np.abs(rays @ B[:k].T) <= DD_TOL
        new_rays = []
        for i, j in itertools.product(pos, neg):
            common = act[i] & act[j]
            if np.count_nonzero(common) < dim - 2:
                continue
            if np.count_nonzero(act[:, common].all(axis=1)) == 2:
                r = vals[i] * rays[j] - vals[j] * rays[i]
                nrm = np.linalg.norm(r)
                if nrm > DD_TOL:
                    new_rays.append(r / nrm)
        rays = np.vstack([rays[pos], rays[np.abs(vals) <= DD_TOL], *new_rays])
        if rays.shape[0] == 0:
            return rays
    return rays


def _canonical_order(points: np.ndarray) -> np.ndarray:
    if points.shape[0] <= 1:
        return points
    keys = [tuple(np.round(p, 10)) for p in points]
    order = sorted(range(len(keys)), key=lambda i: keys[i])
    return points[order]


def _dedup_points(points: np.ndarray, tol: float) -> np.ndarray:
    out = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in out):
            out.append(p)
    return np.array(out) if out else np.zeros((0, points.shape[1]))


def dd_vrep(h: PolyhedronH, guard: int = DD_GUARD) -> PolyhedronV:
    """Minimal vertex/ray representation by the incremental double
    description method on the homogenization cone.

    Lineality is split off first (quotient by the kernel of the row
    directions) and returned as opposite ray pairs.  An empty result
    signals an empty polyhedron.  A row is tight within ``DD_TOL``.
    """
    m = h.dim
    if m > guard:
        raise GuardExceeded(f"double description guard: dimension {m} > {guard}")
    empty = PolyhedronV(vertices=np.zeros((0, m)), rays=np.zeros((0, m)))

    if np.any(h.beta[~h.nontrivial] < -DD_TOL):
        return empty
    keep = _dedup_rows(h)
    A, beta = h.A[keep], h.beta[keep]

    if A.shape[0] == 0:
        # No nonconstant row: the polyhedron is the whole space.
        rays = np.vstack([np.eye(m), -np.eye(m)])
        return PolyhedronV(vertices=np.zeros((1, m)), rays=_canonical_order(rays))
    # Lineality = kernel of the row directions.
    _, s, Vt = np.linalg.svd(A)
    d = int(np.sum(s > RANK_TOL * max(1.0, s[0])))
    Qperp, lin = Vt[:d].T, Vt[d:].T

    Aq = A @ Qperp  # rows in quotient coordinates
    B = np.hstack([Aq, beta[:, None]])
    B = np.vstack([B, np.concatenate([np.zeros(d), [1.0]])])  # w >= 0
    B /= np.linalg.norm(B, axis=1)[:, None]

    cone_rays = _dd_cone(B)
    if cone_rays.shape[0] == 0:
        return empty
    w = cone_rays[:, d]
    vert_mask = w > DD_TOL
    if not np.any(vert_mask):
        return empty
    vertices_q = cone_rays[vert_mask, :d] / w[vert_mask, None]
    rays_q = cone_rays[~vert_mask, :d]

    rays = np.vstack([rays_q @ Qperp.T, lin.T, -lin.T])
    rays = _dedup_points(rays / np.linalg.norm(rays, axis=1)[:, None], 1e-9)
    vertices = _dedup_points(vertices_q @ Qperp.T, 1e-9)
    return PolyhedronV(vertices=_canonical_order(vertices), rays=_canonical_order(rays))
