"""The dual multiplier polyhedron: H/V representations, faces, classification.

After whitening + joint diagonalization the multiplier set is the
polyhedron { gamma : d_j(A_0) + sum_i gamma_i d_j(A_i) >= 0 for all
coordinates j, gamma_i >= 0 for inequality indices }.  This module builds
that H-representation, converts it to vertices + extreme rays with an
incremental double description method, optimizes linear functionals over
it by generator scan, and enumerates/classifies its faces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from .core import Qcqp, lagrangian, stack_values
from .errors import GuardExceeded, NoInteriorPoint
from .linalg import (
    Definiteness,
    SimultaneousDiagonalization,
    psd_status,
    sym_eig,
    whiten_simdiag,
)

DD_GUARD = 12
FACE_GUARD = 20
DD_TOL = 1e-9
FACE_TOL = 1e-8
RANK_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HRow:
    """One inequality a . gamma + beta >= 0 with its origin.

    kind is "eigenvalue" (index = diagonal coordinate j) or "sign"
    (index = inequality constraint i).
    """

    a: np.ndarray
    beta: float
    kind: str
    index: int


@dataclass(frozen=True, eq=False)
class PolyhedronH:
    """The rows a . gamma + beta >= 0, plus the same rows as read-only
    arrays scaled to ||a|| = 1 where a != 0 (``nontrivial``).  Constant
    rows (a = 0) are left unscaled and are never active."""

    rows: tuple
    dim: int
    A: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    nontrivial: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = np.array([r.a for r in self.rows], dtype=float).reshape(len(self.rows), self.dim)
        beta = np.array([r.beta for r in self.rows], dtype=float)
        norms = np.linalg.norm(A, axis=1)
        nontrivial = norms > 1e-12
        scale = np.where(nontrivial, norms, 1.0)
        for name, arr in (("A", A / scale[:, None]), ("beta", beta / scale), ("nontrivial", nontrivial)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True, eq=False)
class PolyhedronV:
    """Minimal generator representation: conv(vertices) + cone(rays).

    Rays are unit length.  Lineality directions appear as opposite ray
    pairs.  Empty vertices means the polyhedron is empty.
    """

    vertices: np.ndarray
    rays: np.ndarray

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0


@dataclass(frozen=True, eq=False)
class Face:
    """A face described by the generators of the ambient polyhedron it contains."""

    vertex_ids: tuple
    ray_ids: tuple
    vertices: np.ndarray
    rays: np.ndarray
    active_rows: tuple
    aff_dim: int

    def relint_point(self) -> np.ndarray:
        pt = self.vertices.mean(axis=0)
        if self.rays.shape[0]:
            pt = pt + self.rays.sum(axis=0)
        return pt


@dataclass(frozen=True, eq=False)
class FaceClass:
    """Definite (witness with positive definite aggregated Hessian) or
    semidefinite (orthonormal basis of the shared zero eigenspace)."""

    definite: bool
    witness: np.ndarray | None = None
    basis: np.ndarray | None = None
    b_aff_dim: int | None = None

    @property
    def dim_v(self) -> int:
        return 0 if self.basis is None else self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class GammaData:
    """Pipeline bundle: diagonalization, H- and V-representations, witness."""

    problem: Qcqp
    sd: SimultaneousDiagonalization
    h: PolyhedronH
    v: PolyhedronV
    gamma_star: np.ndarray
    margin: float


def _rank(M, tol: float = RANK_TOL) -> int:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def _aff_dim(vertices: np.ndarray, rays: np.ndarray) -> int:
    if vertices.shape[0] == 0:
        return -1
    dirs = [vertices[1:] - vertices[0]] if vertices.shape[0] > 1 else []
    if rays.shape[0]:
        dirs.append(rays)
    if not dirs:
        return 0
    return _rank(np.vstack(dirs))


def _incidence(h: PolyhedronH, vertices: np.ndarray, rays: np.ndarray, tol: float) -> np.ndarray:
    """Activity of each given generator (vertices, then rays) on each
    normalized row of ``h``."""
    act = np.vstack([np.abs(vertices @ h.A.T + h.beta) <= tol, np.abs(rays @ h.A.T) <= tol])
    return act & h.nontrivial


def build_gamma(p: Qcqp, sd: SimultaneousDiagonalization) -> PolyhedronH:
    """H-representation of the multiplier set in the diagonalizing basis."""
    m = p.num_constraints
    rows = []
    for j in range(p.dim):
        a = sd.diagonals[1:, j].copy()
        rows.append(HRow(a=a, beta=float(sd.diagonals[0, j]), kind="eigenvalue", index=j))
    for i in range(p.num_inequalities):
        e = np.zeros(m)
        e[i] = 1.0
        rows.append(HRow(a=e, beta=0.0, kind="sign", index=i))
    return PolyhedronH(rows=tuple(rows), dim=m)


# ---------------------------------------------------------------------------
# Double description


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


def _initial_basis_rows(B: np.ndarray, dim: int):
    """Greedy selection of ``dim`` linearly independent rows of B."""
    chosen = []
    for i in range(B.shape[0]):
        cand = chosen + [i]
        if _rank(B[cand], tol=1e-10) == len(cand):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    return None


def _dd_cone(B: np.ndarray, tol: float) -> np.ndarray:
    """Extreme rays of the pointed cone {x : Bx >= 0} (B full column rank)."""
    dim = B.shape[1]
    first = _initial_basis_rows(B, dim)
    if first is None:
        raise AssertionError("cone is not pointed: rows do not span")
    rest = [i for i in range(B.shape[0]) if i not in first]
    rays = np.linalg.inv(B[first]).T  # row k: ray with B[first] @ ray = e_k
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    processed = list(first)
    act = np.abs(rays @ B[processed].T) <= tol

    for ri in rest:
        b = B[ri]
        vals = rays @ b
        pos = np.where(vals > tol)[0]
        neg = np.where(vals < -tol)[0]
        zero = np.where(np.abs(vals) <= tol)[0]
        if neg.size == 0:
            processed.append(ri)
            act = np.hstack([act, (np.abs(vals) <= tol)[:, None]])
            continue
        keep = np.concatenate([pos, zero])
        new_rays = []
        min_common = max(dim - 2, 0)
        for i, j in itertools.product(pos, neg):
            common = act[i] & act[j]
            if np.count_nonzero(common) < min_common:
                continue
            adjacent = True
            for k in range(rays.shape[0]):
                if k == i or k == j:
                    continue
                if np.all(act[k][common]):
                    adjacent = False
                    break
            if adjacent:
                r = vals[i] * rays[j] - vals[j] * rays[i]
                nrm = np.linalg.norm(r)
                if nrm > tol:
                    new_rays.append(r / nrm)
        processed.append(ri)
        parts = [rays[keep]]
        if new_rays:
            parts.append(np.array(new_rays))
        rays = np.vstack(parts) if parts else np.zeros((0, dim))
        if rays.shape[0] == 0:
            return rays
        act = np.abs(rays @ B[processed].T) <= tol
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


def dd_vrep(h: PolyhedronH, guard: int = DD_GUARD, tol: float = DD_TOL) -> PolyhedronV:
    """Minimal vertex/ray representation by the incremental double
    description method on the homogenization cone.

    Lineality is split off first (quotient by the kernel of the row
    directions) and returned as opposite ray pairs.  An empty result
    signals an empty polyhedron.
    """
    m = h.dim
    if m > guard:
        raise GuardExceeded(f"double description guard: dimension {m} > {guard}")
    empty = PolyhedronV(vertices=np.zeros((0, m)), rays=np.zeros((0, m)))

    if np.any(h.beta[~h.nontrivial] < -tol):
        return empty
    keep = _dedup_rows(h)
    A, beta = h.A[keep], h.beta[keep]

    # Lineality = kernel of the row directions.
    if A.shape[0] == 0:
        lin = np.eye(m)
        d = 0
        Qperp = np.zeros((m, 0))
    else:
        U, s, Vt = np.linalg.svd(A, full_matrices=True)
        r = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 1.0)))
        Qperp = Vt[:r].T
        lin = Vt[r:].T
        d = r

    if d == 0:
        # Whole quotient collapses: polyhedron = point + lineality.
        vertices = np.zeros((1, m))
        rays = np.vstack([lin.T, -lin.T]) if lin.shape[1] else np.zeros((0, m))
        return PolyhedronV(vertices=vertices, rays=_canonical_order(rays))

    Aq = A @ Qperp  # rows in quotient coordinates
    B = np.hstack([Aq, beta[:, None]])
    B = np.vstack([B, np.concatenate([np.zeros(d), [1.0]])])  # w >= 0
    B /= np.linalg.norm(B, axis=1)[:, None]

    cone_rays = _dd_cone(B, tol)
    if cone_rays.shape[0] == 0:
        return empty
    w = cone_rays[:, d]
    vert_mask = w > tol
    if not np.any(vert_mask):
        return empty
    vertices_q = cone_rays[vert_mask, :d] / w[vert_mask, None]
    rays_q = cone_rays[~vert_mask, :d]

    vertices = vertices_q @ Qperp.T
    ray_list = [rays_q @ Qperp.T] if rays_q.shape[0] else []
    if lin.shape[1]:
        ray_list.extend([lin.T, -lin.T])
    rays = np.vstack(ray_list) if ray_list else np.zeros((0, m))
    if rays.shape[0]:
        rays /= np.linalg.norm(rays, axis=1)[:, None]
        rays = _dedup_points(rays, 1e-9)
    vertices = _dedup_points(vertices, 1e-9)
    return PolyhedronV(vertices=_canonical_order(vertices), rays=_canonical_order(rays))


# ---------------------------------------------------------------------------
# Optimization and faces


def _face(h: PolyhedronH, v: PolyhedronV, vertex_ids, ray_ids, tol: float) -> Face:
    """The face spanned by the given generators of ``v``; its active rows
    are the rows of ``h`` active at all of them."""
    vertex_ids = tuple(sorted(int(i) for i in vertex_ids))
    ray_ids = tuple(sorted(int(i) for i in ray_ids))
    verts = v.vertices[list(vertex_ids)]
    rays = v.rays[list(ray_ids)]
    active = np.flatnonzero(np.all(_incidence(h, verts, rays, tol), axis=0))
    return Face(
        vertex_ids=vertex_ids,
        ray_ids=ray_ids,
        vertices=verts,
        rays=rays,
        active_rows=tuple(int(i) for i in active),
        aff_dim=_aff_dim(verts, rays),
    )


def optimal_face(v: PolyhedronV, p: Qcqp, x, h: PolyhedronH, tol: float = FACE_TOL):
    """Maximize gamma -> q_0(x) + sum gamma_i q_i(x) over the polyhedron.

    Returns (sup_value, face of maximizers) or None when a ray makes the
    functional unbounded above.
    """
    if v.is_empty:
        raise ValueError("polyhedron is empty")
    vals = stack_values(p, x)
    rvals = vals[1:]
    vertex_vals = vals[0] + v.vertices @ rvals
    sup = float(np.max(vertex_vals))
    tol_abs = tol * max(1.0, abs(sup))
    if v.rays.shape[0]:
        ray_vals = v.rays @ rvals
        if np.any(ray_vals > tol_abs):
            return None
        ray_ids = np.where(np.abs(ray_vals) <= tol_abs)[0]
    else:
        ray_ids = np.array([], dtype=int)
    vertex_ids = np.where(vertex_vals >= sup - tol_abs)[0]
    return sup, _face(h, v, vertex_ids, ray_ids, tol)


def classify_face(
    face: Face, p: Qcqp, sd: SimultaneousDiagonalization, h: PolyhedronH, tol: float = FACE_TOL
) -> FaceClass:
    """Definite/semidefinite dichotomy in the diagonalizing basis.

    Coordinate j is dead on the face when its eigenvalue row is active at
    every generator; the shared zero eigenspace is spanned by the dead
    columns of the congruence basis, orthonormalized.
    """
    if face.vertices.shape[0] == 0:
        raise ValueError("face has no generators")
    active = set(face.active_rows)
    dead = sorted(
        {h.rows[i].index for i in active if h.rows[i].kind == "eigenvalue"}
    )
    if not dead:
        witness = face.relint_point()
        return FaceClass(definite=True, witness=witness)
    cols = sd.basis[:, dead]
    Q, _ = np.linalg.qr(cols)
    dirs = []
    if face.vertices.shape[0] > 1:
        dirs.append(face.vertices[1:] - face.vertices[0])
    if face.rays.shape[0]:
        dirs.append(face.rays)
    b_aff = _rank(np.vstack(dirs) @ p.b[1:]) if dirs else 0
    return FaceClass(definite=False, basis=Q, b_aff_dim=b_aff)


def enumerate_faces(
    h: PolyhedronH, v: PolyhedronV, guard: int = FACE_GUARD, tol: float = FACE_TOL
):
    """All nonempty faces, each once, sorted by (aff_dim, vertex_ids, ray_ids).

    Every face is the polyhedron cut by some set of rows, so the faces are
    the polyhedron itself closed under intersection with one distinct row
    at a time.  Faces are identified by the ambient generators they
    contain; a candidate without a vertex is empty.
    """
    if v.is_empty:
        return []
    dedup = _dedup_rows(h)
    if dedup.size > guard:
        raise GuardExceeded(f"face enumeration guard: {dedup.size} rows > {guard}")

    nv = v.vertices.shape[0]
    act = _incidence(h, v.vertices, v.rays, tol)
    cuts = [
        (frozenset(np.flatnonzero(act[:nv, ri])), frozenset(np.flatnonzero(act[nv:, ri])))
        for ri in dedup
    ]
    full = (frozenset(range(nv)), frozenset(range(v.rays.shape[0])))
    seen = {full}
    frontier = [full]
    while frontier:
        fresh = []
        for vs, rs in frontier:
            for cut_vs, cut_rs in cuts:
                key = (vs & cut_vs, rs & cut_rs)
                if key[0] and key not in seen:
                    seen.add(key)
                    fresh.append(key)
        frontier = fresh
    faces = [_face(h, v, vs, rs, tol) for vs, rs in seen]
    faces.sort(key=lambda f: (f.aff_dim, f.vertex_ids, f.ray_ids))
    return faces


# ---------------------------------------------------------------------------
# Interior multiplier search


def find_gamma_star(
    h: PolyhedronH, margin_cap: float = 1.0, tol: float = 1e-9, guard: int = DD_GUARD + 1
):
    """Maximize the minimum eigenvalue row over the polyhedron.

    Lifts to (gamma, mu) with every eigenvalue row >= mu and mu <= cap,
    enumerates the lifted polyhedron's generators, and picks the vertex
    with the largest mu.  Returns (gamma_star, margin) or None when no
    strictly interior multiplier exists.
    """
    m = h.dim
    rows = []
    for r in h.rows:
        if r.kind == "eigenvalue":
            rows.append(HRow(a=np.concatenate([r.a, [-1.0]]), beta=r.beta, kind=r.kind, index=r.index))
        else:
            rows.append(HRow(a=np.concatenate([r.a, [0.0]]), beta=r.beta, kind=r.kind, index=r.index))
    cap = np.zeros(m + 1)
    cap[m] = -1.0
    rows.append(HRow(a=cap, beta=float(margin_cap), kind="cap", index=0))
    lifted = PolyhedronH(rows=tuple(rows), dim=m + 1)
    lv = dd_vrep(lifted, guard=guard)
    if lv.is_empty:
        return None
    mus = lv.vertices[:, m]
    best = float(np.max(mus))
    if best <= tol:
        return None
    cands = lv.vertices[mus >= best - 1e-12]
    cands = _canonical_order(cands)
    gamma = cands[0, :m].copy()
    return gamma, best


def find_definite_multiplier(
    p: Qcqp, tol: float = 1e-9, max_iter: int = 300, bound: float = 1e4
):
    """A multiplier gamma (signs respected) with A(gamma) positive definite.

    Tries gamma = 0, then maximizes the smallest eigenvalue of A(gamma) by
    a cutting-plane scheme on mu <= v' A(gamma) v.  Returns None when the
    maximum is not positive (no definite aggregation exists in the box).
    """
    m = p.num_constraints
    scale = max(1.0, float(np.max(np.abs(p.A))))

    def min_eig(gamma):
        spec = sym_eig(lagrangian(p, gamma).A)
        return spec.eigenvalues[0], spec.eigenvectors[:, 0]

    lam0, v0 = min_eig(np.zeros(m))
    if lam0 > 1e-8 * scale:
        return np.zeros(m)

    bounds = [(0.0, bound) if i < p.num_inequalities else (-bound, bound) for i in range(m)]
    bounds.append((-bound, bound))  # mu
    cuts_a, cuts_b = [], []
    best_gamma, best_lam = np.zeros(m), lam0

    def add_cut(v):
        # mu - sum_i gamma_i (v'A_i v) <= v'A_0 v
        vAv = (p.A @ v) @ v
        cuts_a.append(np.concatenate([-vAv[1:], [1.0]]))
        cuts_b.append(float(vAv[0]))

    add_cut(v0)
    c = np.zeros(m + 1)
    c[m] = -1.0
    for _ in range(max_iter):
        res = linprog(c, A_ub=np.array(cuts_a), b_ub=np.array(cuts_b), bounds=bounds, method="highs")
        if not res.success:
            break
        gamma_k = res.x[:m]
        mu_k = res.x[m]
        lam, v = min_eig(gamma_k)
        if lam > best_lam:
            best_lam, best_gamma = lam, gamma_k.copy()
        if mu_k - best_lam <= max(tol, 1e-9 * scale):
            break
        add_cut(v)
    if best_lam > tol * scale:
        return best_gamma
    return None


def build_gamma_data(p: Qcqp, dd_guard: int = DD_GUARD) -> GammaData:
    """Whiten, certify simultaneous diagonalizability, and build both
    multiplier-set representations plus an interior witness.

    Raises NoInteriorPoint when no definite aggregation exists and
    NotSimultaneouslyDiagonalizable when polyhedrality is not certified.
    """
    gamma0 = find_definite_multiplier(p)
    if gamma0 is None:
        raise NoInteriorPoint("no multiplier gives a positive definite aggregated Hessian")
    sd = whiten_simdiag(p, gamma0)
    h = build_gamma(p, sd)
    v = dd_vrep(h, guard=dd_guard)
    found = find_gamma_star(h, guard=dd_guard + 1)
    if found is None:
        raise NoInteriorPoint("multiplier set has no interior point in the diagonal basis")
    gamma_star, margin = found
    status = psd_status(lagrangian(p, gamma_star).A)
    if status.tag is not Definiteness.POSITIVE_DEFINITE:
        raise NoInteriorPoint("interior witness failed the definiteness re-check")
    return GammaData(problem=p, sd=sd, h=h, v=v, gamma_star=gamma_star, margin=margin)
