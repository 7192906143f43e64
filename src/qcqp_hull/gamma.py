"""The dual multiplier polyhedron: H/V representations and faces.

After whitening + joint diagonalization the multiplier set is the
polyhedron { gamma : d_j(A_0) + sum_i gamma_i d_j(A_i) >= 0 for all
coordinates j, gamma_i >= 0 for inequality indices }.  This module builds
that H-representation as row arrays, converts it to vertices + extreme
rays with an incremental double description method, optimizes linear
functionals over it by generator scan, and enumerates its faces.  The
whitening multiplier is the interior witness: every eigenvalue row is 1
there, so no search for one is needed.  A face's dead coordinates (its
active eigenvalue rows) settle whether it is definite and its dim V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ._lp import CuttingPlaneLP
from .core import Qcqp, lagrangian, stack_values
from .errors import GuardExceeded, NoInteriorPoint
from .linalg import SimultaneousDiagonalization, sym_eig, whiten_simdiag

DD_GUARD = 12
FACE_GUARD = 20
DD_TOL = 1e-9
FACE_TOL = 1e-8
RANK_TOL = 1e-9
# find_definite_multiplier: stopping gap, iteration budget, multiplier box
DEFINITE_TOL = 1e-9
DEFINITE_MAX_ITER = 300
MULTIPLIER_BOUND = 1e4


@dataclass(frozen=True, eq=False)
class PolyhedronH:
    """The rows a[k] . gamma + b[k] >= 0.  The first ``num_eigen`` are the
    eigenvalue rows of coordinates 0 .. num_eigen - 1, the rest sign rows.

    ``A``/``beta`` are the same rows as read-only arrays scaled to
    ||a|| = 1 where a != 0 (``nontrivial``).  Constant rows (a = 0) are
    left unscaled and are never active."""

    a: np.ndarray
    b: np.ndarray
    num_eigen: int
    A: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    nontrivial: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        norms = np.linalg.norm(a, axis=1)
        nontrivial = norms > 1e-12
        scale = np.where(nontrivial, norms, 1.0)
        normalized = (("A", a / scale[:, None]), ("beta", b / scale), ("nontrivial", nontrivial))
        for name, arr in (("a", a), ("b", b), *normalized):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.a.shape[1]


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
    """A face described by the generators of the ambient polyhedron it contains.

    ``dead`` lists its active eigenvalue rows.  Coordinate j is dead when
    its eigenvalue is zero across the face, so the shared zero eigenspace
    V is spanned by the dead columns of the congruence basis: the face is
    definite when none is dead, and dim V is their count."""

    vertex_ids: tuple
    ray_ids: tuple
    vertices: np.ndarray
    rays: np.ndarray
    active_rows: tuple
    aff_dim: int
    dead: tuple

    @property
    def definite(self) -> bool:
        return not self.dead

    @property
    def dim_v(self) -> int:
        return len(self.dead)

    def relint_point(self) -> np.ndarray:
        pt = self.vertices.mean(axis=0)
        if self.rays.shape[0]:
            pt = pt + self.rays.sum(axis=0)
        return pt


@dataclass(frozen=True, eq=False)
class GammaData:
    """Pipeline bundle: diagonalization, H- and V-representations, witness."""

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


def _directions(vertices: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Vertex differences, then rays: the directions whose span is the
    linear part of the affine hull of conv(vertices) + cone(rays)."""
    return np.vstack([vertices[1:] - vertices[:1], rays])


def b_aff_dim(face: Face, p: Qcqp) -> int:
    """Affine dimension of gamma -> b(gamma) = b_0 + sum gamma_i b_i over the face."""
    return _rank(_directions(face.vertices, face.rays) @ p.b[1:])


def _incidence(h: PolyhedronH, vertices: np.ndarray, rays: np.ndarray) -> np.ndarray:
    """Activity of each given generator (vertices, then rays) on each
    normalized row of ``h``."""
    act = np.vstack(
        [np.abs(vertices @ h.A.T + h.beta) <= FACE_TOL, np.abs(rays @ h.A.T) <= FACE_TOL]
    )
    return act & h.nontrivial


def build_gamma(p: Qcqp, sd: SimultaneousDiagonalization) -> PolyhedronH:
    """H-representation of the multiplier set in the diagonalizing basis:
    one eigenvalue row per coordinate, then one sign row per inequality."""
    m = p.num_constraints
    a = np.vstack([sd.diagonals[1:].T, np.eye(m)[: p.num_inequalities]])
    b = np.r_[sd.diagonals[0], np.zeros(p.num_inequalities)]
    return PolyhedronH(a=a, b=b, num_eigen=p.dim)


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


# ---------------------------------------------------------------------------
# Optimization and faces


def _face(v: PolyhedronV, vertex_ids, ray_ids, act: np.ndarray, num_eigen: int) -> Face:
    """The face spanned by the given generators of ``v``.  ``act`` holds
    the incidences of exactly these generators, so the face's active rows
    are the rows active at all of them."""
    vertex_ids = tuple(sorted(int(i) for i in vertex_ids))
    ray_ids = tuple(sorted(int(i) for i in ray_ids))
    verts = v.vertices[list(vertex_ids)]
    rays = v.rays[list(ray_ids)]
    active = np.flatnonzero(np.all(act, axis=0))
    return Face(
        vertex_ids=vertex_ids,
        ray_ids=ray_ids,
        vertices=verts,
        rays=rays,
        active_rows=tuple(int(i) for i in active),
        aff_dim=_rank(_directions(verts, rays)),
        dead=tuple(int(i) for i in active[active < num_eigen]),
    )


def optimal_face(v: PolyhedronV, p: Qcqp, x, h: PolyhedronH):
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
    tol_abs = FACE_TOL * max(1.0, abs(sup))
    if v.rays.shape[0]:
        ray_vals = v.rays @ rvals
        if np.any(ray_vals > tol_abs):
            return None
        ray_ids = np.where(np.abs(ray_vals) <= tol_abs)[0]
    else:
        ray_ids = np.array([], dtype=int)
    vertex_ids = np.where(vertex_vals >= sup - tol_abs)[0]
    act = _incidence(h, v.vertices[vertex_ids], v.rays[ray_ids])
    return sup, _face(v, vertex_ids, ray_ids, act, h.num_eigen)


def enumerate_faces(h: PolyhedronH, v: PolyhedronV):
    """All nonempty faces, each once, sorted by (aff_dim, vertex_ids, ray_ids).

    Every face is the polyhedron cut by some set of rows, so the faces are
    the polyhedron itself closed under intersection with one cut at a
    time.  A cut is a distinct set of generators that some row is active
    at; rows active at no vertex cut out nothing and are dropped, so the
    guard counts the cuts the closure really runs over.  Faces are
    identified by the ambient generators they contain; a candidate without
    a vertex is empty.
    """
    if v.is_empty:
        return []
    nv = v.vertices.shape[0]
    act = _incidence(h, v.vertices, v.rays)
    cols = np.unique(act[:, act[:nv].any(axis=0)], axis=1)
    if cols.shape[1] > FACE_GUARD:
        raise GuardExceeded(f"face enumeration guard: {cols.shape[1]} cuts > {FACE_GUARD}")
    cuts = [(frozenset(np.flatnonzero(c[:nv])), frozenset(np.flatnonzero(c[nv:]))) for c in cols.T]
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
    faces = [_face(v, vs, rs, act[[*vs, *(nv + r for r in rs)]], h.num_eigen) for vs, rs in seen]
    faces.sort(key=lambda f: (f.aff_dim, f.vertex_ids, f.ray_ids))
    return faces


# ---------------------------------------------------------------------------
# Interior multiplier search


def find_definite_multiplier(p: Qcqp):
    """A multiplier gamma (signs respected) with A(gamma) positive definite.

    Tries gamma = 0, then maximizes the smallest eigenvalue of A(gamma),
    capped at the largest Hessian entry (at least 1), by a cutting-plane
    scheme on mu <= v' A(gamma) v; a multiplier past the cap is pulled
    back toward 0 until the cap is just guaranteed.  Returns None when
    the maximum is not positive (no definite aggregation exists in the
    box).
    """
    m = p.num_constraints
    scale = max(1.0, float(np.max(np.abs(p.A))))

    def min_eig(gamma):
        spec = sym_eig(lagrangian(p, gamma).A)
        return spec.eigenvalues[0], spec.eigenvectors[:, 0]

    lam0, v0 = min_eig(np.zeros(m))
    if lam0 > 1e-8 * scale:
        return np.zeros(m)

    # Columns (gamma, mu) in the multiplier box, gamma >= 0 on inequalities,
    # mu <= scale; maximize mu.
    lower = np.full(m + 1, -MULTIPLIER_BOUND)
    lower[: p.num_inequalities] = 0.0
    upper = np.full(m + 1, MULTIPLIER_BOUND)
    upper[m] = scale
    c = np.zeros(m + 1)
    c[m] = -1.0
    lp = CuttingPlaneLP(c, lower, upper)
    best_gamma, best_lam = np.zeros(m), lam0

    def add_cut(v):
        # mu - sum_i gamma_i (v'A_i v) <= v'A_0 v
        vAv = (p.A @ v) @ v
        lp.add_rows(np.r_[-vAv[1:], 1.0], vAv[:1])

    add_cut(v0)
    for _ in range(DEFINITE_MAX_ITER):
        lp_status, z = lp.solve()
        if lp_status != "optimal":
            break
        gamma_k = z[:m]
        mu_k = z[m]
        lam, v = min_eig(gamma_k)
        if lam > best_lam:
            best_lam, best_gamma = lam, gamma_k.copy()
        if mu_k - best_lam <= DEFINITE_TOL * scale:
            break
        add_cut(v)
    if best_lam > scale:
        # The capped LP optimum is a whole face, and its vertex can lie far
        # out.  lambda_min(A(t gamma)) is concave in t, so it is still >=
        # scale at this t, where the chord from (0, lam0) reaches scale.
        best_gamma *= (scale - lam0) / (best_lam - lam0)
    elif best_lam <= DEFINITE_TOL * scale:
        return None
    return best_gamma


def build_gamma_data(p: Qcqp) -> GammaData:
    """Whiten, certify simultaneous diagonalizability, and build both
    multiplier-set representations plus an interior witness.

    The witness gamma* is the whitening multiplier gamma0: whitening makes
    P' A(gamma0) P = I, so every eigenvalue row is 1 at gamma0, which is
    the margin cap.  Whitening's eigendecomposition of A(gamma0) is the
    one definiteness check on the witness.

    Raises NoInteriorPoint when no definite aggregation exists and
    NotSimultaneouslyDiagonalizable when polyhedrality is not certified.
    """
    gamma0 = find_definite_multiplier(p)
    if gamma0 is None:
        raise NoInteriorPoint("no multiplier gives a positive definite aggregated Hessian")
    sd = whiten_simdiag(p, gamma0)
    h = build_gamma(p, sd)
    v = dd_vrep(h)
    k = h.num_eigen
    margin = float(np.min(h.a[:k] @ gamma0 + h.b[:k], initial=1.0))
    return GammaData(sd=sd, h=h, v=v, gamma_star=gamma0, margin=margin)
