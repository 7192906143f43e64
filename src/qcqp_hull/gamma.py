"""The dual multiplier polyhedron: H/V representations and faces.

After whitening + joint diagonalization the multiplier set is the
polyhedron { gamma : d_j(A_0) + sum_i gamma_i d_j(A_i) >= 0 for all
coordinates j, gamma_i >= 0 for inequality indices }.  This module builds
that H-representation as row arrays, converts it to vertices + extreme
rays with an incremental double description method, optimizes linear
functionals over it by generator scan, and finds the faces the theorems
and the decomposition read: the semidefinite faces, ranked, and the
optimal face of one point.  The whitening multiplier is the interior
witness: every eigenvalue row is 1 there, so no search for one is
needed.  A face's dead coordinates (its active eigenvalue rows) settle
whether it is definite and its dim V.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from ._lp import CuttingPlaneLP
from .core import Qcqp, stack_values
from .errors import GuardExceeded, NoInteriorPoint, QcqpHullError
from .linalg import SimultaneousDiagonalization, _aggregate_spectrum, _whiten, is_definite

DD_GUARD = 12
FACE_GUARD = 20
DD_TOL = 1e-9
# _dd_cone: entries of one block of _combined_rays' products, and the most
# pos/neg pairs of a row that are tested one by one
DD_BLOCK = 1 << 18
DD_LOOP_PAIRS = 3
FACE_TOL = 1e-8
RANK_TOL = 1e-9
# _definite_multiplier: stopping gap, iteration budget, multiplier box
DEFINITE_TOL = 1e-9
DEFINITE_MAX_ITER = 300
MULTIPLIER_BOUND = 1e4


@dataclass(frozen=True, eq=False)
class PolyhedronH:
    """The rows a[k] . gamma + b[k] >= 0.  The first ``num_eigen`` are the
    eigenvalue rows of coordinates 0 .. num_eigen - 1, the rest sign rows.

    ``A``/``beta`` are the same rows as read-only arrays scaled to
    ||a|| = 1 where a != 0 (``nontrivial``).  Constant rows (a = 0) are
    left unscaled and are never active.  ``homogenized`` is the read-only
    (dim + 1, rows) array whose column k is [beta[k], A[k]], so a
    homogenized generator times it gives its value on every normalized
    row."""

    a: np.ndarray
    b: np.ndarray
    num_eigen: int
    A: np.ndarray = field(init=False, repr=False)
    beta: np.ndarray = field(init=False, repr=False)
    nontrivial: np.ndarray = field(init=False, repr=False)
    homogenized: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        norms = np.linalg.norm(a, axis=1)
        nontrivial = norms > 1e-12
        scale = np.where(nontrivial, norms, 1.0)
        A, beta = a / scale[:, None], b / scale
        normalized = (("A", A), ("beta", beta), ("nontrivial", nontrivial))
        for name, arr in (("a", a), ("b", b), *normalized, ("homogenized", np.vstack([beta, A.T]))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True, eq=False)
class PolyhedronV:
    """Minimal generator representation: conv(vertices) + cone(rays).

    Rays are unit length.  Lineality directions appear as opposite ray
    pairs.  Empty vertices means the polyhedron is empty.  ``generators``
    is the same list homogenized as one read-only array, row k generator
    k: [1, gamma_e] per vertex, then [0, gamma_r] per ray."""

    vertices: np.ndarray
    rays: np.ndarray
    generators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        lead = np.concatenate([np.ones(len(self.vertices)), np.zeros(len(self.rays))])
        generators = np.column_stack([lead, np.vstack([self.vertices, self.rays])])
        generators.setflags(write=False)
        object.__setattr__(self, "generators", generators)

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0


@dataclass(frozen=True, eq=False)
class Face:
    """A face described by the generators of the ambient polyhedron it contains.

    ``generators`` holds the rows ``generator_ids`` (ascending) of the
    ambient ``PolyhedronV.generators``, so its vertices come first: their
    homogenizing column is 1, a ray's is 0.

    ``dead`` lists its active eigenvalue rows.  Coordinate j is dead when
    its eigenvalue is zero across the face, so the shared zero eigenspace
    V is spanned by the dead columns of the congruence basis: the face is
    definite when none is dead, and dim V is their count."""

    generator_ids: tuple
    generators: np.ndarray
    active_rows: tuple
    aff_dim: int
    dead: tuple

    @property
    def vertices(self) -> np.ndarray:
        return self.generators[: np.count_nonzero(self.generators[:, 0]), 1:]

    @property
    def rays(self) -> np.ndarray:
        return self.generators[np.count_nonzero(self.generators[:, 0]) :, 1:]

    @property
    def definite(self) -> bool:
        return not self.dead

    @property
    def dim_v(self) -> int:
        return len(self.dead)

    def relint_point(self) -> np.ndarray:
        return self.vertices.mean(axis=0) + self.rays.sum(axis=0)


@dataclass(frozen=True, eq=False)
class GammaData:
    """Pipeline bundle: diagonalization, H- and V-representations, witness.

    Two private memos let ``hull.decompose`` build each face it visits
    once per bundle.  ``_faces`` maps the maximizer ids of an optimal face
    (``ids.tobytes()``) to its ``Face``, which depends on ``h`` and ``v``
    alone (``_optimal_face``).  ``_splits`` maps (problem, generator ids)
    to the split data ``hull`` derives from a face and that problem's
    b and A; a ``Qcqp`` hashes by identity, so a bundle shared by two
    problems never gives one the other's data.  Both only grow, by one
    entry per distinct face (and problem) visited, and a memoized result
    is bit for bit the one a fresh computation gives."""

    sd: SimultaneousDiagonalization
    h: PolyhedronH
    v: PolyhedronV
    gamma_star: np.ndarray
    _faces: dict = field(default_factory=dict, init=False, repr=False)
    _splits: dict = field(default_factory=dict, init=False, repr=False)

    def _optimal_face(self, p: Qcqp, x):
        """``optimal_face(self.v, p, x, self.h)``, its face read from
        ``_faces`` and built only the first time."""
        found = _maximizers(self.v, p, x)
        if found is None:
            return None
        sup, ids = found
        key = ids.tobytes()
        face = self._faces.get(key)
        if face is None:
            face = self._faces[key] = _face(self.h, self.v, ids)
        return sup, face


def _ranks(M, tol: float = RANK_TOL) -> np.ndarray:
    """Rank of each matrix in the (..., r, c) stack M: its singular values
    above tol * max(1, s_max).  A matrix without rows or columns has rank 0."""
    M = np.asarray(M, dtype=float)
    if M.shape[-2] == 0 or M.shape[-1] == 0:
        return np.zeros(M.shape[:-2], dtype=int)
    s = np.linalg.svd(M, compute_uv=False)
    return (s > tol * np.maximum(1.0, s[..., :1])).sum(axis=-1)


def _directions(generators: np.ndarray) -> np.ndarray:
    """Homogenized generator rows after the first, a vertex, minus that
    vertex where they are vertices: [0, gamma_e - gamma_0] and [0, gamma_r],
    whose span is the linear part of the affine hull of the generators.
    Works on a (..., G, m + 1) stack of generator arrays."""
    rest = generators[..., 1:, :]
    return rest - rest[..., :1] * generators[..., :1, :]


def _incidence(h: PolyhedronH, generators: np.ndarray) -> np.ndarray:
    """Activity of each given homogenized generator on each normalized
    row of ``h``."""
    return (np.abs(generators @ h.homogenized) <= FACE_TOL) & h.nontrivial


def build_gamma(p: Qcqp, sd: SimultaneousDiagonalization) -> PolyhedronH:
    """H-representation of the multiplier set in the diagonalizing basis:
    one eigenvalue row per coordinate, then one sign row per inequality."""
    m = p.num_constraints
    a = np.vstack([sd.diagonals[1:].T, np.eye(m)[: p.num_inequalities]])
    b = np.concatenate([sd.diagonals[0], np.zeros(p.num_inequalities)])
    return PolyhedronH(a=a, b=b, num_eigen=p.dim)


# ---------------------------------------------------------------------------
# Double description


def _round_key(X: np.ndarray) -> np.ndarray:
    """X rounded to 10 decimals: the key that rows are compared and sorted by."""
    return np.round(X, 10)


def _dedup_rows(h: PolyhedronH) -> np.ndarray:
    """Indices of the first of each distinct nonconstant normalized row."""
    rows = np.flatnonzero(h.nontrivial)
    key = _round_key(np.column_stack([h.A[rows], h.beta[rows]]))
    first = {}
    for i, k in zip(rows.tolist(), map(tuple, key.tolist())):
        first.setdefault(k, i)
    return np.array(list(first.values()), dtype=int)


def _initial_basis_rows(B: np.ndarray, dim: int):
    """Greedy selection of ``dim`` linearly independent rows of B: the
    leading ``dim`` rows when they are independent, else a scan."""
    if B.shape[0] >= dim and _ranks(B[None, :dim], tol=1e-10)[0] == dim:
        return list(range(dim))
    chosen = []
    for i in range(B.shape[0]):
        cand = chosen + [i]
        if _ranks(B[None, cand], tol=1e-10)[0] == len(cand):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    return None


def _violated_row(rays: np.ndarray, B: np.ndarray, start: int):
    """The first row k >= start that some ray violates, as (k, rays @ B[k],
    the violating rays), or None.  One product over the rows left screens
    them; the row it names keeps the values of ``rays @ B[k]``, whose
    rounding the screen's product does not share."""
    # Rays and rows are unit vectors, so the screen differs from
    # rays @ B[k] by far less than its margin of DD_TOL / 2.
    for j in np.flatnonzero((rays @ B[start:].T < -0.5 * DD_TOL).any(axis=0)).tolist():
        vals = rays @ B[start + j]
        neg = np.flatnonzero(vals < -DD_TOL)
        if neg.size:
            return start + j, vals, neg
    return None


def _combined_rays(rays: np.ndarray, vals: np.ndarray, act: np.ndarray, pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """The normalized rays vals[i] * rays[j] - vals[j] * rays[i] of the
    adjacent pairs (i, j) of ``pos`` x ``neg``, in ``itertools.product``
    order, given the (rays, processed rows) activity mask ``act``.

    A pair is a candidate when its rays share at least dim - 2 active rows
    (one product of the pos and neg activity rows), and adjacent when only
    its two rays are active on all its common rows (one product of the
    candidates' common rows against the rays' inactive rows).  Each
    product is taken in blocks of at most ``DD_BLOCK`` entries."""
    A = act.astype(float)
    inactive = 1.0 - A.T
    rows = max(1, DD_BLOCK // len(neg))
    i, j = [pos[:0]], [neg[:0]]
    for s in range(0, len(pos), rows):
        pi, nj = np.nonzero(A[pos[s : s + rows]] @ A[neg].T >= rays.shape[1] - 2)
        i.append(pos[s + pi])
        j.append(neg[nj])
    i, j = np.concatenate(i), np.concatenate(j)
    step = max(1, DD_BLOCK // len(A))
    covers = [np.zeros(0, dtype=int)]
    for s in range(0, len(i), step):
        covers.append(np.count_nonzero(A[i[s : s + step]] * A[j[s : s + step]] @ inactive == 0, axis=1))
    adjacent = np.concatenate(covers) == 2
    i, j = i[adjacent], j[adjacent]
    new = vals[i, None] * rays[j] - vals[j, None] * rays[i]
    # each row's norm as np.linalg.norm takes it, sqrt(r.dot(r))
    nrm = np.sqrt(new[:, None, :] @ new[:, :, None])[:, 0]
    keep = nrm[:, 0] > DD_TOL
    return new[keep] / nrm[keep]


def _dd_cone(B: np.ndarray) -> np.ndarray:
    """Extreme rays of the pointed cone {x : Bx >= 0} (B full column rank).

    The rows are reordered basis-first, so the rows processed before row
    k are the prefix B[:k]; rows that no ray violates are skipped.  Two
    rays are adjacent when they are the only rays active on every
    processed row that both are active on (``_combined_rays``; a row with
    at most ``DD_LOOP_PAIRS`` pos/neg pairs tests them one by one, which
    costs less than the arrays' set-up).  Raises QcqpHullError when the
    rows do not span."""
    dim = B.shape[1]
    first = _initial_basis_rows(B, dim)
    if first is None:
        raise QcqpHullError(
            f"double description: the cone is not pointed ({B.shape[0]} rows do not span {dim} dimensions)"
        )
    if first != list(range(dim)):
        B = np.vstack([B[first], np.delete(B, first, axis=0)])
    rays = np.linalg.inv(B[:dim]).T  # row k: ray with B[:dim] @ ray = e_k
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    k = dim - 1
    while (hit := _violated_row(rays, B, k + 1)) is not None:
        k, vals, neg = hit
        pos = np.flatnonzero(vals > DD_TOL)
        act = np.abs(rays @ B[:k].T) <= DD_TOL
        if len(pos) * len(neg) > DD_LOOP_PAIRS:
            new_rays = [_combined_rays(rays, vals, act, pos, neg)]
        else:
            new_rays = []
            for i, j in itertools.product(pos, neg):
                common = act[i] & act[j]
                if np.count_nonzero(common) >= dim - 2 and np.count_nonzero(act[:, common].all(axis=1)) == 2:
                    r = vals[i] * rays[j] - vals[j] * rays[i]
                    nrm = np.linalg.norm(r)
                    if nrm > DD_TOL:
                        new_rays.append(r / nrm)
        rays = np.vstack([rays[pos], rays[np.abs(vals) <= DD_TOL], *new_rays])
    return rays


def _canonical_order(points: np.ndarray) -> np.ndarray:
    """The rows sorted lexicographically by ``_round_key``, ties kept in order."""
    return points[np.lexsort(_round_key(points).T[::-1])]


def _empty_vrep(m: int) -> PolyhedronV:
    return PolyhedronV(vertices=np.zeros((0, m)), rays=np.zeros((0, m)))


def dd_vrep(h: PolyhedronH) -> PolyhedronV:
    """Minimal vertex/ray representation by the incremental double
    description method on the homogenization cone.

    Rows equal under ``_round_key`` count once.  Lineality is split off
    first (quotient by the kernel of the row directions) and returned as
    opposite ray pairs.  Distinct extreme rays of the pointed cone give
    distinct generators, so none is deduplicated; each list is in
    ``_canonical_order``.  An empty result signals an empty polyhedron.
    A row is tight within ``DD_TOL``.
    """
    m = h.dim
    if m > DD_GUARD:
        raise GuardExceeded(f"double description guard: dimension {m} > {DD_GUARD}")
    if np.any(h.beta[~h.nontrivial] < -DD_TOL):
        return _empty_vrep(m)
    keep = _dedup_rows(h)
    A, beta = h.A[keep], h.beta[keep]

    # Lineality = kernel of the row directions (the whole space when no
    # row is left: one vertex at 0 and the rays +-e_i).
    _, s, Vt = np.linalg.svd(A)
    d = int(np.sum(s > RANK_TOL * np.max(s, initial=1.0)))
    Qperp, lin = Vt[:d].T, Vt[d:].T

    B = np.vstack([np.column_stack([A @ Qperp, beta]), np.eye(d + 1)[d]])  # quotient rows, w >= 0
    B /= np.linalg.norm(B, axis=1)[:, None]

    cone_rays = _dd_cone(B)
    w = cone_rays[:, d]
    vert_mask = w > DD_TOL
    if not np.any(vert_mask):
        return _empty_vrep(m)
    vertices_q = cone_rays[vert_mask, :d] / w[vert_mask, None]
    rays = np.vstack([cone_rays[~vert_mask, :d] @ Qperp.T, lin.T, -lin.T])
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    return PolyhedronV(vertices=_canonical_order(vertices_q @ Qperp.T), rays=_canonical_order(rays))


# ---------------------------------------------------------------------------
# Optimization and faces


def _row_lists(active: np.ndarray) -> list:
    """The marked columns of each row of the (F, R) mask, as tuples."""
    face_of, rows = np.nonzero(active)
    rows = rows.tolist()
    lists, start = [], 0
    for n in np.bincount(face_of, minlength=len(active)).tolist():
        lists.append(tuple(rows[start : start + n]))
        start += n
    return lists


def _split_ids(ids: tuple, nv: int) -> tuple:
    """Ascending generator ids split into (vertex ids, ray ids), given the
    ambient vertex count ``nv``."""
    k = bisect.bisect_left(ids, nv)
    return ids[:k], ids[k:]


def _unpack_bitmasks(keys, width: int) -> np.ndarray:
    """One boolean row of ``width`` per int key, entry k its bit k."""
    nbytes = (width + 7) // 8
    buf = b"".join(k.to_bytes(nbytes, "little") for k in keys)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(-1, nbytes), axis=1, bitorder="little")
    return bits[:, :width].astype(bool)


def _maximizers(v: PolyhedronV, p: Qcqp, x):
    """(sup, ids) of gamma -> q_0(x) + sum gamma_i q_i(x) over the
    polyhedron: its supremum and the ascending ids of the generators of
    the face of maximizers, or None when a ray makes it unbounded above."""
    if v.is_empty:
        raise ValueError("polyhedron is empty")
    vals = v.generators @ stack_values(p, x)  # functional at vertices, slope along rays
    nv = v.vertices.shape[0]
    sup = float(np.max(vals[:nv]))
    tol_abs = FACE_TOL * max(1.0, abs(sup))
    if np.any(vals[nv:] > tol_abs):
        return None
    # The maximizers: vertices at the sup, rays along which it is flat.
    return sup, np.flatnonzero(np.abs(vals - sup * v.generators[:, 0]) <= tol_abs)


def _face(h: PolyhedronH, v: PolyhedronV, ids: np.ndarray) -> Face:
    """The face of the generators ``ids`` (ascending) of ``v``."""
    generators = v.generators[ids]
    active = tuple(np.flatnonzero(_incidence(h, generators).all(axis=0)).tolist())
    dead = active[: bisect.bisect_left(active, h.num_eigen)]
    return Face(tuple(ids.tolist()), generators, active, int(_ranks(_directions(generators))), dead)


def optimal_face(v: PolyhedronV, p: Qcqp, x, h: PolyhedronH):
    """Maximize gamma -> q_0(x) + sum gamma_i q_i(x) over the polyhedron.

    Returns (sup_value, face of maximizers) or None when a ray makes the
    functional unbounded above.  The face is built on every call;
    ``GammaData._optimal_face`` gives the same result from its memo.
    """
    found = _maximizers(v, p, x)
    if found is None:
        return None
    sup, ids = found
    return sup, _face(h, v, ids)


def _closed_faces(h: PolyhedronH, v: PolyhedronV) -> list:
    """Every nonempty face, each once, as stacks by generator count: one
    (ids, active) pair per count, ``ids`` the (F, G) array of the faces'
    ascending generator ids and ``active`` the (F, R) mask of the rows
    active at all of a face's generators.  A stack's faces come in no set
    order.

    Every face is the polyhedron cut by some set of rows, so the faces are
    the polyhedron itself closed under intersection with the cuts.  A cut
    is a distinct set of generators that some row is active at; rows
    active at no vertex cut out nothing and are dropped, so the guard
    counts the cuts the closure really runs over.  Each cut in turn meets
    every face found so far, so after the last one every set of cuts has
    met the polyhedron.  Faces are identified by the ambient generators
    they contain; a candidate without a vertex is empty, and so is every
    further cut of it.
    """
    if v.is_empty:
        return []
    nv, num_gen = v.vertices.shape[0], v.generators.shape[0]
    act = _incidence(h, v.generators)
    cols = np.unique(act[:, act[:nv].any(axis=0)], axis=1)
    if cols.shape[1] > FACE_GUARD:
        raise GuardExceeded(f"face enumeration guard: {cols.shape[1]} cuts > {FACE_GUARD}")
    # Generator-id sets as bitmasks, bit k for generator k (vertices first).
    cuts = [sum(1 << k for k in np.flatnonzero(c).tolist()) for c in cols.T]
    has_vertex = (1 << nv) - 1
    faces = {(1 << num_gen) - 1}
    for cut in cuts:
        faces |= {k for f in faces if (k := f & cut) & has_vertex}
    # One generator count at a time, so only that stack is ever unpacked.
    by_size = {}
    for f in faces:
        by_size.setdefault(f.bit_count(), []).append(f)
    stacks = []
    for size in sorted(by_size):
        ids = np.nonzero(_unpack_bitmasks(by_size[size], num_gen))[1].reshape(-1, size)
        stacks.append((ids, act[ids].all(axis=1)))
    return stacks


def semidefinite_faces(h: PolyhedronH, v: PolyhedronV, p: Qcqp) -> tuple:
    """The number of nonempty faces (``_closed_faces``), and (active_rows,
    aff_dim, dim_v, b_aff_dim) of each semidefinite one, sorted by affine
    dimension, then by the ids of its vertices, then by the ids of its rays.

    A face is semidefinite when some eigenvalue row is active at all its
    generators.  The semidefinite faces of each generator count get both
    dimensions from one stack of directions; a definite face is counted
    and nothing more.
    """
    nv, k = v.vertices.shape[0], h.num_eigen
    num_faces, keyed = 0, []
    for ids, active in _closed_faces(h, v):
        num_faces += len(ids)
        semidef = active[:, :k].any(axis=1)
        if not semidef.any():
            continue
        ids, active = ids[semidef], active[semidef]
        D = _directions(v.generators[ids])
        dim_v = np.count_nonzero(active[:, :k], axis=1)
        records = zip(_row_lists(active), _ranks(D).tolist(), dim_v.tolist(), _ranks(D @ p.b).tolist())
        keyed += [((r[1], *_split_ids(tuple(i), nv)), r) for i, r in zip(ids.tolist(), records)]
    keyed.sort(key=lambda kr: kr[0])
    return num_faces, [r for _, r in keyed]


def b_aff_dim(face: Face, p: Qcqp) -> int:
    """Affine dimension of gamma -> b(gamma) = b_0 + sum gamma_i b_i over
    the face."""
    return int(_ranks(_directions(face.generators) @ p.b))


# ---------------------------------------------------------------------------
# Interior multiplier search


def _definite_multiplier(p: Qcqp):
    """A multiplier gamma (signs respected) with A(gamma) positive
    definite, and the ``_eig`` pair of A(gamma) that decided it.

    Tries gamma = 0, then maximizes the smallest eigenvalue of A(gamma),
    capped at the largest Hessian entry (at least 1), by a cutting-plane
    scheme on mu <= v' A(gamma) v; a multiplier past the cap is pulled
    back toward 0 until the cap is just guaranteed.  Returns None when
    the best multiplier fails ``is_definite``, the rule ``_whiten``
    requires (no definite aggregation exists in the box).
    """
    m = p.num_constraints
    scale = max(1.0, float(np.max(np.abs(p.A))))

    A, (w, V) = _aggregate_spectrum(p, np.zeros(m))
    lam0 = w[0]
    if lam0 > 1e-8 * scale:
        return np.zeros(m), (w, V)

    # Columns (gamma, mu) in the multiplier box, gamma >= 0 on inequalities,
    # mu <= scale; maximize mu.
    lower = np.full(m + 1, -MULTIPLIER_BOUND)
    lower[: p.num_inequalities] = 0.0
    upper = np.full(m + 1, MULTIPLIER_BOUND)
    upper[m] = scale
    c = np.zeros(m + 1)
    c[m] = -1.0
    lp = CuttingPlaneLP(c, lower, upper)
    best_gamma, best_lam, best = np.zeros(m), lam0, (A, (w, V))

    def add_cut(v):
        # mu - sum_i gamma_i (v'A_i v) <= v'A_0 v
        vAv = (p.A @ v) @ v
        lp.add_rows(np.r_[-vAv[1:], 1.0], vAv[:1])

    add_cut(V[:, 0])
    for _ in range(DEFINITE_MAX_ITER):
        lp_status, z = lp.solve()
        if lp_status != "optimal":
            break
        gamma_k = z[:m]
        mu_k = z[m]
        A, (w, V) = _aggregate_spectrum(p, gamma_k)
        lam = w[0]
        if lam > best_lam:
            best_lam, best_gamma, best = lam, gamma_k.copy(), (A, (w, V))
        if mu_k - best_lam <= DEFINITE_TOL * scale:
            break
        add_cut(V[:, 0])
    if best_lam > scale:
        # The capped LP optimum is a whole face, and its vertex can lie far
        # out.  lambda_min(A(t gamma)) is concave in t, so it is still >=
        # scale at this t, where the chord from (0, lam0) reaches scale.
        best_gamma *= (scale - lam0) / (best_lam - lam0)
        best = _aggregate_spectrum(p, best_gamma)
    A, (w, V) = best
    return (best_gamma, (w, V)) if is_definite(A, w[0]) else None


def build_gamma_data(p: Qcqp) -> GammaData:
    """Whiten, certify simultaneous diagonalizability, and build both
    multiplier-set representations plus an interior witness.

    The witness gamma* is the whitening multiplier gamma0: whitening makes
    P' A(gamma0) P = I, so every eigenvalue row is 1 at gamma0.  The
    multiplier search's eigendecomposition of A(gamma0), which decided
    that it is definite, is the one whitening uses.

    Raises NoInteriorPoint when no definite aggregation exists and
    NotSimultaneouslyDiagonalizable when polyhedrality is not certified.
    """
    found = _definite_multiplier(p)
    if found is None:
        raise NoInteriorPoint("no multiplier gives a positive definite aggregated Hessian")
    gamma0, spec = found
    sd = _whiten(p, spec)
    h = build_gamma(p, sd)
    return GammaData(sd=sd, h=h, v=dd_vrep(h), gamma_star=gamma0)
