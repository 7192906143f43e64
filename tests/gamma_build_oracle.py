"""``gamma.build_gamma_data`` as the package shipped it before whitening
reused the multiplier search's spectrum, kept verbatim as a test oracle:
``find_definite_multiplier`` -> ``whiten_simdiag`` (with
``_common_eigenbasis`` and ``sym_eig``) -> ``build_gamma`` -> ``dd_vrep``
(with ``_dedup_rows``, ``_initial_basis_rows`` and ``_dd_cone``).

Every eigenproblem goes through the validating ``sym_eig``, whitening
decomposes A(gamma*) a second time, the row dedup is ``np.unique``, the
basis rows come from the greedy scan, and the double description visits
every row in a Python loop.  The shipped chain must give byte-identical
output.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

import numpy as np

from qcqp_hull._lp import CuttingPlaneLP
from qcqp_hull.core import Qcqp, QuadraticFn, aggregate
from qcqp_hull.errors import GuardExceeded, NoInteriorPoint, NotSimultaneouslyDiagonalizable
from qcqp_hull.gamma import (
    DD_GUARD,
    DD_TOL,
    DEFINITE_MAX_ITER,
    DEFINITE_TOL,
    MULTIPLIER_BOUND,
    RANK_TOL,
    GammaData,
    PolyhedronH,
    PolyhedronV,
)
from qcqp_hull.linalg import OFFDIAG_TOL, SimultaneousDiagonalization, is_definite


# ---------------------------------------------------------------------------
# core and linalg


def lagrangian(p: Qcqp, gamma) -> QuadraticFn:
    """Aggregate q_0 + sum_i gamma_i q_i into a single quadratic."""
    gamma = np.asarray(gamma, dtype=float).reshape(-1)
    if gamma.shape[0] != p.num_constraints:
        raise ValueError(f"gamma has length {gamma.shape[0]}, expected {p.num_constraints}")
    return QuadraticFn(*aggregate(p, np.concatenate([[1.0], gamma])))


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted ascending; eigenvectors[:, j] pairs with eigenvalues[j]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_symmetric(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return 0.5 * (M + M.T)


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each (the first, on ties) is >= 0."""
    if V.size == 0:
        return V
    lead = V[np.argmax(np.abs(V), axis=0), np.arange(V.shape[1])]
    return V * np.where(lead < 0, -1.0, 1.0)


def sym_eig(M) -> Spectrum:
    w, V = np.linalg.eigh(_check_symmetric(M))
    return Spectrum(eigenvalues=w, eigenvectors=_fix_signs(V))


def whiten_simdiag(p: Qcqp, gamma_star) -> SimultaneousDiagonalization:
    agg = lagrangian(p, gamma_star)
    spec = sym_eig(agg.A)
    if not is_definite(agg.A, spec.eigenvalues[0]):
        raise ValueError("aggregated Hessian at gamma_star is not positive definite")
    W = spec.eigenvectors @ np.diag(1.0 / np.sqrt(spec.eigenvalues)) @ spec.eigenvectors.T

    Q, space = _common_eigenbasis(W @ p.A @ W)
    P = W @ Q
    D = P.T @ p.A @ P
    sizes = np.bincount(space)
    traces = np.stack([np.bincount(space, weights=d) for d in np.diagonal(D, axis1=1, axis2=2)])
    diags = (traces / sizes)[:, space]
    resid = np.max(np.abs(D - diags[:, :, None] * np.eye(p.dim)), axis=(1, 2))
    bad = np.flatnonzero(resid > OFFDIAG_TOL * np.maximum(1.0, np.max(np.abs(D), axis=(1, 2))))
    if bad.size:
        raise NotSimultaneouslyDiagonalizable(
            f"whitened forms do not commute: form {bad[0]} keeps residual {resid[bad[0]]:.3e} "
            "after joint diagonalization"
        )
    return SimultaneousDiagonalization(basis=P, diagonals=diags, multiplicity=gcd(*sizes.tolist()))


def _common_eigenbasis(mats):
    n = mats[0].shape[0]
    Q = np.eye(n)
    blocks = [np.arange(n)]
    for B in mats:
        split_tol = 1e-7 * float(np.max(np.abs(B)))
        new_blocks = []
        for blk in blocks:
            if len(blk) == 1:
                new_blocks.append(blk)
                continue
            Qb = Q[:, blk]
            R = Qb.T @ B @ Qb
            spec = sym_eig(R)
            Q[:, blk] = Qb @ spec.eigenvectors
            new_blocks.extend(np.split(blk, np.flatnonzero(np.diff(spec.eigenvalues) > split_tol) + 1))
        blocks = new_blocks
    space = np.empty(n, dtype=int)
    for i, blk in enumerate(blocks):
        space[blk] = i
    order = np.argsort(np.argmax(np.abs(Q), axis=0), kind="stable")
    return _fix_signs(Q[:, order]), space[order]


# ---------------------------------------------------------------------------
# gamma


def _ranks(M, tol: float = RANK_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.shape[-2] == 0 or M.shape[-1] == 0:
        return np.zeros(M.shape[:-2], dtype=int)
    s = np.linalg.svd(M, compute_uv=False)
    return (s > tol * np.maximum(1.0, s[..., :1])).sum(axis=-1)


def build_gamma(p: Qcqp, sd: SimultaneousDiagonalization) -> PolyhedronH:
    m = p.num_constraints
    a = np.vstack([sd.diagonals[1:].T, np.eye(m)[: p.num_inequalities]])
    b = np.r_[sd.diagonals[0], np.zeros(p.num_inequalities)]
    return PolyhedronH(a=a, b=b, num_eigen=p.dim)


def _round_key(X: np.ndarray) -> np.ndarray:
    return np.round(X, 10)


def _dedup_rows(h: PolyhedronH) -> np.ndarray:
    rows = np.flatnonzero(h.nontrivial)
    key = _round_key(np.column_stack([h.A[rows], h.beta[rows]]))
    return rows[np.sort(np.unique(key, axis=0, return_index=True)[1])]


def _initial_basis_rows(B: np.ndarray, dim: int):
    chosen = []
    for i in range(B.shape[0]):
        cand = chosen + [i]
        if _ranks(B[None, cand], tol=1e-10)[0] == len(cand):
            chosen.append(i)
            if len(chosen) == dim:
                return chosen
    return None


def _dd_cone(B: np.ndarray) -> np.ndarray:
    dim = B.shape[1]
    first = _initial_basis_rows(B, dim)
    if first is None:
        raise AssertionError("cone is not pointed: rows do not span")
    B = np.vstack([B[first], np.delete(B, first, axis=0)])
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
    return points[np.lexsort(_round_key(points).T[::-1])]


def dd_vrep(h: PolyhedronH) -> PolyhedronV:
    m = h.dim
    if m > DD_GUARD:
        raise GuardExceeded(f"double description guard: dimension {m} > {DD_GUARD}")
    empty = PolyhedronV(vertices=np.zeros((0, m)), rays=np.zeros((0, m)))

    if np.any(h.beta[~h.nontrivial] < -DD_TOL):
        return empty
    keep = _dedup_rows(h)
    A, beta = h.A[keep], h.beta[keep]

    _, s, Vt = np.linalg.svd(A)
    d = int(np.sum(s > RANK_TOL * np.max(s, initial=1.0)))
    Qperp, lin = Vt[:d].T, Vt[d:].T

    B = np.vstack([np.column_stack([A @ Qperp, beta]), np.eye(d + 1)[d]])  # quotient rows, w >= 0
    B /= np.linalg.norm(B, axis=1)[:, None]

    cone_rays = _dd_cone(B)
    w = cone_rays[:, d]
    vert_mask = w > DD_TOL
    if not np.any(vert_mask):
        return empty
    vertices_q = cone_rays[vert_mask, :d] / w[vert_mask, None]
    rays = np.vstack([cone_rays[~vert_mask, :d] @ Qperp.T, lin.T, -lin.T])
    rays /= np.linalg.norm(rays, axis=1)[:, None]
    return PolyhedronV(vertices=_canonical_order(vertices_q @ Qperp.T), rays=_canonical_order(rays))


def find_definite_multiplier(p: Qcqp):
    m = p.num_constraints
    scale = max(1.0, float(np.max(np.abs(p.A))))

    def min_eig(gamma):
        spec = sym_eig(lagrangian(p, gamma).A)
        return spec.eigenvalues[0], spec.eigenvectors[:, 0]

    lam0, v0 = min_eig(np.zeros(m))
    if lam0 > 1e-8 * scale:
        return np.zeros(m)

    lower = np.full(m + 1, -MULTIPLIER_BOUND)
    lower[: p.num_inequalities] = 0.0
    upper = np.full(m + 1, MULTIPLIER_BOUND)
    upper[m] = scale
    c = np.zeros(m + 1)
    c[m] = -1.0
    lp = CuttingPlaneLP(c, lower, upper)
    best_gamma, best_lam = np.zeros(m), lam0

    def add_cut(v):
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
        best_gamma *= (scale - lam0) / (best_lam - lam0)
    A = lagrangian(p, best_gamma).A
    return best_gamma if is_definite(A, sym_eig(A).eigenvalues[0]) else None


def build_gamma_data(p: Qcqp) -> GammaData:
    gamma0 = find_definite_multiplier(p)
    if gamma0 is None:
        raise NoInteriorPoint("no multiplier gives a positive definite aggregated Hessian")
    sd = whiten_simdiag(p, gamma0)
    h = build_gamma(p, sd)
    return GammaData(sd=sd, h=h, v=dd_vrep(h), gamma_star=gamma0)
