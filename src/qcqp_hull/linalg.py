"""Dense symmetric linear algebra used by the hull machinery.

Every eigenproblem goes through ``sym_eig``, a thin wrapper over LAPACK's
symmetric eigensolver (``np.linalg.eigh``) that fixes the order and sign
of the eigenvectors so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import Qcqp, lagrangian
from .errors import NotSimultaneouslyDiagonalizable

PSD_TOL = 1e-9
KERNEL_RTOL = 1e-9
OFFDIAG_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted ascending; eigenvectors[:, j] pairs with eigenvalues[j]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SimultaneousDiagonalization:
    """Congruence basis P with P' A_i P = diag(diagonals[i]) for i = 0..m.

    ``multiplicity`` is the quadratic eigenvalue multiplicity k: the gcd
    of the joint eigenspace dimensions.  Coordinates of one joint
    eigenspace share the tuple (diagonals[0, j], ..., diagonals[m, j])
    exactly, bit for bit, so after reordering the columns of P every A_i
    is I_k (x) F_i up to the certified residual, and k is the largest such
    k over all bases.  k = N exactly when every A_i
    is a multiple of A(gamma*).
    """

    basis: np.ndarray
    diagonals: np.ndarray  # shape (m + 1, N), row 0 is the objective
    multiplicity: int


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
    """Full eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Eigenvalues come back ascending.  In each eigenvector the entry of
    largest magnitude is >= 0, and the zero matrix yields the identity.
    """
    w, V = np.linalg.eigh(_check_symmetric(M))
    return Spectrum(eigenvalues=w, eigenvectors=_fix_signs(V))


def is_definite(M, lam_min: float) -> bool:
    """Whether ``lam_min``, the smallest eigenvalue of M, is above PSD_TOL * max(1, max|M|)."""
    return lam_min > PSD_TOL * max(1.0, float(np.max(np.abs(M))))


def solve_homogeneous(E) -> np.ndarray | None:
    """A unit-norm kernel vector of E, or None when only x = 0 solves Ex = 0.

    The kernel is read from one SVD: the right singular vectors whose
    singular value is at most KERNEL_RTOL * sigma_max, plus the extra rows
    of Vt when E has fewer rows than columns.  The vector returned is the
    projection of the all-ones vector onto that kernel, so it depends on
    the kernel subspace alone; when the projection vanishes it is the
    right singular vector of the smallest singular value.  The zero matrix,
    and E without rows, return the first canonical basis vector.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    q = E.shape[1]
    if q == 0:
        return None
    if not E.any():  # no rows, or the zero matrix
        return np.eye(q)[:, 0]
    _, s, Vt = np.linalg.svd(E)
    kernel = Vt[np.r_[s, np.zeros(q - len(s))] <= KERNEL_RTOL * s[0]].T
    if kernel.shape[1] == 0:
        return None
    u = kernel @ kernel.sum(axis=0)
    nu = float(np.linalg.norm(u))
    if nu <= KERNEL_RTOL * np.sqrt(q):
        return kernel[:, -1]
    return u / nu


def whiten_simdiag(p: Qcqp, gamma_star) -> SimultaneousDiagonalization:
    """Whiten by A(gamma*)^(-1/2) and jointly diagonalize all quadratic forms.

    Requires A(gamma*) positive definite by ``is_definite``.  After
    whitening, the family is simultaneously diagonalizable by an
    orthogonal basis exactly when it commutes.  Every coordinate of a
    joint eigenspace gets the same tuple: each form's trace on that
    eigenspace divided by its dimension.  The one certificate is the
    residual of that diagonal, the off-diagonal entries plus the spread of
    the diagonal inside each eigenspace: it raises
    NotSimultaneouslyDiagonalizable when some form's residual is above
    OFFDIAG_TOL * max(1, its largest entry).
    """
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
    """Orthogonal basis diagonalizing a commuting symmetric family, and
    the joint eigenspace of each of its columns, numbered from 0.

    Refines invariant blocks matrix by matrix, splitting a block where
    adjacent eigenvalues of B differ by more than 1e-7 * max|B|, a bound
    that scales with B so the eigenspaces do not depend on how the forms
    are scaled.  Then reorders columns by their dominant row so
    already-diagonal families come back in the original coordinate order.
    """
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
