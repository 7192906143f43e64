"""Dense symmetric linear algebra used by the hull machinery.

Every eigenproblem goes through ``_eig``, one thin wrapper over LAPACK's
symmetric eigensolver (``np.linalg.eigh``) that fixes the order and sign
of the eigenvectors so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .core import Qcqp, aggregate
from .errors import NotSimultaneouslyDiagonalizable

PSD_TOL = 1e-9
KERNEL_RTOL = 1e-9
OFFDIAG_TOL = 1e-7


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


def _fix_signs(V: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry of each (the first, on
    ties) is >= 0, in a matrix or in each matrix of an (S, n, n) stack."""
    if V.size == 0:
        return V
    rows, cols = np.abs(V).argmax(axis=-2), np.arange(V.shape[-1])
    lead = V[rows, cols] if V.ndim == 2 else V[np.arange(len(V))[:, None], rows, cols][:, None, :]
    return V * np.where(lead < 0, -1.0, 1.0)


def _eig(M: np.ndarray):
    """(eigenvalues, eigenvectors) of 0.5 (M + M') for a square float
    matrix or an (S, n, n) stack of them.  Eigenvalues come back ascending;
    in each eigenvector the entry of largest magnitude is >= 0, and the
    zero matrix yields the identity."""
    w, V = np.linalg.eigh(0.5 * (M + np.swapaxes(M, -1, -2)))
    return w, _fix_signs(V)


def _aggregate_spectrum(p: Qcqp, gamma):
    """A(gamma) = A_0 + sum_i gamma_i A_i, symmetrized, and its ``_eig``
    pair, for a multiplier gamma with one entry per constraint."""
    A = aggregate(p, np.concatenate(([1.0], gamma)))[0]
    A = 0.5 * (A + A.T)
    return A, _eig(A)


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


def _whiten(p: Qcqp, spec) -> SimultaneousDiagonalization:
    """Whiten by A(gamma*)^(-1/2) and jointly diagonalize all quadratic forms.

    ``spec`` is the ``_eig`` pair of A(gamma*), which must be positive
    definite by ``is_definite``.  After whitening, the family is
    simultaneously diagonalizable by an orthogonal basis exactly when it
    commutes.  Every coordinate of a joint eigenspace gets the same tuple:
    each form's trace on that eigenspace divided by its dimension.  The
    one certificate is the residual of that diagonal, the off-diagonal
    entries plus the spread of the diagonal inside each eigenspace: it
    raises NotSimultaneouslyDiagonalizable when some form's residual is
    above OFFDIAG_TOL * max(1, its largest entry).
    """
    w, V = spec
    W = V @ np.diag(1.0 / np.sqrt(w)) @ V.T

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
    are scaled; it stops once every block is one column.  Then reorders
    columns by their dominant row so already-diagonal families come back
    in the original coordinate order.
    """
    n = mats[0].shape[0]
    Q = np.eye(n)
    blocks = [np.arange(n)]
    for B in mats:
        big = [blk for blk in blocks if len(blk) > 1]
        if not big:
            break
        split_tol = 1e-7 * float(np.max(np.abs(B)))
        Qbs = [Q[:, blk] for blk in big]
        Rs = [Qb.T @ B @ Qb for Qb in Qbs]
        # blocks that all have one size: one stacked eigh
        same = len(Rs) > 1 and len({len(blk) for blk in big}) == 1
        spectra = iter(zip(Qbs, zip(*_eig(np.stack(Rs))) if same else map(_eig, Rs)))
        new_blocks = []
        for blk in blocks:
            if len(blk) > 1:
                Qb, (w, V) = next(spectra)
                Q[:, blk] = Qb @ V
                cut = np.flatnonzero(np.diff(w) > split_tol) + 1
                if cut.size:
                    new_blocks.extend(np.split(blk, cut))
                    continue
            new_blocks.append(blk)
        blocks = new_blocks
    space = np.empty(n, dtype=int)
    for i, blk in enumerate(blocks):
        space[blk] = i
    order = np.argsort(np.argmax(np.abs(Q), axis=0), kind="stable")
    return _fix_signs(Q[:, order]), space[order]
