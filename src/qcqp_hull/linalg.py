"""Dense symmetric linear algebra used by the hull machinery.

Every eigenproblem goes through ``sym_eig``, a thin wrapper over LAPACK's
symmetric eigensolver (``np.linalg.eigh``) that fixes the order and sign
of the eigenvectors so results are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import Qcqp, lagrangian
from .errors import NotSimultaneouslyDiagonalizable

PSD_TOL = 1e-9
KERNEL_RTOL = 1e-9
COMMUTE_TOL = 1e-8
OFFDIAG_TOL = 1e-7
KRON_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues sorted ascending; eigenvectors[:, j] pairs with eigenvalues[j]."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class Definiteness(Enum):
    POSITIVE_DEFINITE = "positive_definite"
    PSD_SINGULAR = "psd_singular"
    INDEFINITE = "indefinite"


@dataclass(frozen=True, eq=False)
class SimultaneousDiagonalization:
    """Congruence basis P with P' A_i P = diag(diagonals[i]) for i = 0..m."""

    basis: np.ndarray
    diagonals: np.ndarray  # shape (m + 1, N), row 0 is the objective


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


def psd_status(M, tol: float = PSD_TOL) -> Definiteness:
    """Classify a symmetric matrix as PD, PSD-singular, or indefinite by
    its smallest eigenvalue against tol * max(1, max|M|)."""
    M = _check_symmetric(M)
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    lo = sym_eig(M).eigenvalues[0]
    if lo > tol * scale:
        return Definiteness.POSITIVE_DEFINITE
    if lo < -tol * scale:
        return Definiteness.INDEFINITE
    return Definiteness.PSD_SINGULAR


def solve_homogeneous(E) -> np.ndarray | None:
    """A unit-norm kernel vector of E, or None when only x = 0 solves Ex = 0.

    Kernel directions come from the eigendecomposition of E'E; one counts
    as kernel when ||E v|| is below KERNEL_RTOL * sigma_max.  The vector
    returned is the projection of the all-ones vector onto that kernel, so it
    depends on the kernel subspace alone; when the projection vanishes it
    is the first kernel eigenvector.  The zero matrix returns the first
    canonical basis vector.
    """
    E = np.atleast_2d(np.asarray(E, dtype=float))
    q = E.shape[1]
    if q == 0:
        return None
    if E.shape[0] == 0:
        return np.eye(q)[:, 0]
    G = E.T @ E
    spec = sym_eig(G)
    smax = float(np.sqrt(max(spec.eigenvalues[-1], 0.0)))
    if smax == 0.0:
        return spec.eigenvectors[:, 0]  # zero matrix; sym_eig(0) keeps e_1 first
    # The Gram eigendecomposition gives the directions; the kernel test uses
    # ||E v|| directly to dodge the squared-condition noise floor.
    kernel = spec.eigenvectors[:, np.linalg.norm(E @ spec.eigenvectors, axis=0) <= KERNEL_RTOL * smax]
    if kernel.shape[1] == 0:
        return None
    u = kernel @ kernel.sum(axis=0)
    nu = float(np.linalg.norm(u))
    if nu <= KERNEL_RTOL * np.sqrt(q):
        return kernel[:, 0]
    return u / nu


def whiten_simdiag(p: Qcqp, gamma_star) -> SimultaneousDiagonalization:
    """Whiten by A(gamma*)^(-1/2) and jointly diagonalize all quadratic forms.

    Requires A(gamma*) positive definite (smallest eigenvalue above
    PSD_TOL * max(1, max|A(gamma*)|), as ``psd_status`` tests).  After
    whitening, the family is simultaneously diagonalizable by an
    orthogonal basis exactly when it commutes pairwise (commutators within
    COMMUTE_TOL); raises NotSimultaneouslyDiagonalizable otherwise, or
    when the joint basis leaves an off-diagonal entry above OFFDIAG_TOL.
    """
    agg = lagrangian(p, gamma_star)
    spec = sym_eig(agg.A)
    scale0 = max(1.0, float(np.max(np.abs(agg.A))))
    if spec.eigenvalues[0] <= PSD_TOL * scale0:
        raise ValueError("aggregated Hessian at gamma_star is not positive definite")
    W = spec.eigenvectors @ np.diag(1.0 / np.sqrt(spec.eigenvalues)) @ spec.eigenvectors.T

    mats = W @ p.A @ W
    scale = max(1.0, float(np.max(np.abs(mats)))) ** 2
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            if np.max(np.abs(comm)) > COMMUTE_TOL * scale:
                raise NotSimultaneouslyDiagonalizable(
                    f"whitened forms {i} and {j} do not commute "
                    f"(max commutator entry {np.max(np.abs(comm)):.3e})"
                )

    Q = _common_eigenbasis(mats)
    P = W @ Q
    D = P.T @ p.A @ P
    diags = np.diagonal(D, axis1=1, axis2=2).copy()
    off = np.max(np.abs(D - diags[:, :, None] * np.eye(p.dim)), axis=(1, 2))
    si = np.maximum(1.0, np.max(np.abs(D), axis=(1, 2)))
    bad = np.flatnonzero(off > OFFDIAG_TOL * si)
    if bad.size:
        raise NotSimultaneouslyDiagonalizable(
            f"residual off-diagonal {off[bad[0]]:.3e} for form {bad[0]} after joint diagonalization"
        )
    return SimultaneousDiagonalization(basis=P, diagonals=diags)


def _common_eigenbasis(mats) -> np.ndarray:
    """Orthogonal basis diagonalizing a commuting symmetric family.

    Refines invariant blocks matrix by matrix, then reorders columns by
    their dominant row so already-diagonal families come back in the
    original coordinate order.
    """
    n = mats[0].shape[0]
    Q = np.eye(n)
    blocks = [np.arange(n)]
    for B in mats:
        new_blocks = []
        for blk in blocks:
            if len(blk) == 1:
                new_blocks.append(blk)
                continue
            Qb = Q[:, blk]
            R = Qb.T @ B @ Qb
            spec = sym_eig(R)
            Q[:, blk] = Qb @ spec.eigenvectors
            w = spec.eigenvalues
            split_tol = 1e-7 * max(1.0, float(np.max(np.abs(w))))
            new_blocks.extend(np.split(blk, np.flatnonzero(np.diff(w) > split_tol) + 1))
        blocks = new_blocks
    order = np.argsort(np.argmax(np.abs(Q), axis=0), kind="stable")
    return _fix_signs(Q[:, order])


def _divisors_desc(n: int) -> list:
    return [d for d in range(n, 0, -1) if n % d == 0]


def kron_multiplicity(p: Qcqp) -> int:
    """Largest k with A_i = I_k (x) (leading n x n block) for every quadratic,
    entrywise within KRON_TOL * max(1, max|A_i|).

    Checked in the given basis only, in decreasing divisor order; k = 1
    always holds.
    """
    N = p.dim
    for k in _divisors_desc(N):
        n = N // k
        if all(
            np.max(np.abs(A - np.kron(np.eye(k), A[:n, :n])))
            <= KRON_TOL * max(1.0, float(np.max(np.abs(A))))
            for A in p.A
        ):
            return k
    raise AssertionError("unreachable: k = 1 always matches")
