"""Batched quadratic evaluation.

Two evaluators share the convention q(x) = x'Ax + 2b'x + c over a stack
of K quadratics.  ``eval_quadratics`` takes a point array: ``core``
calls it at single points (feasibility, faces, decomposition, each
constraint evaluation of the hull solver) and on point lists.
``eval_quadratics_grid`` takes the axes of a tensor grid and never
builds the grid's points: the brute-force oracle and the CLI plot call
it.  Both are plain numpy.  ``backend()`` names the kernel path for
environment records.
"""

from __future__ import annotations

import numpy as np


def eval_quadratics(A_stack, b_stack, c_stack, X):
    """Evaluate K quadratics x'Ax + 2b'x + c at P points; returns (K, P)."""
    vals = np.einsum("kpj,pj->kp", X @ A_stack, X)
    vals += 2.0 * (b_stack @ X.T)
    vals += c_stack[:, None]
    return vals


def eval_quadratics_grid(A_stack, b_stack, c_stack, axes):
    """Evaluate K quadratics over the tensor grid axes[0] x ... x axes[N-1];
    returns (K, n_1, ..., n_N), entry [k, i_1, ..., i_N] the value of q_k at
    (axes[0][i_1], ..., axes[N-1][i_N]), so a C-order ravel of the grid is
    meshgrid(*axes, indexing="ij") order.

    Each axis j contributes one (K, n_j) vector a_jj x_j^2 + 2 b_j x_j (and
    c, once) and each axis pair i < j the outer product 2 a_ij x_i (x) x_j.
    The sum is built one axis at a time, without a point array: the values
    on axes 0..j are, at each of the M points of the grid on axes 0..j-1
    and each x_j, the rank-3 product

        S[m] * 1 + 1 * (a_jj x_j^2 + 2 b_j x_j) + lin[m] * 2 x_j

    of the values S on axes 0..j-1 and lin[m] = sum_{i<j} a_ij x_i there,
    one (K, M, 3) @ (K, 3, n_j) matmul that writes each value once."""
    K = len(c_stack)
    axes = [np.asarray(ax, dtype=float) for ax in axes]
    vals = np.asarray(c_stack, dtype=float)[:, None]  # (K, M) over the grid so far
    for j, x in enumerate(axes):
        lin = np.zeros((K,) + tuple(len(ax) for ax in axes[:j]))
        for i in range(j):
            lin += A_stack[:, i, j].reshape((K,) + (1,) * j) * axes[i].reshape(
                (-1,) + (1,) * (j - 1 - i)
            )
        left = np.empty(vals.shape + (3,))
        left[..., 0] = vals
        left[..., 1] = 1.0
        left[..., 2] = lin.reshape(vals.shape)
        right = np.empty((K, 3, len(x)))
        right[:, 0] = 1.0
        right[:, 1] = A_stack[:, j, j, None] * x**2 + 2.0 * b_stack[:, j, None] * x
        right[:, 2] = 2.0 * x
        vals = (left @ right).reshape(K, -1)
    return vals.reshape((K,) + tuple(len(ax) for ax in axes))


def backend() -> str:
    """Name of the kernel path: always "numpy"."""
    return "numpy"
