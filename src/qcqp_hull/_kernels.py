"""Batched quadratic evaluation.

``eval_quadratics`` is the package's one evaluator.  ``core.stack_values``
calls it at single points (feasibility, faces, decomposition, once per
iteration of the hull solver, whose Newton polish reads only its active
rows); the brute-force oracle and the CLI plot call it over point
grids.  It is plain numpy.  ``backend()`` names the kernel path for
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


def backend() -> str:
    """Name of the kernel path: always "numpy"."""
    return "numpy"
