"""Batched quadratic evaluation over point grids.

``eval_quadratics`` is the one kernel the brute-force oracle and the CLI
plot share; it is plain numpy.  ``backend()`` names the kernel path for
environment records.
"""

from __future__ import annotations

import numpy as np


def eval_quadratics(A_stack, b_stack, c_stack, X):
    """Evaluate K quadratics x'Ax + 2b'x + c at P points; returns (K, P)."""
    quad = np.einsum("pi,kij,pj->kp", X, A_stack, X, optimize=True)
    lin = 2.0 * (b_stack @ X.T)
    return quad + lin + c_stack[:, None]


def backend() -> str:
    """Name of the kernel path: always "numpy"."""
    return "numpy"
