import numpy as np
import pytest

from qcqp_hull import _kernels
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.linalg import sym_eig, whiten_simdiag


def test_backend_reports_a_valid_name():
    assert _kernels.backend() == "numpy"


@pytest.mark.parametrize("n", [2, 5, 17, 64, 100])
def test_sym_eig_diagonalizes(n):
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    spec = sym_eig(S)
    w, V = spec.eigenvalues, spec.eigenvectors
    assert np.max(np.abs(S @ V - V @ np.diag(w))) < 1e-8 * (1 + np.max(np.abs(S)))
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
    assert np.all(np.diff(w) >= 0)
    # Sign convention: the largest-magnitude entry of every column is >= 0.
    for j in range(n):
        assert V[np.argmax(np.abs(V[:, j])), j] >= 0


@pytest.mark.parametrize("n", [1, 3, 64])
def test_sym_eig_zero_matrix_gives_identity(n):
    # solve_homogeneous relies on e_1 coming first for the zero matrix.
    spec = sym_eig(np.zeros((n, n)))
    assert np.array_equal(spec.eigenvalues, np.zeros(n))
    assert np.array_equal(spec.eigenvectors, np.eye(n))


@pytest.mark.parametrize(
    "objective, constraints",
    [
        (np.full(20, 2.0), [np.full(20, 1.0), np.full(20, -3.0), np.zeros(20)]),
        (
            [3.0, 1.0, 4.0, 1.0, 5.0, 9.0],
            [[2.0, -7.0, 1.0, 8.0, -2.0, 8.0], [0.5, 0.5, -1.0, 0.0, 3.0, 0.5]],
        ),
    ],
    ids=["scaled_identity", "diagonal"],
)
def test_whiten_simdiag_keeps_coordinate_order(objective, constraints):
    n = len(objective)
    p = Qcqp(
        objective=QuadraticFn(np.diag(objective), np.zeros(n), 0.0),
        constraints=tuple(QuadraticFn(np.diag(d), np.zeros(n), -1.0) for d in constraints),
        num_inequalities=len(constraints),
        num_equalities=0,
    )
    sd = whiten_simdiag(p, np.zeros(len(constraints)))
    scale = 1.0 / np.sqrt(np.asarray(objective))
    assert np.allclose(sd.basis, np.diag(scale), atol=1e-12)
    for i, d in enumerate([objective, *constraints]):
        assert np.allclose(sd.diagonals[i], np.asarray(d) * scale**2, atol=1e-12)


@pytest.mark.parametrize("points", ["one", "random", "grid"])
def test_eval_quadratics_paths_agree(points):
    # One point is how core.stack_values calls the kernel; grids are how
    # brute_force and the plot call it.
    rng = np.random.default_rng(7)
    K, n = 4, 3
    A = rng.normal(size=(K, n, n))
    A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    b = rng.normal(size=(K, n))
    c = rng.normal(size=K)
    if points == "grid":
        axes = np.meshgrid(*[np.linspace(-2.0, 2.0, 6)] * n, indexing="ij")
        X = np.stack([ax.ravel() for ax in axes], axis=1)
    else:
        X = rng.normal(size=(1 if points == "one" else 50, n))
    P = X.shape[0]
    got = _kernels.eval_quadratics(A, b, c, X)
    assert got.shape == (K, P)
    # Cross-check every entry against the scalar formula.
    for k in range(K):
        for p in range(P):
            manual = X[p] @ A[k] @ X[p] + 2 * b[k] @ X[p] + c[k]
            assert abs(got[k, p] - manual) < 1e-10
