import numpy as np
import pytest

from conftest import whiten_at
from qcqp_hull import _kernels
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.linalg import _eig


def test_backend_reports_a_valid_name():
    assert _kernels.backend() == "numpy"


@pytest.mark.parametrize("n", [2, 5, 17, 64, 100])
def test_sym_eig_diagonalizes(n):
    rng = np.random.default_rng(n)
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    w, V = _eig(S)
    assert np.max(np.abs(S @ V - V @ np.diag(w))) < 1e-8 * (1 + np.max(np.abs(S)))
    assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
    assert np.all(np.diff(w) >= 0)
    # Sign convention: the largest-magnitude entry of every column is >= 0.
    for j in range(n):
        assert V[np.argmax(np.abs(V[:, j])), j] >= 0


@pytest.mark.parametrize("n", [1, 3, 64])
def test_sym_eig_zero_matrix_gives_identity(n):
    w, V = _eig(np.zeros((n, n)))
    assert np.array_equal(w, np.zeros(n))
    assert np.array_equal(V, np.eye(n))


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
    sd = whiten_at(p, np.zeros(len(constraints)))
    scale = 1.0 / np.sqrt(np.asarray(objective))
    assert np.allclose(sd.basis, np.diag(scale), atol=1e-12)
    for i, d in enumerate([objective, *constraints]):
        assert np.allclose(sd.diagonals[i], np.asarray(d) * scale**2, atol=1e-12)


@pytest.mark.parametrize("points", ["one", "random", "grid"])
def test_eval_quadratics_paths_agree(points):
    # One point is how core.stack_values calls the kernel; point lists and
    # grids listed as points exercise the batched path.
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


@pytest.mark.parametrize(
    "shape",
    [(7,), (1,), (5, 3), (1, 4), (3, 1), (1, 1), (4, 3, 2), (1, 1, 5), (2, 1, 3), (6, 5, 4)],
    ids=lambda s: "x".join(map(str, s)),
)
def test_eval_quadratics_grid_matches_points(shape):
    # The grid kernel against the point kernel over the meshgrid's points,
    # in meshgrid "ij" (C) order, on unequal axes and one-point axes.
    rng = np.random.default_rng(len(shape) * 100 + sum(shape))
    K, n = 5, len(shape)
    A = rng.normal(size=(K, n, n)) * 3.0
    A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
    b = rng.normal(size=(K, n))
    c = rng.normal(size=K)
    axes = [np.sort(rng.uniform(-4.0, 4.0, size=m)) for m in shape]
    got = _kernels.eval_quadratics_grid(A, b, c, axes)
    assert got.shape == (K, *shape)
    X = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    want = _kernels.eval_quadratics(A, b, c, X)
    assert np.all(np.abs(got.reshape(K, -1) - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
