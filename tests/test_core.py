import numpy as np
import pytest

from qcqp_hull.core import (
    EpigraphPoint,
    Qcqp,
    QuadraticFn,
    affine_transform,
    check_feasible,
    eval_quadratic,
    lagrangian,
    shor_matrix,
)


def test_symmetrized_on_construction():
    q = QuadraticFn(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 0.0)
    assert np.allclose(q.A, [[1.0, 1.0], [1.0, 1.0]])


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        QuadraticFn(np.eye(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError):
        eval_quadratic(QuadraticFn(np.eye(2), np.zeros(2), 0.0), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_rejected(bad):
    with pytest.raises(ValueError):
        QuadraticFn(np.array([[1.0, bad], [bad, 1.0]]), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        QuadraticFn(np.eye(2), np.array([0.0, bad]), 0.0)
    with pytest.raises(ValueError):
        QuadraticFn(np.eye(2), np.zeros(2), bad)


def test_eval_quadratic_examples(ex1):
    assert eval_quadratic(ex1.objective, [0.0, 0.0]) == 0.0
    assert eval_quadratic(ex1.constraints[0], [4.0, 2.0]) == pytest.approx(7.0, abs=1e-12)
    q = QuadraticFn(np.eye(3), np.arange(3.0), -4.25)
    assert eval_quadratic(q, np.zeros(3)) == pytest.approx(-4.25)


def test_lagrangian_examples(ex1):
    zero = lagrangian(ex1, [0.0, 0.0])
    assert np.allclose(zero.A, ex1.objective.A)
    assert np.allclose(zero.b, ex1.objective.b)
    assert zero.c == ex1.objective.c

    one = lagrangian(ex1, [1.0, 0.0])
    assert np.allclose(one.A, np.diag([2.0, 0.0]))
    assert np.allclose(one.b, [5.0, 0.0])
    assert one.c == pytest.approx(-5.0)

    two = lagrangian(ex1, [0.0, 1.0])
    assert np.allclose(two.A, np.diag([0.0, 2.0]))
    assert np.allclose(two.b, [5.0, 0.0])
    assert two.c == pytest.approx(-50.0)


def test_lagrangian_eval_identity(ex1):
    rng = np.random.default_rng(0)
    for _ in range(50):
        gamma = rng.normal(size=2)
        x = rng.normal(size=2) * 3
        lhs = eval_quadratic(lagrangian(ex1, gamma), x)
        rhs = eval_quadratic(ex1.objective, x) + sum(
            g * eval_quadratic(q, x) for g, q in zip(gamma, ex1.constraints)
        )
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_check_feasible_examples(ex1):
    rep = check_feasible(ex1, EpigraphPoint([0.0, 0.0], 0.0))
    assert rep.feasible
    assert np.allclose(rep.violations, [0.0, 0.0])
    assert rep.epigraph_gap == pytest.approx(0.0)

    rep = check_feasible(ex1, EpigraphPoint([4.0, 2.0], 33.5))
    assert not rep.feasible
    assert rep.violations[0] == pytest.approx(7.0)

    # Raising t never creates violations: the epigraph is upward closed.
    rep = check_feasible(ex1, EpigraphPoint([0.0, 0.0], 1e9))
    assert rep.feasible


def test_shor_matrix_examples(ex1):
    assert np.array_equal(
        shor_matrix(QuadraticFn(np.eye(1), np.zeros(1), 0.0)), [[0.0, 0.0], [0.0, 1.0]]
    )
    assert np.array_equal(
        shor_matrix(ex1.constraints[0]),
        [[-5.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]],
    )
    assert np.array_equal(
        shor_matrix(QuadraticFn(np.zeros((1, 1)), np.ones(1), 0.0)), [[0.0, 1.0], [1.0, 0.0]]
    )


def test_shor_matrix_roundtrip_exact():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4))
    q = QuadraticFn(A, rng.normal(size=4), rng.normal())
    M = shor_matrix(q)
    assert np.array_equal(M[1:, 1:], q.A)
    assert np.array_equal(M[0, 1:], q.b)
    assert M[0, 0] == q.c


def test_affine_transform_identity(ex1):
    same = affine_transform(ex1, np.eye(2), np.zeros(2))
    for q1, q2 in zip(same.quadratics(), ex1.quadratics()):
        assert np.allclose(q1.A, q2.A) and np.allclose(q1.b, q2.b) and q1.c == pytest.approx(q2.c)


def test_affine_transform_evaluation_invariance(ex1):
    rng = np.random.default_rng(5)
    U = rng.normal(size=(2, 2)) + 3 * np.eye(2)
    z = rng.normal(size=2)
    moved = affine_transform(ex1, U, z)
    for _ in range(100):
        x = rng.normal(size=2) * 2
        y = U @ (x + z)
        for q, q2 in zip(ex1.quadratics(), moved.quadratics()):
            assert abs(eval_quadratic(q2, y) - eval_quadratic(q, x)) <= 1e-9 * max(
                1.0, abs(eval_quadratic(q, x))
            )


def test_affine_transform_roundtrip(ex1):
    rng = np.random.default_rng(6)
    U = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    z = rng.normal(size=2)
    back = affine_transform(affine_transform(ex1, U, z), np.linalg.inv(U), -U @ z)
    for q1, q2 in zip(back.quadratics(), ex1.quadratics()):
        assert np.allclose(q1.A, q2.A, atol=1e-9)
        assert np.allclose(q1.b, q2.b, atol=1e-9)
        assert abs(q1.c - q2.c) < 1e-9


def test_affine_transform_rejects_singular(ex1):
    with pytest.raises(ValueError):
        affine_transform(ex1, np.zeros((2, 2)), np.zeros(2))


def test_affine_transform_preserves_feasibility_verdicts(ex1):
    rng = np.random.default_rng(7)
    U = np.array([[1.0, 0.5], [0.0, 2.0]])
    z = np.array([0.3, -0.7])
    moved = affine_transform(ex1, U, z)
    for _ in range(50):
        x = rng.normal(size=2) * 3
        t = rng.normal() * 10
        a = check_feasible(ex1, EpigraphPoint(x, t), tol=1e-6)
        b = check_feasible(moved, EpigraphPoint(U @ (x + z), t), tol=1e-6)
        assert a.feasible == b.feasible


def test_qcqp_validation():
    q = QuadraticFn(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        Qcqp(objective=q, constraints=(), num_inequalities=0, num_equalities=0)
    with pytest.raises(ValueError):
        Qcqp(objective=q, constraints=(q,), num_inequalities=2, num_equalities=0)
