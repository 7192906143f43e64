import numpy as np
import pytest

from qcqp_hull.core import (
    EpigraphPoint,
    Qcqp,
    QuadraticFn,
    affine_transform,
    check_feasible,
    aggregate,
    eval_quadratic,
    objective_and_violations,
    stack_values,
)
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import barvinok, example1, gtrs, quadratic_matrix_program, swiss_cheese
from qcqp_hull.hull import soc_description

# One instance per family; qmp, swisscheese and barvinok have extreme rays
# that survive as homogeneous hull constraints.
STACKED = {
    "example1": example1,
    "gtrs": lambda: gtrs(4, seed=1),
    "qmp": lambda: quadratic_matrix_program(2, 3, 2, seed=7),
    "swisscheese": lambda: swiss_cheese(5, 1, 1, 1, seed=3),
    "barvinok": lambda: barvinok([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])]),
}


def lagrangian(p, gamma) -> QuadraticFn:
    """q_0 + sum_i gamma_i q_i as one quadratic, by ``aggregate``."""
    return QuadraticFn(*aggregate(p, np.r_[1.0, gamma]))


def test_symmetrized_on_construction():
    q = QuadraticFn(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2), 0.0)
    assert np.allclose(q.A, [[1.0, 1.0], [1.0, 1.0]])


def test_dimension_mismatch_rejected(ex1):
    with pytest.raises(ValueError):
        QuadraticFn(np.eye(2), np.zeros(3), 0.0)
    with pytest.raises(ValueError, match="x has length 3, expected 2"):
        eval_quadratic(QuadraticFn(np.eye(2), np.zeros(2), 0.0), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="x has length 3, expected 2"):
        check_feasible(ex1, EpigraphPoint([1.0, 2.0, 3.0], 0.0))


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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_check_feasible_refuses_nonpositive_tol(ex1, tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        check_feasible(ex1, EpigraphPoint([0.0, 0.0], 0.0), tol=tol)


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


@pytest.mark.parametrize("family", sorted(STACKED))
def test_stacks_match_quadratics(family):
    p = STACKED[family]()
    quads = p.quadratics()
    assert p.A.shape == (len(quads), p.dim, p.dim)
    for k, q in enumerate(quads):
        assert np.array_equal(p.A[k], q.A)
        assert np.array_equal(p.b[k], q.b)
        assert p.c[k] == q.c
    for arr in (p.A, p.b, p.c):
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("family", sorted(STACKED))
def test_stack_values_match_scalar_formula(family):
    p = STACKED[family]()
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=p.dim) * 3
        want = np.array([eval_quadratic(q, x) for q in p.quadratics()])
        got = stack_values(p, x)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", sorted(STACKED))
def test_violations_match_scalar_rule(family):
    p = STACKED[family]()
    rng = np.random.default_rng(13)
    X = rng.normal(size=(20, p.dim)) * 3
    obj, viol = objective_and_violations(p, X)
    assert obj.shape == (20,) and viol.shape == (p.num_constraints, 20)
    for j, x in enumerate(X):
        vals = stack_values(p, x)
        want = [max(v, 0.0) if i < p.num_inequalities else abs(v) for i, v in enumerate(vals[1:])]
        assert np.allclose(obj[j], vals[0], rtol=1e-12, atol=1e-12)
        assert np.allclose(viol[:, j], want, rtol=1e-12, atol=1e-12)
        assert np.array_equal(check_feasible(p, EpigraphPoint(x, 0.0)).violations, want)


@pytest.mark.parametrize("family", sorted(STACKED))
def test_lagrangian_matches_loop_formula(family):
    p = STACKED[family]()
    rng = np.random.default_rng(12)
    for _ in range(10):
        gamma = rng.normal(size=p.num_constraints)
        A, b, c = p.objective.A.copy(), p.objective.b.copy(), p.objective.c
        for g, q in zip(gamma, p.constraints):
            A += g * q.A
            b += g * q.b
            c += g * q.c
        agg = lagrangian(p, gamma)
        assert np.allclose(agg.A, A, rtol=1e-12, atol=1e-12)
        assert np.allclose(agg.b, b, rtol=1e-12, atol=1e-12)
        assert agg.c == pytest.approx(c, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("family", sorted(STACKED))
def test_ray_constraints_aggregate_the_constraints(family):
    p = STACKED[family]()
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    kept = []
    for gamma_r in gd.v.rays:
        A = sum(g * q.A for g, q in zip(gamma_r, p.constraints))
        b = sum(g * q.b for g, q in zip(gamma_r, p.constraints))
        c = sum(g * q.c for g, q in zip(gamma_r, p.constraints))
        if np.max(np.abs(A)) > 1e-12 or np.max(np.abs(b)) > 1e-12 or c > 1e-12:
            kept.append((A, b, c))
    assert len(soc.homogeneous) == len(kept)
    for h, (A, b, c) in zip(soc.homogeneous, kept):
        assert np.allclose(soc.A[h], A, rtol=1e-12, atol=1e-12)
        assert np.allclose(soc.b[h], b, rtol=1e-12, atol=1e-12)
        assert soc.c[h] == pytest.approx(c, rel=1e-12, abs=1e-12)
    # The description's own stack: epigraph rows, then homogeneous rows.
    assert list(soc.epigraph) + list(soc.homogeneous) == list(range(len(soc.c)))
    assert np.array_equal(soc.A, np.swapaxes(soc.A, 1, 2))
