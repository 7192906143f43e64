import numpy as np
import pytest

from conftest import kron_oracle
from qcqp_hull.core import eval_quadratic
from qcqp_hull.generators import (
    FamilySpec,
    barvinok,
    example1,
    generate,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)


def test_example1_exact_coefficients():
    p = example1()
    assert p.dim == 2 and p.num_inequalities == 2 and p.num_equalities == 0
    assert np.array_equal(p.objective.A, np.eye(2))
    assert np.array_equal(p.objective.b, [5.0, 0.0])
    assert p.objective.c == 0.0
    assert np.array_equal(p.constraints[0].A, np.diag([1.0, -1.0]))
    assert p.constraints[0].c == -5.0
    assert np.array_equal(p.constraints[1].A, np.diag([-1.0, 1.0]))
    assert p.constraints[1].c == -50.0


def test_generate_dispatch_and_validation():
    assert generate(FamilySpec(family="example1")).dim == 2
    assert generate(FamilySpec(family="gtrs", n=3, seed=1)).dim == 3
    with pytest.raises(ValueError):
        FamilySpec(family="nope")
    with pytest.raises(ValueError):
        FamilySpec(family="swisscheese", m1=0, m2=0, m3=0)
    assert generate(FamilySpec(family="swisscheese", n=2, m1=0, m2=0, m3=1)).num_constraints == 1
    for counts in ((-2, 2, 2), (2, -1, 2), (2, 2, -1)):
        with pytest.raises(ValueError, match=">= 0"):
            FamilySpec(family="swisscheese", m1=counts[0], m2=counts[1], m3=counts[2])
        with pytest.raises(ValueError, match=">= 0"):
            swiss_cheese(2, *counts)


def test_determinism_identical_bytes():
    for spec in (
        FamilySpec(family="gtrs", n=4, seed=123),
        FamilySpec(family="qmp", n=2, k=3, m=2, seed=7),
        FamilySpec(family="swisscheese", n=3, m1=1, m2=1, m3=1, seed=9),
    ):
        a, b = generate(spec), generate(spec)
        for qa, qb in zip(a.quadratics(), b.quadratics()):
            assert qa.A.tobytes() == qb.A.tobytes()
            assert qa.b.tobytes() == qb.b.tobytes()
            assert qa.c == qb.c


def test_gtrs_shape():
    p = gtrs(5, seed=3)
    assert p.num_constraints == 1 and p.num_inequalities == 1
    assert np.linalg.eigvalsh(p.objective.A)[0] > 0
    assert eval_quadratic(p.constraints[0], np.zeros(5)) < 0  # origin feasible


def test_qmp_vectorization_matches_trace_form():
    # x'(I_k (x) F)x + 2 b'x must equal tr(X'FX) + 2 tr(B'X) for x = vec(X)
    n, k = 2, 3
    p = quadratic_matrix_program(n, k, 2, seed=4)
    k = kron_oracle(p)
    rng = np.random.default_rng(0)
    for q in p.quadratics():
        F = q.A[:n, :n]
        B = q.b.reshape((n, k), order="F")
        for _ in range(5):
            X = rng.normal(size=(n, k))
            x = X.flatten(order="F")
            trace_form = np.trace(X.T @ F @ X) + 2.0 * np.trace(B.T @ X) + q.c
            assert eval_quadratic(q, x) == pytest.approx(trace_form, abs=1e-10)
    assert k % 3 == 0 or k == 6


def test_qmp_multiplicity_at_least_k():
    for seed in range(5):
        p = quadratic_matrix_program(2, 3, 2, seed=seed)
        assert kron_oracle(p) >= 3


def test_swiss_cheese_hessians_and_feasibility():
    p = swiss_cheese(3, 2, 2, 2, seed=11)
    assert p.num_constraints == 6
    hessians = [q.A for q in p.constraints]
    for H in hessians[:2]:
        assert np.array_equal(H, np.eye(3))
    for H in hessians[2:4]:
        assert np.array_equal(H, -np.eye(3))
    for H in hessians[4:]:
        assert np.array_equal(H, np.zeros((3, 3)))
    # built around an anchor: some grid point near it should be feasible
    from qcqp_hull.solve import brute_force

    val, x = brute_force(p, (-4.0, 4.0), grid_points=61)
    assert np.isfinite(val)


def test_barvinok_wrapping():
    F1 = np.diag([1.0, -1.0])
    p = barvinok([F1])
    assert p.num_inequalities == 1 and p.num_equalities == 1
    assert np.array_equal(p.objective.A, -np.eye(2))
    assert np.array_equal(p.constraints[0].A, np.eye(2))
    assert p.constraints[0].c == -1.0
    assert np.array_equal(p.constraints[1].A, F1)
