"""Differential tests of the grid oracle ``solve.brute_force`` against the
point-array sweep it replaced, kept in ``brute_force_oracle``: the same
minimizer, bit for bit, the same value up to rounding and the same
NoFeasiblePoint cases."""

import numpy as np
import pytest

import brute_force_oracle
from conftest import SMALL_INSTANCES
from qcqp_hull import solve
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.errors import NoFeasiblePoint
from qcqp_hull.generators import gtrs, swiss_cheese

BOX = (-10.0, 10.0)

# |x|^2 + 1 <= 0 in the plane and in space: no feasible grid point.
INFEASIBLE = {
    f"infeasible-{n}": (
        lambda n=n: Qcqp(
            QuadraticFn(np.eye(n), np.zeros(n), 0.0),
            (QuadraticFn(np.eye(n), np.zeros(n), 1.0),),
            1,
            0,
        )
    )
    for n in (2, 3)
}

INSTANCES = {
    **{name: make for name, make in SMALL_INSTANCES.items() if make().dim <= 3},
    **INFEASIBLE,
}


def _run(fn, p, box, grid_points):
    try:
        return fn(p, box, grid_points=grid_points)
    except NoFeasiblePoint:
        return None


def _assert_same(new, old):
    assert (new is None) == (old is None)
    if old is None:
        return
    assert np.array_equal(new[1], old[1])
    assert abs(new[0] - old[0]) <= 1e-12 * max(1.0, abs(old[0]))


@pytest.mark.parametrize("grid_points", [None, 41, 61, 101])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_matches_point_sweep(name, grid_points):
    p = INSTANCES[name]()
    _assert_same(
        _run(solve.brute_force, p, BOX, grid_points),
        _run(brute_force_oracle.brute_force, p, BOX, grid_points),
    )


@pytest.mark.parametrize("make", [lambda: gtrs(3, 1), lambda: swiss_cheese(3, 1, 1, 1, 0)],
                         ids=["gtrs-3-1", "swisscheese-3-0"])
@pytest.mark.parametrize("grid_points", [41, 61])
def test_matches_point_sweep_one_layer_per_slab(make, grid_points, monkeypatch):
    for module in (solve, brute_force_oracle):
        monkeypatch.setattr(module, "BRUTE_SLAB_POINTS", 1)
    p = make()
    _assert_same(
        _run(solve.brute_force, p, (-3.0, 3.0), grid_points),
        _run(brute_force_oracle.brute_force, p, (-3.0, 3.0), grid_points),
    )
