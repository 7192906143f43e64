"""Differential tests of the dual-first hull solve against the primal SLSQP
solve it falls back to, ``solve._minimize_primal``, on every pool: the
small instances, the benchmark's three pools and control set (read from
pipebench/pipeline.py, unedited) and the large instances of test_solve."""

import functools

import numpy as np
import pytest

from conftest import SMALL_INSTANCES, load_pipebench
from qcqp_hull import solve
from qcqp_hull.errors import InfeasibleRegion
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import generate, gtrs, quadratic_matrix_program, swiss_cheese
from qcqp_hull.hull import soc_description

BOX = (-10.0, 10.0)
TOL = 1e-8
MAX_ITER = 200


def _pipebench_pools():
    pl = load_pipebench("pipeline")
    out = {}
    for w in pl.WORKLOADS.values():
        for inst in (*w.pool, *w.control):
            out[f"pipebench-{inst.key}"] = functools.partial(generate, inst.spec)
    return out


POOLS = {
    **SMALL_INSTANCES,
    **_pipebench_pools(),
    "gtrs-60-0": lambda: gtrs(60, 0),
    "qmp-10-8-2-0": lambda: quadratic_matrix_program(10, 8, 2, 0),
    "swisscheese-20-2-2-2-0": lambda: swiss_cheese(20, 2, 2, 2, 0),
    "swisscheese-100-2-2-2-0": lambda: swiss_cheese(100, 2, 2, 2, 0),
}


def _soc(p):
    return soc_description(build_gamma_data(p).v, p)


def _primal(soc, box):
    return solve._minimize_primal(soc, solve._as_box(box, soc.dim), TOL, MAX_ITER, solve._scale(soc))


@pytest.mark.parametrize("name", POOLS)
def test_dual_first_agrees_with_primal(name):
    soc = _soc(POOLS[name]())
    new = solve.minimize_soc(soc, BOX, tol=TOL, max_iter=MAX_ITER)
    old = _primal(soc, BOX)
    assert new.status == old.status == "converged"
    assert abs(new.value - old.value) <= 1e-9 * max(1.0, abs(old.value))
    bound = TOL * solve._scale(soc)
    assert 0.0 <= new.gap <= bound and 0.0 <= old.gap <= bound
    assert new.lower_bound <= new.value
    # No silent fallback: the dual certifies every gtrs and qmp pool
    # instance, which have no active box bound.
    if "gtrs" in name or "qmp" in name:
        assert new.path == "dual"


def test_active_box_is_still_unbounded(ex1_soc):
    # The optimum (-2.5, +-sqrt(1.25)) lies outside the box, so x(w) does
    # too and the primal decides, with its box multipliers.
    new = solve.minimize_soc(ex1_soc, (-2.0, 2.0), tol=TOL, max_iter=MAX_ITER)
    old = _primal(ex1_soc, (-2.0, 2.0))
    assert new.status == old.status == "unbounded"
    assert new.path == "primal"
    assert new.value == old.value


def test_infeasible_box_still_raises():
    # The homogeneous rows miss [3, 10]^3; the primal's phase I proves it.
    soc = _soc(swiss_cheese(3, 1, 1, 1, 18))
    with pytest.raises(InfeasibleRegion):
        solve.minimize_soc(soc, (3.0, 10.0), tol=TOL, max_iter=MAX_ITER)
    with pytest.raises(InfeasibleRegion):
        _primal(soc, (3.0, 10.0))


@pytest.mark.parametrize("name", ["example1", "gtrs-3-0", "swisscheese-4-1", "barvinok-3-1-0"])
def test_dual_value_stands_on_the_weights_bound(name, monkeypatch):
    # The dual's lower bound is _dual_bound's on its row weights, without
    # box terms, within rounding of the value at a minimizer that meets
    # the homogeneous rows.
    calls, dual_bound = [], solve._dual_bound

    def recording(d, box, w, scale):
        calls.append((w.copy(), dual_bound(d, box, w, scale)))
        return calls[-1][1]

    monkeypatch.setattr(solve, "_dual_bound", recording)
    soc = _soc(SMALL_INSTANCES[name]())
    res = solve.minimize_soc(soc, BOX, tol=TOL, max_iter=MAX_ITER)
    assert res.path == "dual" and res.status == "converged"
    (w, bound), = calls
    K = len(soc.c)
    assert np.all(w >= 0.0) and not w[K:].any()
    assert res.lower_bound == min(res.value, bound)
    scale = solve._scale(soc)
    assert abs(res.value - bound) <= solve.DUAL_GAP * scale
    vals = solve.stack_values(soc, res.minimizer)
    assert res.value == np.max(vals[: soc.num_epigraph])
    assert np.all(vals[soc.num_epigraph :] <= 1e-9 * scale)
