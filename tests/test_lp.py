"""The incremental cutting-plane LP against a fresh ``linprog`` solve of the
same rows: rows appended in batches must give the optimum a rebuilt LP gives."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

import qcqp_hull
from qcqp_hull._lp import CuttingPlaneLP


def fresh(c, lower, upper, G, h):
    bounds = [(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
              for lo, hi in zip(lower, upper)]
    return linprog(c, A_ub=G, b_ub=h, bounds=bounds, method="highs")


def assert_same_optimum(lp_out, c, ref, G, h, lower, upper):
    status, z = lp_out
    assert ref.status == 0 and status == "optimal"
    assert c @ z == pytest.approx(ref.fun, rel=1e-9, abs=1e-9)
    assert np.all(G @ z <= h + 1e-7)
    assert np.all(z >= lower - 1e-9) and np.all(z <= upper + 1e-9)


def random_rows(rng, k, n, z_in):
    """k random rows with about a third of their entries zero, each slack at z_in."""
    G = rng.normal(size=(k, n)) * (rng.random((k, n)) > 0.3)
    return G, G @ z_in + rng.uniform(0.0, 1.0, size=k)


@pytest.mark.parametrize("seed", range(6))
def test_batches_match_fresh_solve(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    c = rng.normal(size=n)
    lower = -rng.uniform(0.5, 3.0, size=n)
    upper = rng.uniform(0.5, 3.0, size=n)
    z_in = rng.uniform(lower, upper)  # every row below keeps it feasible
    lp = CuttingPlaneLP(c, lower, upper)
    G, h = np.zeros((0, n)), np.zeros(0)
    for _ in range(int(rng.integers(3, 6))):
        Gb, hb = random_rows(rng, int(rng.integers(1, 4)), n, z_in)
        lp.add_rows(Gb, hb)
        G, h = np.vstack([G, Gb]), np.r_[h, hb]
        assert_same_optimum(lp.solve(), c, fresh(c, lower, upper, G, h), G, h, lower, upper)


@pytest.mark.parametrize("seed", range(4))
def test_kelley_shape_free_epigraph_column(seed):
    # min tau over x in a box, tau free, cuts g'x - tau <= g'x_k - f_k from
    # a convex quadratic: the LP minimize_soc grows.
    rng = np.random.default_rng(100 + seed)
    n = 3
    A = rng.normal(size=(n, n))
    A = A @ A.T + np.eye(n)
    b = rng.normal(size=n)
    c = np.r_[np.zeros(n), 1.0]
    lower, upper = np.r_[np.full(n, -2.0), -np.inf], np.r_[np.full(n, 2.0), np.inf]
    lp = CuttingPlaneLP(c, lower, upper)
    G, h = np.zeros((0, n + 1)), np.zeros(0)
    x = np.zeros(n)
    for _ in range(5):
        g = 2.0 * (A @ x + b)
        row, rhs = np.r_[g, -1.0], g @ x - (x @ A @ x + 2.0 * b @ x)
        lp.add_rows(row, [rhs])
        G, h = np.vstack([G, row]), np.r_[h, rhs]
        ref = fresh(c, lower, upper, G, h)
        out = lp.solve()
        assert_same_optimum(out, c, ref, G, h, lower, upper)
        x = out[1][:n]


def test_infeasible_batch_reported_by_both():
    rng = np.random.default_rng(7)
    n = 4
    c, lower, upper = rng.normal(size=n), np.full(n, -1.0), np.full(n, 1.0)
    lp = CuttingPlaneLP(c, lower, upper)
    G, h = random_rows(rng, 3, n, np.zeros(n))
    lp.add_rows(G, h)
    assert_same_optimum(lp.solve(), c, fresh(c, lower, upper, G, h), G, h, lower, upper)
    # a'z <= -1 and -a'z <= -1 cannot both hold
    a = rng.normal(size=n)
    bad_G, bad_h = np.vstack([a, -a]), np.array([-1.0, -1.0])
    lp.add_rows(bad_G, bad_h)
    ref = fresh(c, lower, upper, np.vstack([G, bad_G]), np.r_[h, bad_h])
    assert ref.status == 2
    assert lp.solve() == ("infeasible", None)


def test_row_out_of_reach_of_the_box_is_infeasible():
    # sum z <= -10 is out of reach of z in [-1, 1]^3
    lp = CuttingPlaneLP(np.ones(3), -np.ones(3), np.ones(3))
    lp.add_rows(np.ones((1, 3)), [-10.0])
    assert lp.solve() == ("infeasible", None)


@pytest.mark.parametrize("seed", range(4))
def test_definite_multiplier_shape_maximization(seed):
    # max mu over signed gamma and mu in [-bound, bound] with cuts
    # mu - sum_i gamma_i v'A_i v <= v'A_0 v: the LP _definite_multiplier grows.
    rng = np.random.default_rng(200 + seed)
    n, m, n_ineq, bound = 3, 3, 2, 1e4
    A = rng.normal(size=(m + 1, n, n))
    A = A + A.transpose(0, 2, 1)
    c = np.r_[np.zeros(m), -1.0]
    lower = np.r_[np.zeros(n_ineq), np.full(m + 1 - n_ineq, -bound)]
    upper = np.full(m + 1, bound)
    lp = CuttingPlaneLP(c, lower, upper)
    G, h = np.zeros((0, m + 1)), np.zeros(0)
    for _ in range(4):
        V = rng.normal(size=(int(rng.integers(1, 4)), n))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        vAv = np.einsum("kn,inp,kp->ki", V, A, V)
        Gb, hb = np.column_stack([-vAv[:, 1:], np.ones(len(V))]), vAv[:, 0]
        lp.add_rows(Gb, hb)
        G, h = np.vstack([G, Gb]), np.r_[h, hb]
        assert_same_optimum(lp.solve(), c, fresh(c, lower, upper, G, h), G, h, lower, upper)


def _loaded_by_package_import(prefix):
    """The modules named ``prefix...`` that a fresh ``import qcqp_hull`` loads."""
    src = str(Path(qcqp_hull.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys, qcqp_hull; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_package_import_leaves_scipy_optimize_unloaded():
    # The HiGHS binding loads with the first LP, so a run that builds none
    # never imports scipy.optimize.
    assert _loaded_by_package_import("scipy.optimize") == "[]"


def test_package_import_loads_no_scipy():
    # scipy loads only inside the calls that use it, so importing the
    # package (the CLI's start-up) pays for none of it.
    assert _loaded_by_package_import("scipy") == "[]"
