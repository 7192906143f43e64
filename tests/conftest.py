import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import barvinok_random, example1, gtrs, quadratic_matrix_program, swiss_cheese
from qcqp_hull.hull import soc_description
from qcqp_hull.linalg import _aggregate_spectrum, _whiten

BENCH = Path(__file__).resolve().parent.parent / "pipebench"


def load_pipebench(name):
    """The module ``pipebench/<name>.py``, loaded from its file unedited."""
    spec = importlib.util.spec_from_file_location(f"pipebench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Small instances of every family, each with a certified multiplier set
# (barvinok seeds 0-3 commute).
SMALL_INSTANCES = {
    "example1": example1,
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n in (2, 3, 4) for s in range(3)},
    **{f"qmp-1-2-2-{s}": (lambda s=s: quadratic_matrix_program(1, 2, 2, seed=s)) for s in range(2)},
    **{f"qmp-2-3-2-{s}": (lambda s=s: quadratic_matrix_program(2, 3, 2, seed=s)) for s in range(3)},
    **{
        f"swisscheese-{n}-{s}": (lambda n=n, s=s: swiss_cheese(n, 1, 1, 1, seed=s))
        for n in (3, 4)
        for s in range(2)
    },
    **{f"barvinok-3-1-{s}": (lambda s=s: barvinok_random(3, 1, seed=s)) for s in range(4)},
}


# Two distinct forms of order 1e-8 beside A_0 = I: no joint eigenspace of
# dimension 2, so k = 1 although every whitened form is within 1e-7 of 0.
TINY_DISTINCT = Qcqp(
    objective=QuadraticFn(np.eye(2), np.zeros(2), 0.0),
    constraints=(
        QuadraticFn(1e-8 * np.diag([1.0, -1.0]), np.zeros(2), -1.0),
        QuadraticFn(1e-8 * np.diag([-1.0, 2.0]), np.zeros(2), -1.0),
    ),
    num_inequalities=2,
    num_equalities=0,
)


# min x'x subject to x'x <= 4 and the linear equality x1 + x2 = 1, which
# gives the multiplier set a lineality line: the hull description holds
# h <= 0 and -h <= 0 for h = x1 + x2 - 1.
LINEAR_EQUALITY = Qcqp(
    objective=QuadraticFn(np.eye(2), np.zeros(2), 0.0),
    constraints=(
        QuadraticFn(np.eye(2), np.zeros(2), -4.0),
        QuadraticFn(np.zeros((2, 2)), np.array([0.5, 0.5]), -1.0),
    ),
    num_inequalities=1,
    num_equalities=1,
)


@pytest.fixture(scope="session")
def ex1():
    return example1()


@pytest.fixture(scope="session")
def ex1_gd(ex1):
    return build_gamma_data(ex1)


@pytest.fixture(scope="session")
def ex1_soc(ex1, ex1_gd):
    return soc_description(ex1_gd.v, ex1)


def random_spd(rng, n, shift=1.0):
    S = rng.normal(size=(n, n))
    S = 0.5 * (S + S.T)
    lam = np.linalg.eigvalsh(S)[0]
    return S + (abs(lam) + shift) * np.eye(n)


def kron_oracle(p, tol=1e-10):
    """Largest k with A_i = I_k (x) (leading n x n block) for every
    quadratic, entrywise within tol * max(1, max|A_i|), in the given basis
    only; k = 1 always holds."""
    N = p.dim
    for k in range(N, 0, -1):
        n = N // k
        if N % k == 0 and all(
            np.max(np.abs(A - np.kron(np.eye(k), A[:n, :n]))) <= tol * max(1.0, np.max(np.abs(A)))
            for A in p.A
        ):
            return k


def all_scaled_identities(p, tol=1e-12):
    """Every Hessian is alpha_i I in the given basis, entrywise within
    tol * max(1, |alpha_i|)."""
    alpha = np.trace(p.A, axis1=1, axis2=2) / p.dim
    dev = np.max(np.abs(p.A - alpha[:, None, None] * np.eye(p.dim)), axis=(1, 2))
    return bool(np.all(dev <= tol * np.maximum(1.0, np.abs(alpha))))


def conditioned_map(rng, n, cond):
    """A random n x n matrix with condition number ``cond``."""
    Q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q1 @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ Q2


def whiten_at(p, gamma):
    """The joint basis whitened at a definite A(gamma): ``_whiten`` on the
    ``_aggregate_spectrum`` pair, as ``build_gamma_data`` whitens."""
    return _whiten(p, _aggregate_spectrum(p, gamma)[1])
