"""Differential tests of the hull solver against Kelley's cutting
planes and their Newton polish, kept as the oracle ``kelley_oracle``:
whole solves on every pool below, and the oracle's polish calls set
against the new solve's certified interval and minimizer."""

import functools
import math

import numpy as np
import pytest

import kelley_oracle
from conftest import SMALL_INSTANCES
from qcqp_hull import solve
from qcqp_hull.core import stack_values
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import (
    barvinok_random,
    example1,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)
from qcqp_hull.hull import soc_description

BOX = (-10.0, 10.0)

INSTANCES = {
    "example1": example1,
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n in (2, 3, 4, 5, 6) for s in (0, 1)},
    **{f"qmp-1-2-2-{s}": (lambda s=s: quadratic_matrix_program(1, 2, 2, s)) for s in (3, 4, 5)},
    **{f"qmp-2-3-2-{s}": (lambda s=s: quadratic_matrix_program(2, 3, 2, s)) for s in (3, 4, 5)},
    **{
        f"swisscheese-{n}-{s}": (lambda n=n, s=s: swiss_cheese(n, 1, 1, 1, s))
        for n in (3, 4, 5)
        for s in (3, 4, 5)
    },
}

# More whole solves, seeds 0-9 of each family.  With SMALL_INSTANCES this
# covers every solve of the benchmark (pipebench's solve-certify pool and
# its control set), whose instances go by the same names.
POOL = {
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n in (2, 3, 4, 5, 6) for s in range(10)},
    **{
        f"qmp-{n}-{k}-{m}-{s}": (lambda n=n, k=k, m=m, s=s: quadratic_matrix_program(n, k, m, s))
        for n, k, m in ((1, 2, 2), (2, 3, 2))
        for s in range(10)
    },
    **{
        f"swisscheese-{n}-{s}": (lambda n=n, s=s: swiss_cheese(n, 1, 1, 1, s))
        for n in (3, 4, 5)
        for s in range(10)
    },
    **{f"barvinok-2-1-{s}": (lambda s=s: barvinok_random(2, 1, s)) for s in (*range(10), 32)},
}

# The longest oracle solves of the set, with the most polishes each.
END_TO_END = [
    "example1", "gtrs-5-1", "gtrs-6-1", "qmp-1-2-2-4", "qmp-2-3-2-4",
    "qmp-2-3-2-5", "swisscheese-3-5", "swisscheese-4-4", "swisscheese-5-4", "swisscheese-5-5",
]

ALL = {**SMALL_INSTANCES, **INSTANCES, **POOL}

# The oracle spends its 200 iterations on these without a feasible iterate;
# their objective is the constant -1 and x = 0 is feasible.
SPENT_BUDGET = {"barvinok-3-1-0", "barvinok-3-1-2", "barvinok-3-1-3"}


def _close(a, b, tol):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a))))


@functools.cache
def _soc(name):
    p = ALL[name]()
    return soc_description(build_gamma_data(p).v, p)


@functools.cache
def _solve(name):
    return solve.minimize_soc(_soc(name), BOX, tol=1e-8, max_iter=200)


@functools.cache
def _oracle(name):
    """The oracle's solve of ``name`` and the arguments of every polish it made."""
    calls = []
    polish = kelley_oracle._polish

    def recording(d, box, x, vals, scale):
        calls.append((d, box.copy(), x.copy(), vals.copy(), scale))
        return polish(d, box, x, vals, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kelley_oracle, "_polish", recording)
        res = kelley_oracle.minimize_soc(_soc(name), BOX, tol=1e-8, max_iter=200)
    return res, calls


@pytest.mark.parametrize("name", INSTANCES)
def test_polish_agrees_with_oracle_on_every_call(name):
    # Every polish the oracle accepts lands inside the new solve's
    # certified interval, and the oracle's polish started at the new
    # minimizer accepts it as it is: the walk ends at an isolated KKT point.
    new = _solve(name)
    calls = _oracle(name)[1]
    assert calls
    tol = 1e-9 * max(1.0, abs(new.value))
    for call in calls:
        out = kelley_oracle._polish(*call)
        if out is not None:
            assert out[1] >= new.lower_bound - tol
            assert out[2] <= new.value + tol
    d, box = calls[0][:2]
    out = kelley_oracle._polish(d, box, new.minimizer, stack_values(d, new.minimizer), calls[0][4])
    assert out is not None
    assert _close(out[0], new.minimizer, 1e-7)
    assert _close(out[1], new.value, 1e-9)


def test_calls_cover_accepts_and_declines():
    outcomes = [
        kelley_oracle._polish(*call) is not None for name in INSTANCES for call in _oracle(name)[1]
    ]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("name", dict.fromkeys([*END_TO_END, *POOL, *SMALL_INSTANCES]))
def test_solve_unchanged_under_oracle_polish(name):
    new = _solve(name)
    old = _oracle(name)[0]
    # the new bound certifies the new value
    assert abs(new.gap) <= 1e-9 * max(1.0, abs(new.value))
    if old.status == "iteration_limit":
        assert name in SPENT_BUDGET
        assert old.value == math.inf
        assert new.status == "converged"
        assert new.value == pytest.approx(-1.0, abs=1e-9)
        return
    assert new.status == old.status
    assert _close(new.value, old.value, 1e-9)
    # example1's optimal set is a segment and barvinok's objective is
    # constant, so their minimizers are not unique
    if name != "example1" and not name.startswith("barvinok"):
        assert np.max(np.abs(new.minimizer - old.minimizer)) <= 1e-6
