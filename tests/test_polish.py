"""Differential tests of the hull solver's KKT polish against the slow
oracle in ``polish_oracle``: call by call on the polishes that real solves
make, and end to end on whole solves.  The oracle runs every Newton run to
the 50-step cap, so these tests also show that ``solve._polish``'s stall
exit only cuts off runs that would have been declined."""

import functools

import numpy as np
import pytest

import polish_oracle
from qcqp_hull import solve
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

# More whole solves for the differential, seeds 0-9 of each family.  The
# accepted polish of barvinok-2-1-32 goes three Newton steps in a row
# without a new best residual, so a stall exit at 3 steps would decline it
# and change its solve.
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

# The longest solves of the set, with the most polishes each.
END_TO_END = [
    "example1", "gtrs-5-1", "gtrs-6-1", "qmp-1-2-2-4", "qmp-2-3-2-4",
    "qmp-2-3-2-5", "swisscheese-3-5", "swisscheese-4-4", "swisscheese-5-4", "swisscheese-5-5",
]


def _close(a, b, tol=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all((a == b) | (np.abs(a - b) <= tol * np.maximum(1.0, np.abs(a)))))


def _oracle_polish(d, box, x, vals, scale):
    """The oracle behind ``solve._polish``'s signature."""
    return polish_oracle._polish(d, box, x, float(np.max(vals[: len(d.epigraph)])), scale)


@functools.cache
def _soc(name):
    p = {**INSTANCES, **POOL}[name]()
    return soc_description(build_gamma_data(p).v, p)


def _solve(name, polish):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solve, "_polish", polish)
        return solve.minimize_soc(_soc(name), BOX, tol=1e-8, max_iter=200)


def _newton_steps(polish, call):
    """The Newton steps (linear solves) ``polish`` takes on ``call``."""
    steps = 0
    linear_solve = np.linalg.solve

    def counting(*args):
        nonlocal steps
        steps += 1
        return linear_solve(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "solve", counting)
        polish(*call)
    return steps


@functools.cache
def _shipped(name):
    """The shipped solve of ``name`` and the arguments of every polish it made."""
    calls = []
    shipped = solve._polish

    def recording(d, box, x, vals, scale):
        calls.append((d, box.copy(), x.copy(), vals.copy(), scale))
        return shipped(d, box, x, vals, scale)

    return _solve(name, recording), calls


@pytest.mark.parametrize("name", INSTANCES)
def test_polish_agrees_with_oracle_on_every_call(name):
    calls = _shipped(name)[1]
    assert calls
    for d, box, x, vals, scale in calls:
        new = solve._polish(d, box, x, vals, scale)
        old = _oracle_polish(d, box, x, vals, scale)
        assert (new is None) == (old is None)
        if new is not None:
            assert _close(new[0], old[0])
            assert _close(new[1], old[1])
            assert _close(new[2], old[2])


def test_calls_cover_accepts_and_declines():
    outcomes = [
        solve._polish(*call) is not None for name in INSTANCES for call in _shipped(name)[1]
    ]
    assert any(outcomes) and not all(outcomes)


@pytest.mark.parametrize("name", dict.fromkeys([*END_TO_END, *POOL]))
def test_solve_unchanged_under_oracle_polish(name):
    new = _shipped(name)[0]
    old = _solve(name, _oracle_polish)
    assert new.status == old.status
    assert new.iterations == old.iterations
    assert _close(new.value, old.value)
    assert _close(new.lower_bound, old.lower_bound)
    assert _close(new.minimizer, old.minimizer)


def test_stall_exit_ends_runs_short_of_the_cap():
    # The oracle runs 4 and 11 of these polishes to the 50-step cap.
    calls = [call for name in ("qmp-2-3-2-4", "swisscheese-5-5") for call in _shipped(name)[1]]
    new = [_newton_steps(solve._polish, call) for call in calls]
    old = [_newton_steps(_oracle_polish, call) for call in calls]
    assert max(old) == 50
    assert max(new) < 50
    assert sum(new) <= 0.7 * sum(old)


def test_pools_have_no_opposite_pairs():
    # The oracle polish has no equality rows; these tests compare it with
    # the shipped one only where none arises.
    assert not any(len(_soc(name).opposite_pairs) for name in {**INSTANCES, **POOL})
