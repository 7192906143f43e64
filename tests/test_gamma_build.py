"""Differential test of ``gamma.build_gamma_data`` against the chain it
replaced, kept verbatim in ``gamma_build_oracle``.  Whitening from the
multiplier search's own spectrum, eigenproblems without re-validation and
stacked by block size, and the double description's dict row dedup,
one-SVD basis and violated-row screen must give the same bytes: gamma*,
the congruence basis, the diagonals, k, both H-rows arrays, the vertices
and the rays, or the same error."""

import math
from operator import attrgetter

import numpy as np
import pytest

import gamma_build_oracle as oracle
from conftest import SMALL_INSTANCES, conditioned_map
from qcqp_hull import cli, gamma, io
from qcqp_hull.core import affine_transform
from qcqp_hull.errors import NotSimultaneouslyDiagonalizable, QcqpHullError
from qcqp_hull.gamma import _dd_cone, _initial_basis_rows, build_gamma_data
from qcqp_hull.generators import barvinok_random, example1, gtrs, quadratic_matrix_program, swiss_cheese


def _swiss(n, m, seed):
    """swiss_cheese with m constraints split as the benchmark splits them."""
    m1 = math.ceil(m / 3)
    m2 = math.ceil((m - m1) / 2)
    return swiss_cheese(n, m1, m2, m - m1 - m2, seed)


# The benchmark's 61 instances: the dense, lattice and solve-certify pools
# and the control set.
BENCH = {
    "example1": example1,
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n, s in ((40, 0), (40, 1), (60, 0))},
    **{
        f"qmp-{n}-4-3-{s}": (lambda n=n, s=s: quadratic_matrix_program(n, 4, 3, s))
        for n, s in ((10, 0), (10, 1), (16, 0))
    },
    **{f"swisscheese-20-{m}-{s}": (lambda m=m, s=s: _swiss(20, m, s)) for m in (6, 7, 8, 9) for s in (0, 1)},
    "swisscheese-20-10-0": lambda: _swiss(20, 10, 0),
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n in (2, 3, 4, 5, 6) for s in (0, 1)},
    **{f"gtrs-2-{s}": (lambda s=s: gtrs(2, s)) for s in (2, 3)},
    **{f"qmp-1-2-2-{s}": (lambda s=s: quadratic_matrix_program(1, 2, 2, s)) for s in range(9)},
    **{f"qmp-2-3-2-{s}": (lambda s=s: quadratic_matrix_program(2, 3, 2, s)) for s in range(3, 9)},
    **{f"swisscheese-{n}-3-{s}": (lambda n=n, s=s: _swiss(n, 3, s)) for n in (3, 4, 5) for s in range(3, 9)},
}

# 280 seeded instances.  With SMALL_INSTANCES, the barvinok seeds 0-9 give
# the 64 cases whose multiplier search runs past gamma = 0; they are also
# the only seeded instances whose whitened forms do not commute.
BARVINOK = {
    f"barvinok-{n}-{f}-{s}": (lambda n=n, f=f, s=s: barvinok_random(n, f, s))
    for n in (2, 3, 4)
    for f in (1, 2)
    for s in range(10)
}
SEEDED = {
    **BARVINOK,
    **{f"barvinok-2-1-{s}": (lambda s=s: barvinok_random(2, 1, s)) for s in range(10, 50)},
    **{f"gtrs-{n}-{s}": (lambda n=n, s=s: gtrs(n, s)) for n in (2, 3, 4, 5, 6) for s in range(12)},
    **{
        f"qmp-{n}-{k}-{m}-{s}": (lambda n=n, k=k, m=m, s=s: quadratic_matrix_program(n, k, m, s))
        for n, k, m in ((1, 2, 2), (2, 3, 2))
        for s in range(30)
    },
    **{
        f"swisscheese-{n}-{s}": (lambda n=n, s=s: swiss_cheese(n, 1, 1, 1, s))
        for n in (3, 4, 5)
        for s in range(20)
    },
}


def _mapped(name, seed):
    p = SMALL_INSTANCES[name]()
    return affine_transform(p, conditioned_map(np.random.default_rng(seed), p.dim, 1e4), np.zeros(p.dim))


CASES = {
    **{f"small-{k}": f for k, f in SMALL_INSTANCES.items()},
    **{f"bench-{k}": f for k, f in BENCH.items()},
    **{f"seeded-{k}": f for k, f in SEEDED.items()},
    **{
        f"cond1e4-{name}-{seed}": (lambda name=name, seed=seed: _mapped(name, seed))
        for name in SMALL_INSTANCES
        for seed in range(100, 110)
    },
}

FIELDS = ("gamma_star", "sd.basis", "sd.diagonals", "h.a", "h.b", "v.vertices", "v.rays")


def _outcome(build, p):
    try:
        return build(p)
    except QcqpHullError as e:
        return e


def assert_same_bytes(got, want, fields):
    for name in fields:
        a, b = attrgetter(name)(got), attrgetter(name)(want)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("case", list(CASES))
def test_build_matches_oracle_byte_for_byte(case):
    p = CASES[case]()
    got, want = _outcome(build_gamma_data, p), _outcome(oracle.build_gamma_data, p)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert got.sd.multiplicity == want.sd.multiplicity
    assert_same_bytes(got, want, FIELDS)


def _searches(p) -> bool:
    """Whether the definite-multiplier search gets past gamma = 0."""
    return np.linalg.eigvalsh(p.A[0])[0] <= 1e-8 * max(1.0, float(np.max(np.abs(p.A))))


def test_cases_cover_the_search_and_the_refusals():
    small_and_barvinok = [f() for f in (*SMALL_INSTANCES.values(), *BARVINOK.values())]
    assert sum(map(_searches, small_and_barvinok)) == 64
    refused = []
    for name, make in SEEDED.items():
        if isinstance(_outcome(build_gamma_data, make()), NotSimultaneouslyDiagonalizable):
            refused.append(name)
    assert len(refused) == 30 and all(name.startswith("barvinok-") for name in refused)


def test_initial_basis_rows_match_the_greedy_scan():
    rng = np.random.default_rng(0)
    e = np.eye(3)
    matrices = [
        rng.normal(size=(6, 3)),
        np.vstack([e[0], 2.0 * e[0], e[1], e[0] + e[1], e[2]]),  # leading rows dependent
        np.vstack([np.zeros(3), e]),  # a zero row first
        np.array([[1.0, 0.0], [1.0, 5e-10], [0.0, 1.0]]),  # independent under 1e-10 only
        np.array([[1.0, 0.0], [1.0, 5e-11], [0.0, 1.0]]),  # dependent under 1e-10
        np.vstack([e[0], e[1]]),  # too few rows
        np.vstack([e[0], e[1], e[0] + e[1]]),  # rows that do not span
    ]
    for B in matrices:
        assert _initial_basis_rows(B, B.shape[1]) == oracle._initial_basis_rows(B, B.shape[1])


def test_dd_cone_refuses_rows_that_do_not_span():
    B = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]) / np.sqrt([1.0, 1.0, 2.0])[:, None]
    with pytest.raises(QcqpHullError, match="not pointed") as info:
        _dd_cone(B)
    assert not isinstance(info.value, AssertionError)


def test_cli_reports_a_cone_that_is_not_pointed(tmp_path, ex1, monkeypatch, capsys):
    # Rows that do not span end the command with exit code 1 and one error
    # line, not a traceback.
    monkeypatch.setattr(gamma, "_initial_basis_rows", lambda B, dim: None)
    path = tmp_path / "ex1.json"
    io.write_problem(str(path), ex1)
    assert cli.run(["hull", str(path)]) == 1
    err = capsys.readouterr().err
    assert "cone is not pointed" in err and "Traceback" not in err
