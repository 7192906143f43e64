"""The face and split memos of ``GammaData`` change no certificate.

Targets come from the small instances and from every pool of the
benchmark (read from pipebench/pipeline.py, unedited), drawn by its
``sample_targets``.  Each is decomposed with one shared ``GammaData``
(cold, then fully warm) and with a fresh one per target; the three
certificates must agree byte for byte."""

import functools

import numpy as np
import pytest

from conftest import SMALL_INSTANCES, load_pipebench
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.errors import QcqpHullError
from qcqp_hull.gamma import GammaData, build_gamma_data, optimal_face
from qcqp_hull.generators import generate
from qcqp_hull.hull import decompose, soc_description, verify_certificate

PIPELINE = load_pipebench("pipeline")


def _pipebench_pools():
    out = {}
    for w in PIPELINE.WORKLOADS.values():
        for inst in (*w.pool, *w.control):
            out[f"pipebench-{inst.key}"] = functools.partial(generate, inst.spec)
    return out


POOLS = {**SMALL_INSTANCES, **_pipebench_pools()}


def _fresh(gd: GammaData) -> GammaData:
    """The same multiplier set with empty memos."""
    return GammaData(gd.sd, gd.h, gd.v, gd.gamma_star)


def _outcome(p, gd, pt, soc):
    """The certificate as bytes and trace, or the error it raised."""
    try:
        c = decompose(p, gd, pt, soc=soc)
    except QcqpHullError as e:
        return type(e).__name__, str(e)
    assert verify_certificate(p, c, pt)
    xs = b"".join(q.x.tobytes() for q in c.points)
    ts = np.array([q.t for q in c.points]).tobytes()
    return xs, ts, c.weights.tobytes(), c.trace


def _targets(p, gd, seed=0):
    return PIPELINE.sample_targets(p, gd, np.random.default_rng(seed))


def _face_fields(face):
    return (face.generator_ids, face.generators.tobytes(), face.active_rows, face.aff_dim, face.dead)


@pytest.mark.parametrize("name", POOLS)
def test_memo_changes_no_certificate(name):
    p = POOLS[name]()
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    targets = _targets(p, gd)
    cold = [_outcome(p, gd, pt, soc) for pt in targets]
    faces, splits = dict(gd._faces), dict(gd._splits)
    warm = [_outcome(p, gd, pt, soc) for pt in targets]
    fresh = [_outcome(p, _fresh(gd), pt, soc) for pt in targets]
    assert cold == warm == fresh
    # The warm pass built nothing: every face and split came from the memos.
    assert gd._faces.keys() == faces.keys() and all(gd._faces[k] is f for k, f in faces.items())
    assert gd._splits.keys() == splits.keys() and all(gd._splits[k] is s for k, s in splits.items())
    # One entry per distinct face, each under its own generator ids.
    ids = [f.generator_ids for f in gd._faces.values()]
    assert len(set(ids)) == len(ids)
    assert all(np.frombuffer(k, dtype=np.intp).tolist() == list(f.generator_ids) for k, f in gd._faces.items())
    assert all(q is p and i in set(ids) for q, i in gd._splits)


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_public_optimal_face_matches_memo(name):
    p = SMALL_INSTANCES[name]()
    gd = build_gamma_data(p)
    rng = np.random.default_rng(1)
    for _ in range(40):
        x = rng.uniform(-3.0, 3.0, size=p.dim)
        want, got = optimal_face(gd.v, p, x, gd.h), gd._optimal_face(p, x)
        assert (want is None) == (got is None)
        if want is not None:
            assert want[0] == got[0]
            assert _face_fields(want[1]) == _face_fields(got[1])


def _shifted_objective(p: Qcqp) -> Qcqp:
    """p with another objective linear term: the same Hessians, so the same
    multiplier set, but another b(gamma)."""
    q0 = p.objective
    b = q0.b + np.linspace(0.5, 1.5, p.dim)
    return Qcqp(QuadraticFn(q0.A, b, q0.c), p.constraints, p.num_inequalities, p.num_equalities)


@pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
def test_split_memo_is_keyed_by_problem(name):
    p = SMALL_INSTANCES[name]()
    p2 = _shifted_objective(p)
    gd = build_gamma_data(p)
    for pt in _targets(p, gd):
        _outcome(p, gd, pt, None)
    targets = _targets(p2, gd, seed=1)
    shared = [_outcome(p2, gd, pt, None) for pt in targets]
    fresh = [_outcome(p2, _fresh(gd), pt, None) for pt in targets]
    assert shared == fresh
    assert {q for q, _ in gd._splits} <= {p, p2}

