import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

import dd_oracle
from conftest import SMALL_INSTANCES, whiten_at
from qcqp_hull.certify import check_conditions
from qcqp_hull.core import Qcqp, QuadraticFn, eval_quadratic, stack_values
from qcqp_hull.errors import GuardExceeded, NoInteriorPoint
from qcqp_hull.gamma import (
    FACE_TOL,
    RANK_TOL,
    Face,
    PolyhedronH,
    _canonical_order,
    _closed_faces,
    _dedup_rows,
    _directions,
    _initial_basis_rows,
    _ranks,
    b_aff_dim,
    build_gamma,
    build_gamma_data,
    _definite_multiplier,
    dd_vrep,
    optimal_face,
    semidefinite_faces,
)
from qcqp_hull.generators import (
    barvinok_random,
    example1,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)
from qcqp_hull.linalg import PSD_TOL, _eig


def poly(*rows):
    """The polyhedron of the given (a, beta) rows, all eigenvalue rows."""
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), -1)
    return PolyhedronH(a=a, b=[r[1] for r in rows], num_eigen=len(rows))


def random_poly(rng, m):
    """m + 4 unit rows with the origin strictly inside."""
    rows = []
    for _ in range(m + 4):
        a = rng.normal(size=m)
        a /= np.linalg.norm(a)
        rows.append((a, abs(rng.normal()) + 0.1))
    return poly(*rows)


def with_variant(h, variant):
    """``h`` with column 0 zeroed (lineality along e_1), or with every row
    repeated at three times its scale."""
    if variant == "zero_column":
        a = h.a.copy()
        a[:, 0] = 0.0
        return PolyhedronH(a=a, b=h.b, num_eigen=h.num_eigen)
    if variant == "duplicate":
        return PolyhedronH(a=np.vstack([h.a, 3.0 * h.a]), b=np.r_[h.b, 3.0 * h.b], num_eigen=h.num_eigen)
    return h


def row_subset_vrep(h, tol=1e-9):
    """Slow oracle for a pointed polyhedron (m <= 4): a vertex solves m
    independent rows as equalities and meets the others; an extreme ray
    spans the kernel of m - 1 independent rows and meets every
    homogeneous row.  Returns the distinct vertices and unit rays."""
    A, beta, m = h.A[h.nontrivial], h.beta[h.nontrivial], h.dim
    assert m <= 4 and np.linalg.matrix_rank(A) == m, "the oracle needs a pointed polyhedron"
    vertices, rays = [], []
    for S in map(list, itertools.combinations(range(len(A)), m)):
        if np.linalg.matrix_rank(A[S]) == m:
            x = np.linalg.solve(A[S], -beta[S])
            if np.min(A @ x + beta) >= -tol:
                vertices.append(x)
    for S in map(list, itertools.combinations(range(len(A)), m - 1)):
        if np.linalg.matrix_rank(A[S]) == m - 1:
            d = np.linalg.svd(np.vstack([A[S], np.zeros(m)]))[2][-1]
            rays.extend(s for s in (d, -d) if np.min(A @ s) >= -tol)

    def distinct(points):
        out = []
        for p in points:
            if all(np.max(np.abs(p - q)) > 1e-7 for q in out):
                out.append(p)
        return np.array(out).reshape(-1, m)

    return distinct(vertices), distinct(rays)


def diag_problem(diag0, diags, num_ineq):
    """QCQP with the given diagonal Hessians and trivial linear/constant data."""
    n = len(diag0)
    q0 = QuadraticFn(np.diag(diag0), np.zeros(n), 0.0)
    cons = tuple(QuadraticFn(np.diag(d), np.zeros(n), -1.0) for d in diags)
    return Qcqp(q0, cons, num_ineq, len(diags) - num_ineq)


def _problem_hv(p):
    gd = build_gamma_data(p)
    return gd.h, gd.v


def _random_hv(m, seed):
    h = random_poly(np.random.default_rng(seed), m)
    return h, dd_vrep(h)


# (m, seed, variant) of TestDdVrep.test_roundtrip_random
ROUNDTRIP_CASES = [
    *((m, seed, None) for m, seed in [(2, 0), (3, 1), (4, 2), (3, 3), (4, 4)]),
    (3, 5, "zero_column"),
    (4, 6, "duplicate"),
]

ORACLE_CASES = {
    "example1": lambda: _problem_hv(example1()),
    "gtrs3": lambda: _problem_hv(gtrs(3, 2)),
    "gtrs6": lambda: _problem_hv(gtrs(6, 1)),
    "qmp": lambda: _problem_hv(quadratic_matrix_program(2, 3, 2, seed=0)),
    "swiss6": lambda: _problem_hv(swiss_cheese(20, 2, 2, 2, 0)),
    "swiss7": lambda: _problem_hv(swiss_cheese(20, 3, 2, 2, 1)),
    "swiss8": lambda: _problem_hv(swiss_cheese(20, 3, 3, 2, 0)),
    # the polyhedra of TestDdVrep.test_roundtrip_random
    **{
        f"random{m}-{seed}": (lambda m=m, seed=seed: _random_hv(m, seed))
        for m, seed in [(2, 0), (3, 1), (4, 2), (3, 3), (4, 4)]
    },
}


def _random_problem(m, seed):
    """A diagonal problem whose multiplier set is the random polyhedron
    (its rows have b > 0, so the objective alone is definite)."""
    h = random_poly(np.random.default_rng(seed), m)
    return diag_problem(h.b, h.a.T, num_ineq=0)


# Problems for the gamma* oracle: the problems of ORACLE_CASES, the random
# polyhedra as multiplier sets, and barvinok seeds whose whitening
# multiplier is not 0.
GAMMA_STAR_CASES = {
    "example1": example1,
    "gtrs3": lambda: gtrs(3, 2),
    "gtrs6": lambda: gtrs(6, 1),
    "qmp": lambda: quadratic_matrix_program(2, 3, 2, seed=0),
    "swiss6": lambda: swiss_cheese(20, 2, 2, 2, 0),
    "swiss7": lambda: swiss_cheese(20, 3, 2, 2, 1),
    "swiss8": lambda: swiss_cheese(20, 3, 3, 2, 0),
    **{
        f"random{m}-{seed}": (lambda m=m, seed=seed: _random_problem(m, seed))
        for m, seed in [(2, 0), (3, 1), (4, 2), (3, 3), (4, 4)]
    },
    **{f"barvinok{seed}": (lambda seed=seed: barvinok_random(2, 1, seed)) for seed in range(4)},
}


def lifted(h, cap=1.0):
    """The polyhedron over (gamma, mu) with every eigenvalue row of ``h``
    >= mu and mu <= cap."""
    eigen = (np.arange(len(h.b)) < h.num_eigen).astype(float)
    a = np.vstack([np.column_stack([h.a, -eigen]), np.r_[np.zeros(h.dim), -1.0]])
    return PolyhedronH(a=a, b=np.r_[h.b, cap], num_eigen=0)


def lifted_dd_gamma_star(h, cap=1.0):
    """Slow oracle: the lifted double description of ``lifted(h, cap)``.
    Returns the largest mu and the gamma part of every lifted vertex that
    reaches it."""
    m = h.dim
    lv = dd_vrep(lifted(h, cap))
    mus = lv.vertices[:, m]
    best = float(np.max(mus))
    return best, lv.vertices[mus >= best - 1e-12, :m]


def split_ids(generator_ids, v):
    """Ascending generator ids as (vertex ids, ray ids) in ``v.vertices``
    and ``v.rays``."""
    nv = v.vertices.shape[0]
    return (tuple(i for i in generator_ids if i < nv),
            tuple(i - nv for i in generator_ids if i >= nv))


def row_subset_faces(h, v, tol=FACE_TOL):
    """Slow oracle: for every set S of rows, the generators active on all
    of S, when that set has a vertex.  Rows with equal generator sets are
    merged first.  Returns sorted (aff_dim, vertex_ids, ray_ids, active_rows)."""
    A, beta = h.a, h.b
    norms = np.linalg.norm(A, axis=1)
    live = np.flatnonzero(norms > 1e-12)
    A, beta = A[live] / norms[live, None], beta[live] / norms[live]
    nv = v.vertices.shape[0]
    inc = np.vstack([np.abs(v.vertices @ A.T + beta) <= tol, np.abs(v.rays @ A.T) <= tol])
    cuts = np.unique(inc, axis=1)
    assert cuts.shape[1] <= 12, "the oracle is exponential in the rows"
    faces = set()
    for k in range(cuts.shape[1] + 1):
        for S in itertools.combinations(range(cuts.shape[1]), k):
            gens = np.all(cuts[:, list(S)], axis=1)
            if not gens[:nv].any():
                continue
            verts, rays = v.vertices[gens[:nv]], v.rays[gens[nv:]]
            dirs = np.vstack([verts[1:] - verts[0], rays])
            s = np.linalg.svd(dirs, compute_uv=False) if dirs.shape[0] else np.zeros(0)
            aff_dim = int(np.sum(s > 1e-9 * max(1.0, s[0]))) if s.size else 0
            active = tuple(int(i) for i in live[np.all(inc[gens], axis=0)])
            ids = (tuple(np.flatnonzero(gens[:nv]).tolist()), tuple(np.flatnonzero(gens[nv:]).tolist()))
            faces.add((aff_dim, *ids, active))
    return sorted(faces)


def oracle_faces(h, v):
    """The faces of ``row_subset_faces`` as ``Face``s, in its order."""
    nv = v.vertices.shape[0]
    faces = []
    for aff_dim, vertex_ids, ray_ids, active in row_subset_faces(h, v):
        ids = vertex_ids + tuple(nv + i for i in ray_ids)
        dead = tuple(i for i in active if i < h.num_eigen)
        faces.append(Face(ids, v.generators[list(ids)], active, aff_dim, dead))
    return faces


def closed_faces(h, v):
    """The (vertex ids, ray ids, active rows) of each face ``_closed_faces``
    finds."""
    return [
        (*split_ids(ids, v), tuple(np.flatnonzero(act).tolist()))
        for stack, active in _closed_faces(h, v)
        for ids, act in zip(stack.tolist(), active)
    ]


class TestBuildGamma:
    def test_example1_rows(self, ex1, ex1_gd):
        h = build_gamma(ex1, ex1_gd.sd)
        assert h.a.tolist() == [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]
        assert h.b.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert h.num_eigen == 2  # two eigenvalue rows, then two sign rows

    def test_trivial_rows_for_zero_constraint_hessians(self):
        p = diag_problem([1.0, 2.0], [[0.0, 0.0]], num_ineq=0)
        sd = whiten_at(p, np.zeros(1))
        h = build_gamma(p, sd)
        v = dd_vrep(h)
        # Gamma is the whole line: one representative vertex, both directions.
        assert v.vertices.shape[0] == 1
        assert v.rays.shape[0] == 2
        assert np.allclose(v.rays[0], -v.rays[1])

    def test_interval_single_constraint(self):
        p = diag_problem([1.0, 1.0], [[1.0, -1.0]], num_ineq=1)
        sd = whiten_at(p, np.zeros(1))
        h = build_gamma(p, sd)
        v = dd_vrep(h)
        assert np.allclose(sorted(v.vertices[:, 0]), [0.0, 1.0], atol=1e-12)
        assert v.rays.shape[0] == 0


class TestDdVrep:
    def test_example1(self, ex1_gd):
        v = ex1_gd.v
        expected = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        assert v.vertices.shape == (3, 2)
        assert np.max(np.abs(v.vertices - expected)) <= 1e-9
        assert v.rays.shape == (1, 2)
        assert np.max(np.abs(v.rays[0] - np.array([1.0, 1.0]) / np.sqrt(2))) <= 1e-9

    def test_halfline(self):
        h = poly(([1.0], 0.0))
        v = dd_vrep(h)
        assert np.allclose(v.vertices, [[0.0]])
        assert np.allclose(v.rays, [[1.0]])

    def test_infeasible(self):
        h = poly(([1.0], 0.0), ([-1.0], -1.0))
        assert dd_vrep(h).is_empty

    def test_single_point(self):
        h = poly(([1.0], 0.0), ([-1.0], 0.0))
        v = dd_vrep(h)
        assert np.allclose(v.vertices, [[0.0]])
        assert v.rays.shape[0] == 0

    def test_guard(self):
        h = poly((np.ones(13), 1.0))
        with pytest.raises(GuardExceeded):
            dd_vrep(h)

    @pytest.mark.parametrize(
        "m,seed,variant",
        [pytest.param(*case, id="-".join(str(v) for v in case if v is not None)) for case in ROUNDTRIP_CASES],
    )
    def test_roundtrip_random(self, m, seed, variant):
        rng = np.random.default_rng(seed)
        h = with_variant(random_poly(rng, m), variant)
        v = dd_vrep(h)
        if variant == "zero_column":
            e1 = np.eye(m)[0]
            assert any(np.allclose(r, e1) for r in v.rays)
            assert any(np.allclose(r, -e1) for r in v.rays)
        assert not v.is_empty
        A, beta = h.a, h.b
        # every vertex satisfies all rows, every ray the homogeneous parts
        assert np.min(v.vertices @ A.T + beta) >= -1e-9
        if v.rays.shape[0]:
            assert np.min(v.rays @ A.T) >= -1e-9
        # random interior points are reproduced by the generators (small LP)
        for _ in range(10):
            x = rng.normal(size=m) * 0.2
            if np.min(A @ x + beta) <= 0.05:
                continue
            nv, nr = v.vertices.shape[0], v.rays.shape[0]
            A_eq = np.vstack(
                [
                    np.hstack([v.vertices.T, v.rays.T if nr else np.zeros((m, 0))]),
                    np.hstack([np.ones(nv), np.zeros(nr)]),
                ]
            )
            b_eq = np.concatenate([x, [1.0]])
            res = linprog(np.zeros(nv + nr), A_eq=A_eq, b_eq=b_eq, method="highs")
            assert res.success, "interior point not in conv(V) + cone(R)"

    DD_KINDS = ["plain", "duplicate", "near_parallel", "unbounded", "cone", "degenerate"]

    @pytest.mark.parametrize("kind", DD_KINDS)
    def test_matches_row_subset_oracle(self, kind):
        rng = np.random.default_rng(self.DD_KINDS.index(kind))
        nonempty = 0
        for _ in range(20):
            m = int(rng.integers(1, 5))
            a = rng.normal(size=(m + int(rng.integers(1, 5)), m))
            b = rng.normal(size=len(a)) + 1.0
            if kind == "degenerate":  # lattice rows: many rows meet at each vertex
                m = 4
                a = rng.integers(-1, 2, size=(m + int(rng.integers(2, 8)), m)).astype(float)
                a = np.vstack([a[np.abs(a).sum(axis=1) > 0], np.eye(m)])
                b = rng.integers(0, 3, size=len(a)).astype(float)
            elif kind == "duplicate":  # repeat some rows, one of them rescaled
                idx = rng.integers(0, len(a), size=2)
                a, b = np.vstack([a, a[idx], 2.0 * a[idx[:1]]]), np.r_[b, b[idx], 2.0 * b[idx[:1]]]
            elif kind == "near_parallel":
                a, b = np.vstack([a, a[:1] + 1e-4 * rng.normal(size=m)]), np.r_[b, b[:1]]
            elif kind == "unbounded":  # every row nondecreasing along d
                d = rng.normal(size=m)
                a *= np.where(a @ d < 0, -1.0, 1.0)[:, None]
            elif kind == "cone":
                b = np.zeros(len(a))
            h = PolyhedronH(a=a, b=b, num_eigen=len(a))
            v = dd_vrep(h)
            want_v, want_r = row_subset_vrep(h)
            if want_v.shape[0] == 0:
                assert v.is_empty
                continue
            nonempty += 1
            for got, want in ((v.vertices, want_v), (v.rays, want_r)):
                assert got.shape == want.shape
                for p in got:
                    assert np.min(np.max(np.abs(want - p), axis=1)) <= 1e-7
            if kind == "unbounded":
                assert v.rays.shape[0] > 0
        assert nonempty >= 10

    def test_minimality_no_redundant_generators(self, ex1_gd):
        v = ex1_gd.v
        # no vertex is a convex combination of the others plus rays
        for i in range(v.vertices.shape[0]):
            others = np.delete(v.vertices, i, axis=0)
            nv, nr = others.shape[0], v.rays.shape[0]
            A_eq = np.vstack(
                [
                    np.hstack([others.T, v.rays.T if nr else np.zeros((2, 0))]),
                    np.hstack([np.ones(nv), np.zeros(nr)]),
                ]
            )
            res = linprog(
                np.zeros(nv + nr), A_eq=A_eq, b_eq=np.concatenate([v.vertices[i], [1.0]]),
                method="highs",
            )
            assert not res.success


# The multiplier sets of the small instances and the gamma* problems, the
# lifted polyhedra of the gamma* oracle, the random roundtrip polyhedra, and
# rows that leave the whole plane or nothing.
DD_CASES = {
    "whole-plane": lambda: poly(([0.0, 0.0], 1.0), ([0.0, 0.0], 0.0)),
    "empty": lambda: poly(([0.0, 0.0], -1.0), ([1.0, 0.0], 0.0)),
    **{f"small-{k}": (lambda f=f: build_gamma_data(f()).h) for k, f in SMALL_INSTANCES.items()},
    **{f"gamma-star-{k}": (lambda f=f: build_gamma_data(f()).h) for k, f in GAMMA_STAR_CASES.items()},
    **{f"lifted-{k}": (lambda f=f: lifted(build_gamma_data(f()).h)) for k, f in GAMMA_STAR_CASES.items()},
    **{
        f"roundtrip-{m}-{seed}-{variant}": (
            lambda m=m, seed=seed, variant=variant: with_variant(random_poly(np.random.default_rng(seed), m), variant)
        )
        for m, seed, variant in ROUNDTRIP_CASES
    },
}


class TestDdBookkeeping:
    """``dd_vrep``'s one rounding key, without a point-dedup pass, against
    the loops of ``dd_oracle``."""

    @pytest.mark.parametrize("case", list(DD_CASES))
    def test_vrep_matches_loop_oracle_byte_for_byte(self, case):
        h = DD_CASES[case]()
        new, old = dd_vrep(h), dd_oracle.dd_vrep(h)
        for got, want in ((new.vertices, old.vertices), (new.rays, old.rays)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            # no two generators of a kind within 1e-9 of each other
            gaps = np.abs(got[:, None] - got[None]).max(axis=2, initial=0.0)
            assert np.all(gaps[np.triu_indices(len(got), 1)] > 1e-9)

    def test_order_treats_negative_zero_as_zero_and_is_stable(self):
        # Rows 0-2 share one key ([0, 1]: -0.0 equals 0.0 and 1e-12 rounds
        # to 0) and keep their given order; row 3 sorts on its second entry.
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [1e-12, 1.0], [-0.0, 0.5], [-1.0, 3.0]])
        got = _canonical_order(points)
        assert got.tobytes() == points[[4, 3, 0, 1, 2]].tobytes()
        assert got.tobytes() == dd_oracle._canonical_order(points).tobytes()

    def test_row_dedup_keeps_first_of_equal_keys(self):
        # Rows 1 and 3 repeat row 0 up to the sign of a zero and a 1e-12
        # offset; row 4 is constant.
        a = [[1.0, 0.0], [1.0, -0.0], [0.0, 1.0], [1.0, 1e-12], [0.0, 0.0]]
        h = PolyhedronH(a=a, b=[0.0, -0.0, 1.0, 0.0, 1.0], num_eigen=5)
        assert _dedup_rows(h).tolist() == [0, 2]
        assert dd_oracle._dedup_rows(h).tolist() == [0, 2]


def eigen_margin(gd) -> float:
    """The smallest eigenvalue row at gamma*."""
    k = gd.h.num_eigen
    return float(np.min(gd.h.a[:k] @ gd.gamma_star + gd.h.b[:k]))


class TestFindGammaStar:
    """gamma* is the whitening multiplier, where every eigenvalue row is 1."""

    def test_example1(self, ex1_gd):
        assert np.allclose(ex1_gd.gamma_star, [0.0, 0.0], atol=1e-9)
        assert eigen_margin(ex1_gd) == pytest.approx(1.0, abs=1e-9)

    def test_no_interior_point(self):
        # A_0 indefinite and nothing can fix coordinate 2: no definite
        # multiplier, so no interior witness either
        p = Qcqp(
            QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
            (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), -1.0),),
            1,
            0,
        )
        with pytest.raises(NoInteriorPoint):
            build_gamma_data(p)

    def test_interval(self):
        gd = build_gamma_data(diag_problem([1.0, 1.0], [[1.0, -1.0]], num_ineq=1))
        assert np.allclose(gd.gamma_star, [0.0], atol=1e-9)
        assert eigen_margin(gd) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("case", list(GAMMA_STAR_CASES))
    def test_matches_lifted_dd_oracle(self, case):
        gd = build_gamma_data(GAMMA_STAR_CASES[case]())
        h, gamma = gd.h, gd.gamma_star
        best, maximizers = lifted_dd_gamma_star(h)
        assert eigen_margin(gd) == pytest.approx(best, abs=1e-9)
        vals = h.a @ gamma + h.b
        assert np.all(vals[h.num_eigen :] >= -1e-9)
        if len(maximizers) == 1:
            assert np.max(np.abs(gamma - maximizers[0])) <= 1e-9
        if case.startswith("barvinok"):
            assert np.any(gamma != 0.0)  # the whitening multiplier is not 0 here


class TestOptimalFace:
    @pytest.mark.parametrize(
        "x,sup,n_verts",
        [((0.0, 0.0), 0.0, 1), ((4.0, 2.0), 67.0, 1), ((3.0, 2.0), 43.0, 2)],
    )
    def test_example1_points(self, ex1, ex1_gd, x, sup, n_verts):
        res = optimal_face(ex1_gd.v, ex1, np.array(x), ex1_gd.h)
        assert res is not None
        got_sup, face = res
        assert got_sup == pytest.approx(sup, abs=1e-9)
        assert len(split_ids(face.generator_ids, ex1_gd.v)[0]) == n_verts

    def test_matches_generator_scan(self, ex1, ex1_gd):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=2) * 3
            res = optimal_face(ex1_gd.v, ex1, x, ex1_gd.h)
            vals = [
                eval_quadratic(ex1.objective, x) + g @ stack_values(ex1, x)[1:]
                for g in ex1_gd.v.vertices
            ]
            assert res[0] == pytest.approx(max(vals), abs=1e-9)
            for vid in split_ids(res[1].generator_ids, ex1_gd.v)[0]:
                assert vals[vid] == pytest.approx(res[0], abs=1e-6)

    @pytest.mark.parametrize(
        "make",
        [example1, lambda: quadratic_matrix_program(2, 3, 2, seed=1), lambda: swiss_cheese(3, 1, 1, 1, 3)],
    )
    def test_is_an_enumerated_face(self, make):
        p = make()
        gd = build_gamma_data(p)
        faces = {f.generator_ids: f for f in oracle_faces(gd.h, gd.v)}
        rng = np.random.default_rng(5)
        found = 0
        # Integer points tie generators, so faces past single vertices come
        # up; a bounded sup is rare on swisscheese.
        for _ in range(3000):
            res = optimal_face(gd.v, p, rng.integers(-3, 4, size=p.dim).astype(float), gd.h)
            if res is None:
                continue
            face = res[1]
            f = faces[face.generator_ids]
            assert (face.active_rows, face.aff_dim, face.dead) == (f.active_rows, f.aff_dim, f.dead)
            assert np.array_equal(face.generators, f.generators)
            vertex_ids, ray_ids = split_ids(face.generator_ids, gd.v)
            assert np.array_equal(face.vertices, gd.v.vertices[list(vertex_ids)])
            assert np.array_equal(face.rays, gd.v.rays[list(ray_ids)])
            found += 1
            if found == 20:
                break
        assert found == 20

    def test_unbounded_direction(self):
        # maximizing along a ray with positive functional value
        p = diag_problem([1.0, 1.0], [[1.0, 0.0]], num_ineq=1)
        p = Qcqp(
            p.objective,
            (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), 1.0),),  # q_1 = x_1^2 + 1 > 0
            1,
            0,
        )
        gd = build_gamma_data(p)
        assert optimal_face(gd.v, p, np.array([2.0, 0.0]), gd.h) is None


def _dead_basis(gd, face):
    """Orthonormal basis of a face's shared zero eigenspace."""
    return np.linalg.qr(gd.sd.basis[:, face.dead])[0]


class TestClassifyFace:
    """A face is definite when no eigenvalue row is active on it; dim V
    counts its active eigenvalue rows."""

    def test_example1_vertex_faces(self, ex1, ex1_gd):
        sup, f00 = optimal_face(ex1_gd.v, ex1, np.zeros(2), ex1_gd.h)
        assert f00.definite
        assert np.allclose(f00.relint_point(), [0.0, 0.0], atol=1e-9)

        sup, f10 = optimal_face(ex1_gd.v, ex1, np.array([4.0, 2.0]), ex1_gd.h)
        assert not f10.definite
        assert f10.dim_v == 1
        assert np.allclose(np.abs(_dead_basis(ex1_gd, f10)[:, 0]), [0.0, 1.0], atol=1e-9)
        assert b_aff_dim(f10, ex1) == 0

    def test_example1_full_face_definite(self, ex1, ex1_gd):
        faces = oracle_faces(ex1_gd.h, ex1_gd.v)
        full = [f for f in faces if f.aff_dim == 2]
        assert len(full) == 1
        assert full[0].definite
        _, records = semidefinite_faces(ex1_gd.h, ex1_gd.v, ex1)
        assert all(aff_dim < 2 for _, aff_dim, _, _ in records)

    def test_witness_and_nullspace_properties(self):
        # qmp seed 0 has no semidefinite face; seeds 1 and 2 have 3 and 5
        problems = [
            example1(),
            quadratic_matrix_program(2, 3, 2, seed=1),
            quadratic_matrix_program(2, 3, 2, seed=2),
            swiss_cheese(20, 2, 2, 2, 0),
        ]
        for p in problems:
            gd = build_gamma_data(p)
            faces = oracle_faces(gd.h, gd.v)
            assert any(not f.definite for f in faces)
            for f in faces:
                gamma_bar = f.relint_point()
                A_bar = p.A[0] + np.tensordot(gamma_bar, p.A[1:], 1)
                # classify A_bar by its smallest eigenvalue against
                # PSD_TOL * max(1, max|A_bar|)
                zero_tol = PSD_TOL * max(1.0, np.max(np.abs(A_bar)))
                eigs = _eig(A_bar)[0]
                if f.definite:
                    assert eigs[0] > zero_tol
                else:
                    assert abs(eigs[0]) <= zero_tol
                    # dim V is the number of zero eigenvalues under that tolerance
                    assert f.dim_v == np.count_nonzero(np.abs(eigs) <= zero_tol)
                    assert np.max(np.abs(A_bar @ _dead_basis(gd, f))) <= 1e-8

    def test_full_dimension_implies_definite(self):
        # every face with aff_dim = m is definite
        for seed in range(4):
            p = gtrs(3, seed)
            gd = build_gamma_data(p)
            for f in oracle_faces(gd.h, gd.v):
                if f.aff_dim == p.num_constraints:
                    assert f.definite
            _, records = semidefinite_faces(gd.h, gd.v, p)
            assert all(aff_dim < p.num_constraints for _, aff_dim, _, _ in records)

    def test_kron_instances_have_thick_nullspaces(self):
        # semidefinite faces of block-structured instances have dim V >= k
        for seed in range(4):
            p = quadratic_matrix_program(2, 3, 2, seed=seed)
            gd = build_gamma_data(p)
            for f in oracle_faces(gd.h, gd.v):
                if not f.definite:
                    assert f.dim_v >= 3
            _, records = semidefinite_faces(gd.h, gd.v, p)
            assert all(dim_v >= 3 for _, _, dim_v, _ in records)


class TestEnumerateFaces:
    """``_closed_faces`` finds every nonempty face once."""

    def test_example1_has_eight_faces(self, ex1, ex1_gd):
        faces = closed_faces(ex1_gd.h, ex1_gd.v)
        assert len(faces) == 8
        sigs = {(vertex_ids, ray_ids) for vertex_ids, ray_ids, _ in faces}
        assert len(sigs) == 8
        # the segment between the two non-origin vertices is not a face
        idx = {tuple(np.round(v, 6)): i for i, v in enumerate(ex1_gd.v.vertices)}
        v10, v01 = idx[(1.0, 0.0)], idx[(0.0, 1.0)]
        assert (tuple(sorted((v10, v01))), ()) not in sigs
        assert semidefinite_faces(ex1_gd.h, ex1_gd.v, ex1)[0] == 8

    def test_single_point(self):
        h = poly(([1.0], 0.0), ([-1.0], 0.0))
        assert closed_faces(h, dd_vrep(h)) == [((0,), (), (0, 1))]

    def test_halfline(self):
        h = poly(([1.0], 0.0))
        v = dd_vrep(h)
        # the vertex, on the row, and the half-line itself
        assert sorted(closed_faces(h, v)) == [((0,), (), (0,)), ((0,), (0,), ())]
        assert sorted(f.aff_dim for f in oracle_faces(h, v)) == [0, 1]

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_row_subset_oracle(self, case):
        h, v = ORACLE_CASES[case]()
        want = [(vertex_ids, ray_ids, active) for _, vertex_ids, ray_ids, active in row_subset_faces(h, v)]
        assert sorted(closed_faces(h, v)) == sorted(want)

    def test_guard(self):
        # 21 rows tangent to the unit circle: 21 facets, so 21 cuts
        angles = 2.0 * np.pi * np.arange(21) / 21
        h = poly(*(((np.cos(t), np.sin(t)), 1.0) for t in angles))
        with pytest.raises(GuardExceeded):
            _closed_faces(h, dd_vrep(h))
        # 21 random rows with only 6 facets pass: 6 vertices, 6 edges, the polygon
        rng = np.random.default_rng(0)
        h = poly(*((rng.normal(size=2), 1.0) for _ in range(21)))
        assert len(closed_faces(h, dd_vrep(h))) == 13


class TestDefiniteMultiplier:
    def test_zero_works_when_objective_definite(self, ex1):
        assert np.allclose(_definite_multiplier(ex1)[0], [0.0, 0.0])

    def test_search_finds_ball_multiplier(self):
        # objective -|x|^2 needs the ball multiplier to reach definiteness
        n = 3
        p = Qcqp(
            QuadraticFn(-np.eye(n), np.zeros(n), 0.0),
            (QuadraticFn(np.eye(n), np.zeros(n), -1.0),),
            1,
            0,
        )
        gamma, _ = _definite_multiplier(p)
        assert gamma[0] > 1.0

    def test_impossible_family(self):
        # A_0 indefinite, nothing can fix coordinate 2
        p = Qcqp(
            QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
            (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), -1.0),),
            1,
            0,
        )
        assert _definite_multiplier(p) is None

    def test_margin_capped_at_hessian_scale(self):
        # A_0 negative definite and a ball constraint, so any large gamma_1
        # is definite; and barvinok forms, where the capped LP optimum
        # reaches out to the multiplier bound.  Either way lambda_min stays
        # near the scale instead of growing with the multiplier bound.
        problems = [barvinok_random(3, 1, seed) for seed in range(5)]
        for seed in range(10):
            rng = np.random.default_rng(seed)
            S, T = (0.5 * (M + M.T) for M in rng.normal(size=(2, 4, 4)))
            A0 = S - (np.linalg.eigvalsh(S)[-1] + 1.0) * np.eye(4)
            q0 = QuadraticFn(A0, rng.normal(size=4), 0.0)
            ball = QuadraticFn(np.eye(4), np.zeros(4), -1.0)
            problems.append(Qcqp(q0, (ball, QuadraticFn(T, rng.normal(size=4), -1.0)), 1, 1))
        for p in problems:
            gamma, _ = _definite_multiplier(p)
            scale = max(1.0, float(np.max(np.abs(p.A))))
            lam = np.linalg.eigvalsh(p.A[0] + np.tensordot(gamma, p.A[1:], 1))[0]
            assert 0.0 < lam <= 2.0 * scale


def scalar_rank(M, tol=RANK_TOL):
    """The one-matrix rank rule: singular values above tol * max(1, s_max)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    s = np.linalg.svd(M, compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


class TestStackedRanks:
    def assert_slices_match(self, stack):
        ranks = _ranks(stack)
        assert ranks.shape == stack.shape[:-2]
        assert ranks.tolist() == [scalar_rank(M) for M in stack]

    def test_empty_stacks(self):
        for shape in [(0, 3, 4), (0, 0, 4), (3, 0, 4), (3, 2, 0)]:
            self.assert_slices_match(np.zeros(shape))

    def test_single_vertex_faces_have_no_direction_rows(self):
        vertices = np.column_stack([np.ones(5), np.arange(15.0).reshape(5, 3)])[:, None, :]
        directions = _directions(vertices)
        assert directions.shape == (5, 0, 4)
        assert _ranks(directions).tolist() == [0] * 5

    def test_zero_matrices(self):
        self.assert_slices_match(np.zeros((2, 3, 3)))

    def test_rank_deficient_and_mixed_magnitude_slices(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=(2, 5))
        big = 1e12 * np.eye(5)
        big[4, 4] = 1e-2  # below 1e-9 relative to the largest singular value
        stack = np.array([
            rng.normal(size=(5, 5)),
            np.outer(u, v),
            np.outer(u, v) + np.outer(v, u),
            1e-12 * rng.normal(size=(5, 5)),  # below the absolute floor of 1
            big,
            np.diag([1.0, 1e-3, 1e-8, 2e-10, 0.0]),
        ])
        self.assert_slices_match(stack)
        assert _ranks(stack).tolist() == [5, 1, 2, 0, 4, 3]

    def test_rays_vertices_and_lineality(self):
        # Two faces of four generators each: two vertices and an opposite
        # ray pair (a lineality direction), and three collinear vertices
        # with a ray along their line.
        faces = np.array([
            [[1, 0, 0], [1, 1, 0], [0, 0, 1], [0, 0, -1]],
            [[1, 0, 0], [1, 1, 0], [1, 2, 0], [0, 1, 0]],
        ], dtype=float)
        directions = _directions(faces)
        assert _ranks(directions).tolist() == [2, 1]
        for stacked, face in zip(directions, faces):
            assert np.array_equal(stacked, _directions(face))
            assert _ranks(stacked[None]).tolist() == [scalar_rank(_directions(face))]

    def test_initial_basis_rows_keeps_its_tolerance(self):
        # Row 1 leaves row 0 by 5e-10: independent under 1e-10, not under RANK_TOL.
        B = np.array([[1.0, 0.0], [1.0, 5e-10], [0.0, 1.0]])
        assert scalar_rank(B[:2], tol=1e-10) == 2 and scalar_rank(B[:2]) == 1
        assert _initial_basis_rows(B, 2) == [0, 1]


def _lattice(m, seed):
    m1 = -(-m // 3)
    m2 = -(-(m - m1) // 2)
    return swiss_cheese(20, m1, m2, m - m1 - m2, seed)


STACKED_FACE_CASES = {
    **SMALL_INSTANCES,
    **{f"lattice-20-{m}-{s}": (lambda m=m, s=s: _lattice(m, s)) for m in (6, 7, 8) for s in (0, 1)},
}


@pytest.mark.parametrize("case", list(STACKED_FACE_CASES))
def test_stacked_faces_match_per_face_path(case):
    """``check_conditions`` ranks only the semidefinite faces: its face
    count is the oracle's, and its ordered records are the oracle's faces
    with an active eigenvalue row, each ranked on its own: aff_dim and
    b_aff_dim are the ranks of one direction matrix, dim_v the count of
    its active eigenvalue rows."""
    p = STACKED_FACE_CASES[case]()
    gd = build_gamma_data(p)
    faces = oracle_faces(gd.h, gd.v)
    semidef = [f for f in faces if not f.definite]
    for f in semidef:
        assert f.aff_dim == scalar_rank(_directions(f.generators))
        assert b_aff_dim(f, p) == scalar_rank(_directions(f.generators) @ p.b)
    report = check_conditions(p, gd)
    assert report.num_faces == len(faces)
    records = [(r.active_rows, r.aff_dim, r.dim_v, r.b_aff_dim) for r in report.semidefinite_faces]
    assert records == [(f.active_rows, f.aff_dim, f.dim_v, b_aff_dim(f, p)) for f in semidef]
