import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from qcqp_hull.core import Qcqp, QuadraticFn, constraint_values, eval_quadratic
from qcqp_hull.errors import GuardExceeded
from qcqp_hull.gamma import (
    FACE_TOL,
    HRow,
    PolyhedronH,
    build_gamma,
    build_gamma_data,
    classify_face,
    dd_vrep,
    enumerate_faces,
    find_definite_multiplier,
    find_gamma_star,
    optimal_face,
)
from qcqp_hull.generators import example1, gtrs, quadratic_matrix_program, swiss_cheese
from qcqp_hull.linalg import Definiteness, psd_status, whiten_simdiag


def hrow(a, beta):
    return HRow(a=np.asarray(a, dtype=float), beta=float(beta), kind="eigenvalue", index=0)


def random_rows(rng, m):
    """m + 4 unit rows with the origin strictly inside."""
    rows = []
    for _ in range(m + 4):
        a = rng.normal(size=m)
        a /= np.linalg.norm(a)
        rows.append(hrow(a, abs(rng.normal()) + 0.1))
    return rows


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
    h = PolyhedronH(rows=tuple(random_rows(np.random.default_rng(seed), m)), dim=m)
    return h, dd_vrep(h)


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


def row_subset_faces(h, v, tol=FACE_TOL):
    """Slow oracle: for every set S of rows, the generators active on all
    of S, when that set has a vertex.  Rows with equal generator sets are
    merged first.  Returns sorted (aff_dim, vertex_ids, ray_ids, active_rows)."""
    A = np.array([r.a for r in h.rows], dtype=float).reshape(len(h.rows), h.dim)
    beta = np.array([r.beta for r in h.rows], dtype=float)
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


class TestBuildGamma:
    def test_example1_rows(self, ex1, ex1_gd):
        h = build_gamma(ex1, ex1_gd.sd)
        rows = [(r.a.tolist(), r.beta, r.kind) for r in h.rows]
        assert rows == [
            ([1.0, -1.0], 1.0, "eigenvalue"),
            ([-1.0, 1.0], 1.0, "eigenvalue"),
            ([1.0, 0.0], 0.0, "sign"),
            ([0.0, 1.0], 0.0, "sign"),
        ]

    def test_trivial_rows_for_zero_constraint_hessians(self):
        p = diag_problem([1.0, 2.0], [[0.0, 0.0]], num_ineq=0)
        sd = whiten_simdiag(p, np.zeros(1))
        h = build_gamma(p, sd)
        v = dd_vrep(h)
        # Gamma is the whole line: one representative vertex, both directions.
        assert v.vertices.shape[0] == 1
        assert v.rays.shape[0] == 2
        assert np.allclose(v.rays[0], -v.rays[1])

    def test_interval_single_constraint(self):
        p = diag_problem([1.0, 1.0], [[1.0, -1.0]], num_ineq=1)
        sd = whiten_simdiag(p, np.zeros(1))
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
        h = PolyhedronH(rows=(hrow([1.0], 0.0),), dim=1)
        v = dd_vrep(h)
        assert np.allclose(v.vertices, [[0.0]])
        assert np.allclose(v.rays, [[1.0]])

    def test_infeasible(self):
        h = PolyhedronH(rows=(hrow([1.0], 0.0), hrow([-1.0], -1.0)), dim=1)
        assert dd_vrep(h).is_empty

    def test_single_point(self):
        h = PolyhedronH(rows=(hrow([1.0], 0.0), hrow([-1.0], 0.0)), dim=1)
        v = dd_vrep(h)
        assert np.allclose(v.vertices, [[0.0]])
        assert v.rays.shape[0] == 0

    def test_guard(self):
        h = PolyhedronH(rows=(hrow(np.ones(13), 1.0),), dim=13)
        with pytest.raises(GuardExceeded):
            dd_vrep(h)

    @pytest.mark.parametrize("m,seed", [(2, 0), (3, 1), (4, 2), (3, 3), (4, 4)])
    def test_roundtrip_random(self, m, seed):
        rng = np.random.default_rng(seed)
        rows = random_rows(rng, m)
        h = PolyhedronH(rows=tuple(rows), dim=m)
        v = dd_vrep(h)
        assert not v.is_empty
        A = np.array([r.a for r in rows])
        beta = np.array([r.beta for r in rows])
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


class TestFindGammaStar:
    def test_example1(self, ex1_gd):
        found = find_gamma_star(ex1_gd.h)
        assert found is not None
        gamma, margin = found
        assert np.allclose(gamma, [0.0, 0.0], atol=1e-9)
        assert margin == pytest.approx(1.0, abs=1e-9)

    def test_no_interior_point(self):
        # constant row stuck at -1: no margin is achievable
        h = PolyhedronH(
            rows=(hrow([1.0], 1.0), hrow([0.0], -1.0)), dim=1
        )
        assert find_gamma_star(h) is None

    def test_interval(self):
        p = diag_problem([1.0, 1.0], [[1.0, -1.0]], num_ineq=1)
        sd = whiten_simdiag(p, np.zeros(1))
        found = find_gamma_star(build_gamma(p, sd))
        gamma, margin = found
        assert np.allclose(gamma, [0.0], atol=1e-9)
        assert margin == pytest.approx(1.0, abs=1e-9)


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
        assert len(face.vertex_ids) == n_verts

    def test_matches_generator_scan(self, ex1, ex1_gd):
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.normal(size=2) * 3
            res = optimal_face(ex1_gd.v, ex1, x, ex1_gd.h)
            vals = [
                eval_quadratic(ex1.objective, x) + g @ constraint_values(ex1, x)
                for g in ex1_gd.v.vertices
            ]
            assert res[0] == pytest.approx(max(vals), abs=1e-9)
            for vid in res[1].vertex_ids:
                assert vals[vid] == pytest.approx(res[0], abs=1e-6)

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


class TestClassifyFace:
    def test_example1_vertex_faces(self, ex1, ex1_gd):
        sup, f00 = optimal_face(ex1_gd.v, ex1, np.zeros(2), ex1_gd.h)
        cls = classify_face(f00, ex1, ex1_gd.sd, ex1_gd.h)
        assert cls.definite
        assert np.allclose(cls.witness, [0.0, 0.0], atol=1e-9)

        sup, f10 = optimal_face(ex1_gd.v, ex1, np.array([4.0, 2.0]), ex1_gd.h)
        cls = classify_face(f10, ex1, ex1_gd.sd, ex1_gd.h)
        assert not cls.definite
        assert cls.dim_v == 1
        assert np.allclose(np.abs(cls.basis[:, 0]), [0.0, 1.0], atol=1e-9)
        assert cls.b_aff_dim == 0

    def test_example1_full_face_definite(self, ex1, ex1_gd):
        faces = enumerate_faces(ex1_gd.h, ex1_gd.v)
        full = [f for f in faces if f.aff_dim == 2]
        assert len(full) == 1
        cls = classify_face(full[0], ex1, ex1_gd.sd, ex1_gd.h)
        assert cls.definite

    def test_witness_and_nullspace_properties(self, ex1, ex1_gd):
        for f in enumerate_faces(ex1_gd.h, ex1_gd.v):
            cls = classify_face(f, ex1, ex1_gd.sd, ex1_gd.h)
            gamma_bar = f.relint_point()
            A_bar = ex1.objective.A + sum(
                g * q.A for g, q in zip(gamma_bar, ex1.constraints)
            )
            if cls.definite:
                assert (
                    psd_status(A_bar).tag is Definiteness.POSITIVE_DEFINITE
                )
            else:
                assert cls.dim_v >= 1
                assert np.max(np.abs(A_bar @ cls.basis)) <= 1e-8

    def test_full_dimension_implies_definite(self):
        # every face with aff_dim = m classifies definite
        for seed in range(4):
            p = gtrs(3, seed)
            gd = build_gamma_data(p)
            for f in enumerate_faces(gd.h, gd.v):
                if f.aff_dim == p.num_constraints:
                    assert classify_face(f, p, gd.sd, gd.h).definite

    def test_kron_instances_have_thick_nullspaces(self):
        # semidefinite faces of block-structured instances have dim V >= k
        for seed in range(4):
            p = quadratic_matrix_program(2, 3, 2, seed=seed)
            gd = build_gamma_data(p)
            for f in enumerate_faces(gd.h, gd.v):
                cls = classify_face(f, p, gd.sd, gd.h)
                if not cls.definite:
                    assert cls.dim_v >= 3


class TestEnumerateFaces:
    def test_example1_has_eight_faces(self, ex1_gd):
        faces = enumerate_faces(ex1_gd.h, ex1_gd.v)
        assert len(faces) == 8
        sigs = {(f.vertex_ids, f.ray_ids) for f in faces}
        assert len(sigs) == 8
        # the segment between the two non-origin vertices is not a face
        idx = {tuple(np.round(v, 6)): i for i, v in enumerate(ex1_gd.v.vertices)}
        v10, v01 = idx[(1.0, 0.0)], idx[(0.0, 1.0)]
        assert (tuple(sorted((v10, v01))), ()) not in sigs

    def test_single_point(self):
        h = PolyhedronH(rows=(hrow([1.0], 0.0), hrow([-1.0], 0.0)), dim=1)
        faces = enumerate_faces(h, dd_vrep(h))
        assert len(faces) == 1

    def test_halfline(self):
        h = PolyhedronH(rows=(hrow([1.0], 0.0),), dim=1)
        faces = enumerate_faces(h, dd_vrep(h))
        assert len(faces) == 2
        assert sorted(f.aff_dim for f in faces) == [0, 1]

    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_matches_row_subset_oracle(self, case):
        h, v = ORACLE_CASES[case]()
        got = [(f.aff_dim, f.vertex_ids, f.ray_ids, f.active_rows) for f in enumerate_faces(h, v)]
        assert got == row_subset_faces(h, v)

    def test_guard(self):
        rng = np.random.default_rng(0)
        rows = tuple(hrow(rng.normal(size=2), 1.0) for _ in range(21))
        h = PolyhedronH(rows=rows, dim=2)
        with pytest.raises(GuardExceeded):
            enumerate_faces(h, dd_vrep(h))


class TestDefiniteMultiplier:
    def test_zero_works_when_objective_definite(self, ex1):
        assert np.allclose(find_definite_multiplier(ex1), [0.0, 0.0])

    def test_search_finds_ball_multiplier(self):
        # objective -|x|^2 needs the ball multiplier to reach definiteness
        n = 3
        p = Qcqp(
            QuadraticFn(-np.eye(n), np.zeros(n), 0.0),
            (QuadraticFn(np.eye(n), np.zeros(n), -1.0),),
            1,
            0,
        )
        gamma = find_definite_multiplier(p)
        assert gamma is not None and gamma[0] > 1.0

    def test_impossible_family(self):
        # A_0 indefinite, nothing can fix coordinate 2
        p = Qcqp(
            QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
            (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), -1.0),),
            1,
            0,
        )
        assert find_definite_multiplier(p) is None
