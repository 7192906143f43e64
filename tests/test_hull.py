import json
import math

import numpy as np
import pytest

from conftest import LINEAR_EQUALITY, SMALL_INSTANCES
from oracle2d import oracle_agreement
from test_core import STACKED, lagrangian
from qcqp_hull import io
from qcqp_hull.core import (
    EpigraphPoint,
    Qcqp,
    QuadraticFn,
    affine_transform,
    aggregate,
    check_feasible,
    stack_quadratics,
)
from qcqp_hull.errors import NotInDsdp, QcqpHullError
from qcqp_hull.gamma import PolyhedronV, build_gamma_data, optimal_face
from qcqp_hull.generators import example1, gtrs, quadratic_matrix_program, swiss_cheese
from qcqp_hull.hull import (
    DROP_TOL,
    ConvexCombination,
    SocDescription,
    decompose,
    dsdp_membership,
    soc_description,
    verify_certificate,
)

SQRT11 = math.sqrt(11.0)


def sample_relaxed_points(p, gd, count, rng, box=3.0, spread=2.0):
    """Points of the relaxed epigraph: x in a box, 2t = sup + |noise|."""
    pts = []
    while len(pts) < count:
        x = rng.uniform(-box, box, size=p.dim)
        res = optimal_face(gd.v, p, x, gd.h)
        if res is None:
            continue
        sup, _ = res
        pts.append(EpigraphPoint(x, 0.5 * (sup + abs(rng.uniform(0.0, spread)))))
    return pts


class TestSocDescription:
    def test_example1_constraints(self, ex1, ex1_soc):
        assert len(ex1_soc.epigraph) == 3
        assert len(ex1_soc.homogeneous) == 0  # the ray reduces to -55/sqrt(2) <= 0
        expected = [
            (np.eye(2), [5.0, 0.0], 0.0),
            (np.diag([2.0, 0.0]), [5.0, 0.0], -5.0),
            (np.diag([0.0, 2.0]), [5.0, 0.0], -50.0),
        ]
        unmatched = list(ex1_soc.epigraph)
        for A, b, c in expected:
            hit = [
                k
                for k in unmatched
                if np.max(np.abs(ex1_soc.A[k] - A)) <= 1e-12
                and np.max(np.abs(ex1_soc.b[k] - b)) <= 1e-12
                and abs(ex1_soc.c[k] - c) <= 1e-12
            ]
            assert len(hit) == 1, f"constraint with constant {c} not matched within 1e-12"
            unmatched.remove(hit[0])
        assert not unmatched

    def test_point_polyhedron_gives_objective_epigraph(self):
        p = Qcqp(
            QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            (QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),),
            0,
            1,  # equality: gamma bounded to the single point 0... interval [-1, 1]
        )
        # actually gamma ranges over [-1, 1]; use a forced singleton instead:
        p = Qcqp(
            QuadraticFn(np.eye(1), np.zeros(1), 0.0),
            (QuadraticFn(np.eye(1), np.zeros(1), 0.0),),
            0,
            1,
        )
        gd = build_gamma_data(p)
        # gamma in [-1, inf) for 1 + gamma >= 0; not a point. Narrow explicitly:
        from qcqp_hull.gamma import PolyhedronV

        v = PolyhedronV(vertices=np.zeros((1, 1)), rays=np.zeros((0, 1)))
        soc = soc_description(v, p)
        assert len(soc.epigraph) == 1 and len(soc.homogeneous) == 0
        assert np.allclose(soc.A[0], p.objective.A) and soc.c[0] == p.objective.c

    def test_interval_two_epigraph_constraints(self):
        p = Qcqp(
            QuadraticFn(np.eye(2), np.array([1.0, 0.0]), 0.0),
            (QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), -2.0),),
            1,
            0,
        )
        gd = build_gamma_data(p)
        soc = soc_description(gd.v, p)
        assert len(soc.epigraph) == 2 and len(soc.homogeneous) == 0
        consts = sorted(soc.c[soc.epigraph])
        assert consts == [pytest.approx(-2.0), pytest.approx(0.0)]

    def test_ray_constraint_kept_when_nonconstant(self):
        # single convex constraint: gamma ray [0, inf) keeps q_1 <= 0
        p = Qcqp(
            QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            (QuadraticFn(np.eye(2), np.zeros(2), -1.0),),
            1,
            0,
        )
        gd = build_gamma_data(p)
        soc = soc_description(gd.v, p)
        assert len(soc.homogeneous) == 1
        h = soc.homogeneous[0]
        assert np.allclose(soc.A[h], np.eye(2)) and soc.c[h] == pytest.approx(-1.0)

    @pytest.mark.parametrize(
        "vertex,rays,label",
        [
            ((3.0, 0.0), np.zeros((0, 2)), "epigraph"),  # A = diag(4, -2)
            ((0.0, 0.0), np.array([[1.0, 0.0]]), "homogeneous"),  # A = diag(1, -1)
        ],
    )
    def test_indefinite_hessian_rejected(self, ex1, vertex, rays, label):
        v = PolyhedronV(vertices=np.array([vertex]), rays=rays)
        with pytest.raises(QcqpHullError, match=f"^{label} hull constraint has an indefinite Hessian"):
            soc_description(v, ex1)

    @pytest.mark.parametrize("family", sorted(STACKED))
    def test_rows_match_per_generator_aggregates(self, family):
        # oracle: lagrangian per vertex, the ray-weighted constraint sum per
        # ray unless it is identically true
        p = STACKED[family]()
        v = build_gamma_data(p).v
        soc = soc_description(v, p)
        want = [lagrangian(p, g) for g in v.vertices]
        for g in v.rays:
            h = QuadraticFn(*aggregate(p, np.concatenate([[0.0], g])))
            if max(np.max(np.abs(h.A)), np.max(np.abs(h.b)), h.c) > DROP_TOL:
                want.append(h)
        assert (len(soc.epigraph), len(soc.homogeneous)) == (len(v.vertices), len(want) - len(v.vertices))
        assert len(soc.c) == len(want)
        for k, q in enumerate(want):
            scale = max(1.0, np.max(np.abs(q.A)), np.max(np.abs(q.b)), abs(q.c))
            err = max(np.max(np.abs(soc.A[k] - q.A)), np.max(np.abs(soc.b[k] - q.b)), abs(soc.c[k] - q.c))
            assert err <= 1e-12 * scale

    @pytest.mark.parametrize("name", [*sorted(SMALL_INSTANCES), "linear-equality"])
    def test_stacks_match_per_row_quadratics(self, name):
        # The description as it was once built: one QuadraticFn per kept
        # generator row, restacked.  The stacks must match byte for byte.
        p = LINEAR_EQUALITY if name == "linear-equality" else SMALL_INSTANCES[name]()
        v = build_gamma_data(p).v
        A, b, c = aggregate(p, v.generators)
        nv = len(v.vertices)
        kept = [k for k in range(len(c)) if k < nv or max(np.abs(A[k]).max(), np.abs(b[k]).max(), c[k]) > DROP_TOL]
        want = stack_quadratics([QuadraticFn(A[k], b[k], c[k]) for k in kept])
        soc = soc_description(v, p)
        assert soc.num_epigraph == nv
        for got, w in zip((soc.A, soc.b, soc.c), want):
            assert got.tobytes() == w.tobytes()
        if name == "example1":  # its ray row is the constant -55/sqrt(2)
            assert (len(c), len(kept)) == (4, 3)
        if name == "linear-equality":  # the lineality pair h <= 0, -h <= 0
            assert len(soc.homogeneous) == 3
            assert np.array_equal(soc.b[1], -soc.b[2]) and soc.c[1] == -soc.c[2]

    def test_stack_is_a_symmetrized_read_only_copy(self):
        A, b, c = np.array([[[1.0, 2.0], [0.0, 1.0]]]), np.zeros((1, 2)), np.zeros(1)
        soc = SocDescription(A, b, c, 1)
        assert soc.A.tolist() == [[[1.0, 1.0], [1.0, 1.0]]]
        assert not any(getattr(soc, name).flags.writeable for name in "Abc")
        assert A.flags.writeable and b.flags.writeable and c.flags.writeable
        assert (soc.epigraph, soc.homogeneous, soc.dim) == (range(0, 1), range(1, 1), 2)

    @pytest.mark.parametrize("name", ["A", "b", "c"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_stack_refuses_nonfinite_entries(self, ex1_soc, name, value):
        stacks = {key: np.array(getattr(ex1_soc, key)) for key in "Abc"}
        stacks[name].flat[-1] = value
        with pytest.raises(ValueError, match="must be finite"):
            SocDescription(**stacks, num_epigraph=ex1_soc.num_epigraph)

    def test_stack_refuses_mismatched_shapes(self):
        A, b, c = np.zeros((2, 3, 3)), np.zeros((2, 3)), np.zeros(2)
        for args in [
            (A[:, :, :2], b, c),  # A[k] not square
            (A[0], b, c),  # no stack axis
            (A, b[:, :2], c),
            (A, b[:1], c),
            (A, b, c[:1]),
            (A, b, c[:, None]),
        ]:
            with pytest.raises(ValueError, match="stack shapes"):
                SocDescription(*args, num_epigraph=1)
        for ne in (-1, 3):
            with pytest.raises(ValueError, match="num_epigraph"):
                SocDescription(A, b, c, ne)
        for ne in (1.5, 1.0, "1"):  # a row count is an integer
            with pytest.raises(TypeError):
                SocDescription(A, b, c, ne)
        assert SocDescription(A, b, c, np.int64(1)).homogeneous == range(1, 2)


class TestMembership:
    def test_example1_points(self, ex1_soc):
        inside, worst = dsdp_membership(ex1_soc, EpigraphPoint([0.0, 0.0], 0.0))
        assert inside and worst == pytest.approx(0.0, abs=1e-12)
        inside, worst = dsdp_membership(ex1_soc, EpigraphPoint([4.0, 2.0], 33.5))
        assert inside and worst == pytest.approx(0.0, abs=1e-9)
        inside, worst = dsdp_membership(ex1_soc, EpigraphPoint([4.0, 2.0], 33.0))
        assert not inside and worst == pytest.approx(1.0, abs=1e-9)

    def test_point_of_another_length_refused(self, ex1, ex1_gd, ex1_soc):
        # decompose tests membership first, so it raises the same error.
        pt = EpigraphPoint([1.0, 2.0, 3.0], 0.0)
        with pytest.raises(ValueError, match="x has length 3, expected 2"):
            dsdp_membership(ex1_soc, pt)
        with pytest.raises(ValueError, match="x has length 3, expected 2"):
            decompose(ex1, ex1_gd, pt)


class TestDecompose:
    def test_singleton_at_definite_face(self, ex1, ex1_gd):
        comb = decompose(ex1, ex1_gd, EpigraphPoint([0.0, 0.0], 0.0))
        assert len(comb.points) == 1
        assert comb.weights[0] == pytest.approx(1.0)
        assert comb.trace == ()

    def test_two_point_split(self, ex1, ex1_gd):
        target = EpigraphPoint([4.0, 2.0], 33.5)
        comb = decompose(ex1, ex1_gd, target)
        assert len(comb.points) == 2
        (p_plus, p_minus) = comb.points
        assert np.allclose(p_plus.x, [4.0, SQRT11], atol=1e-8)
        assert np.allclose(p_minus.x, [4.0, -SQRT11], atol=1e-8)
        assert p_plus.t == pytest.approx(33.5, abs=1e-8)
        w_plus = (2 + SQRT11) / (2 * SQRT11)
        assert comb.weights[0] == pytest.approx(w_plus, abs=1e-8)
        assert comb.weights[1] == pytest.approx(1 - w_plus, abs=1e-8)
        # both points sit exactly on the first constraint boundary
        for pt in comb.points:
            assert pt.x[0] ** 2 - pt.x[1] ** 2 - 5 == pytest.approx(0.0, abs=1e-8)
        assert verify_certificate(ex1, comb, target)

    def test_surplus_lift(self, ex1, ex1_gd):
        base = decompose(ex1, ex1_gd, EpigraphPoint([4.0, 2.0], 33.5))
        lifted = decompose(ex1, ex1_gd, EpigraphPoint([4.0, 2.0], 38.5))
        assert np.allclose(lifted.weights, base.weights)
        for a, b in zip(lifted.points, base.points):
            assert np.allclose(a.x, b.x)
            assert a.t == pytest.approx(b.t + 5.0)

    def test_outside_point_rejected(self, ex1, ex1_gd):
        with pytest.raises(NotInDsdp):
            decompose(ex1, ex1_gd, EpigraphPoint([4.0, 2.0], 33.0))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("angle,x0", [(0.0, (4.0, 2.0)), (0.3, (4.0, 0.0)), (1.0, (4.0, 0.0))])
    def test_split_invariant_under_rescaling_x(self, ex1, angle, x0, scale):
        # y = U x with U a scaled rotation leaves every q value alone but
        # scales step lengths; at (4, 0) every generator's slope along v
        # vanishes, and after a rotation the optimal face's own rows are
        # roundoff rather than zero
        c, s = np.cos(angle), np.sin(angle)
        U = scale * np.array([[c, -s], [s, c]])
        p = affine_transform(ex1, U, np.zeros(2))
        target = EpigraphPoint(U @ np.array(x0), 33.5)
        comb = decompose(p, build_gamma_data(p), target)
        assert len(comb.points) == 2
        assert verify_certificate(p, comb, target)

    @pytest.mark.parametrize(
        "maker,seed",
        [
            (lambda s: gtrs(2, s), 0),
            (lambda s: gtrs(4, s), 1),
            (lambda s: quadratic_matrix_program(2, 3, 2, s), 2),
            (lambda s: swiss_cheese(3, 1, 1, 1, s), 3),
            (lambda s: example1(), 4),
        ],
    )
    def test_soundness_on_generated_instances(self, maker, seed):
        p = maker(seed)
        gd = build_gamma_data(p)
        soc = soc_description(gd.v, p)
        rng = np.random.default_rng(seed + 100)
        for pt in sample_relaxed_points(p, gd, 20, rng):
            comb = decompose(p, gd, pt, soc=soc)
            assert verify_certificate(p, comb, pt, tol=1e-8)
            # strict face growth along every recorded split
            for rec in comb.trace:
                assert all(ch > rec["aff_dim"] for ch in rec["child_aff_dims"])
                assert rec["depth"] <= p.num_constraints - 1
            # hull sandwich: certificate points are true epigraph points
            for cpt in comb.points:
                assert check_feasible(p, cpt, tol=1e-8).feasible


class TestVerifyCertificate:
    def test_negated_weight_fails(self, ex1, ex1_gd):
        target = EpigraphPoint([4.0, 2.0], 33.5)
        comb = decompose(ex1, ex1_gd, target)
        bad = ConvexCombination(
            points=comb.points, weights=comb.weights * np.array([1.0, -1.0]), trace=comb.trace
        )
        assert not verify_certificate(ex1, bad, target)

    def test_violating_point_fails(self, ex1, ex1_gd):
        target = EpigraphPoint([4.0, 2.0], 33.5)
        comb = decompose(ex1, ex1_gd, target)
        moved = (
            EpigraphPoint(comb.points[0].x + np.array([0.2, 0.0]), comb.points[0].t),
            comb.points[1],
        )
        bad = ConvexCombination(points=moved, weights=comb.weights, trace=comb.trace)
        assert not verify_certificate(ex1, bad, target)

    def test_wrong_reconstruction_fails(self, ex1, ex1_gd):
        target = EpigraphPoint([4.0, 2.0], 33.5)
        comb = decompose(ex1, ex1_gd, target)
        assert not verify_certificate(ex1, comb, EpigraphPoint([4.0, 2.1], 33.5))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 1.0]])
    def test_nonfinite_weights_fail(self, tmp_path, ex1, ex1_gd, weights):
        # NaN passes no comparison, so NaN weights once verified against any target
        comb = decompose(ex1, ex1_gd, EpigraphPoint([4.0, 2.0], 33.5))
        bad = ConvexCombination(points=comb.points, weights=np.array(weights), trace=comb.trace)
        target = EpigraphPoint([-3.0, 1.0], 100.0)
        assert not verify_certificate(ex1, bad, target)
        path = str(tmp_path / "cert.json")
        io.write_certificate(path, target, bad, 1e-8)
        target, comb, tol = io.read_certificate(path)
        assert not verify_certificate(ex1, comb, target, tol)

    @pytest.mark.parametrize(
        "malform",
        [
            lambda doc: doc.update(weights=[[w] for w in doc["weights"]]),
            lambda doc: doc.update(weights=[doc["weights"]]),
            lambda doc: doc["point"].update(x=[*doc["point"]["x"], 0.0]),
            lambda doc: doc["points"][0].update(x=[*doc["points"][0]["x"], 0.0]),
            lambda doc: [pt.update(x=[*pt["x"], 0.0]) for pt in doc["points"]],
        ],
        ids=["weights-column", "weights-row", "target-x", "one-point-x", "every-point-x"],
    )
    def test_malformed_certificate_fails(self, tmp_path, ex1, ex1_gd, malform):
        # The certificate reader accepts any nesting of weights and any
        # length of x; verification answers False instead of raising.
        target = EpigraphPoint([4.0, 2.0], 33.5)
        path = tmp_path / "cert.json"
        io.write_certificate(str(path), target, decompose(ex1, ex1_gd, target), 1e-8)
        doc = json.loads(path.read_text())
        malform(doc)
        target, comb, tol = io.certificate_from_dict(doc)
        assert verify_certificate(ex1, comb, target, tol) is False


def test_hull_oracle_example1(ex1, ex1_soc):
    rng = np.random.default_rng(42)
    agreement, n = oracle_agreement(
        ex1,
        ex1_soc,
        rng,
        probe_box=[(-3.0, 3.0), (-3.0, 3.0)],
        sample_box=[(-9.0, 9.0), (-9.0, 9.0)],
        resolution=401,
        count=300,
        spread=6.0,
    )
    assert n == 300
    assert agreement >= 0.995
