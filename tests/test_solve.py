import math

import numpy as np
import pytest

from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.errors import NoFeasiblePoint
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import gtrs, swiss_cheese
from qcqp_hull.hull import SocDescription, soc_description
from qcqp_hull.solve import brute_force, minimize_soc


def single_epigraph(q):
    return SocDescription(epigraph=(q,), homogeneous=())


class TestMinimizeSoc:
    def test_example1(self, ex1_soc):
        res = minimize_soc(ex1_soc, (-10.0, 10.0), tol=1e-8)
        assert res.status == "converged"
        assert res.value == pytest.approx(-17.5, abs=1e-6)
        assert res.minimizer[0] == pytest.approx(-2.5, abs=1e-6)
        assert abs(res.minimizer[1]) == pytest.approx(math.sqrt(1.25), abs=1e-6)
        assert res.gap <= 1e-4
        # result invariants: the epigraph max is attained at the minimizer
        # and every homogeneous constraint holds there
        from qcqp_hull.core import eval_quadratic

        fx = max(eval_quadratic(g, res.minimizer) for g in ex1_soc.epigraph)
        assert abs(fx - res.value) <= 1e-6
        assert all(eval_quadratic(h, res.minimizer) <= 1e-6 for h in ex1_soc.homogeneous)

    def test_optimal_value_invariant_under_reparametrization(self, ex1):
        # the relaxed optimum is unchanged by an invertible change of variables
        from qcqp_hull.core import affine_transform

        moved = affine_transform(ex1, np.diag([1.0, 2.0]), np.zeros(2))
        gd = build_gamma_data(moved)
        soc = soc_description(gd.v, moved)
        res = minimize_soc(soc, [(-10.0, 10.0), (-20.0, 20.0)], tol=1e-8)
        assert res.value == pytest.approx(-17.5, abs=1e-6)

    def test_single_norm_objective(self):
        q = QuadraticFn(np.eye(3), np.zeros(3), 0.0)
        res = minimize_soc(single_epigraph(q), (-2.0, 2.0))
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(res.minimizer, 0.0, atol=1e-4)

    def test_translated_norm(self):
        a = np.array([0.4, -0.9])
        # |x - a|^2 = x'x - 2a'x + a'a
        q = QuadraticFn(np.eye(2), -a, float(a @ a))
        res = minimize_soc(single_epigraph(q), (-2.0, 2.0))
        assert res.value == pytest.approx(0.0, abs=1e-8)
        assert np.allclose(res.minimizer, a, atol=1e-4)

    def test_box_active_flags_unbounded(self, ex1_soc):
        res = minimize_soc(ex1_soc, (-2.0, 2.0), tol=1e-8)
        assert res.status == "unbounded"
        assert res.minimizer[0] == pytest.approx(-2.0, abs=1e-6)

    def test_monotone_in_box_enlargement(self, ex1_soc):
        small = minimize_soc(ex1_soc, (-2.0, 2.0))
        large = minimize_soc(ex1_soc, (-10.0, 10.0))
        assert large.value <= small.value + 1e-8

    @pytest.mark.parametrize("n,seed,value", [(3, 8, 0.0353539755), (5, 3, 0.0516924855)])
    def test_feasible_set_reached_from_outside(self, n, seed, value):
        # Kelley iterates approach the curved ball constraint from outside:
        # none is feasible at N=3 seed 8, and at N=5 seed 3 the best
        # feasible one (2.80) is no start for the polish.
        p = swiss_cheese(n, 1, 1, 1, seed)
        gd = build_gamma_data(p)
        res = minimize_soc(soc_description(gd.v, p), (-10.0, 10.0), tol=1e-8, max_iter=200)
        assert res.status == "converged"
        assert res.value == pytest.approx(value, abs=1e-9)

    def test_infeasible_homogeneous(self):
        g = QuadraticFn(np.eye(1), np.zeros(1), 0.0)
        h = QuadraticFn(np.eye(1), np.zeros(1), 1.0)  # x^2 + 1 <= 0
        d = SocDescription(epigraph=(g,), homogeneous=(h,))
        with pytest.raises(Exception):
            minimize_soc(d, (-1.0, 1.0))


class TestBruteForce:
    def test_example1(self, ex1):
        val, x = brute_force(ex1, (-10.0, 10.0), grid_points=400)
        assert val == pytest.approx(-17.5, abs=1e-3)
        assert x[0] == pytest.approx(-2.5, abs=1e-2)

    def test_ball_constrained_norm(self):
        p = Qcqp(
            QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            (QuadraticFn(np.eye(2), np.zeros(2), -1.0),),
            1,
            0,
        )
        val, x = brute_force(p, (-2.0, 2.0), grid_points=101)
        assert val == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(x, 0.0, atol=1e-6)

    def test_infeasible_problem(self):
        p = Qcqp(
            QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            (QuadraticFn(np.eye(2), np.zeros(2), 1.0),),  # |x|^2 + 1 <= 0
            1,
            0,
        )
        with pytest.raises(NoFeasiblePoint):
            brute_force(p, (-2.0, 2.0), grid_points=51)

    def test_equality_constraint_relaxed_with_grid(self):
        # min |x|^2 with x_1^2 + x_2^2 = 1: optimum 1 on the circle
        p = Qcqp(
            QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            (QuadraticFn(np.eye(2), np.zeros(2), -1.0),),
            0,
            1,
        )
        val, x = brute_force(p, (-2.0, 2.0), grid_points=201)
        assert val == pytest.approx(1.0, abs=5e-3)

    def test_multistart_high_dimension(self):
        p = Qcqp(
            QuadraticFn(np.eye(4), np.zeros(4), 0.0),
            (QuadraticFn(np.eye(4), np.zeros(4), -1.0),),
            1,
            0,
        )
        val, x = brute_force(p, (-2.0, 2.0), starts=20)
        assert val == pytest.approx(0.0, abs=1e-5)


class TestRelaxationBounds:
    @pytest.mark.parametrize(
        "maker,seed", [(lambda s: gtrs(2, s), 0), (lambda s: gtrs(3, s), 4),
                       (lambda s: swiss_cheese(2, 1, 1, 0, s), 2)]
    )
    def test_hull_guaranteed_matches_brute_force(self, maker, seed):
        p = maker(seed)
        gd = build_gamma_data(p)
        soc = soc_description(gd.v, p)
        res = minimize_soc(soc, (-6.0, 6.0), tol=1e-8)
        val, _ = brute_force(p, (-6.0, 6.0), grid_points=301)
        # relaxation never exceeds the feasible optimum
        assert res.value <= val + 1e-6
        # hull-exact families agree up to grid resolution
        assert abs(res.value - val) <= 1e-3 * max(1.0, abs(val))
