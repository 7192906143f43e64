import math

import numpy as np
import pytest

from qcqp_hull.core import Qcqp, QuadraticFn, stack_values
from qcqp_hull.errors import InfeasibleRegion, NoFeasiblePoint
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import (
    barvinok_random,
    example1,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)
from qcqp_hull.hull import SocDescription, soc_description
from qcqp_hull.solve import _as_box, _polish, brute_force, minimize_soc


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

    @staticmethod
    def _polish_from(soc, x):
        x = np.asarray(x, dtype=float)
        fx = float(np.max(stack_values(soc, x)[: len(soc.epigraph)]))
        return _polish(soc, _as_box((-10.0, 10.0), soc.dim), x, fx, 1.0)

    def test_polish_declines_flat_face_midpoint(self, ex1_soc):
        # (-2.5, 0) is a KKT point in the middle of example1's optimal
        # segment: one epigraph row is active, the Newton Jacobian is
        # singular, and the point is not in the QCQP epigraph.
        assert self._polish_from(ex1_soc, [-2.5, 0.0]) is None

    def test_polish_accepts_end_point(self, ex1_soc):
        end = np.array([-2.5, math.sqrt(1.25)])
        out = self._polish_from(ex1_soc, end + np.array([3e-8, -5e-8]))
        assert out is not None
        x, value, bound = out
        assert np.allclose(x, end, atol=1e-12)
        assert value == pytest.approx(-17.5, abs=1e-12)
        assert bound == pytest.approx(-17.5, abs=1e-12)

    @pytest.mark.parametrize("seed,guaranteed", [(0, False), (14, True)])
    def test_nonfinite_polish_iterate_left_to_cutting_planes(self, seed, guaranteed):
        # The Newton iterate of some polishes runs off to inf/nan here; the
        # polish must decline and leave the solve to the cutting planes.
        from qcqp_hull.certify import analyze_problem

        p = quadratic_matrix_program(1, 2, 3, seed)
        res = minimize_soc(_soc(p), (-10.0, 10.0), tol=1e-8, max_iter=200)
        val, _ = brute_force(p, (-10.0, 10.0))
        assert res.status == "converged"
        assert res.value <= val + 1e-6
        if guaranteed:
            assert analyze_problem(p)[0].hull_guaranteed
            assert abs(res.value - val) <= 1e-3 * max(1.0, abs(val))

    def test_infeasible_homogeneous(self):
        g = QuadraticFn(np.eye(1), np.zeros(1), 0.0)
        h = QuadraticFn(np.eye(1), np.zeros(1), 1.0)  # x^2 + 1 <= 0
        d = SocDescription(epigraph=(g,), homogeneous=(h,))
        with pytest.raises(InfeasibleRegion):
            minimize_soc(d, (-1.0, 1.0))

    def test_spent_budget_is_no_infeasibility_verdict(self):
        # The objective is the constant -1 and x = 0 meets every homogeneous
        # row, so running out of iterations proves nothing about feasibility.
        res = minimize_soc(_soc(barvinok_random(3, 1, seed=0)), (-10.0, 10.0), max_iter=300)
        if res.status == "converged":
            assert res.value == pytest.approx(-1.0, abs=1e-6)
        else:
            assert res.status == "iteration_limit"
            assert res.value == math.inf
            assert res.lower_bound <= -1.0 + 1e-9


def _soc(p):
    return soc_description(build_gamma_data(p).v, p)


class TestSolveIndependence:
    # Each minimize_soc call owns its cutting-plane LP: no state may carry
    # over from one solve to the next, and the bound stays below the value.
    # Each problem is paired with another of the same dimension, so that a
    # model reused across solves would see the other's cuts.
    PROBLEMS = {
        "example1": (example1, lambda: gtrs(2, 0)),
        "gtrs": (lambda: gtrs(4, 1), lambda: swiss_cheese(4, 1, 1, 1, 6)),
        "qmp": (lambda: quadratic_matrix_program(2, 3, 2, 5), lambda: gtrs(6, 0)),
        "swisscheese": (lambda: swiss_cheese(4, 1, 1, 1, 6), lambda: gtrs(4, 1)),
    }

    @staticmethod
    def _solve(soc):
        return minimize_soc(soc, (-10.0, 10.0), tol=1e-8, max_iter=200)

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_same_result_before_and_after_another_solve(self, name):
        make, make_other = self.PROBLEMS[name]
        soc = _soc(make())
        before = self._solve(soc)
        self._solve(_soc(make_other()))
        after = self._solve(soc)
        assert after.status == before.status
        assert after.value == before.value
        assert after.iterations == before.iterations
        assert np.array_equal(after.minimizer, before.minimizer)

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_lower_bound_below_value(self, name):
        res = self._solve(_soc(self.PROBLEMS[name][0]()))
        assert res.status == "converged"
        # exact up to the solver's 1e-9 relative feasibility tolerance: a
        # polished value of -1e-16 may sit under an LP bound of 0
        assert res.lower_bound <= res.value + 1e-9 * max(1.0, abs(res.value))
        assert res.gap == res.value - res.lower_bound
        # the bound certifies the value
        assert abs(res.gap) <= 1e-9 * max(1.0, abs(res.value))


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
