import math
import tracemalloc

import numpy as np
import pytest

from qcqp_hull.core import Qcqp, QuadraticFn, stack_quadratics, stack_values
from qcqp_hull.errors import InfeasibleRegion, NoFeasiblePoint
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import (
    barvinok_random,
    example1,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)
from qcqp_hull import solve
from qcqp_hull.hull import SocDescription, soc_description
from qcqp_hull.solve import _as_box, _extreme_point, brute_force, minimize_soc


def stacked(epigraph, homogeneous=()):
    """The description whose rows are these quadratics, epigraph rows first."""
    return SocDescription(*stack_quadratics(epigraph + homogeneous), len(epigraph))


def single_epigraph(q):
    return stacked((q,))


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
        vals = stack_values(ex1_soc, res.minimizer)
        fx = max(vals[ex1_soc.epigraph])
        assert abs(fx - res.value) <= 1e-6
        assert all(vals[ex1_soc.homogeneous] <= 1e-6)

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
        # The optimum lies on the curved ball constraint.
        p = swiss_cheese(n, 1, 1, 1, seed)
        gd = build_gamma_data(p)
        res = minimize_soc(soc_description(gd.v, p), (-10.0, 10.0), tol=1e-8, max_iter=200)
        assert res.status == "converged"
        assert res.value == pytest.approx(value, abs=1e-9)

    @staticmethod
    def _walk_from(soc, x):
        x = np.asarray(x, dtype=float)
        level = float(np.max(stack_values(soc, x)[: len(soc.epigraph)]))
        return _extreme_point(soc, _as_box((-10.0, 10.0), soc.dim), x, level, 1e-9)

    def test_walk_leaves_flat_face_midpoint(self, ex1_soc):
        # (-2.5, 0) is a minimizer in the middle of example1's optimal
        # segment, not in the QCQP epigraph: one epigraph row is active and
        # flat along x2, so the walk goes to an end of the segment.
        x = self._walk_from(ex1_soc, [-2.5, 0.0])
        assert x[0] == pytest.approx(-2.5, abs=1e-6)
        assert abs(x[1]) == pytest.approx(math.sqrt(1.25), abs=1e-6)

    def test_walk_stays_at_end_point(self, ex1_soc):
        # Two epigraph rows are active at an end of the segment, and no
        # direction keeps both constant.
        end = np.array([-2.5, math.sqrt(1.25)])
        assert np.array_equal(self._walk_from(ex1_soc, end), end)

    @pytest.mark.parametrize("seed,guaranteed", [(0, False), (14, True)])
    def test_nonfinite_polish_iterate_left_to_cutting_planes(self, seed, guaranteed):
        # The solve converges below the grid optimum, and to it where the
        # hull result guarantees exactness.
        from qcqp_hull.certify import analyze_problem

        p = quadratic_matrix_program(1, 2, 3, seed)
        res = minimize_soc(_soc(p), (-10.0, 10.0), tol=1e-8, max_iter=200)
        val, _ = brute_force(p, (-10.0, 10.0))
        assert res.status == "converged"
        assert res.value <= val + 1e-6
        if guaranteed:
            assert analyze_problem(p)[0].hull_guaranteed
            assert abs(res.value - val) <= 1e-3 * max(1.0, abs(val))

    @pytest.mark.parametrize("box", [(np.nan, 1.0), (-np.inf, np.inf), [(-1.0, 1.0), (0.0, np.inf)]])
    def test_nonfinite_box_refused(self, ex1_soc, box):
        with pytest.raises(ValueError, match="finite"):
            minimize_soc(ex1_soc, box)

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0, np.inf])
    def test_tol_must_be_positive_finite(self, ex1_soc, tol):
        # NaN would certify any gap, -1 none, inf every one.
        with pytest.raises(ValueError, match="tol must be a positive finite number"):
            minimize_soc(ex1_soc, (-10.0, 10.0), tol=tol)

    @pytest.mark.parametrize("box", [(-10.0, 10.0), (-2.0, 2.0)])
    @pytest.mark.parametrize(
        "max_iter, error", [("abc", TypeError), (2.0, TypeError), (0, ValueError), (-1, ValueError)]
    )
    def test_max_iter_must_be_a_positive_integer(self, ex1_soc, box, max_iter, error):
        # Checked before either path runs: the dual certifies [-10, 10]
        # without reading max_iter, and [-2, 2] takes the primal, which does.
        with pytest.raises(error, match="max_iter must be an integer >= 1" if error is ValueError else None):
            minimize_soc(ex1_soc, box, max_iter=max_iter)

    @pytest.mark.parametrize("curvature, box", [(-1.0, (-1.0, 1.0)), (-5e-9, (-10.0, 10.0))])
    def test_indefinite_row_certifies_nothing(self, curvature, box):
        # min of x1^2 + curvature x2^2 over the box is at a corner of x2,
        # below 0; the stationary point x = 0 is a saddle, and its value 0
        # is no bound.  -5e-9 passes soc_description's -1e-8 PSD test.
        d = SocDescription([np.diag([1.0, curvature])], [[0.0, 0.0]], [0.0], 1)
        res = minimize_soc(d, box)
        assert res.status == "iteration_limit"
        assert res.lower_bound == -np.inf
        w = np.r_[1.0, np.zeros(4)]
        assert solve._dual_bound(d, _as_box(box, 2), w, solve._scale(d)) == -np.inf

    @pytest.mark.parametrize("curvature", [-1e-13, -1e-14, -1e-15])
    def test_noise_level_negative_curvature_is_no_bound(self, curvature):
        # min x1^2 + curvature x2^2 + 2 x2 over [-1, 1]^2 is about -2 at
        # x2 = -1, on a box bound.  Least squares inverted the curvature,
        # which passes soc_description's -1e-8 PSD test, into a bound of
        # +1/|curvature| without box terms that certified "converged".
        d = SocDescription([np.diag([1.0, curvature])], [[0.0, 1.0]], [0.0], 1)
        res = minimize_soc(d, (-1.0, 1.0))
        assert res.status == "unbounded"
        assert res.lower_bound <= res.value
        w = np.r_[1.0, np.zeros(4)]
        assert solve._dual_bound(d, _as_box((-1.0, 1.0), 2), w, solve._scale(d)) == -np.inf

    @pytest.mark.parametrize("seed", [None, *range(5)])
    def test_linear_equality_polished_as_one_equality_row(self, seed):
        # A linear equality gives the multiplier set a lineality line, so
        # the description holds h <= 0 and -h <= 0, both active at the
        # optimum: their multipliers are not unique.
        if seed is None:  # min x'x subject to x'x <= 4 and x1 + x2 = 1
            n, b0, b1, eq = 2, np.zeros(2), np.zeros(2), (np.array([0.5, 0.5]), -1.0)
        else:
            n, rng = 3, np.random.default_rng(seed)
            b0, b1, eq = rng.normal(size=n), rng.normal(size=n), (rng.normal(size=n), rng.normal())
        I = np.eye(n)
        p = Qcqp(
            QuadraticFn(I, b0, 0.0),
            (QuadraticFn(I, b1, -4.0), QuadraticFn(np.zeros((n, n)), *eq)),
            num_inequalities=1,
            num_equalities=1,
        )
        res = minimize_soc(_soc(p), (-3.0, 3.0), max_iter=200)
        assert res.status == "converged"
        assert res.gap <= 1e-9
        assert abs(2.0 * eq[0] @ res.minimizer + eq[1]) <= 1e-9
        if seed is None:
            assert res.value == pytest.approx(0.5, abs=1e-12)
            assert np.allclose(res.minimizer, [0.5, 0.5], atol=1e-12)

    def test_infeasible_homogeneous(self):
        g = QuadraticFn(np.eye(1), np.zeros(1), 0.0)
        h = QuadraticFn(np.eye(1), np.zeros(1), 1.0)  # x^2 + 1 <= 0
        d = stacked((g,), (h,))
        with pytest.raises(InfeasibleRegion):
            minimize_soc(d, (-1.0, 1.0))

    @pytest.mark.parametrize("make", [lambda: swiss_cheese(3, 1, 1, 1, 18), lambda: gtrs(2, 18)])
    def test_infeasible_box_of_a_generated_instance(self, make):
        # The homogeneous rows miss the box [3, 10]^N; the phase-I bound
        # proves it.
        with pytest.raises(InfeasibleRegion):
            minimize_soc(_soc(make()), (3.0, 10.0), max_iter=200)

    def test_unbounded_when_a_larger_box_lowers_the_value(self):
        # The optimum in [0, 10]^4 sits on the bound x1 = 0, which the
        # optimum over [-10, 10]^4 crosses.
        soc = _soc(swiss_cheese(4, 1, 1, 1, 34))
        res = minimize_soc(soc, (0.0, 10.0), max_iter=200)
        assert res.status == "unbounded"
        assert abs(res.minimizer[0]) <= 1e-9
        assert minimize_soc(soc, (-10.0, 10.0), max_iter=200).value < res.value - 1.0

    def test_rounding_level_hessian_certifies_nothing(self):
        # Epigraph rows 1 and 2 of this instance are linear up to rounding
        # (|A| < 4e-16).  Least squares inverted that noise into a bound of
        # 4.7e16 on row 2 alone, which certified the corner (3, 3) of
        # [3, 10]^2 as if no box bound bound there.
        soc = _soc(quadratic_matrix_program(1, 2, 2, 6))
        assert np.abs(soc.A[1:3]).max() < 4e-16
        res = minimize_soc(soc, (3.0, 10.0), max_iter=200)
        assert res.status == "unbounded"
        assert minimize_soc(soc, (-10.0, 10.0), max_iter=200).value < res.value - 1.0
        w = np.zeros(len(soc.c) + 4)
        w[2] = 1.0
        assert solve._dual_bound(soc, _as_box((3.0, 10.0), 2), w, solve._scale(soc)) == -np.inf

    def test_spent_budget_is_no_infeasibility_verdict(self):
        # The objective is the constant -1 and x = 0 meets every homogeneous
        # row, so the whole feasible set is optimal.
        res = minimize_soc(_soc(barvinok_random(3, 1, seed=0)), (-10.0, 10.0), max_iter=300)
        assert res.status == "converged"
        assert res.value == pytest.approx(-1.0, abs=1e-9)
        assert abs(res.gap) <= 1e-9

    def test_linear_objective_on_the_ball(self):
        # min 2 x1 subject to |x|^2 <= 1: -2 at (-1, 0).
        g = QuadraticFn(np.zeros((2, 2)), np.array([1.0, 0.0]), 0.0)
        h = QuadraticFn(np.eye(2), np.zeros(2), -1.0)
        res = minimize_soc(stacked((g,), (h,)), (-10.0, 10.0), max_iter=200)
        assert res.status == "converged"
        assert res.value == pytest.approx(-2.0, abs=1e-9)
        assert np.allclose(res.minimizer, [-1.0, 0.0], atol=1e-6)

    @pytest.mark.parametrize(
        "make,value",
        [
            (lambda: gtrs(60, 0), -7.773579131),
            (lambda: quadratic_matrix_program(10, 8, 2, 0), -17.92861621),
            (lambda: swiss_cheese(20, 2, 2, 2, 0), 0.1748052988),
            (lambda: swiss_cheese(100, 2, 2, 2, 0), 4.814453100),
        ],
        ids=["gtrs-60-0", "qmp-10-8-2-0", "swisscheese-20-2-2-2-0", "swisscheese-100-2-2-2-0"],
    )
    def test_large_instances_converge(self, make, value):
        # N = 60 to 100 within the benchmark's budget of 200 iterations.
        res = minimize_soc(_soc(make()), (-10.0, 10.0), max_iter=200)
        assert res.status == "converged"
        assert res.value == pytest.approx(value, rel=1e-7)


class TestLagrangianMin:
    """_lagrangian_min against an eigendecomposition oracle at scale 1: the
    eigenvalues of A within tau = 1e-12 max(1, max|A|) of 0 are null
    directions."""

    @staticmethod
    def _quadratic(n, seed, head):
        """A = Q diag(head, rest) Q' for a seeded orthogonal Q and the rest
        of the spectrum in [0.5, 2]; returns A, Q and the generator."""
        rng = np.random.default_rng(seed)
        spectrum = np.r_[head, rng.uniform(0.5, 2.0, size=n - len(head))]
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        return (Q * spectrum) @ Q.T, Q, rng

    @staticmethod
    def _tau(n, seed):
        return 1e-12 * max(1.0, np.abs(TestLagrangianMin._quadratic(n, seed, [0.0])[0]).max())

    @staticmethod
    def _check_matches(A, b, c):
        lam, V = np.linalg.eigh(A)
        keep = lam > 1e-12 * max(1.0, np.abs(A).max())
        terms = (V[:, keep].T @ b) ** 2 / lam[keep]
        phi, x = solve._lagrangian_min(A, b, c, 1.0)
        assert abs(phi - (c - terms.sum())) <= 1e-12 * (abs(c) + terms.sum())
        assert np.max(np.abs(A @ x + b)) <= 1e-9

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_positive_definite(self, n, seed):
        A, _, rng = self._quadratic(n, seed, [])
        self._check_matches(A, rng.normal(size=n), rng.normal())

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_singular_with_b_in_the_range(self, n, seed):
        k = max(1, n // 3)  # null directions: all of A at n = 1
        A, Q, rng = self._quadratic(n, seed, np.zeros(k))
        self._check_matches(A, Q[:, k:] @ rng.normal(size=n - k), rng.normal())

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_b_along_a_null_direction_is_unbounded(self, n, seed):
        k = max(1, n // 3)
        A, Q, rng = self._quadratic(n, seed, np.zeros(k))
        b = Q[:, k:] @ rng.normal(size=n - k) + 1e-6 * Q[:, 0]
        assert solve._lagrangian_min(A, b, 0.0, 1.0) is None

    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvalue_below_minus_tau_is_unbounded(self, n, seed):
        A, _, _ = self._quadratic(n, seed, [-10.0 * self._tau(n, seed)])
        assert solve._lagrangian_min(A, np.zeros(n), 0.0, 1.0) is None

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(3))
    def test_eigenvalue_within_tau_is_a_null_direction(self, n, seed, sign):
        # Inverted, +tau/2 would turn b's component 1e-6 along it into a
        # term of 2e-12 / tau, of order 1; as a null direction that
        # component is unbounded, and without it phi is the oracle's.
        A, Q, rng = self._quadratic(n, seed, [sign * self._tau(n, seed) / 2.0])
        b = Q[:, 1:] @ rng.normal(size=n - 1)
        self._check_matches(A, b, rng.normal())
        assert solve._lagrangian_min(A, b + 1e-6 * Q[:, 0], 0.0, 1.0) is None

    @pytest.mark.parametrize("scale", [1.0, 1e3])
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_noise_level_hessian_is_zero(self, n, scale):
        # Entries at rounding level of the scale are no curvature: with
        # b != 0 the minimum is unbounded, not -b'A^-1 b of the noise.
        rng = np.random.default_rng(n)
        N = rng.uniform(-1.0, 1.0, size=(n, n))
        A = 1e-16 * scale * (N + N.T) / 2.0
        assert solve._lagrangian_min(A, rng.normal(size=n), 0.0, scale) is None


def _soc(p):
    return soc_description(build_gamma_data(p).v, p)


# barvinok_random(2, 1) seeds whose ray row x'Ax + c <= 0 (A > 0, 0 < c <
# 1e-16) leaves only x = 0, a corner of these one-sided boxes.  The primal
# SLSQP's linearized rows are inconsistent there, so it ends at
# iteration_limit; the dual over the row weights is not linearized, and
# its bound certifies the value at x = 0.
CORNER_OPTIMA = [(15, (0.0, 10.0)), (38, (0.0, 10.0)), (28, (-10.0, 0.0))]


@pytest.mark.parametrize("seed, box", CORNER_OPTIMA)
def test_optimum_on_a_corner_of_a_one_sided_box(seed, box):
    res = minimize_soc(_soc(barvinok_random(2, 1, seed)), box, max_iter=200)
    assert res.status == "converged"
    assert abs(res.value) <= 1e-12 and abs(res.gap) <= 1e-12


@pytest.mark.parametrize("seed", [15, 38, 28])
def test_corner_optimum_converges_on_the_symmetric_box(seed):
    # The same seeds converge once x = 0 is inside the box.
    res = minimize_soc(_soc(barvinok_random(2, 1, seed)), (-10.0, 10.0), max_iter=200)
    assert res.status == "converged"
    assert abs(res.value) <= 1e-12 and abs(res.gap) <= 1e-12


class TestSolveIndependence:
    # No state may carry over from one solve to the next, and the bound
    # stays below the value.  Each problem is paired with another of the
    # same dimension, so that state reused across solves would show.
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

    def test_refuses_dimension_above_three(self):
        p = Qcqp(
            QuadraticFn(np.eye(4), np.zeros(4), 0.0),
            (QuadraticFn(np.eye(4), np.zeros(4), -1.0),),
            1,
            0,
        )
        with pytest.raises(ValueError, match="N <= 3"):
            brute_force(p, (-2.0, 2.0))

    @pytest.mark.parametrize("box", [(np.nan, 1.0), (-np.inf, np.inf), [(-1.0, 1.0), (0.0, np.inf)]])
    def test_nonfinite_box_refused(self, ex1, box):
        with pytest.raises(ValueError, match="finite"):
            brute_force(ex1, box)

    @pytest.mark.parametrize("grid_points", [0, 1, -4, 2.5, 41.0, "41"])
    def test_grid_points_below_two_or_not_integer_refused(self, ex1, grid_points):
        # A one-point grid is the box's lower corner, and zooming keeps it there.
        with pytest.raises(ValueError, match="grid_points"):
            brute_force(ex1, (-10.0, 10.0), grid_points=grid_points)

    def test_two_points_per_axis_accepted(self, ex1):
        val, x = brute_force(ex1, (-10.0, 10.0), grid_points=np.int64(2))
        assert np.isfinite(val) and x.shape == (2,)

    def test_default_grid_in_bounded_memory(self, ex1):
        # 400^2 points: the grid is evaluated from its axes, no point array.
        tracemalloc.start()
        try:
            val, _ = brute_force(ex1, (-10.0, 10.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert val == pytest.approx(-17.5, abs=1e-3)

    def test_three_dimensional_grid_in_bounded_memory(self):
        # 200^3 = 8M grid points: the point array alone would be 192 MB.
        p = gtrs(3, 0)
        tracemalloc.start()
        try:
            val, _ = brute_force(p, (-10.0, 10.0), grid_points=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # gtrs is hull-guaranteed, so the converged hull solve is the optimum.
        res = minimize_soc(soc_description(build_gamma_data(p).v, p), (-10.0, 10.0), tol=1e-8)
        assert res.status == "converged"
        assert val == pytest.approx(res.value, abs=1e-3)

    @pytest.mark.parametrize("make", [lambda: gtrs(3, 1), lambda: swiss_cheese(3, 1, 1, 1, 0)])
    def test_slabs_find_the_whole_grid_optimum(self, make, monkeypatch):
        p = make()
        whole = brute_force(p, (-3.0, 3.0), grid_points=41)
        # One first-axis layer per slab.
        monkeypatch.setattr(solve, "BRUTE_SLAB_POINTS", 1)
        val, x = brute_force(p, (-3.0, 3.0), grid_points=41)
        assert val == pytest.approx(whole[0], rel=1e-12, abs=1e-12)
        assert np.allclose(x, whole[1], rtol=0.0, atol=1e-12)


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
