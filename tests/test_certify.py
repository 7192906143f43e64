import numpy as np
import pytest

from qcqp_hull import certify, gamma
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.certify import analyze_problem, check_conditions, report_text
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import (
    barvinok_random,
    example1,
    gtrs,
    quadratic_matrix_program,
    swiss_cheese,
)
from qcqp_hull.linalg import kron_multiplicity


class TestExample1Report:
    def test_all_conditions(self, ex1, ex1_gd):
        report = check_conditions(ex1, ex1_gd, kron_multiplicity(ex1))
        assert report.assumption1
        assert report.assumption2 == "pass"
        assert report.corollary_b0
        assert not report.corollary_m1
        assert not report.corollary_scaled_identity
        assert report.theorem1
        assert report.hull_guaranteed
        sd = report.semidefinite_faces
        assert len(sd) == 4
        assert all(r.dim_v == 1 and r.b_aff_dim == 0 for r in sd)

    def test_report_text_renders(self, ex1, ex1_gd):
        report = check_conditions(ex1, ex1_gd, kron_multiplicity(ex1))
        text = report_text(report)
        assert "hull_guaranteed: TRUE" in text
        assert "PASS" in text


def test_theorem2_implies_theorem1():
    # consistency of the two face conditions on instances where both apply
    for seed in range(5):
        p = quadratic_matrix_program(2, 3, 2, seed=seed)
        report, _ = analyze_problem(p)
        if report.theorem2:
            assert report.theorem1


@pytest.mark.parametrize("seed", range(5))
def test_every_gtrs_passes_single_constraint_condition(seed):
    p = gtrs(2 + seed % 3, seed)
    report, _ = analyze_problem(p)
    assert report.corollary_m1
    assert report.hull_guaranteed


@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 1, 0), (0, 2, 2)])
def test_swiss_cheese_scaled_identity(counts):
    m1, m2, m3 = counts
    p = swiss_cheese(4, m1, m2, m3, seed=7)
    report, _ = analyze_problem(p)
    assert report.corollary_scaled_identity
    assert report.hull_guaranteed


def test_swiss_cheese_needs_m_at_most_n():
    p = swiss_cheese(2, 2, 1, 1, seed=1)  # m = 4 > N = 2
    report, _ = analyze_problem(p)
    assert not report.corollary_scaled_identity


@pytest.mark.parametrize("seed", range(3))
def test_qmp_passes_multiplicity_condition(seed):
    p = quadratic_matrix_program(2, 3, 2, seed=seed)
    report, _ = analyze_problem(p)
    assert report.k >= 3
    assert report.theorem2
    assert report.hull_guaranteed


def test_redundant_constraint_keeps_b0():
    # duplicating the last constraint (with zero linear term) must not
    # flip the zero-linear-term condition from pass to fail
    p = example1()
    report, _ = analyze_problem(p)
    assert report.corollary_b0
    dup = Qcqp(
        objective=p.objective,
        constraints=p.constraints + (p.constraints[-1],),
        num_inequalities=p.num_inequalities + 1,
        num_equalities=0,
    )
    report2, _ = analyze_problem(dup)
    assert report2.corollary_b0


def test_barvinok_noncommuting_reports_unknown_polyhedrality():
    p = barvinok_random(3, 2, seed=3)
    report, gd = analyze_problem(p)
    assert gd is None
    assert report.assumption1  # the ball multiplier gives definiteness
    assert report.assumption2 == "unknown"
    assert report.theorem1 is None and report.theorem2 is None
    assert not report.corollary_b0  # not certified without polyhedrality
    assert any("polyhedrality" in n for n in report.notes)


def test_non_sd_branch_finds_the_multiplier_once(monkeypatch):
    # build_gamma_data finds a definite multiplier before whitening can
    # fail, so the report must not search for one again.
    calls = []
    original = gamma.find_definite_multiplier

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (gamma, certify):
        if getattr(mod, "find_definite_multiplier", None) is original:
            monkeypatch.setattr(mod, "find_definite_multiplier", counted)
    report, gd = analyze_problem(barvinok_random(3, 2, seed=3))
    assert gd is None and report.assumption2 == "unknown"
    assert report.assumption1
    assert len(calls) == 1


def test_barvinok_commuting_forms_certify():
    # diagonal forms commute, so the pipeline certifies polyhedrality
    from qcqp_hull.generators import barvinok

    p = barvinok([np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])])
    report, gd = analyze_problem(p)
    assert gd is not None
    assert report.assumption2 == "pass"
    assert report.corollary_b0
    assert report.hull_guaranteed


def test_no_interior_multiplier_reported():
    p = Qcqp(
        QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
        (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), -1.0),),
        1,
        0,
    )
    report, gd = analyze_problem(p)
    assert gd is None
    assert not report.assumption1
    assert not report.hull_guaranteed


def test_conditions_imply_decomposability():
    # cross-module: a passing report means sampled relaxed points decompose
    from test_hull import sample_relaxed_points
    from qcqp_hull.hull import decompose, soc_description, verify_certificate

    for maker, seed in ((lambda: gtrs(3, 11), 11), (lambda: swiss_cheese(2, 1, 0, 1, 5), 5)):
        p = maker()
        report, gd = analyze_problem(p)
        assert report.hull_guaranteed
        soc = soc_description(gd.v, p)
        rng = np.random.default_rng(seed)
        for pt in sample_relaxed_points(p, gd, 10, rng):
            comb = decompose(p, gd, pt, soc=soc)
            assert verify_certificate(p, comb, pt)
