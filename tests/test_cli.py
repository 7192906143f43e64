import json
import os

import numpy as np
import pytest

from qcqp_hull import io
from qcqp_hull.cli import plot2d, run
from qcqp_hull.core import EpigraphPoint
from qcqp_hull.generators import FamilySpec, generate
from qcqp_hull.hull import verify_certificate


@pytest.fixture
def ex1_file(tmp_path, ex1):
    path = tmp_path / "ex1.json"
    io.write_problem(str(path), ex1)
    return str(path)


class TestProblemIo:
    @pytest.mark.parametrize(
        "spec",
        [
            FamilySpec(family="example1"),
            FamilySpec(family="gtrs", n=3, seed=5),
            FamilySpec(family="qmp", n=2, k=2, m=2, seed=6),
            FamilySpec(family="swisscheese", n=3, m1=1, m2=1, m3=1, seed=7),
            FamilySpec(family="barvinok", n=3, num_forms=2, seed=8),
        ],
    )
    def test_roundtrip_exact_on_generator_outputs(self, tmp_path, spec):
        p = generate(spec)
        path = str(tmp_path / "p.json")
        io.write_problem(path, p)
        q = io.read_problem(path)
        assert q.dim == p.dim
        assert q.num_inequalities == p.num_inequalities
        assert q.num_equalities == p.num_equalities
        for qa, qb in zip(p.quadratics(), q.quadratics()):
            assert np.array_equal(qa.A, qb.A)
            assert np.array_equal(qa.b, qb.b)
            assert qa.c == qb.c

    def test_schema_keys(self, tmp_path, ex1):
        path = str(tmp_path / "p.json")
        io.write_problem(path, ex1)
        doc = json.loads(open(path).read())
        assert set(doc) == {"n", "mi", "me", "quadratics"}
        assert set(doc["quadratics"][0]) == {"A", "b", "c"}

    def test_parse_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(Exception):
            io.read_problem(str(bad))


class TestCliFlows:
    def test_generate_then_analyze(self, tmp_path, capsys):
        out = str(tmp_path / "e1.json")
        assert run(["generate", "example1", "--out", out]) == 0
        assert run(["analyze", out]) == 0
        text = capsys.readouterr().out
        assert "hull_guaranteed: TRUE" in text
        assert "corollary_b0" in text

    def test_hull_writes_three_constraints(self, tmp_path, ex1_file):
        out = str(tmp_path / "h.json")
        assert run(["hull", ex1_file, "--out", out]) == 0
        doc = json.loads(open(out).read())
        assert len(doc["epigraph"]) == 3
        assert len(doc["homogeneous"]) == 0

    def test_decompose_writes_verified_certificate(self, tmp_path, ex1_file, ex1):
        out = str(tmp_path / "c.json")
        assert run(["decompose", ex1_file, "--point", "4,2,33.5", "--out", out]) == 0
        target, comb, tol = io.read_certificate(out)
        assert len(comb.points) == 2
        assert verify_certificate(ex1, comb, target, tol)

    def test_decompose_outside_point_exits_5_and_writes_nothing(self, tmp_path, ex1_file):
        out = str(tmp_path / "c.json")
        assert run(["decompose", ex1_file, "--point", "4,2,33", "--out", out]) == 5
        assert not os.path.exists(out)

    def test_solve_prints_comparison(self, ex1_file, capsys):
        assert run(["solve", ex1_file, "--box", "-10,10"]) == 0
        text = capsys.readouterr().out
        assert "-17.5" in text
        assert "brute-force" in text

    def test_plot_invariants(self, tmp_path, ex1_file):
        out = str(tmp_path / "p.csv")
        assert run(["plot", ex1_file, "--box", "-5,5", "--resolution", "61", "--out", out]) == 0
        rows = open(out).read().strip().splitlines()
        assert rows[0] == "x1,x2,tmin_d,tmin_hull"
        td, th = [], []
        for line in rows[1:]:
            parts = line.split(",")
            td.append(float(parts[2]))
            th.append(float(parts[3]))
        td, th = np.array(td), np.array(th)
        both = np.isfinite(td) & np.isfinite(th)
        # the hull never sits above the true epigraph floor
        assert np.all(th[both] <= td[both] + 1e-8)
        # and coincides with it on the feasible region (hull-exact instance)
        assert np.max(np.abs(th[both] - td[both])) <= 1e-6

    def test_exit_codes(self, tmp_path, ex1_file):
        assert run(["analyze", str(tmp_path / "missing.json")]) == 2
        assert run(["nonsense"]) == 1
        assert run([]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 1}')
        assert run(["analyze", str(bad)]) == 2
        # a missing or non-integer dimension is a parse error too
        doc = json.loads(open(ex1_file).read())
        for n in (None, "two"):
            doc.pop("n", None)
            if n is not None:
                doc["n"] = n
            bad.write_text(json.dumps(doc))
            assert run(["analyze", str(bad)]) == 2
        # hull reads no tolerance, so it takes none
        assert run(["hull", ex1_file, "--tol", "1e-6"]) == 1
        # guard: dimension 13 multiplier set
        big = generate(FamilySpec(family="swisscheese", n=13, m1=5, m2=5, m3=3, seed=0))
        bigf = str(tmp_path / "big.json")
        io.write_problem(bigf, big)
        assert run(["hull", bigf]) == 4

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_data_is_a_parse_error(self, tmp_path, ex1_file, token):
        # Python's json reads these tokens as floats; they must not reach the solvers.
        doc = json.loads(open(ex1_file).read())
        text = json.dumps(doc).replace('"c": -5.0', f'"c": {token}', 1)
        assert token in text
        bad = tmp_path / "nonfinite.json"
        bad.write_text(text)
        assert run(["analyze", str(bad)]) == 2

    def test_assumption_failure_exit_code(self, tmp_path):
        from qcqp_hull.core import Qcqp, QuadraticFn

        p = Qcqp(
            QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
            (QuadraticFn(np.diag([1.0, 0.0]), np.zeros(2), -1.0),),
            1,
            0,
        )
        f = str(tmp_path / "bad.json")
        io.write_problem(f, p)
        assert run(["hull", f]) == 3
        assert run(["analyze", f]) == 3

    def test_plot_wrong_dimension(self, tmp_path):
        p = generate(FamilySpec(family="gtrs", n=3, seed=0))
        f = str(tmp_path / "p3.json")
        io.write_problem(f, p)
        assert run(["plot", f]) == 1


class TestPlot2d:
    def test_example1_values(self, ex1, ex1_soc):
        x1, x2, td, th = plot2d(ex1, ex1_soc, [(-5.0, 5.0), (-5.0, 5.0)], resolution=11)
        at = {(a, b): i for i, (a, b) in enumerate(zip(x1, x2))}
        i0 = at[(0.0, 0.0)]
        assert td[i0] == pytest.approx(0.0) and th[i0] == pytest.approx(0.0, abs=1e-12)
        i4 = at[(4.0, 2.0)]
        assert not np.isfinite(td[i4])  # first constraint violated there
        assert th[i4] == pytest.approx(33.5)
        i1 = at[(1.0, 2.0)]  # strictly feasible: floor is the objective
        assert td[i1] == pytest.approx(0.5 * (1 + 4 + 10))
        assert th[i1] == pytest.approx(td[i1], abs=1e-9)
