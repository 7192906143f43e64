import errno
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import io_oracle
import qcqp_hull
from conftest import SMALL_INSTANCES, load_pipebench
from qcqp_hull import _kernels, io
from qcqp_hull.cli import plot2d, run
from qcqp_hull.core import EpigraphPoint, Qcqp, QuadraticFn, objective_and_violations
from qcqp_hull.errors import ParseError, QcqpHullError
from qcqp_hull.gamma import build_gamma_data
from qcqp_hull.generators import FamilySpec, generate
from qcqp_hull.hull import ConvexCombination, SocDescription, decompose, soc_description, verify_certificate


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

    def test_parse_errors(self, tmp_path, ex1):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            io.read_problem(str(bad))
        # Counts must be JSON integers: no float, string or bool, even one
        # that int() would turn into the right count.
        for key, value in [("n", 2.9), ("n", 2.0), ("n", "2"), ("mi", 2.0), ("me", False), ("me", "0")]:
            doc = io_oracle.problem_to_dict(ex1)
            doc[key] = value
            bad.write_text(json.dumps(doc))
            with pytest.raises(ParseError, match=f"'{key}' must be an integer"):
                io.read_problem(str(bad))
            assert run(["analyze", str(bad)]) == 2
        # A UTF-16 byte-order mark is not UTF-8.
        bad.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ParseError, match="UTF-8"):
            io.read_problem(str(bad))
        with pytest.raises(ParseError, match="UTF-8"):
            io.read_certificate(str(bad))


class TestAtomicWrite:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, ex1_file, umask, mode):
        """A new file and an overwritten one both get 0o666 less the umask,
        as ``open`` gives a new file.  The umask is set in a subprocess, so
        this process keeps its own."""
        old = tmp_path / "old.json"
        old.write_text("{}")
        os.chmod(old, 0o400)
        src = str(Path(qcqp_hull.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = (
            "import os, sys; from qcqp_hull import io; "
            f"os.umask({umask}); p = io.read_problem(sys.argv[1]); "
            "io.write_problem(sys.argv[2], p); io.write_problem(sys.argv[3], p)"
        )
        new = tmp_path / "new.json"
        subprocess.run([sys.executable, "-c", code, ex1_file, str(new), str(old)], env=env, check=True)
        assert stat.S_IMODE(new.stat().st_mode) == mode
        assert stat.S_IMODE(old.stat().st_mode) == mode
        assert old.read_bytes() == new.read_bytes() == Path(ex1_file).read_bytes()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["ex1.json", "new.json", "old.json"]

    def test_failed_write_is_a_package_error_naming_the_path(self, tmp_path, ex1):
        # As a failed read is a ParseError naming its path.
        for out, errno_ in ((tmp_path / "missing" / "x.json", errno.ENOENT), (tmp_path, errno.EISDIR)):
            with pytest.raises(QcqpHullError, match=f"^cannot write {out}: {os.strerror(errno_)}$") as info:
                io.write_problem(str(out), ex1)
            assert isinstance(info.value.__cause__, OSError)
        assert list(tmp_path.iterdir()) == []

    def test_fdopen_failure_closes_and_removes_temp_file(self, tmp_path, monkeypatch):
        opened = []

        def os_open(*args):
            opened.append(real_open(*args))
            return opened[-1]

        def fdopen(*args, **kwargs):
            raise MemoryError

        real_open = os.open
        monkeypatch.setattr(io.os, "open", os_open)
        monkeypatch.setattr(io.os, "fdopen", fdopen)
        with pytest.raises(MemoryError):
            io.atomic_write_text(str(tmp_path / "f.json"), "{}")
        monkeypatch.undo()
        (fd,) = opened
        with pytest.raises(OSError):
            os.fstat(fd)
        assert list(tmp_path.iterdir()) == []


def _old_writer_text(doc) -> str:
    """The text the writers produced before their layout function."""
    return json.dumps(doc, indent=2) + "\n"


def _assert_layout(text: str, doc) -> None:
    """Same document as the old writer, every matrix row on its own line,
    every vector on one line, one newline at the end."""
    assert json.loads(text) == json.loads(_old_writer_text(doc))
    assert text.endswith("}\n") and not text.endswith("\n\n")
    lines = {line.strip().rstrip(",") for line in text.splitlines()}

    def walk(value, key=None):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, k)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for v in value:
                walk(v)
        elif isinstance(value, list) and value and isinstance(value[0], list):
            for row in value:
                assert json.dumps(row) in lines
        else:
            assert f"{json.dumps(key)}: {json.dumps(value)}" in lines

    walk(doc)


# Stacks of (A, b, c) whose numbers stress the encoder: signed zeros, the
# smallest subnormal, the points where repr switches to exponent form and
# back, integers past 2**53, values repeated across rows and matrices, N = 1.
EDGE_STACKS = {
    "signed-zeros": [
        ([[-0.0, 0.0], [0.0, 0.0]], [-0.0, 0.0], -0.0),
        ([[0.0, -0.0], [-0.0, -0.0]], [0.0, -0.0], 0.0),
    ],
    "repr-forms": [
        ([[5e-324, 1e16], [1e16, 1e-5]], [1e15, 1e-4], 2.0**53 + 2),
        ([[9999999999999998.0, -1e-5], [-1e-5, -5e-324]], [1e22, 1e-7], -(2.0**53) - 2),
    ],
    "shared": [
        ([[0.1, 0.2, 0.1], [0.2, 0.1, 0.2], [0.1, 0.2, 0.1]], [0.1, 0.2, 0.1], 0.2),
        ([[0.2, 0.1, 0.2], [0.1, 0.2, 0.1], [0.2, 0.1, 0.2]], [0.2, 0.2, 0.2], 0.1),
        ([[0.1, 0.2, 0.1], [0.2, 0.1, 0.2], [0.1, 0.2, 0.1]], [0.1, 0.1, 0.1], 0.1),
    ],
    "n1": [([[2.5]], [-0.0], 1e16), ([[-1e-5]], [5e-324], 0.0), ([[2.5]], [1.0], -1.0)],
}


def _assert_files_match_oracle(tmp_path, key, p, socs, certs) -> None:
    """Each file the writers produce is byte for byte the oracle's text."""
    files = [(io.write_problem, (p,), io_oracle.problem_to_dict(p))]
    files += [(io.write_soc, (soc,), io_oracle.soc_to_dict(soc)) for soc in socs]
    files += [
        (io.write_certificate, (pt, comb, 1e-8), io_oracle.certificate_to_dict(pt, comb, 1e-8))
        for pt, comb in certs
    ]
    path = tmp_path / "f.json"
    for write, args, doc in files:
        write(str(path), *args)
        assert path.read_bytes() == io_oracle.file_text(doc).encode(), (key, write.__name__)


class TestJsonLayout:
    """The writers against ``json.dumps(doc, indent=2)``, and byte for byte
    against ``io_oracle``, the writers before numbers were encoded once per
    distinct value."""

    @pytest.fixture(scope="class")
    def qmp64(self):
        p = generate(FamilySpec(family="qmp", n=16, k=4, m=3, seed=0))
        return p, soc_description(build_gamma_data(p).v, p)

    def test_problem(self, tmp_path, qmp64):
        p, _ = qmp64
        path = str(tmp_path / "p.json")
        io.write_problem(path, p)
        text = open(path, encoding="utf-8").read()
        _assert_layout(text, io_oracle.problem_to_dict(p))
        q = io.read_problem(path)
        for name in "Abc":
            assert getattr(q, name).tobytes() == getattr(p, name).tobytes()

    @pytest.mark.parametrize("which", ["example1", "qmp64"])
    def test_hull(self, tmp_path, ex1_soc, qmp64, which):
        soc = ex1_soc if which == "example1" else qmp64[1]
        path = str(tmp_path / "h.json")
        io.write_soc(path, soc)
        text = open(path, encoding="utf-8").read()
        _assert_layout(text, io_oracle.soc_to_dict(soc))
        doc = json.loads(text)
        assert doc["n"] == soc.dim
        assert len(doc["epigraph"]) == len(soc.epigraph)
        rows = doc["epigraph"] + doc["homogeneous"]
        for name in "Abc":
            back = np.array([r[name] for r in rows], dtype=float)
            assert back.tobytes() == getattr(soc, name).tobytes()
        assert text.count("\n") > soc.A.shape[0] * soc.dim

    def test_certificate(self, tmp_path, ex1, ex1_gd, ex1_soc):
        pt = EpigraphPoint(np.array([4.0, 2.0]), 33.5)
        comb = decompose(ex1, ex1_gd, pt, soc=ex1_soc)
        path = str(tmp_path / "c.json")
        io.write_certificate(path, pt, comb, 1e-8)
        text = open(path, encoding="utf-8").read()
        _assert_layout(text, io_oracle.certificate_to_dict(pt, comb, 1e-8))
        target, back, tol = io.read_certificate(path)
        assert target.x.tobytes() == pt.x.tobytes() and target.t == pt.t and tol == 1e-8
        assert np.asarray(back.weights).tobytes() == np.asarray(comb.weights).tobytes()
        for a, b in zip(back.points, comb.points):
            assert a.x.tobytes() == b.x.tobytes() and a.t == b.t
        assert back.trace == comb.trace

    def test_layout_of_edge_values(self):
        doc = {"e": {}, "l": [], "m": [[1.0]], "s": [["a], [b"]], "v": [0.1, -0.0]}
        m, v = io._number_texts(doc["m"], doc["v"])
        text = io._layout({**doc, "m": m, "v": v})
        assert text.splitlines() == [
            "{",
            '  "e": {},',
            '  "l": [],',
            '  "m": [',
            "    [1.0]",
            "  ],",
            '  "s": [["a], [b"]],',
            '  "v": [0.1, -0.0]',
            "}",
        ]
        assert json.loads(text) == json.loads(_old_writer_text(doc))
        assert text == io_oracle._layout(doc)

    @pytest.fixture(scope="class", params=["small", "dense", "lattice", "solve-certify", "control"])
    def instances(self, request):
        """(key, problem, hull description, certificates) of each instance of
        conftest's small set or of a pipebench pool or its control set."""
        pl = load_pipebench("pipeline")
        if request.param == "small":
            problems = {key: make() for key, make in SMALL_INSTANCES.items()}
        else:
            pool = pl.CONTROL if request.param == "control" else pl.WORKLOADS[request.param].pool
            problems = {inst.key: generate(inst.spec) for inst in pool}
        out = []
        for key, p in problems.items():
            gd = build_gamma_data(p)
            soc = soc_description(gd.v, p)
            # A real certificate where the benchmark's sampler finds a point
            # (none on swisscheese N = 20), and one made of the stack's rows.
            certs = [(pt, decompose(p, gd, pt, soc=soc)) for pt in pl.sample_targets(p, gd, np.random.default_rng(0))[:1]]
            rows = ConvexCombination(points=tuple(map(EpigraphPoint, soc.b, soc.c)), weights=soc.c, trace=())
            certs.append((EpigraphPoint(p.b[0], p.c[0]), rows))
            out.append((key, p, [soc], certs))
        return out

    def test_files_match_oracle(self, tmp_path, instances):
        for case in instances:
            _assert_files_match_oracle(tmp_path, *case)

    def test_roundtrip(self, tmp_path, instances):
        """The problem file reads back byte-equal, and the hull file's rows
        are byte-equal to the stacks of ``soc_description``."""
        path = str(tmp_path / "f.json")
        for key, p, (soc,), _ in instances:
            io.write_problem(path, p)
            q = io.read_problem(path)
            for name in "Abc":
                assert getattr(q, name).tobytes() == getattr(p, name).tobytes(), (key, name)
            io.write_soc(path, soc)
            doc = json.loads(open(path, encoding="utf-8").read())
            assert len(doc["epigraph"]) == len(soc.epigraph)
            rows = doc["epigraph"] + doc["homogeneous"]
            for name in "Abc":
                back = np.array([r[name] for r in rows], dtype=float)
                assert back.tobytes() == getattr(soc, name).tobytes(), (key, name)

    @pytest.mark.parametrize("case", EDGE_STACKS)
    def test_edge_arrays_match_oracle(self, tmp_path, case):
        quads = [QuadraticFn(np.array(A, dtype=float), np.array(b, dtype=float), c) for A, b, c in EDGE_STACKS[case]]
        p = Qcqp(quads[0], tuple(quads[1:]), len(quads) - 1, 0)
        # Every stack once whole, once split at its first row, and its first
        # row alone: an empty list, and a stack of one row.
        socs = [SocDescription(p.A, p.b, p.c, len(quads)), SocDescription(p.A, p.b, p.c, 1)]
        socs.append(SocDescription(p.A[:1], p.b[:1], p.c[:1], 1))
        trace = ({"depth": 0, "v": p.b[0].tolist(), "s": float(p.c[-1]), "child_aff_dims": []},)
        comb = ConvexCombination(points=tuple(map(EpigraphPoint, p.b, p.c)), weights=p.c, trace=trace)
        _assert_files_match_oracle(tmp_path, case, p, socs, [(EpigraphPoint(p.b[-1], p.c[0]), comb)])


_ENTRY = "from qcqp_hull.cli import main; main()"


def _cli_env(buffered: bool) -> dict:
    """The environment of a console-script run of this checkout, its
    stdout block-buffered (Python's default off a terminal) or not."""
    src = str(Path(qcqp_hull.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("PYTHONUNBUFFERED", None)
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


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

    @pytest.mark.parametrize("box,status,path", [("-10,10", "converged", "dual"), ("-2,2", "unbounded", "primal")])
    def test_solve_names_the_solve_that_certified(self, ex1_file, capsys, box, status, path):
        # On [-2, 2]^2 the optimum lies outside the box, so the primal decides.
        assert run(["solve", ex1_file, f"--box={box}"]) == 0
        line = capsys.readouterr().out.splitlines()[2]
        assert re.fullmatch(rf"status: {status}  iterations: \d+ \({path}\)  gap: \S+", line)

    def test_solve_difference_label_claims_no_order(self, tmp_path, capsys):
        # The grid relaxes x1 + x2 = 1 by a band, so its value falls below
        # the exact 0.5 and the difference comes out negative.
        from qcqp_hull.core import Qcqp, QuadraticFn

        eye = np.eye(2)
        p = Qcqp(
            QuadraticFn(eye, np.zeros(2), 0.0),
            (QuadraticFn(eye, np.zeros(2), -4.0), QuadraticFn(np.zeros((2, 2)), np.array([0.5, 0.5]), -1.0)),
            1,
            1,
        )
        f = str(tmp_path / "lineq.json")
        io.write_problem(f, p)
        assert run(["solve", f, "--box=-3,3"]) == 0
        text = capsys.readouterr().out
        assert "<=" not in text
        diff = float(text.split("brute force - relaxation:")[1].split()[0])
        relaxed = float(text.split("relaxed optimum (2t units):")[1].split()[0])
        brute = float(text.split("brute-force optimum:")[1].split()[0])
        assert diff < 0.0
        assert diff == pytest.approx(brute - relaxed, abs=1e-8)

    def test_analyze_conditioned_qmp(self, tmp_path, capsys):
        # Under this cond-1e4 map the rows of one joint eigenspace used to
        # differ in their last bits, and the double description stopped.
        from conftest import conditioned_map
        from qcqp_hull.core import affine_transform
        from qcqp_hull.generators import quadratic_matrix_program

        p = quadratic_matrix_program(2, 3, 2, seed=1)
        f = str(tmp_path / "qmp1c.json")
        io.write_problem(f, affine_transform(p, conditioned_map(np.random.default_rng(107), 6, 1e4), np.zeros(6)))
        assert run(["analyze", f]) == 0
        text = capsys.readouterr().out
        assert "quadratic eigenvalue multiplicity: k = 3" in text
        assert "[3 semidefinite of 7 faces]" in text
        assert "hull_guaranteed: TRUE" in text

    @pytest.mark.parametrize("count", ["--m1", "--m2", "--m3"])
    def test_generate_negative_count_exits_1(self, tmp_path, capsys, count):
        out = str(tmp_path / "sc.json")
        args = ["generate", "swisscheese", "--m1", "2", "--m2", "2", "--m3", "2", "--out", out]
        args[args.index(count) + 1] = "-2"
        assert run(args) == 1
        assert ">= 0" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["solve", "plot"])
    @pytest.mark.parametrize("box", ["--box=nan,1", "--box=-inf,inf", "--box=-10,nan"])
    def test_nonfinite_box_exits_1(self, tmp_path, ex1_file, capsys, command, box):
        out = str(tmp_path / "p.csv")
        assert run([command, ex1_file, box, *(["--out", out] if command == "plot" else [])]) == 1
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["analyze", "decompose", "solve", "plot"])
    @pytest.mark.parametrize("tol", ["inf", "-1", "0", "nan"])
    def test_tol_not_positive_finite_exits_1(self, tmp_path, ex1_file, capsys, command, tol):
        extra = {
            "analyze": ["--feasible-point=0,0"],
            "decompose": ["--point", "4,2,33.5"],
            "solve": ["--box=-10,10"],
            "plot": [],
        }[command]
        out = str(tmp_path / "out")
        assert run([command, ex1_file, "--tol", tol, "--out", out, *extra]) == 1
        assert "--tol must be a positive finite number" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_solve_at_three_dimensions(self, tmp_path, capsys):
        # The default brute-force grid at N = 3 is one slab (54^3 points).
        f = str(tmp_path / "g3.json")
        io.write_problem(f, generate(FamilySpec(family="gtrs", n=3, seed=0)))
        assert run(["solve", f, "--box=-10,10"]) == 0
        text = capsys.readouterr().out
        relaxed = float(text.split("relaxed optimum (2t units):")[1].split()[0])
        brute = float(text.split("brute-force optimum:")[1].split()[0])
        assert abs(brute - relaxed) <= 1e-3

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # The report (about 100 kB) outgrows the pipe buffer, so the writer
        # is still printing when the reader hangs up after one line.
        f = str(tmp_path / "sc20.json")
        io.write_problem(f, generate(FamilySpec(family="swisscheese", n=20, m1=4, m2=3, m3=3)))
        for buffered in (True, False):
            proc = subprocess.Popen(
                [sys.executable, "-c", _ENTRY, "analyze", f],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=_cli_env(buffered),
            )
            assert proc.stdout.readline().startswith(b"assumption1")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141, buffered
            assert err == b"", buffered

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command,buffered", [
        ("generate", True), ("generate", False), ("analyze", True), ("analyze", False),
        ("help", True), ("help", False),
    ])
    def test_full_stdout_is_one_error_line(self, tmp_path, ex1_file, command, buffered):
        # Block-buffered stdout (the default when it is not a terminal)
        # fails at the flush, unbuffered stdout at the print: one line each.
        args = {
            "generate": ["generate", "example1", "--out", str(tmp_path / "e.json")],
            "analyze": ["analyze", ex1_file],
            "help": ["--help"],
        }[command]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-c", _ENTRY, *args],
                stdout=full, stderr=subprocess.PIPE, env=_cli_env(buffered), timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr.decode() == f"error: cannot write standard output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize("command", ["hull", "analyze", "decompose", "generate", "plot"])
    @pytest.mark.parametrize("target", ["missing-dir", "is-dir"])
    def test_failed_write_is_one_error_line(self, tmp_path, ex1_file, capsys, command, target):
        # One line naming the path asked for, exit 1, and no temp file left.
        args = {
            "hull": ["hull", ex1_file],
            "analyze": ["analyze", ex1_file],
            "decompose": ["decompose", ex1_file, "--point", "4,2,33.5"],
            "generate": ["generate", "example1"],
            "plot": ["plot", ex1_file, "--resolution", "5"],
        }[command]
        if target == "missing-dir":
            out, reason = tmp_path / "missing" / "x.json", os.strerror(errno.ENOENT)
        else:
            out, reason = tmp_path / "out", os.strerror(errno.EISDIR)
            out.mkdir()
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(tmp_path.rglob("*")) == before

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
        # a file that is not UTF-8 is a parse error, not a usage error
        bad.write_bytes(b"\xff\xfe" + open(ex1_file, "rb").read())
        assert run(["hull", str(bad)]) == 2
        assert run(["decompose", str(bad), "--point", "4,2,33.5"]) == 2
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

    @pytest.mark.parametrize("eps", [1e-7, 5e-9])
    def test_barely_definite_multiplier_exit_code(self, tmp_path, eps):
        from test_certify import barely_definite_problem

        f = str(tmp_path / "barely.json")
        io.write_problem(f, barely_definite_problem(eps))
        assert run(["analyze", f]) == 3
        assert run(["hull", f]) == 3

    @pytest.mark.parametrize("resolution", ["0", "1"])
    def test_plot_resolution_below_two_exits_1(self, tmp_path, ex1_file, capsys, resolution):
        out = str(tmp_path / "p.csv")
        assert run(["plot", ex1_file, "--resolution", resolution, "--out", out]) == 1
        assert "resolution" in capsys.readouterr().err
        assert not os.path.exists(out)

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

    def test_grid_matches_point_evaluation(self, ex1, ex1_soc):
        # The grid kernel against the point kernel over the meshgrid's
        # points, in the same order, at the CLI's default resolution.
        x1, x2, td, th = plot2d(ex1, ex1_soc, [(-5.0, 5.0), (-5.0, 5.0)])
        axis = np.linspace(-5.0, 5.0, 201)
        X = np.stack([g.ravel() for g in np.meshgrid(axis, axis, indexing="ij")], axis=1)
        assert np.array_equal(x1, X[:, 0]) and np.array_equal(x2, X[:, 1])
        obj, viol = objective_and_violations(ex1, X)
        want_d = np.where(np.all(viol <= 1e-8, axis=0), 0.5 * obj, np.inf)
        svals = _kernels.eval_quadratics(ex1_soc.A, ex1_soc.b, ex1_soc.c, X)
        ne = len(ex1_soc.epigraph)
        want_h = np.where(np.all(svals[ne:] <= 1e-8, axis=0), 0.5 * svals[:ne].max(axis=0), np.inf)
        for got, want in ((td, want_d), (th, want_h)):
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * np.maximum(1.0, np.abs(want[finite])))
