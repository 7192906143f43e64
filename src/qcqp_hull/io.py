"""File formats: problem JSON, certificate JSON, hull JSON, plot CSV.

Problem files are UTF-8 JSON with keys ``n``, ``mi``, ``me`` and
``quadratics`` (a list of ``{A, b, c}`` objects, index 0 the objective).
Values round-trip losslessly: Python's float repr is shortest-exact.
All writes are atomic (temp file + rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .core import EpigraphPoint, Qcqp, QuadraticFn
from .errors import ParseError
from .hull import ConvexCombination, SocDescription


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def _quad_to_dict(q: QuadraticFn) -> dict:
    return {"A": q.A.tolist(), "b": q.b.tolist(), "c": q.c}


def _quad_from_dict(d: dict) -> QuadraticFn:
    return QuadraticFn(np.array(d["A"], dtype=float), np.array(d["b"], dtype=float), float(d["c"]))


def problem_to_dict(p: Qcqp) -> dict:
    return {
        "n": p.dim,
        "mi": p.num_inequalities,
        "me": p.num_equalities,
        "quadratics": [_quad_to_dict(q) for q in p.quadratics()],
    }


def problem_from_dict(d: dict) -> Qcqp:
    try:
        quads = [_quad_from_dict(q) for q in d["quadratics"]]
        p = Qcqp(
            objective=quads[0],
            constraints=tuple(quads[1:]),
            num_inequalities=int(d["mi"]),
            num_equalities=int(d["me"]),
        )
        n = int(d["n"])
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise ParseError(f"invalid problem document: {e}") from e
    if p.dim != n:
        raise ParseError(f"declared dimension {n} does not match quadratics ({p.dim})")
    return p


def write_problem(path: str, p: Qcqp) -> None:
    _write_json(path, problem_to_dict(p))


def read_problem(path: str) -> Qcqp:
    return problem_from_dict(_read_json(path))


def certificate_to_dict(target: EpigraphPoint, comb: ConvexCombination, tol: float) -> dict:
    return {
        "point": {"x": target.x.tolist(), "t": target.t},
        "weights": np.asarray(comb.weights).tolist(),
        "points": [{"x": pt.x.tolist(), "t": pt.t} for pt in comb.points],
        "trace": list(comb.trace),
        "tol": tol,
    }


def certificate_from_dict(d: dict):
    try:
        target = EpigraphPoint(np.array(d["point"]["x"], dtype=float), float(d["point"]["t"]))
        points = tuple(
            EpigraphPoint(np.array(e["x"], dtype=float), float(e["t"])) for e in d["points"]
        )
        comb = ConvexCombination(
            points=points,
            weights=np.array(d["weights"], dtype=float),
            trace=tuple(d.get("trace", ())),
        )
        tol = float(d["tol"])
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid certificate document: {e}") from e
    return target, comb, tol


def write_certificate(path: str, target: EpigraphPoint, comb: ConvexCombination, tol: float) -> None:
    _write_json(path, certificate_to_dict(target, comb, tol))


def read_certificate(path: str):
    return certificate_from_dict(_read_json(path))


def soc_to_dict(d: SocDescription) -> dict:
    return {
        "n": d.dim,
        "epigraph": [_quad_to_dict(q) for q in d.epigraph],
        "homogeneous": [_quad_to_dict(q) for q in d.homogeneous],
    }


def write_soc(path: str, d: SocDescription) -> None:
    _write_json(path, soc_to_dict(d))


def plot_csv_text(x1, x2, tmin_d, tmin_hull) -> str:
    lines = ["x1,x2,tmin_d,tmin_hull"]
    for a, b, td, th in zip(x1, x2, tmin_d, tmin_hull):
        lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(td)},{_fmt(th)}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return "inf" if not np.isfinite(v) else repr(float(v))
