"""File formats: problem JSON, certificate JSON, hull JSON, plot CSV.

Problem files are UTF-8 JSON with keys ``n``, ``mi``, ``me`` and
``quadratics`` (a list of ``{A, b, c}`` objects, index 0 the objective).
Values round-trip losslessly: Python's float repr is shortest-exact.
All writes are atomic (temp file + rename).

Every JSON file is laid out by ``_layout``, two spaces per level: an
object puts each key on its own line, a list of objects each object, and a
matrix (a list of lists of numbers) each row.  Vectors and scalars stay on
one line.  All numbers go through ``json.dumps`` without ``indent``, which
runs json's C encoder (``indent`` would switch it to the pure-Python one);
a matrix is encoded in one call and then broken at its rows.  The file
ends with a newline, and ``json.load`` reads it as the same document.
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


def _layout(value, pad: str = "") -> str:
    """JSON text of ``value`` in the layout of the module docstring."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_layout(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and value and isinstance(value[0], dict):
        items = [inner + _layout(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    text = json.dumps(value)
    if isinstance(value, list) and value and isinstance(value[0], list) and '"' not in text:
        # A matrix: with no strings in it, "], [" only separates its rows.
        return "[\n" + inner + text[1:-1].replace("], [", "],\n" + inner + "[") + "\n" + pad + "]"
    return text


def _write_json(path: str, doc: dict) -> None:
    atomic_write_text(path, _layout(doc) + "\n")


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def _stack_to_dicts(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> list:
    """One ``{A, b, c}`` object per row of a quadratic stack."""
    return [{"A": Ak, "b": bk, "c": ck} for Ak, bk, ck in zip(A.tolist(), b.tolist(), c.tolist())]


def _quad_from_dict(d: dict) -> QuadraticFn:
    return QuadraticFn(np.array(d["A"], dtype=float), np.array(d["b"], dtype=float), float(d["c"]))


def problem_to_dict(p: Qcqp) -> dict:
    return {
        "n": p.dim,
        "mi": p.num_inequalities,
        "me": p.num_equalities,
        "quadratics": _stack_to_dicts(p.A, p.b, p.c),
    }


def _count(d: dict, key: str) -> int:
    """The JSON integer ``d[key]``; a float, string or bool is refused."""
    value = d[key]
    if type(value) is not int:
        raise ParseError(f"{key!r} must be an integer, got {value!r}")
    return value


def problem_from_dict(d: dict) -> Qcqp:
    try:
        n, mi, me = _count(d, "n"), _count(d, "mi"), _count(d, "me")
        quads = [_quad_from_dict(q) for q in d["quadratics"]]
        p = Qcqp(objective=quads[0], constraints=tuple(quads[1:]), num_inequalities=mi, num_equalities=me)
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
    rows = _stack_to_dicts(d.A, d.b, d.c)
    ne = len(d.epigraph)
    return {"n": d.dim, "epigraph": rows[:ne], "homogeneous": rows[ne:]}


def write_soc(path: str, d: SocDescription) -> None:
    _write_json(path, soc_to_dict(d))


def plot_csv_text(x1, x2, tmin_d, tmin_hull) -> str:
    lines = ["x1,x2,tmin_d,tmin_hull"]
    for a, b, td, th in zip(x1, x2, tmin_d, tmin_hull):
        lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(td)},{_fmt(th)}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return "inf" if not np.isfinite(v) else repr(float(v))
