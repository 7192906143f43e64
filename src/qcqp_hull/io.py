"""File formats: problem JSON, certificate JSON, hull JSON, plot CSV.

Problem files are UTF-8 JSON with keys ``n``, ``mi``, ``me`` and
``quadratics`` (a list of ``{A, b, c}`` objects, index 0 the objective).
Values round-trip losslessly: Python's float repr is shortest-exact.
All writes are atomic (temp file + rename), and a written file gets the
mode ``open`` would give a new one (0o666 less the umask).

Every JSON file is laid out by ``_layout``, two spaces per level: an
object puts each key on its own line, a list of objects each object, and a
matrix each row.  Vectors and scalars stay on one line.  The writers hand
a document's arrays to ``_number_texts``, which encodes each distinct bit
pattern among them once, in one ``json.dumps`` call without ``indent``
(json's C encoder; ``indent`` would switch it to the pure-Python one), and
gives every entry its value's text.  So a value repeated across rows and
matrices costs one float repr, and the bytes are those of encoding every
entry: -0.0 and 0.0 are distinct patterns.  The file ends with a newline,
and ``json.load`` reads it as the same document.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .core import EpigraphPoint, Qcqp, QuadraticFn
from .errors import ParseError, QcqpHullError
from .hull import ConvexCombination, SocDescription


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temp file beside it and a
    rename.  A failure leaves no temp file; an OSError is raised as
    QcqpHullError("cannot write <path>: <reason>")."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    # Created as open() creates a file: mode 0o666 less the umask (mkstemp
    # would make it 0o600); O_EXCL never takes over an existing file.
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            try:
                f = os.fdopen(fd, "w", encoding="utf-8")
            except BaseException:
                os.close(fd)
                raise
            with f:
                f.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise QcqpHullError(f"cannot write {path}: {e.strerror}") from e


def _number_texts(*arrays) -> list:
    """``json.dumps``'s text of each entry of each float array, as object
    arrays of their shapes.  Each distinct bit pattern among them is
    encoded once."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    bits = np.concatenate([a.ravel() for a in arrays]).view(np.int64)
    # The same keys and inverse as np.unique(bits, return_inverse=True),
    # whose argsort took twice as long on qmp N=64's 57k entries (2.6 vs
    # 1.3 ms, numpy 2.4 on a Xeon with AVX-512) and on 40 entries (8 vs
    # 4 us).
    keys = np.sort(bits)
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    keys = keys[first]
    # A float's text holds no ", ", so the list splits at its items.
    texts = np.array(json.dumps(keys.view(float).tolist())[1:-1].split(", "), dtype=object)
    texts = texts[np.searchsorted(keys, bits)]
    out, end = [], 0
    for a in arrays:
        out.append(texts[end:end + a.size].reshape(a.shape))
        end += a.size
    return out


def _layout(value, pad: str = "") -> str:
    """JSON text of ``value`` in the layout of the module docstring; an
    ndarray holds number texts from ``_number_texts``."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{json.dumps(k)}: {_layout(v, inner)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, list) and value and isinstance(value[0], dict):
        items = [inner + _layout(v, inner) for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, np.ndarray) and value.ndim == 2:
        rows = [f"[{', '.join(row)}]" for row in value.tolist()]
        return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"
    if isinstance(value, np.ndarray):
        return f"[{', '.join(value.tolist())}]"
    return json.dumps(value)


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
    A, b = _number_texts(A, b)
    return [{"A": Ak, "b": bk, "c": ck} for Ak, bk, ck in zip(A, b, c.tolist())]


def _quad_from_dict(d: dict) -> QuadraticFn:
    return QuadraticFn(np.array(d["A"], dtype=float), np.array(d["b"], dtype=float), float(d["c"]))


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
    _write_json(path, {
        "n": p.dim,
        "mi": p.num_inequalities,
        "me": p.num_equalities,
        "quadratics": _stack_to_dicts(p.A, p.b, p.c),
    })


def read_problem(path: str) -> Qcqp:
    return problem_from_dict(_read_json(path))


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
    x, weights, xs = _number_texts(target.x, comb.weights, np.array([pt.x for pt in comb.points]))
    _write_json(path, {
        "point": {"x": x, "t": target.t},
        "weights": weights,
        "points": [{"x": xk, "t": pt.t} for xk, pt in zip(xs, comb.points)],
        "trace": list(comb.trace),
        "tol": tol,
    })


def read_certificate(path: str):
    return certificate_from_dict(_read_json(path))


def write_soc(path: str, d: SocDescription) -> None:
    rows, ne = _stack_to_dicts(d.A, d.b, d.c), d.num_epigraph
    _write_json(path, {"n": d.dim, "epigraph": rows[:ne], "homogeneous": rows[ne:]})


def plot_csv_text(x1, x2, tmin_d, tmin_hull) -> str:
    lines = ["x1,x2,tmin_d,tmin_hull"]
    for a, b, td, th in zip(x1, x2, tmin_d, tmin_hull):
        lines.append(f"{_fmt(a)},{_fmt(b)},{_fmt(td)},{_fmt(th)}")
    return "\n".join(lines) + "\n"


def _fmt(v: float) -> str:
    return "inf" if not np.isfinite(v) else repr(float(v))
