"""The file writers as the package shipped them before numbers were encoded
once per distinct value, kept verbatim as a test oracle: ``_layout`` and
the three ``*_to_dict`` document builders, which ``tolist()`` every array
and let ``json.dumps`` encode each entry.  Every problem, hull and
certificate file the shipped writers produce must be byte-identical to
``file_text`` of the matching document here.
"""

from __future__ import annotations

import json

import numpy as np


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


def file_text(doc: dict) -> str:
    """What ``_write_json`` wrote for ``doc``."""
    return _layout(doc) + "\n"


def _stack_to_dicts(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> list:
    """One ``{A, b, c}`` object per row of a quadratic stack."""
    return [{"A": Ak, "b": bk, "c": ck} for Ak, bk, ck in zip(A.tolist(), b.tolist(), c.tolist())]


def problem_to_dict(p) -> dict:
    return {
        "n": p.dim,
        "mi": p.num_inequalities,
        "me": p.num_equalities,
        "quadratics": _stack_to_dicts(p.A, p.b, p.c),
    }


def certificate_to_dict(target, comb, tol: float) -> dict:
    return {
        "point": {"x": target.x.tolist(), "t": target.t},
        "weights": np.asarray(comb.weights).tolist(),
        "points": [{"x": pt.x.tolist(), "t": pt.t} for pt in comb.points],
        "trace": list(comb.trace),
        "tol": tol,
    }


def soc_to_dict(d) -> dict:
    rows = _stack_to_dicts(d.A, d.b, d.c)
    ne = len(d.epigraph)
    return {"n": d.dim, "epigraph": rows[:ne], "homogeneous": rows[ne:]}
