"""In-memory span recorder for the traced benchmark run.

``Tracer.instrument`` swaps each listed public function of ``qcqp_hull``
for a timing wrapper at every module attribute that holds it (the package
namespace, the defining module and each module that imported the name),
so calls from the benchmark and calls between library layers both record
a span.  The originals are restored on exit; the library source is not
touched.  Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name).  Span names are "<layer>.<function>";
# the layer is the package module, with ``_kernels`` shortened to
# ``kernels``.
TARGETS = (
    ("qcqp_hull.io", "read_problem", "io.read_problem"),
    ("qcqp_hull.io", "write_soc", "io.write_soc"),
    ("qcqp_hull.linalg", "sym_eig", "linalg.sym_eig"),
    ("qcqp_hull.linalg", "psd_status", "linalg.psd_status"),
    ("qcqp_hull.linalg", "whiten_simdiag", "linalg.whiten_simdiag"),
    ("qcqp_hull.linalg", "kron_multiplicity", "linalg.kron_multiplicity"),
    ("qcqp_hull.linalg", "solve_homogeneous", "linalg.solve_homogeneous"),
    ("qcqp_hull._kernels", "jacobi_eigh", "kernels.jacobi_eigh"),
    ("qcqp_hull._kernels", "eval_quadratics", "kernels.eval_quadratics"),
    ("qcqp_hull.gamma", "find_definite_multiplier", "gamma.find_definite_multiplier"),
    ("qcqp_hull.gamma", "build_gamma", "gamma.build_gamma"),
    ("qcqp_hull.gamma", "dd_vrep", "gamma.dd_vrep"),
    ("qcqp_hull.gamma", "find_gamma_star", "gamma.find_gamma_star"),
    ("qcqp_hull.gamma", "build_gamma_data", "gamma.build_gamma_data"),
    ("qcqp_hull.gamma", "enumerate_faces", "gamma.enumerate_faces"),
    ("qcqp_hull.gamma", "classify_face", "gamma.classify_face"),
    ("qcqp_hull.gamma", "optimal_face", "gamma.optimal_face"),
    ("qcqp_hull.certify", "analyze_problem", "certify.analyze_problem"),
    ("qcqp_hull.certify", "check_conditions", "certify.check_conditions"),
    ("qcqp_hull.hull", "soc_description", "hull.soc_description"),
    ("qcqp_hull.hull", "decompose", "hull.decompose"),
    ("qcqp_hull.hull", "verify_certificate", "hull.verify_certificate"),
    ("qcqp_hull.solve", "minimize_soc", "solve.minimize_soc"),
    ("qcqp_hull.solve", "brute_force", "solve.brute_force"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    job: int
    size: str
    error: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _eval_quadratics_counts(args) -> dict:
    """Points and flops of one batched evaluation, computed from the
    argument shapes: per quadratic and point, x'Ax costs 2N^2 flops and
    2b'x + c another 2N + 1."""
    A_stack, X = args[0], args[3]
    k, n = A_stack.shape[0], A_stack.shape[1]
    points = int(X.shape[0])
    return {"points": points, "flops": k * points * (2 * n * n + 2 * n + 1)}


_COUNTERS = {"kernels.eval_quadratics": _eval_quadratics_counts}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.job = -1
        self.size = ""

    def span(self, name: str):
        return _SpanContext(self, name)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.job, self.size))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, error: str = "") -> None:
        self.spans[idx].end = time.perf_counter()
        self.spans[idx].error = error
        self._stack.pop()

    def _wrap(self, fn, name: str):
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            if counter is not None:
                self.spans[idx].attrs = counter(args)
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                self._close(idx, type(e).__name__)
                raise
            self._close(idx)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def instrument(self):
        """Route every call of a TARGETS function through a span wrapper."""
        patched = []
        try:
            for mod_name, attr, name in TARGETS:
                mod = sys.modules.get(mod_name)
                fn = getattr(mod, attr, None) if mod is not None else None
                if fn is None:
                    continue  # absent in this version of the library
                wrapper = self._wrap(fn, name)
                for m in list(sys.modules.values()):
                    if getattr(m, "__name__", "").split(".")[0] != "qcqp_hull":
                        continue
                    for key, val in list(vars(m).items()):
                        if val is fn:
                            setattr(m, key, wrapper)
                            patched.append((m, key, fn))
            yield self
        finally:
            for m, key, fn in reversed(patched):
                setattr(m, key, fn)

    def self_times(self) -> list:
        """Per span: its duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def summary(self, passes: int) -> dict:
        """Totals per span name and per (name, instance size), as time per
        pass (inclusive and self), calls per pass and summed attributes."""
        selfs = self.self_times()
        by_name = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0, "errors": 0})
        by_size = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        attrs = defaultdict(float)
        for s, st in zip(self.spans, selfs):
            for rec in (by_name[s.name], by_size[(s.name, s.size)]):
                rec["total_s"] += s.duration
                rec["self_s"] += st
                rec["calls"] += 1
            if s.error:
                by_name[s.name]["errors"] += 1
            for k, v in s.attrs.items():
                attrs[f"{s.name}_{k}"] += v
        scale = 1.0 / max(passes, 1)
        for table in (by_name, by_size):
            for rec in table.values():
                for k in rec:
                    rec[k] *= scale
        return {
            "by_name": dict(by_name),
            "by_size": {f"{n} @ {sz}": rec for (n, sz), rec in sorted(by_size.items())},
            "attrs": {k: v * scale for k, v in attrs.items()},
        }

    def dump(self) -> list:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "job": s.job,
                "size": s.size,
                **({"error": s.error} if s.error else {}),
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)
        return self.tracer.spans[self.idx]

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx, exc_type.__name__ if exc_type else "")
        return False
