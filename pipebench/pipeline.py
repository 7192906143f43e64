"""Workloads, jobs and correctness checks of the pipeline benchmark.

Each workload is a fixed pool of generated instances plus the jobs run on
them.  A job is one user-visible operation, timed as a whole:

* ``hull``: problem file -> build_gamma_data -> soc_description -> hull
  file, as the ``hull`` subcommand does;
* ``analyze``: analyze_problem, as the ``analyze`` subcommand does;
* ``solve``: build_gamma_data -> soc_description -> minimize_soc over a
  fixed box with a fixed iteration budget, plus the brute_force oracle
  when N = 2 (at N = 3 its default grid is 64M points);
* ``decompose``: decompose one sampled relaxed-epigraph point and
  re-verify the certificate.

The library is reached only through module attributes (``lib.io.x``), so
the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

import qcqp_hull as lib
from qcqp_hull import certify, gamma, hull, io, solve  # noqa: F401  (reached as lib.<module>)
from qcqp_hull.core import EpigraphPoint
from qcqp_hull.errors import GuardExceeded, QcqpHullError
from qcqp_hull.generators import FamilySpec, generate

SOLVE_BOX = (-10.0, 10.0)
# Converged solves here take at most 80 Kelley iterations (about 120 on
# other seeds of these families); 200 caps a stall below a second instead
# of minutes at the library default of 10000.
SOLVE_MAX_ITER = 200
SOLVE_TOL = 1e-8
TARGETS_PER_INSTANCE = 16
TARGET_TRIES = 300  # acceptance is 0.7-7.6% on swisscheese N = 3..5
TARGET_BOX = 3.0
TARGET_SLACK = 2.0
EXAMPLE1_VALUE = -17.5
BRUTE_FORCE_AGREEMENT = 1e-3
REFERENCE_RTOL = 1e-6


@dataclass(frozen=True)
class Instance:
    spec: FamilySpec

    @property
    def key(self) -> str:
        s = self.spec
        if s.family == "example1":
            return "example1"
        if s.family == "gtrs":
            return f"gtrs:n={s.n}:seed={s.seed}"
        if s.family == "qmp":
            return f"qmp:n={s.n}:k={s.k}:m={s.m}:seed={s.seed}"
        return f"swisscheese:n={s.n}:m={s.m1},{s.m2},{s.m3}:seed={s.seed}"


def _gtrs(n, seeds):
    return [Instance(FamilySpec("gtrs", n=n, seed=s)) for s in seeds]


def _qmp(n, k, m, seeds):
    return [Instance(FamilySpec("qmp", n=n, k=k, m=m, seed=s)) for s in seeds]


def _swiss(n, m, seeds):
    m1 = math.ceil(m / 3)
    m2 = math.ceil((m - m1) / 2)
    return [
        Instance(FamilySpec("swisscheese", n=n, m1=m1, m2=m2, m3=m - m1 - m2, seed=s))
        for s in seeds
    ]


EXAMPLE1 = Instance(FamilySpec("example1"))


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple  # instances run through `kinds`
    kinds: tuple
    # Small certified instances whose solve and decompose jobs run on
    # every workload, so each job kind is timed everywhere; on dense and
    # lattice they are the control that an eigen- or face-side change
    # should leave flat.
    control: tuple


# Passes per run at least.  Each job's latency is its fastest timed run,
# so repeats spread over the run filter out slow spells of a shared host.
MIN_PASSES = 3
# The control set's targets do not depend on --seed, so its numbers stay
# comparable across workloads and runs.
CONTROL_SEED = 0

CONTROL = (EXAMPLE1, *_gtrs(2, (0, 1, 2, 3)), *_qmp(1, 2, 2, (0, 1, 2)))

WORKLOADS = {
    # Gamma has 2-14 vertices here, so the dense N x N eigenproblems
    # dominate; every gtrs analyze is refused by the face guard.
    "dense": Workload(
        "dense",
        pool=(*_gtrs(40, (0, 1)), *_gtrs(60, (0,)), *_qmp(10, 4, 3, (0, 1)), *_qmp(16, 4, 3, (0,))),
        kinds=("hull", "analyze"),
        control=CONTROL,
    ),
    # Face enumeration over 100-2000 faces dominates; eigenproblems are
    # scaled identities and cost nothing.
    "lattice": Workload(
        "lattice",
        pool=(*(i for m in (6, 7, 8, 9) for i in _swiss(20, m, (0, 1))), *_swiss(20, 10, (0,))),
        kinds=("hull", "analyze"),
        control=CONTROL,
    ),
    # Kelley cutting planes and HiGHS LPs dominate; decompose exercises
    # the query side of gamma (optimal_face / classify_face per point).
    "solve-certify": Workload(
        "solve-certify",
        pool=(
            EXAMPLE1,
            *(i for n in (2, 3, 4, 5, 6) for i in _gtrs(n, (0, 1))),
            *_qmp(1, 2, 2, range(3, 9)),
            *_qmp(2, 3, 2, range(3, 9)),
            *(i for n in (3, 4, 5) for i in _swiss(n, 3, range(3, 9))),
        ),
        kinds=("hull", "analyze", "solve", "decompose"),
        control=(),
    ),
}


@dataclass
class Prepared:
    """Per-instance set-up state: the problem, its file, and for
    decompose jobs the multiplier data, hull description and targets."""

    inst: Instance
    problem: object
    path: str
    gd: object = None
    soc: object = None
    targets: list = field(default_factory=list)

    @property
    def size(self) -> str:
        return f"{self.inst.spec.family} N={self.problem.dim} m={self.problem.num_constraints}"


@dataclass(frozen=True)
class Job:
    id: int
    kind: str
    prep: Prepared
    target: object = None


def sample_targets(p, gd, rng) -> list:
    """Relaxed-epigraph points drawn as the acceptance suite draws them:
    uniform x in a box, kept when the supremum over Gamma is finite, with
    t = sup / 2 + slack.  Tries are capped, so an instance with a tiny
    acceptance rate can get fewer targets."""
    out = []
    for _ in range(TARGET_TRIES):
        if len(out) == TARGETS_PER_INSTANCE:
            break
        x = rng.uniform(-TARGET_BOX, TARGET_BOX, size=p.dim)
        res = lib.gamma.optimal_face(gd.v, p, x, gd.h)
        if res is None:
            continue
        out.append(EpigraphPoint(x, 0.5 * (res[0] + abs(rng.uniform(0.0, TARGET_SLACK)))))
    return out


def prepare(w: Workload, seed: int, workdir: str) -> list:
    """Generate every instance, write its problem file and, where
    decompose jobs run, build its hull data and sample targets."""
    preps = []
    for group, kinds, group_seed in (
        (w.pool, w.kinds, seed),
        (w.control, ("solve", "decompose"), CONTROL_SEED),
    ):
        rng = np.random.default_rng(group_seed)
        for inst in group:
            p = generate(inst.spec)
            path = os.path.join(workdir, inst.key.replace(":", "_").replace(",", "-") + ".json")
            lib.io.write_problem(path, p)
            prep = Prepared(inst, p, path)
            if "decompose" in kinds:
                prep.gd = lib.gamma.build_gamma_data(p)
                prep.soc = lib.hull.soc_description(prep.gd.v, p)
                prep.targets = sample_targets(p, prep.gd, rng)
            preps.append((prep, kinds))
    return preps


def job_list(preps, seed: int) -> list:
    """Every job of one pass, in an order shuffled by the seed."""
    work = []
    for prep, kinds in preps:
        for kind in kinds:
            targets = prep.targets if kind == "decompose" else [None]
            work.extend((kind, prep, t) for t in targets)
    order = np.random.default_rng(seed).permutation(len(work))
    return [Job(i, *work[k]) for i, k in enumerate(order)]


# ---------------------------------------------------------------------------
# Jobs.  Each returns a summary of plain values; library errors propagate
# and count as failed operations.


def run_hull(job: Job) -> dict:
    p = lib.io.read_problem(job.prep.path)
    gd = lib.gamma.build_gamma_data(p)
    soc = lib.hull.soc_description(gd.v, p)
    out = job.prep.path[: -len(".json")] + ".hull.json"
    lib.io.write_soc(out, soc)
    return {
        "vertices": int(gd.v.vertices.shape[0]),
        "rays": int(gd.v.rays.shape[0]),
        "epigraph": len(soc.epigraph),
        "homogeneous": len(soc.homogeneous),
        "bytes": os.path.getsize(out),
    }


def run_analyze(job: Job) -> dict:
    report, gd = lib.certify.analyze_problem(job.prep.problem)
    return {
        "hull_guaranteed": bool(report.hull_guaranteed),
        "theorem1": report.theorem1,
        "theorem2": report.theorem2,
        "faces": report.num_faces,
        "semidefinite_faces": len(report.semidefinite_faces),
        "vertices": None if gd is None else int(gd.v.vertices.shape[0]),
        "rays": None if gd is None else int(gd.v.rays.shape[0]),
    }


def run_solve(job: Job) -> dict:
    p = job.prep.problem
    gd = lib.gamma.build_gamma_data(p)
    soc = lib.hull.soc_description(gd.v, p)
    res = lib.solve.minimize_soc(soc, SOLVE_BOX, tol=SOLVE_TOL, max_iter=SOLVE_MAX_ITER)
    out = {
        "status": res.status,
        "value": float(res.value),
        "minimizer": [float(v) for v in res.minimizer],
        "iterations": int(res.iterations),
        "gap": float(res.gap),
    }
    if p.dim == 2:
        out["brute_force"] = float(lib.solve.brute_force(p, SOLVE_BOX)[0])
    return out


def run_decompose(job: Job) -> dict:
    prep = job.prep
    comb = lib.hull.decompose(prep.problem, prep.gd, job.target, soc=prep.soc)
    ok = lib.hull.verify_certificate(prep.problem, comb, job.target)
    return {
        "verified": bool(ok),
        "points": len(comb.points),
        "splits": len(comb.trace),
        "depth": 1 + max((int(r["depth"]) for r in comb.trace), default=-1),
        "weights": [float(w) for w in comb.weights],
    }


RUNNERS = {"hull": run_hull, "analyze": run_analyze, "solve": run_solve, "decompose": run_decompose}


def run_job(job: Job):
    """(summary, error name).  A summary with a non-converged solve status
    is a failed operation too; see `failed`."""
    try:
        return RUNNERS[job.kind](job), ""
    except QcqpHullError as e:
        return None, type(e).__name__


def failed(kind: str, summary, error: str) -> bool:
    if error:
        return True
    return kind == "solve" and summary["status"] == "iteration_limit"


def is_guard_refusal(error: str) -> bool:
    return error == GuardExceeded.__name__


# ---------------------------------------------------------------------------
# Correctness: a returned result that is wrong.  Raised library errors are
# failures, counted elsewhere, never wrong results.


def _close(a, b, rtol=REFERENCE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check(workload: str, job: Job, summary, reference: dict) -> list:
    if summary is None:
        return []
    key = job.prep.inst.key
    ref = reference.get(key, {})
    errs = []
    if job.kind == "decompose" and not summary["verified"]:
        errs.append(f"{key}: certificate failed verify_certificate")
    if job.kind == "analyze":
        if workload != "dense" and not summary["hull_guaranteed"]:
            errs.append(f"{key}: analyze did not report hull_guaranteed")
        r = ref.get("analyze")
        if r is None:
            errs.append(f"{key}: no analyze entry in the reference table")
        elif isinstance(r, dict):
            for k in ("hull_guaranteed", "faces", "semidefinite_faces", "vertices", "rays"):
                if summary[k] != r[k]:
                    errs.append(f"{key}: analyze {k} = {summary[k]}, reference {r[k]}")
    if job.kind == "hull":
        r = ref.get("hull")
        if r is None:
            errs.append(f"{key}: no hull entry in the reference table")
        elif isinstance(r, dict):
            for k in ("vertices", "rays", "epigraph", "homogeneous"):
                if summary[k] != r[k]:
                    errs.append(f"{key}: hull {k} = {summary[k]}, reference {r[k]}")
    if job.kind == "solve" and summary["status"] != "iteration_limit":
        value = summary["value"]
        if key == "example1":
            x = summary["minimizer"]
            if abs(value - EXAMPLE1_VALUE) > 1e-5:
                errs.append(f"example1: solve value {value}, expected {EXAMPLE1_VALUE}")
            if abs(x[0] + 2.5) > 1e-4 or abs(abs(x[1]) - math.sqrt(1.25)) > 1e-4:
                errs.append(f"example1: minimizer {x}, expected (-2.5, +-sqrt(1.25))")
        if "brute_force" in summary and abs(summary["brute_force"] - value) > BRUTE_FORCE_AGREEMENT:
            errs.append(f"{key}: solve {value} vs brute force {summary['brute_force']}")
        r = ref.get("solve")
        if r is None:
            errs.append(f"{key}: no solve entry in the reference table")
        elif isinstance(r, dict) and r["status"] != "iteration_limit":
            if r["status"] != summary["status"] or not _close(value, r["value"]):
                errs.append(
                    f"{key}: solve {summary['status']} {value}, reference {r['status']} {r['value']}"
                )
    return errs


def same_result(a, b) -> bool:
    """Replay equality: identical verdicts and counts, floats equal to
    within rounding."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_result(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same_result(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return _close(a, b, 1e-9)
    return a == b


def reference_entry(prep: Prepared, kinds) -> dict:
    """Outcomes of one instance as the reference table records them: the
    summary, or the name of the library error it raised."""
    entry = {}
    for kind in kinds:
        if kind == "decompose":
            continue
        summary, error = run_job(Job(0, kind, prep))
        if summary is None:
            entry[kind] = error
        elif kind == "solve":
            entry[kind] = {k: summary[k] for k in ("status", "value", "iterations")}
        elif kind == "hull":
            entry[kind] = {k: summary[k] for k in ("vertices", "rays", "epigraph", "homogeneous")}
        else:
            entry[kind] = summary
    return entry
