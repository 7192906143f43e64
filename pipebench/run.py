"""End-to-end benchmark of the qcqp-hull pipeline.

Run from the repository root:

    python3 pipebench/run.py --workload dense --seed 1 --seconds 20 --trace 0

Workloads: dense, lattice, solve-certify (see pipebench/README.md).
``--trace 0`` times whole jobs and prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes, checks that the
traced replay returns the same results, and prints per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed
report (environment, sample counts, per-size breakdown, spans) goes to
pipebench/out/.

``python3 pipebench/run.py --record-reference`` rewrites the reference
table of V/R/face counts and solve values from the current code.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread per process, fixed before numpy loads, so timings do not
# depend on how many cores the BLAS grabs.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

SETUP_REPS = 3
# A job shorter than REP_TARGET_S runs several times back to back in each
# pass (see `repeats`), so its fastest run is a warm one.
REP_TARGET_S = 0.05
MAX_REPS = 5
# The probe time (see `HostSpeed`) at which measured times are reported
# unchanged: the probe's 25th percentile over runs on the host this
# benchmark was tuned on (2 vCPUs of a shared Xeon).
REFERENCE_PROBE_S = 2.15e-3
# Passes per job assumed when placing the tail percentile, fixed so that
# the percentile does not move with the number of passes a run makes.
TAIL_PASSES = 4
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qcqp_hull; print(time.perf_counter() - t)"
)


def fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "qcqp_hull", "__init__.py")):
        fail(f"no qcqp_hull package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import scipy

    import pipeline
    import tracing
    from qcqp_hull import _kernels

    if not os.path.abspath(pipeline.lib.__file__).startswith(SRC + os.sep):
        fail(f"qcqp_hull imported from {pipeline.lib.__file__}, not from {SRC}")
    env = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "kernels_backend": _kernels.backend(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "blas": _blas_name(),
    }
    return pipeline, tracing, env


def _blas_name() -> str:
    try:
        cfg = np.show_config(mode="dicts")
        return str(cfg["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError):
        return "unknown"


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, SRC],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


_PROBE_M = np.random.default_rng(0).standard_normal((40, 40))
_PROBE_M = _PROBE_M + _PROBE_M.T
_PROBE_V = np.random.default_rng(1).standard_normal(60_000)


def _probe() -> float:
    """About 2 ms of the kind of work the library does, none of it library
    code: an interpreter loop, then small dense numpy calls."""
    t = time.perf_counter()
    x = 0
    for i in range(20_000):
        x += i * i
    for _ in range(4):
        np.linalg.eigh(_PROBE_M)
        _PROBE_M @ _PROBE_M
        (_PROBE_V * 1.0001).sum()
    return time.perf_counter() - t


# The CPUs this process may use, read before the process pins itself to one.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


class HostSpeed:
    """Tracks how fast the host runs at the moment, between jobs.

    Other tenants of a shared host slow each CPU by up to 1.5x, for spells
    from a second to several minutes.  Every EVERY_S, between jobs,
    `settle` times the probe on each allowed CPU, pins the process to the
    fastest and records that time.  Spells shorter than a run are then
    sidestepped; `scale` corrects for the ones that outlast it.  The
    probes are not part of any timed job."""

    EVERY_S = 0.25

    def __init__(self):
        self.cpus = list(ALLOWED_CPUS)
        self.last = -math.inf
        self.probes = []

    def _probe_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(_probe(), _probe())

    def settle(self) -> None:
        if time.perf_counter() - self.last < self.EVERY_S:
            return
        if len(self.cpus) > 1:
            try:
                times = {cpu: self._probe_on(cpu) for cpu in self.cpus}
                best = min(times, key=times.get)
                os.sched_setaffinity(0, {best})
                self.probes.append(times[best])
            except OSError:  # affinity not permitted here: stay where we are
                self.cpus = []
        if len(self.cpus) < 2:
            self.probes.append(min(_probe(), _probe()))
        self.last = time.perf_counter()

    def probe_s(self) -> float:
        """The run's probe time: the 25th percentile of those recorded."""
        return percentile(self.probes, 25)

    def scale(self) -> float:
        """Factor that takes a time measured in this run to the reference
        speed, at which the probe takes REFERENCE_PROBE_S."""
        return REFERENCE_PROBE_S / self.probe_s()


def setup(pipeline, w, seed: int, workdir: str, host: HostSpeed):
    """Set up SETUP_REPS times (fresh-interpreter import, instance
    generation, problem files, decompose targets); keep the last state and
    the median time."""
    times = []
    preps = None
    for _ in range(SETUP_REPS):
        host.settle()
        t_import = import_seconds()
        t0 = time.perf_counter()
        preps = pipeline.prepare(w, seed, workdir)
        times.append(t_import + time.perf_counter() - t0)
    return preps, statistics.median(times)


def tail_percentile(jobs: int, passes: int) -> float:
    """Highest percentile of the per-job latencies that leaves at least 10
    job runs (jobs * passes) and at least a fiftieth of the jobs beyond it."""
    q = 1.0 - 10.0 / (jobs * passes)
    return math.floor(1000.0 * min(q, 0.98)) / 10.0


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Run:
    """Results of the passes over one job list."""

    def __init__(self, jobs, host: HostSpeed):
        self.host = host
        self.times = [[] for _ in jobs]  # per job id: the latency of each untraced run
        self.traced_times = [[] for _ in jobs]  # the same for traced passes
        self.verified = [True] * len(jobs)
        self.pass_walls = []
        self.attempted = 0
        self.failed = 0
        self.guard_refusals = 0
        self.errors = []

    def best(self, jobs, kind: str) -> list:
        """Each job's fastest latency among its timed runs.  Interference
        from other work on the host only ever slows a job down, so the
        fastest of a few repeats is the steadiest estimate of its cost."""
        return [min(self.times[j.id]) for j in jobs if j.kind == kind]


def run_pass(pipeline, workload: str, jobs, reference, run: Run, tracer=None, reps=None) -> list:
    """One pass over the job list; returns each job's first result.  With
    `reps`, job j runs reps[j] times back to back and each run is timed:
    the first warms the caches the previous job evicted."""
    summaries = []
    results = []
    t_pass = time.perf_counter()
    for job in jobs:
        run.host.settle()
        for rep in range(reps[job.id] if reps else 1):
            t0 = time.perf_counter()
            if tracer is not None:
                tracer.job, tracer.size = job.id, job.prep.size
                with tracer.span(f"job.{job.kind}"):
                    summary, error = pipeline.run_job(job)
                run.traced_times[job.id].append(time.perf_counter() - t0)
            else:
                summary, error = pipeline.run_job(job)
                run.times[job.id].append(time.perf_counter() - t0)
            results.append((job, rep, summary, error))
            if rep == 0:
                summaries.append((summary, error))
    wall = time.perf_counter() - t_pass
    for job, rep, summary, error in results:
        run.errors.extend(pipeline.check(workload, job, summary, reference))
        if job.kind == "decompose":
            run.verified[job.id] &= summary is not None and summary["verified"]
        if rep == 0:  # a job counts once per pass, however often it repeats
            run.attempted += 1
            run.failed += pipeline.failed(job.kind, summary, error)
            run.guard_refusals += pipeline.is_guard_refusal(error)
    run.pass_walls.append(wall)
    return summaries


def repeats(run: Run) -> list:
    """Back-to-back runs per job and pass: a short job repeats until about
    REP_TARGET_S, at most MAX_REPS times; a long one runs once."""
    return [max(1, min(MAX_REPS, round(REP_TARGET_S / min(t)))) for t in run.times]


def more_passes(pipeline, run: Run, start: float, seconds: float) -> bool:
    """Another pass fits before the deadline, judged by the last one."""
    if len(run.pass_walls) < pipeline.MIN_PASSES:
        return True
    return time.perf_counter() - start + run.pass_walls[-1] <= seconds


def end_to_end(pipeline, w, jobs, seconds, reference, setup_s, host):
    run = Run(jobs, host)
    start = time.perf_counter()
    run_pass(pipeline, w.name, jobs, reference, run)
    reps = repeats(run)
    while more_passes(pipeline, run, start, seconds):
        run_pass(pipeline, w.name, jobs, reference, run, reps=reps)
    passes = len(run.pass_walls)
    best = {k: run.best(jobs, k) for k in pipeline.RUNNERS}
    tails = {k: tail_percentile(len(v), TAIL_PASSES) for k, v in best.items()}
    decompose_s = sum(best["decompose"])
    certs = sum(run.verified[j.id] for j in jobs if j.kind == "decompose")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(min(t) for t in run.times), "s"),
    }
    for kind, name, scale, unit in (
        ("hull", "hull_s", 1.0, "s"),
        ("analyze", "analyze_s", 1.0, "s"),
        ("solve", "solve_s", 1.0, "s"),
        ("decompose", "decompose_ms", 1e3, "ms"),
    ):
        metrics[f"{name}.p50"] = (scale * percentile(best[kind], 50), unit)
        metrics[f"{name}.tail"] = (scale * percentile(best[kind], tails[kind]), unit)
    metrics["cert_per_s"] = (certs / decompose_s, "1/s")
    metrics["ok_frac"] = (1.0 - run.failed / run.attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    by_size = {}
    for j in jobs:
        by_size.setdefault(f"{j.kind} @ {j.prep.size}", []).append(min(run.times[j.id]))
    detail = {
        "passes": passes,
        "jobs": {k: len(v) for k, v in best.items()},
        "job_runs": {k: sum(len(run.times[j.id]) for j in jobs if j.kind == k) for k in best},
        "tail_percentile": tails,
        "guard_refusals": run.guard_refusals,
        "pass_walls_s": run.pass_walls,
        "latency_p50_by_size_s": {k: statistics.median(v) for k, v in sorted(by_size.items())},
    }
    return run, metrics, detail


def at_reference_speed(measured: dict, scale: float) -> dict:
    """Times (s, ms) times `scale`, rates (1/s) divided by it; counts,
    ratios and memory as measured."""
    power = {"s": 1, "ms": 1, "1/s": -1}
    return {k: (v * scale ** power.get(u, 0), u) for k, (v, u) in measured.items()}


def layer_counts(pipeline, jobs, summaries) -> dict:
    """Per-pass counts from one traced pass's job results."""
    c = dict.fromkeys(
        (
            "hull.epigraph_constraints", "hull.homogeneous_constraints", "io.bytes_written",
            "gamma.vertices", "gamma.rays", "gamma.faces", "gamma.semidefinite_faces",
            "gamma.guard_refusals", "solve.iterations", "hull.splits", "hull.cert_points",
        ),
        0,
    )
    solves = converged = 0
    max_gap = max_depth = 0.0
    for job, (s, error) in zip(jobs, summaries):
        c["gamma.guard_refusals"] += pipeline.is_guard_refusal(error)
        if job.kind == "solve":
            solves += 1
        if s is None:
            continue
        if job.kind == "hull":
            c["hull.epigraph_constraints"] += s["epigraph"]
            c["hull.homogeneous_constraints"] += s["homogeneous"]
            c["io.bytes_written"] += s["bytes"]
            c["gamma.vertices"] += s["vertices"]
            c["gamma.rays"] += s["rays"]
        elif job.kind == "analyze":
            c["gamma.faces"] += s["faces"] or 0
            c["gamma.semidefinite_faces"] += s["semidefinite_faces"]
        elif job.kind == "solve":
            converged += s["status"] == "converged"
            c["solve.iterations"] += s["iterations"]
            if math.isfinite(s["gap"]):
                max_gap = max(max_gap, s["gap"])
        elif job.kind == "decompose":
            c["hull.splits"] += s["splits"]
            c["hull.cert_points"] += s["points"]
            max_depth = max(max_depth, s["depth"])
    c["solve.converged_frac"] = converged / solves if solves else 0.0
    c["solve.max_gap"] = max_gap
    c["hull.max_depth"] = max_depth
    return c


LAYER_TIMES = (
    "linalg.whiten_simdiag", "linalg.kron_multiplicity", "linalg.sym_eig", "linalg.psd_status",
    "kernels.jacobi_eigh", "gamma.find_definite_multiplier", "gamma.dd_vrep",
    "gamma.find_gamma_star", "gamma.enumerate_faces", "gamma.classify_face", "gamma.optimal_face",
    "hull.soc_description", "io.read_problem", "io.write_soc", "solve.minimize_soc",
    "solve.brute_force", "hull.decompose", "hull.verify_certificate",
)
COUNT_UNITS = {
    "io.bytes_written": "B",
    "solve.converged_frac": "ratio",
    "solve.max_gap": "2t",
    "kernels.eval_quadratics_flops": "flop-computed",
}


def traced(pipeline, tracing, w, jobs, seconds, reference, host):
    """Pairs of (untraced, traced) passes; the traced replay must return
    the same results as the untraced composite calls."""
    run = Run(jobs, host)
    tracer = tracing.Tracer()
    counts = []
    start = time.perf_counter()
    pairs = 0
    # Two pairs at least, so each job's fastest untraced run is a warm one.
    while pairs < 2 or (
        time.perf_counter() - start + sum(run.pass_walls[-2:]) <= seconds
    ):
        plain = run_pass(pipeline, w.name, jobs, reference, run)
        with tracer.instrument():
            replay = run_pass(pipeline, w.name, jobs, reference, run, tracer)
        for job, a, b in zip(jobs, plain, replay):
            if not pipeline.same_result(a, b):
                run.errors.append(f"job {job.id} ({job.kind} {job.prep.inst.key}): traced replay differs")
        counts.append(layer_counts(pipeline, jobs, replay))
        pairs += 1
    summary = tracer.summary(pairs)
    by_name = summary["by_name"]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_s"] = (by_name.get(name, {}).get("total_s", 0.0), "s")
    metrics["certify.check_conditions_self_s"] = (
        by_name.get("certify.check_conditions", {}).get("self_s", 0.0), "s"
    )
    for key in counts[0]:
        vals = [c[key] for c in counts]
        agg = max(vals) if key in ("solve.max_gap", "hull.max_depth") else statistics.fmean(vals)
        metrics[key] = (agg, COUNT_UNITS.get(key, "count"))
    attrs = summary["attrs"]
    metrics["kernels.eval_quadratics_points"] = (attrs.get("kernels.eval_quadratics_points", 0), "count")
    metrics["kernels.eval_quadratics_flops"] = (
        attrs.get("kernels.eval_quadratics_flops", 0), COUNT_UNITS["kernels.eval_quadratics_flops"]
    )
    # Traced wall_s minus untraced wall_s, both as in end_to_end: the sum
    # over the job list of each job's fastest pass.
    metrics["trace.overhead_s"] = (
        sum(min(t) for t in run.traced_times) - sum(min(t) for t in run.times), "s"
    )
    detail = {
        "pairs": pairs,
        "untraced_wall_s": run.pass_walls[0::2],
        "traced_wall_s": run.pass_walls[1::2],
        "layers": by_name,
        "layers_by_size": summary["by_size"],
        "spans": tracer.dump(),
    }
    return run, metrics, detail


def record_reference(pipeline) -> None:
    table = {}
    for w in pipeline.WORKLOADS.values():
        workdir = os.path.join(OUT, "work", w.name)
        os.makedirs(workdir, exist_ok=True)
        for prep, kinds in pipeline.prepare(w, 0, workdir):
            entry = table.setdefault(prep.inst.key, {})
            entry.update(pipeline.reference_entry(prep, [k for k in kinds if k not in entry]))
            print(prep.inst.key, entry, file=sys.stderr, flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(dict(sorted(table.items())), f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    pipeline, tracing, env = import_library()
    if args.record_reference:
        record_reference(pipeline)
        return 0
    if args.workload not in pipeline.WORKLOADS:
        fail(f"--workload must be one of {sorted(pipeline.WORKLOADS)}")
    try:
        with open(REFERENCE, encoding="utf-8") as f:
            reference = json.load(f)
    except OSError as e:
        fail(f"cannot read the reference table: {e}")
    w = pipeline.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work", w.name)
    os.makedirs(workdir, exist_ok=True)

    host = HostSpeed()
    preps, setup_s = setup(pipeline, w, args.seed, workdir, host)
    jobs = pipeline.job_list(preps, args.seed)
    if args.trace:
        run, measured, detail = traced(pipeline, tracing, w, jobs, args.seconds, reference, host)
    else:
        run, measured, detail = end_to_end(pipeline, w, jobs, args.seconds, reference, setup_s, host)
    metrics = at_reference_speed(measured, host.scale())

    correct = not run.errors
    report = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "solve_max_iter": pipeline.SOLVE_MAX_ITER,
        "jobs_per_pass": {k: sum(j.kind == k for j in jobs) for k in pipeline.RUNNERS},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "measured_metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
        "host_probe_s": host.probe_s(),
        "reference_probe_s": REFERENCE_PROBE_S,
        "host_probes": len(host.probes),
        "errors": run.errors,
        **detail,
    }
    path = os.path.join(OUT, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    for msg in run.errors[:20]:
        print(f"WRONG: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{w.name:14s} {name:40s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
