"""Command-line surface.

Subcommands: ``analyze`` (condition report), ``hull`` (SOC description
file), ``decompose`` (verified convex-combination certificate), ``solve``
(hull minimization + brute-force comparison), ``generate`` (instance
families), ``plot`` (2D membership-boundary CSV).

Exit codes: 0 success, 1 usage, 2 parse, 3 assumption failure, 4 guard
exceeded, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io
from . import _kernels
from .core import EpigraphPoint, Qcqp
from .errors import (
    GuardExceeded,
    NoInteriorPoint,
    NotInDsdp,
    NotSimultaneouslyDiagonalizable,
    ParseError,
    QcqpHullError,
    VerificationError,
)
from .certify import analyze_problem, report_text
from .gamma import build_gamma_data
from .generators import FAMILIES, FamilySpec, generate
from .hull import decompose, soc_description, verify_certificate
from .solve import brute_force, minimize_soc


def _parse_box(entries, n: int) -> np.ndarray:
    if not entries:
        raise ValueError("--box is required (lo,hi per axis or one pair broadcast)")
    pairs = []
    for e in entries:
        parts = e.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad --box entry {e!r}; expected lo,hi")
        pairs.append((float(parts[0]), float(parts[1])))
    if len(pairs) == 1:
        pairs = pairs * n
    if len(pairs) != n:
        raise ValueError(f"--box given {len(pairs)} times for dimension {n}")
    return np.array(pairs)


def _parse_point(text: str, n: int) -> EpigraphPoint:
    vals = [float(v) for v in text.split(",")]
    if len(vals) != n + 1:
        raise ValueError(f"--point needs {n + 1} comma-separated values (x then t)")
    return EpigraphPoint(np.array(vals[:-1]), vals[-1])


def _stem(path: str) -> str:
    return path[: -len(".json")] if path.endswith(".json") else path


def plot2d(p: Qcqp, d, box, resolution: int = 201, tol: float = 1e-8):
    """Grid-sample the least t making (x, t) a member of the true epigraph
    and of the hull description; infeasible x gets +inf."""
    if p.dim != 2:
        raise ValueError(f"plot needs a 2-dimensional problem, got N = {p.dim}")
    box = np.asarray(box, dtype=float)
    ax1 = np.linspace(box[0, 0], box[0, 1], resolution)
    ax2 = np.linspace(box[1, 0], box[1, 1], resolution)
    G1, G2 = np.meshgrid(ax1, ax2, indexing="ij")
    X = np.stack([G1.ravel(), G2.ravel()], axis=1)

    vals = _kernels.eval_quadratics(p.A, p.b, p.c, X)
    mi = p.num_inequalities
    feas = np.all(vals[1 : mi + 1] <= tol, axis=0) & np.all(np.abs(vals[mi + 1 :]) <= tol, axis=0)
    tmin_d = np.where(feas, 0.5 * vals[0], np.inf)

    ne = len(d.epigraph)
    svals = _kernels.eval_quadratics(d.A, d.b, d.c, X)
    tmin_hull = np.where(np.all(svals[ne:] <= tol, axis=0), 0.5 * np.max(svals[:ne], axis=0), np.inf)
    return X[:, 0], X[:, 1], tmin_d, tmin_hull


def _cmd_analyze(args) -> int:
    p = io.read_problem(args.problem)
    point = None
    if args.feasible_point:
        point = [float(v) for v in args.feasible_point.split(",")]
        if len(point) != p.dim:
            raise ValueError(f"--feasible-point needs {p.dim} comma-separated values")
    report, _ = analyze_problem(p, feasible_point=point, tol=args.tol)
    text = report_text(report)
    print(text)
    if args.out:
        io.atomic_write_text(args.out, text + "\n")
    if not report.assumption1:
        print("error: assumption failure: no interior multiplier (dual strict feasibility)",
              file=sys.stderr)
        return 3
    return 0


def _cmd_hull(args) -> int:
    p = io.read_problem(args.problem)
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    out = args.out or _stem(args.problem) + ".hull.json"
    io.write_soc(out, soc)
    print(f"wrote {out}: {len(soc.epigraph)} epigraph + {len(soc.homogeneous)} homogeneous constraints")
    return 0


def _cmd_decompose(args) -> int:
    p = io.read_problem(args.problem)
    pt = _parse_point(args.point, p.dim)
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    comb = decompose(p, gd, pt, tol=args.tol, soc=soc)
    if not verify_certificate(p, comb, pt, tol=args.tol):
        raise VerificationError("decomposition produced an invalid certificate; nothing written")
    out = args.out or _stem(args.problem) + ".cert.json"
    io.write_certificate(out, pt, comb, args.tol)
    print(f"wrote {out}: {len(comb.points)} points, weights "
          + np.array2string(np.asarray(comb.weights), precision=6))
    return 0


def _cmd_solve(args) -> int:
    p = io.read_problem(args.problem)
    box = _parse_box(args.box, p.dim)
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    res = minimize_soc(soc, box, tol=args.tol)
    print(f"relaxed optimum (2t units): {res.value:.10g}")
    print(f"minimizer: {np.array2string(res.minimizer, precision=8)}")
    print(f"status: {res.status}  iterations: {res.iterations}  gap: {res.gap:.3g}")
    if p.dim <= 3:
        val, x = brute_force(p, box)
        print(f"brute-force optimum: {val:.10g} at {np.array2string(x, precision=8)}")
        print(f"difference (relaxation <= brute force): {val - res.value:.3g}")
    return 0


def _cmd_generate(args) -> int:
    spec = FamilySpec(
        family=args.family,
        n=args.n,
        k=args.k,
        m=args.m,
        m1=args.m1,
        m2=args.m2,
        m3=args.m3,
        num_forms=args.num_forms,
        seed=args.seed,
    )
    p = generate(spec)
    out = args.out or f"{args.family}.json"
    io.write_problem(out, p)
    print(f"wrote {out}: N={p.dim}, mi={p.num_inequalities}, me={p.num_equalities}")
    return 0


def _cmd_plot(args) -> int:
    p = io.read_problem(args.problem)
    if p.dim != 2:
        print(f"error: plot needs N = 2, problem has N = {p.dim}", file=sys.stderr)
        return 1
    box = _parse_box(args.box or ["-5,5"], 2)
    gd = build_gamma_data(p)
    soc = soc_description(gd.v, p)
    x1, x2, tmin_d, tmin_hull = plot2d(p, soc, box, resolution=args.resolution, tol=args.tol)
    out = args.out or _stem(args.problem) + ".plot.csv"
    io.atomic_write_text(out, io.plot_csv_text(x1, x2, tmin_d, tmin_hull))
    print(f"wrote {out}: {len(x1)} grid samples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcqp-hull",
        description="Hull-exactness certificates and SOC hull descriptions for QCQP relaxations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, box=False):
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--out", type=str, default=None)
        if box:
            sp.add_argument("--box", action="append", metavar="LO,HI",
                            help="per-axis bounds; repeat per axis or give once to broadcast")

    sp = sub.add_parser("analyze", help="evaluate hull-exactness conditions")
    sp.add_argument("problem")
    sp.add_argument("--feasible-point", help="known feasible x1,...,xN to confirm nonemptiness")
    common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("hull", help="emit the SOC hull description")
    sp.add_argument("problem")
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_hull)

    sp = sub.add_parser("decompose", help="certificate for a relaxed-epigraph point")
    sp.add_argument("problem")
    sp.add_argument("--point", required=True, help="x1,...,xN,t")
    common(sp)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("solve", help="minimize over the hull description")
    sp.add_argument("problem")
    common(sp, box=True)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("generate", help="write an instance from a family")
    sp.add_argument("family", choices=FAMILIES)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--m", type=int, default=2)
    sp.add_argument("--m1", type=int, default=1)
    sp.add_argument("--m2", type=int, default=1)
    sp.add_argument("--m3", type=int, default=1)
    sp.add_argument("--num-forms", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", type=str, default=None)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("plot", help="CSV of epigraph and hull boundary samples (N = 2)")
    sp.add_argument("problem")
    sp.add_argument("--resolution", type=int, default=201)
    common(sp, box=True)
    sp.set_defaults(func=_cmd_plot)
    return parser


def _merge_negative_values(argv, flags=("--box", "--point", "--feasible-point")):
    """Join "--box -5,5" into "--box=-5,5" so argparse does not mistake
    negative values for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NoInteriorPoint as e:
        print(f"error: assumption failure (interior multiplier): {e}", file=sys.stderr)
        return 3
    except NotSimultaneouslyDiagonalizable as e:
        print(f"error: assumption failure (polyhedral multiplier set): {e}", file=sys.stderr)
        return 3
    except GuardExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (VerificationError, NotInDsdp) as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except (ValueError, QcqpHullError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
