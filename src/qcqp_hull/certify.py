"""Sufficient-condition checks for hull exactness of the SDP relaxation.

Every condition is evaluated (no short-circuiting) so the report is
diagnostic: it shows each guarantee that applies, per-face dimensions for
the semidefinite faces, and the disjunction ``hull_guaranteed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import EpigraphPoint, Qcqp, check_feasible, eval_quadratic
from .errors import NoInteriorPoint, NotSimultaneouslyDiagonalizable
from .gamma import GammaData, b_aff_dim, build_gamma_data, enumerate_faces
from .linalg import kron_multiplicity

SCALED_IDENTITY_TOL = 1e-12
ZERO_B_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SemidefiniteFaceRecord:
    active_rows: tuple
    aff_dim: int
    dim_v: int
    b_aff_dim: int


@dataclass(frozen=True, eq=False)
class ConditionReport:
    assumption1: bool
    gamma_star: np.ndarray | None
    margin: float | None
    assumption2: str  # "pass" | "unknown"
    k: int
    theorem1: bool | None
    theorem2: bool | None
    semidefinite_faces: tuple
    num_faces: int | None
    corollary_m1: bool
    corollary_b0: bool
    corollary_scaled_identity: bool
    hull_guaranteed: bool
    notes: tuple


def _is_scaled_identity_family(p: Qcqp) -> bool:
    """Every Hessian is alpha_i I, entrywise within SCALED_IDENTITY_TOL * max(1, |alpha_i|)."""
    alpha = np.trace(p.A, axis1=1, axis2=2) / p.dim
    dev = np.max(np.abs(p.A - alpha[:, None, None] * np.eye(p.dim)), axis=(1, 2))
    return bool(np.all(dev <= SCALED_IDENTITY_TOL * np.maximum(1.0, np.abs(alpha))))


def _zero_constraint_b(p: Qcqp) -> bool:
    """No constraint has a linear term above ZERO_B_TOL."""
    return bool(np.all(np.abs(p.b[1:]) <= ZERO_B_TOL))


def check_conditions(p: Qcqp, gd: GammaData, k: int) -> ConditionReport:
    """Evaluate all sufficient conditions given verified multiplier-set
    data and the Kronecker multiplicity ``k`` of ``kron_multiplicity(p)``."""
    faces = enumerate_faces(gd.h, gd.v)
    semidef = [
        SemidefiniteFaceRecord(
            active_rows=f.active_rows, aff_dim=f.aff_dim, dim_v=f.dim_v, b_aff_dim=b_aff_dim(f, p)
        )
        for f in faces
        if not f.definite
    ]
    theorem1 = all(r.dim_v >= r.b_aff_dim + 1 for r in semidef)
    theorem2 = all(k >= r.b_aff_dim + 1 for r in semidef)
    corollary_m1 = p.num_constraints == 1
    corollary_b0 = _zero_constraint_b(p)
    corollary_scaled = _is_scaled_identity_family(p) and p.num_constraints <= p.dim
    notes = []
    if not semidef:
        notes.append("no semidefinite faces: every optimal face is definite")
    hull = theorem1 or theorem2 or corollary_m1 or corollary_b0 or corollary_scaled
    return ConditionReport(
        assumption1=True,
        gamma_star=gd.gamma_star,
        margin=gd.margin,
        assumption2="pass",
        k=k,
        theorem1=theorem1,
        theorem2=theorem2,
        semidefinite_faces=tuple(semidef),
        num_faces=len(faces),
        corollary_m1=corollary_m1,
        corollary_b0=corollary_b0,
        corollary_scaled_identity=corollary_scaled,
        hull_guaranteed=hull,
        notes=tuple(notes),
    )


def _unknown_report(k: int, assumption1: bool, m1: bool, notes):
    """Report when the multiplier set could not be built: the faces, the
    theorems and assumption 2 are unknown, and only the single-constraint
    corollary ``m1`` can still guarantee the hull."""
    return ConditionReport(
        assumption1=assumption1,
        gamma_star=None,
        margin=None,
        assumption2="unknown",
        k=k,
        theorem1=None,
        theorem2=None,
        semidefinite_faces=(),
        num_faces=None,
        corollary_m1=m1,
        corollary_b0=False,
        corollary_scaled_identity=False,
        hull_guaranteed=m1,
        notes=tuple(notes),
    )


def analyze_problem(p: Qcqp, feasible_point=None, tol: float = 1e-8):
    """Full pipeline: interior witness, polyhedrality certificate, condition
    checks.  Returns (report, gamma_data_or_None); never raises on
    assumption failures, recording them in the report instead.

    Nonemptiness of the feasible region has no constructive check; pass a
    known feasible point to have it validated, otherwise the report
    carries a warning note that it is assumed.
    """
    primal_notes = []
    if feasible_point is not None:
        x = np.asarray(feasible_point, dtype=float)
        rep = check_feasible(p, EpigraphPoint(x, eval_quadratic(p.objective, x) / 2.0), tol)
        if rep.feasible:
            primal_notes.append("primal feasibility confirmed at the supplied point")
        else:
            worst = float(np.max(rep.violations)) if rep.violations.size else 0.0
            primal_notes.append(
                f"warning: supplied point is infeasible (worst violation {worst:.3e})"
            )
    else:
        primal_notes.append("warning: nonempty feasible region assumed (no point supplied)")
    k = kron_multiplicity(p)
    try:
        gd = build_gamma_data(p)
    except NoInteriorPoint as e:
        notes = primal_notes + [f"no interior multiplier: {e}"]
        return _unknown_report(k, False, False, notes), None
    except NotSimultaneouslyDiagonalizable as e:
        # Only whiten_simdiag raises this, and build_gamma_data calls it
        # after a definite multiplier was found: assumption 1 holds.
        notes = [
            "polyhedrality of the multiplier set not certified: " + str(e),
            "zero-linear-term condition needs a certified polyhedral multiplier set",
        ]
        return _unknown_report(k, True, p.num_constraints == 1, primal_notes + notes), None
    report = check_conditions(p, gd, k)
    report = replace(report, notes=tuple(primal_notes) + report.notes)
    return report, gd


def report_text(r: ConditionReport) -> str:
    """Human-readable multi-line rendering of a condition report."""

    def pf(v):
        if v is None:
            return "UNKNOWN"
        return "PASS" if v else "FAIL"

    lines = []
    if r.assumption1 and r.gamma_star is not None:
        gs = np.array2string(np.asarray(r.gamma_star), precision=6)
        lines.append(f"assumption1 (interior multiplier): PASS  gamma* = {gs}  margin = {r.margin:.6g}")
    else:
        lines.append(f"assumption1 (interior multiplier): {pf(r.assumption1)}")
    lines.append(f"assumption2 (polyhedral multiplier set): {r.assumption2.upper()}")
    lines.append(f"quadratic eigenvalue multiplicity: k = {r.k}")
    nsd = len(r.semidefinite_faces)
    nf = "?" if r.num_faces is None else r.num_faces
    lines.append(f"theorem1 (shared nullspace vs linear-term dimension): {pf(r.theorem1)}  "
                 f"[{nsd} semidefinite of {nf} faces]")
    for rec in r.semidefinite_faces:
        rows = ",".join(str(i) for i in rec.active_rows)
        lines.append(
            f"  face[rows {rows}]: aff_dim={rec.aff_dim} dim_v={rec.dim_v} b_aff_dim={rec.b_aff_dim}"
        )
    lines.append(f"theorem2 (multiplicity vs linear-term dimension): {pf(r.theorem2)}")
    lines.append(f"corollary_m1 (single constraint): {pf(r.corollary_m1)}")
    lines.append(f"corollary_b0 (constraints without linear terms): {pf(r.corollary_b0)}")
    lines.append(f"corollary_scaled_identity (all Hessians scalar): {pf(r.corollary_scaled_identity)}")
    for note in r.notes:
        lines.append(f"note: {note}")
    lines.append(f"hull_guaranteed: {'TRUE' if r.hull_guaranteed else 'FALSE'}")
    return "\n".join(lines)
