"""The relaxed epigraph: SOC description, membership, and the constructive
decomposition of its points into convex combinations of true epigraph points.

With the multiplier set written as conv(vertices) + cone(rays), the
relaxed epigraph is exactly

    { (x, t) : q(gamma_e, x) <= 2t  for every vertex gamma_e,
               sum_i (gamma_r)_i q_i(x) <= 0  for every extreme ray gamma_r }

a finite list of convex quadratic (SOC-representable) constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    EpigraphPoint,
    Qcqp,
    QuadraticFn,
    aggregate,
    check_feasible,
    lagrangian,
    stack_quadratics,
    stack_values,
)
from .errors import NoDescentDirection, NotInDsdp, QcqpHullError
from .gamma import GammaData, b_aff_dim, optimal_face
from .linalg import Definiteness, psd_status, solve_homogeneous

MEMBERSHIP_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-10
HESSIAN_PSD_TOL = 1e-8  # definiteness test of each hull constraint's Hessian
DROP_TOL = 1e-12  # ray constraints with every coefficient below this are dropped


@dataclass(frozen=True, eq=False)
class SocDescription:
    """Finite convex-quadratic description of the relaxed epigraph.

    ``epigraph[k](x) <= 2t`` for each multiplier-set vertex and
    ``homogeneous[k](x) <= 0`` for each extreme ray.  Ray constraints that
    reduce to a nonpositive constant are dropped as identically true.
    ``A``, ``b`` and ``c`` stack the epigraph rows, then the homogeneous
    rows.
    """

    epigraph: tuple
    homogeneous: tuple
    A: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, arr in zip("Abc", stack_quadratics(self.epigraph + self.homogeneous)):
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.epigraph[0].dim if self.epigraph else self.homogeneous[0].dim


@dataclass(frozen=True, eq=False)
class ConvexCombination:
    """Certificate: target = sum_j weights[j] * points[j], every point in
    the true epigraph.  ``trace`` records each recursion split."""

    points: tuple
    weights: np.ndarray
    trace: tuple


def soc_description(v, p: Qcqp) -> SocDescription:
    """Build the hull description from the minimal generator representation."""
    if v.is_empty:
        raise ValueError("multiplier set is empty; the relaxation is unbounded everywhere")
    epi = []
    for gamma_e in v.vertices:
        g = lagrangian(p, gamma_e)
        _require_psd_hessian(g, "epigraph")
        epi.append(g)
    hom = []
    for gamma_r in v.rays:
        h = aggregate(p, np.concatenate([[0.0], gamma_r]))
        if np.max(np.abs(h.A)) <= DROP_TOL and np.max(np.abs(h.b)) <= DROP_TOL and h.c <= DROP_TOL:
            continue
        _require_psd_hessian(h, "homogeneous")
        hom.append(h)
    return SocDescription(epigraph=tuple(epi), homogeneous=tuple(hom))


def _require_psd_hessian(q: QuadraticFn, label: str) -> None:
    if psd_status(q.A, tol=HESSIAN_PSD_TOL) is Definiteness.INDEFINITE:
        raise QcqpHullError(f"{label} hull constraint has an indefinite Hessian")


def dsdp_membership(d: SocDescription, pt: EpigraphPoint, tol: float = MEMBERSHIP_TOL):
    """(inside, worst violation) of a point against the hull description.

    The worst violation is the largest constraint residual; it is
    negative strictly inside and ~0 on the boundary.
    """
    residuals = stack_values(d, pt.x)
    residuals[: len(d.epigraph)] -= 2.0 * pt.t
    worst = float(np.max(residuals))
    return worst <= tol, worst


def verify_certificate(
    p: Qcqp, c: ConvexCombination, target: EpigraphPoint, tol: float = MEMBERSHIP_TOL
) -> bool:
    """Independent re-check of a certificate: positive weights summing to
    one, exact reconstruction of the target, and every point feasible for
    the original problem.  Uses no decomposition state."""
    w = np.asarray(c.weights, dtype=float)
    if w.size == 0 or np.any(w <= 0.0):
        return False
    if abs(float(np.sum(w)) - 1.0) > WEIGHT_SUM_TOL:
        return False
    if len(c.points) != w.size:
        return False
    xs = np.array([pt.x for pt in c.points])
    ts = np.array([pt.t for pt in c.points])
    recon_x = w @ xs
    recon_t = float(w @ ts)
    if np.max(np.abs(recon_x - target.x)) > tol:
        return False
    if abs(recon_t - target.t) > tol:
        return False
    return all(check_feasible(p, pt, tol).feasible for pt in c.points)


# ---------------------------------------------------------------------------
# Decomposition (recursive splitting along shared-nullspace directions)


def decompose(
    p: Qcqp,
    gd: GammaData,
    pt: EpigraphPoint,
    tol: float = MEMBERSHIP_TOL,
    soc: SocDescription | None = None,
) -> ConvexCombination:
    """Write a relaxed-epigraph point as a convex combination of true
    epigraph points.

    The point is first dropped onto the supremum surface (the surplus in t
    is re-added uniformly at the end).  At a definite optimal face the
    point itself is feasible; at a semidefinite face a direction v in the
    shared zero eigenspace with <b(gamma), v> constant on the face keeps
    all face functionals flat, and stepping to the nearest roots of the
    remaining convex quadratics splits the point into two with strictly
    larger optimal faces.
    """
    if soc is None:
        soc = soc_description(gd.v, p)
    inside, worst = dsdp_membership(soc, pt, tol)
    if not inside:
        raise NotInDsdp(f"point violates the hull description by {worst:.3e}")

    x = np.asarray(pt.x, dtype=float)
    res = optimal_face(gd.v, p, x, gd.h)
    if res is None:
        raise NotInDsdp("supremum over the multiplier set is unbounded at this x")
    surplus = max(0.0, pt.t - res[0] / 2.0)

    trace: list = []
    xs, ws = _split(p, gd, x, res, 0, tol, trace)
    points = tuple(EpigraphPoint(x=x, t=t + surplus) for x, t in xs)
    return ConvexCombination(points=points, weights=np.array(ws), trace=tuple(trace))


def _split(p, gd, x, res, depth, tol, trace):
    """Returns ([(x_j, t_j)], [w_j]) decomposing (x, sup(x)/2), where
    ``res = optimal_face(gd.v, p, x, gd.h)``."""
    if res is None:
        raise NotInDsdp("supremum became unbounded during decomposition")
    sup, face = res
    t0 = sup / 2.0
    if face.definite:
        return [(x, t0)], [1.0]
    if depth > p.num_constraints:
        raise NoDescentDirection(
            f"recursion exceeded the face-dimension bound (depth {depth}, m {p.num_constraints})"
        )

    v, s = _flat_direction(face, gd.sd, p)
    b_dim = b_aff_dim(face, p)
    if v is None:
        raise NoDescentDirection(
            "the direction system on the optimal face has only the zero solution "
            f"(active rows {face.active_rows}, dim V = {face.dim_v}, b-affine-dim = {b_dim})"
        )

    alpha_plus, alpha_minus = _step_lengths(p, gd, face, x, t0, v, s, tol)
    lam = -alpha_minus / (alpha_plus - alpha_minus)
    trace.append(
        {
            "depth": depth,
            "active_rows": [int(i) for i in face.active_rows],
            "aff_dim": int(face.aff_dim),
            "dim_v": face.dim_v,
            "b_aff_dim": b_dim,
            "v": [float(t) for t in v],
            "s": float(s),
            "alpha_plus": float(alpha_plus),
            "alpha_minus": float(alpha_minus),
            "child_aff_dims": [],
        }
    )
    rec = trace[-1]
    out_pts, out_ws = [], []
    for alpha, w in ((alpha_plus, lam), (alpha_minus, 1.0 - lam)):
        child_x = x + alpha * v
        child_res = optimal_face(gd.v, p, child_x, gd.h)
        rec["child_aff_dims"].append(int(child_res[1].aff_dim) if child_res else -1)
        pts, ws = _split(p, gd, child_x, child_res, depth + 1, tol, trace)
        out_pts.extend(pts)
        out_ws.extend(w * wi for wi in ws)
    return out_pts, out_ws


def _flat_direction(face, sd, p):
    """Unit direction v in the shared zero eigenspace and scalar s with
    <b(gamma), v> = s across the face; None when only v = 0 works.  The
    eigenspace is spanned by the face's dead columns of the congruence
    basis, orthonormalized."""
    V, _ = np.linalg.qr(sd.basis[:, face.dead])
    d = V.shape[1]
    samples = np.vstack([face.vertices, face.relint_point() + face.rays])
    bg = p.b[0] + samples @ p.b[1:]  # row k: b(gamma) at samples[k]
    sol = solve_homogeneous(np.column_stack([bg @ V, -np.ones(len(samples))]))
    if sol is None:
        return None, None
    u, s = sol[:d], float(sol[d])
    v = V @ u
    nv = float(np.linalg.norm(v))
    if nv <= 1e-12:
        return None, None
    v /= nv
    s /= nv
    for vi in v:
        if abs(vi) > 1e-10:
            if vi < 0:
                v, s = -v, -s
            break
    return v, s


def _step_lengths(p, gd, face, x, t0, v, s, tol):
    """Nearest positive and negative roots over the convex quadratics
    alpha -> q(gamma_e, x + alpha v) - 2(t0 + alpha s) and
    alpha -> sum (gamma_r)_i q_i(x + alpha v) of the generators off the
    optimal face; those on it are identically zero along v."""
    nv = gd.v.vertices.shape[0]
    off = np.ones(nv + gd.v.rays.shape[0], dtype=bool)
    off[list(face.vertex_ids)] = False
    off[[nv + j for j in face.ray_ids]] = False
    epi = np.r_[np.ones(nv), np.zeros(gd.v.rays.shape[0])][off]
    W = np.column_stack([epi, np.vstack([gd.v.vertices, gd.v.rays])[off]])  # [1, gamma_e], [0, gamma_r]
    Av = p.A @ v
    coeffs = np.column_stack(
        [
            W @ (Av @ v),
            2.0 * (W @ (Av @ x + p.b @ v)) - 2.0 * s * epi,
            W @ stack_values(p, x) - 2.0 * t0 * epi,
        ]
    )

    # Curvatures (units of q per x^2) and slopes (q per x) are each
    # negligible relative to the largest of their own kind.  A row with
    # neither is a negative constant: no root.
    zero_a, zero_b = tol * np.max(np.abs(coeffs[:, :2]), axis=0, initial=0.0)
    pos_roots, neg_roots = [], []
    for a, b, c in coeffs:
        c = min(c, 0.0)  # inside the hull: negative up to roundoff
        if a > zero_a:
            disc = b * b - 4.0 * a * c
            root = np.sqrt(max(disc, 0.0))
            pos_roots.append((-b + root) / (2.0 * a))
            neg_roots.append((-b - root) / (2.0 * a))
        elif abs(b) > zero_b:
            r = -c / b
            (pos_roots if b > 0 else neg_roots).append(r)
    if not pos_roots or not neg_roots:
        raise NoDescentDirection(
            "no strictly convex functional bounds the step; the supremum "
            "direction is unbounded"
        )
    alpha_plus = max(min(pos_roots), 0.0)
    alpha_minus = min(max(neg_roots), 0.0)
    if alpha_plus <= 0.0 or alpha_minus >= 0.0:
        # an active row bounds one side, so that child would get weight 0
        raise NoDescentDirection("degenerate step interval during decomposition")
    return alpha_plus, alpha_minus
