"""Convex-hull exactness toolkit for QCQP SDP relaxations.

Given a quadratically constrained quadratic program, this package
verifies sufficient conditions under which the projection of the SDP
relaxation's epigraph equals the convex hull of the true epigraph, emits
the explicit finite convex-quadratic (SOC) description of that set, and
constructively decomposes its points into convex combinations of true
epigraph points with machine-checkable certificates.
"""

from .core import (
    EpigraphPoint,
    FeasReport,
    Qcqp,
    QuadraticFn,
    affine_transform,
    check_feasible,
    eval_quadratic,
)
from .certify import ConditionReport, analyze_problem, check_conditions, report_text
from .gamma import (
    Face,
    GammaData,
    PolyhedronH,
    PolyhedronV,
    build_gamma,
    build_gamma_data,
    dd_vrep,
    optimal_face,
)
from .generators import FamilySpec, generate
from .hull import (
    ConvexCombination,
    SocDescription,
    decompose,
    dsdp_membership,
    soc_description,
    verify_certificate,
)
from .linalg import solve_homogeneous
from .solve import SolveResult, brute_force, minimize_soc

__version__ = "0.1.0"
