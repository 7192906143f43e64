"""Problem representation: quadratics, QCQPs, epigraph points, feasibility.

Conventions fixed here and used everywhere else:
  * a quadratic is q(x) = x'Ax + 2b'x + c with A symmetric,
  * the objective enters the epigraph as q_0(x) <= 2t, so optimal values
    are reported in "2t" units,
  * constraint order is inequalities first, then equalities,
  * a family of quadratics is stacked once, when its object is built, as
    read-only arrays A (K, N, N), b (K, N) and c (K,) with row k the k-th
    quadratic; for a Qcqp row 0 is the objective and rows 1..m the
    constraints, and a ``hull.SocDescription`` is its stack itself, the
    epigraph rows first, with no quadratic built per row.  ``aggregate``
    is the one rule that combines a stack, ``stack_values`` (over
    ``_kernels.eval_quadratics``) the one evaluator of a whole stack at a
    point (grids go through ``_kernels.eval_quadratics_grid``) and
    ``violations_in_place`` the one violation rule, which
    ``objective_and_violations`` applies at points and the brute-force
    oracle and the plot apply over grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels

FEASIBILITY_TOL = 1e-8
AFFINE_COND_LIMIT = 1e10


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def stack_quadratics(quads):
    """Read-only (A, b, c) stacks of a nonempty sequence of quadratics."""
    A, b, c = zip(*((q.A, q.b, q.c) for q in quads))
    return _readonly(A), _readonly(b), _readonly(c)


@dataclass(frozen=True, eq=False)
class QuadraticFn:
    """One quadratic function q(x) = x'Ax + 2b'x + c."""

    A: np.ndarray
    b: np.ndarray
    c: float

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        c = float(self.c)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        if b.shape[0] != A.shape[0]:
            raise ValueError(f"b has length {b.shape[0]}, A is {A.shape[0]}x{A.shape[0]}")
        if not (np.isfinite(A).all() and np.isfinite(b).all() and np.isfinite(c)):
            raise ValueError("A, b and c must be finite")
        # The quadratic form only sees the symmetric part.
        A = 0.5 * (A + A.T)
        object.__setattr__(self, "A", _readonly(A))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def __call__(self, x) -> float:
        return eval_quadratic(self, x)


@dataclass(frozen=True, eq=False)
class Qcqp:
    """A QCQP: minimize q_0 subject to q_i <= 0 (inequalities) and q_i = 0.

    ``constraints`` lists q_1..q_m with the first ``num_inequalities`` of
    them inequality constraints and the rest equalities.  ``A``, ``b``
    and ``c`` stack (q_0, q_1, ..., q_m).
    """

    objective: QuadraticFn
    constraints: tuple
    num_inequalities: int
    num_equalities: int
    A: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    c: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        constraints = tuple(self.constraints)
        object.__setattr__(self, "constraints", constraints)
        m = len(constraints)
        if m < 1:
            raise ValueError("a QCQP needs at least one constraint")
        if self.num_inequalities + self.num_equalities != m:
            raise ValueError(
                f"num_inequalities + num_equalities = "
                f"{self.num_inequalities + self.num_equalities}, expected {m}"
            )
        if self.num_inequalities < 0 or self.num_equalities < 0:
            raise ValueError("constraint counts must be nonnegative")
        n = self.objective.dim
        for i, q in enumerate(constraints):
            if q.dim != n:
                raise ValueError(f"constraint {i + 1} has dimension {q.dim}, expected {n}")
        for name, arr in zip("Abc", stack_quadratics(self.quadratics())):
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.objective.dim

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def quadratics(self) -> tuple:
        """(q_0, q_1, ..., q_m)."""
        return (self.objective,) + self.constraints


@dataclass(frozen=True, eq=False)
class EpigraphPoint:
    """A point (x, t) of the epigraph space; the objective reads q_0(x) <= 2t."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.array(self.x, dtype=float).reshape(-1)
        if not np.all(np.isfinite(x)) or not np.isfinite(self.t):
            raise ValueError("epigraph point must have finite entries")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "t", float(self.t))


@dataclass(frozen=True, eq=False)
class FeasReport:
    """Feasibility check result.

    ``violations[i]`` is the violation of q_{i+1} at x by
    ``objective_and_violations``; ``epigraph_gap`` is q_0(x) - 2t.
    """

    feasible: bool
    violations: np.ndarray = field(repr=False)
    epigraph_gap: float
    tol: float


def eval_quadratic(q: QuadraticFn, x) -> float:
    """Evaluate q(x) = x'Ax + 2b'x + c."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != q.dim:
        raise ValueError(f"x has length {x.shape[0]}, expected {q.dim}")
    return float(x @ q.A @ x + 2.0 * (q.b @ x) + q.c)


def aggregate(s, w):
    """(A, b, c) of the quadratic sum_k w_k q_k over the stack of ``s``
    (anything with ``A``/``b``/``c`` stacks: a Qcqp or a SocDescription);
    a matrix ``w`` gives stacks with one quadratic per row of weights."""
    w = np.asarray(w, dtype=float)
    A = (w @ s.A.reshape(s.A.shape[0], -1)).reshape(w.shape[:-1] + s.A.shape[1:])
    return A, w @ s.b, w @ s.c


def stack_values(s, x) -> np.ndarray:
    """(q_0(x), ..., q_{K-1}(x)) over the stack of ``s`` at one point x."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return _kernels.eval_quadratics(s.A, s.b, s.c, x)[:, 0]


def violations_in_place(p: Qcqp, vals):
    """The violation rule on a (1 + m, ...) stack of p's values: overwrites
    the constraint rows with the positive part of q_i for inequalities and
    |q_i| for equalities, and returns (vals[0], vals[1:])."""
    ineq, eq = vals[1 : p.num_inequalities + 1], vals[p.num_inequalities + 1 :]
    np.maximum(ineq, 0.0, out=ineq)
    np.abs(eq, out=eq)
    return vals[0], vals[1:]


def objective_and_violations(p: Qcqp, X):
    """q_0 at the rows of the point array X (P, N), shape (P,), and the
    constraint violations there, shape (m, P), by ``violations_in_place``."""
    return violations_in_place(p, _kernels.eval_quadratics(p.A, p.b, p.c, X))


def check_feasible(p: Qcqp, pt: EpigraphPoint, tol: float = FEASIBILITY_TOL) -> FeasReport:
    """Report constraint violations of an epigraph point; never raises."""
    if not tol > 0:  # NaN fails too
        raise ValueError("tol must be positive")
    obj, viol = objective_and_violations(p, pt.x.reshape(1, -1))
    viol = viol[:, 0]
    gap = float(obj[0]) - 2.0 * pt.t
    feasible = bool(np.all(viol <= tol) and gap <= tol)
    return FeasReport(feasible=feasible, violations=viol, epigraph_gap=gap, tol=tol)


def affine_transform(p: Qcqp, U, z) -> Qcqp:
    """Reparametrize by y = U(x + z): returns q' with q'_i(U(x+z)) = q_i(x).

    U must have condition number at most AFFINE_COND_LIMIT.  The inverse
    reparametrization is affine_transform(p', U^-1, -Uz).
    """
    U = np.asarray(U, dtype=float)
    z = np.asarray(z, dtype=float).reshape(-1)
    n = p.dim
    if U.shape != (n, n):
        raise ValueError(f"U must be {n}x{n}, got {U.shape}")
    if z.shape[0] != n:
        raise ValueError(f"z has length {z.shape[0]}, expected {n}")
    if np.linalg.cond(U) > AFFINE_COND_LIMIT:
        raise ValueError("U is singular or too ill-conditioned to invert")
    Uinv = np.linalg.inv(U)

    def transform(q: QuadraticFn) -> QuadraticFn:
        # q'(y) = q(U^-1 y - z)
        A2 = Uinv.T @ q.A @ Uinv
        b2 = Uinv.T @ (q.b - q.A @ z)
        c2 = q.c + z @ q.A @ z - 2.0 * (q.b @ z)
        return QuadraticFn(A2, b2, c2)

    return Qcqp(
        objective=transform(p.objective),
        constraints=tuple(transform(q) for q in p.constraints),
        num_inequalities=p.num_inequalities,
        num_equalities=p.num_equalities,
    )
