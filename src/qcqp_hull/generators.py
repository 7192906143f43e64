"""Reproducible instance families for tests, demos, and the CLI.

All randomness flows from a single numpy Generator seeded by the spec, so
identical specs produce bit-identical problems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Qcqp, QuadraticFn

FAMILIES = ("example1", "gtrs", "qmp", "swisscheese", "barvinok")


@dataclass(frozen=True)
class FamilySpec:
    family: str
    n: int = 2  # dimension (qmp: factor size, so N = n * k)
    k: int = 3  # qmp multiplicity
    m: int = 2  # qmp constraint count
    m1: int = 1  # swisscheese inside-ball count
    m2: int = 1  # swisscheese outside-ball count
    m3: int = 1  # swisscheese half-space count
    num_forms: int = 1  # barvinok equality form count
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.family == "swisscheese":
            _check_swiss_counts(self.m1, self.m2, self.m3)
        if self.n < 1 or self.k < 1 or self.m < 1 or self.num_forms < 1:
            raise ValueError("dimensions and counts must be positive")


def generate(spec: FamilySpec) -> Qcqp:
    if spec.family == "example1":
        return example1()
    if spec.family == "gtrs":
        return gtrs(spec.n, spec.seed)
    if spec.family == "qmp":
        return quadratic_matrix_program(spec.n, spec.k, spec.m, spec.seed)
    if spec.family == "swisscheese":
        return swiss_cheese(spec.n, spec.m1, spec.m2, spec.m3, spec.seed)
    if spec.family == "barvinok":
        return barvinok_random(spec.n, spec.num_forms, spec.seed)
    raise AssertionError("unreachable")


def example1() -> Qcqp:
    """The worked 2D instance: min x1^2 + x2^2 + 10 x1 with the two
    opposite hyperbolic constraints x1^2 - x2^2 <= 5 and x2^2 - x1^2 <= 50."""
    q0 = QuadraticFn(np.eye(2), np.array([5.0, 0.0]), 0.0)
    q1 = QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), -5.0)
    q2 = QuadraticFn(np.diag([-1.0, 1.0]), np.zeros(2), -50.0)
    return Qcqp(objective=q0, constraints=(q1, q2), num_inequalities=2, num_equalities=0)


def _sym(rng, n: int) -> np.ndarray:
    S = rng.normal(size=(n, n))
    return 0.5 * (S + S.T)


def gtrs(n: int, seed: int = 0) -> Qcqp:
    """Single (possibly nonconvex) inequality constraint with a strictly
    convex objective, so the zero multiplier is an interior witness and the
    origin is primal feasible."""
    rng = np.random.default_rng(seed)
    S = _sym(rng, n)
    lam = float(np.linalg.eigvalsh(S)[0])
    A0 = S + (abs(lam) + 1.0 + rng.uniform(0.0, 1.0)) * np.eye(n)
    b0 = rng.normal(size=n)
    c0 = float(rng.normal())
    A1 = _sym(rng, n)
    b1 = rng.normal(size=n) * 0.5
    c1 = -abs(rng.normal()) - 1.0
    q0 = QuadraticFn(A0, b0, c0)
    q1 = QuadraticFn(A1, b1, c1)
    assert np.linalg.eigvalsh(A0)[0] > 0 and c1 < 0
    return Qcqp(objective=q0, constraints=(q1,), num_inequalities=1, num_equalities=0)


def quadratic_matrix_program(n: int, k: int, m: int, seed: int = 0) -> Qcqp:
    """Vectorized trace-form program: A_i = I_k (x) F_i with the factors
    F_i drawn commuting (a shared eigenbasis), F_0 positive definite, and
    b_i the column-major vectorization of a random n x k matrix."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    factors = [Q @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q.T]
    for _ in range(m):
        factors.append(Q @ np.diag(rng.uniform(-1.0, 1.0, size=n)) @ Q.T)
    quads = []
    for i, F in enumerate(factors):
        B = rng.normal(size=(n, k)) * 0.5
        b = B.flatten(order="F")  # entry (t-1)n + s is B[s, t]
        c = 0.0 if i == 0 else -abs(rng.normal()) - 0.5
        quads.append(QuadraticFn(np.kron(np.eye(k), F), b, c))
    return Qcqp(
        objective=quads[0],
        constraints=tuple(quads[1:]),
        num_inequalities=m,
        num_equalities=0,
    )


def _check_swiss_counts(m1: int, m2: int, m3: int) -> None:
    if min(m1, m2, m3) < 0:
        raise ValueError("swisscheese needs m1, m2, m3 >= 0")
    if m1 + m2 + m3 < 1:
        raise ValueError("swisscheese needs m1 + m2 + m3 >= 1")


def swiss_cheese(n: int, m1: int, m2: int, m3: int, seed: int = 0) -> Qcqp:
    """Distance-to-origin over a region cut by inside-ball, outside-ball,
    and half-space constraints (Hessians I, -I, 0), built nonempty around
    a random anchor point."""
    _check_swiss_counts(m1, m2, m3)
    rng = np.random.default_rng(seed)
    anchor = rng.normal(size=n) * 0.5
    cons = []
    for _ in range(m1):
        y = anchor + rng.normal(size=n) * 0.3
        s = float(np.linalg.norm(anchor - y)) + rng.uniform(0.5, 1.5)
        # |x - y| <= s
        cons.append(QuadraticFn(np.eye(n), -y, float(y @ y - s * s)))
    for _ in range(m2):
        z = anchor + rng.normal(size=n)
        t = float(np.linalg.norm(anchor - z)) * rng.uniform(0.2, 0.8)
        # |x - z| >= t
        cons.append(QuadraticFn(-np.eye(n), z, float(t * t - z @ z)))
    for _ in range(m3):
        g = rng.normal(size=n)
        c = float(anchor @ g) - rng.uniform(0.5, 1.5)
        # <x, g> >= c
        cons.append(QuadraticFn(np.zeros((n, n)), -0.5 * g, c))
    q0 = QuadraticFn(np.eye(n), np.zeros(n), 0.0)
    return Qcqp(
        objective=q0,
        constraints=tuple(cons),
        num_inequalities=len(cons),
        num_equalities=0,
    )


def barvinok(forms) -> Qcqp:
    """Joint-nontrivial-zero feasibility program for the given symmetric
    forms: maximize |x|^2 inside the unit ball subject to x'F_i x = 0."""
    forms = [np.asarray(F, dtype=float) for F in forms]
    if not forms:
        raise ValueError("need at least one quadratic form")
    n = forms[0].shape[0]
    q0 = QuadraticFn(-np.eye(n), np.zeros(n), 0.0)
    ball = QuadraticFn(np.eye(n), np.zeros(n), -1.0)
    eqs = tuple(QuadraticFn(F, np.zeros(n), 0.0) for F in forms)
    return Qcqp(
        objective=q0,
        constraints=(ball,) + eqs,
        num_inequalities=1,
        num_equalities=len(eqs),
    )


def barvinok_random(n: int, num_forms: int, seed: int = 0) -> Qcqp:
    rng = np.random.default_rng(seed)
    return barvinok([_sym(rng, n) for _ in range(num_forms)])
