import numpy as np
import pytest

from conftest import random_spd
from qcqp_hull.core import Qcqp, QuadraticFn
from qcqp_hull.errors import NotSimultaneouslyDiagonalizable
from qcqp_hull.generators import example1, quadratic_matrix_program
from qcqp_hull.linalg import (
    PSD_TOL,
    Definiteness,
    kron_multiplicity,
    psd_status,
    solve_homogeneous,
    sym_eig,
    whiten_simdiag,
)


class TestSymEig:
    def test_identity(self):
        spec = sym_eig(np.eye(3))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
        assert np.allclose(spec.eigenvectors, np.eye(3))

    def test_already_diagonal(self):
        spec = sym_eig(np.diag([2.0, 0.0]))
        assert np.allclose(spec.eigenvalues, [0.0, 2.0])
        assert np.allclose(np.abs(spec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_offdiagonal_pair(self):
        spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(n)
        S = rng.normal(size=(n, n))
        S = 0.5 * (S + S.T)
        spec = sym_eig(S)
        V, w = spec.eigenvectors, spec.eigenvalues
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
        assert np.max(np.abs(V @ np.diag(w) @ V.T - S)) <= 1e-8 * (1 + np.max(np.abs(S)))
        assert np.all(np.diff(w) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(8, 8))
        S = 0.5 * (S + S.T)
        a, b = sym_eig(S), sym_eig(S)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)


class TestPsdStatus:
    def test_examples(self):
        assert psd_status(np.eye(2)) is Definiteness.POSITIVE_DEFINITE
        M = np.diag([2.0, 0.0])
        assert psd_status(M) is Definiteness.PSD_SINGULAR
        # its nullspace is spanned by e_2: one zero eigenvalue under the same tolerance
        spec = sym_eig(M)
        zero = np.abs(spec.eigenvalues) <= PSD_TOL * max(1.0, np.max(np.abs(M)))
        assert np.count_nonzero(zero) == 1
        assert np.allclose(np.abs(spec.eigenvectors[:, zero][:, 0]), [0.0, 1.0])
        assert psd_status(np.diag([1.0, -1.0])) is Definiteness.INDEFINITE

    def test_agrees_with_leading_minors(self):
        # Sylvester: PD iff all leading principal minors are positive.
        rng = np.random.default_rng(11)
        tol = 1e-9
        checked = 0
        while checked < 60:
            S = rng.normal(size=(3, 3))
            S = 0.5 * (S + S.T) + rng.normal() * np.eye(3)
            lam = np.linalg.eigvalsh(S)
            if abs(lam[0]) <= 10 * tol:
                continue
            checked += 1
            minors_pos = all(np.linalg.det(S[:k, :k]) > 0 for k in (1, 2, 3))
            got = psd_status(S, tol=tol)
            if minors_pos:
                assert got is Definiteness.POSITIVE_DEFINITE
            else:
                assert got is Definiteness.INDEFINITE


class TestSolveHomogeneous:
    def test_single_row(self):
        v = solve_homogeneous(np.array([[5.0, 0.0]]))
        assert v is not None
        assert abs(v[0]) < 1e-12 and abs(abs(v[1]) - 1.0) < 1e-12

    def test_full_rank(self):
        assert solve_homogeneous(np.eye(2)) is None

    def test_zero_matrix(self):
        v = solve_homogeneous(np.zeros((2, 3)))
        assert np.allclose(v, [1.0, 0.0, 0.0])

    def test_wide_system(self):
        rng = np.random.default_rng(2)
        E = rng.normal(size=(2, 5))
        v = solve_homogeneous(E)
        assert v is not None
        assert np.max(np.abs(E @ v)) < 1e-9 * np.max(np.abs(E))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_wide_kernel_invariant_under_row_permutation(self, seed):
        # a rotated 2-dimensional kernel: the vector depends on ker E only
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        E = rng.normal(size=(4, 3)) @ Q[:, 2:].T
        v = solve_homogeneous(E)
        assert np.max(np.abs(E @ v)) < 1e-9 * np.max(np.abs(E))
        for _ in range(4):
            w = solve_homogeneous(E[rng.permutation(4)])
            assert min(np.max(np.abs(w - v)), np.max(np.abs(w + v))) <= 1e-8


class TestWhitenSimdiag:
    def test_already_diagonal_family(self):
        p = example1()
        sd = whiten_simdiag(p, np.zeros(2))
        assert np.allclose(sd.diagonals[0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(sd.diagonals[1], [1.0, -1.0], atol=1e-12)
        assert np.allclose(sd.diagonals[2], [-1.0, 1.0], atol=1e-12)
        assert np.allclose(sd.basis, np.eye(2), atol=1e-12)

    def test_whitening_with_offdiagonal_objective(self):
        rng = np.random.default_rng(4)
        A0 = random_spd(rng, 3)
        D1, D2 = np.diag([1.0, -2.0, 0.5]), np.diag([0.0, 3.0, -1.0])
        # congruence by A0^(1/2) makes a commuting whitened family
        spec = sym_eig(A0)
        R = spec.eigenvectors @ np.diag(np.sqrt(spec.eigenvalues)) @ spec.eigenvectors.T
        p = Qcqp(
            objective=QuadraticFn(A0, np.zeros(3), 0.0),
            constraints=(
                QuadraticFn(R @ D1 @ R, np.zeros(3), -1.0),
                QuadraticFn(R @ D2 @ R, np.zeros(3), -1.0),
            ),
            num_inequalities=2,
            num_equalities=0,
        )
        sd = whiten_simdiag(p, np.zeros(2))
        for i, q in enumerate(p.quadratics()):
            D = sd.basis.T @ q.A @ sd.basis
            off = np.max(np.abs(D - np.diag(np.diag(D))))
            assert off <= 1e-7 * max(1.0, np.max(np.abs(D)))
            assert np.allclose(np.diag(D), sd.diagonals[i], atol=1e-9)

    def test_non_commuting_rejected(self):
        p = Qcqp(
            objective=QuadraticFn(np.eye(2), np.zeros(2), 0.0),
            constraints=(
                QuadraticFn(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2), -1.0),
                QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), -1.0),
            ),
            num_inequalities=2,
            num_equalities=0,
        )
        with pytest.raises(NotSimultaneouslyDiagonalizable):
            whiten_simdiag(p, np.zeros(2))

    def test_requires_definite_aggregate(self):
        p = Qcqp(
            objective=QuadraticFn(np.diag([1.0, -1.0]), np.zeros(2), 0.0),
            constraints=(QuadraticFn(np.zeros((2, 2)), np.zeros(2), -1.0),),
            num_inequalities=1,
            num_equalities=0,
        )
        with pytest.raises(ValueError):
            whiten_simdiag(p, np.zeros(1))


class TestKronMultiplicity:
    def test_scaled_identities_give_full_multiplicity(self):
        n = 4
        p = Qcqp(
            objective=QuadraticFn(np.eye(n), np.zeros(n), 0.0),
            constraints=(QuadraticFn(-2.0 * np.eye(n), np.zeros(n), -1.0),),
            num_inequalities=1,
            num_equalities=0,
        )
        k = kron_multiplicity(p)
        assert k == n
        # each Hessian is I_n (x) its 1 x 1 leading block
        for A in p.A:
            assert np.array_equal(A, np.kron(np.eye(k), A[:1, :1]))

    def test_example1_is_one(self, ex1):
        assert kron_multiplicity(ex1) == 1

    def test_constructed_block_structure_detected(self):
        p = quadratic_matrix_program(2, 3, 2, seed=9)
        k = kron_multiplicity(p)
        assert k in (3, 6)
        n = 6 // k
        for A in p.A:
            assert np.max(np.abs(A - np.kron(np.eye(k), A[:n, :n]))) <= 1e-10

    def test_roundtrip(self):
        p = quadratic_matrix_program(3, 2, 2, seed=5)
        k = kron_multiplicity(p)
        n = p.dim // k
        for q in p.quadratics():
            assert np.max(np.abs(np.kron(np.eye(k), q.A[:n, :n]) - q.A)) <= 1e-10
