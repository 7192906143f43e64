import numpy as np
import pytest

from conftest import (
    SMALL_INSTANCES,
    TINY_DISTINCT,
    all_scaled_identities,
    conditioned_map,
    kron_oracle,
    random_spd,
    whiten_at,
)
from test_core import lagrangian
from qcqp_hull.core import Qcqp, QuadraticFn, affine_transform
from qcqp_hull.errors import NotSimultaneouslyDiagonalizable
from qcqp_hull.gamma import _definite_multiplier, build_gamma_data
from qcqp_hull.generators import barvinok_random, example1, quadratic_matrix_program
from qcqp_hull.linalg import KERNEL_RTOL, PSD_TOL, _aggregate_spectrum, _eig, _whiten, is_definite, solve_homogeneous


class TestSymEig:
    """The one eigen rule, ``_eig``."""

    def test_identity(self):
        w, V = _eig(np.eye(3))
        assert np.allclose(w, [1.0, 1.0, 1.0])
        assert np.allclose(V, np.eye(3))

    def test_already_diagonal(self):
        w, V = _eig(np.diag([2.0, 0.0]))
        assert np.allclose(w, [0.0, 2.0])
        assert np.allclose(np.abs(V), [[0.0, 1.0], [1.0, 0.0]])

    def test_offdiagonal_pair(self):
        w, _ = _eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [-1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_reconstruction_random(self, n):
        rng = np.random.default_rng(n)
        S = rng.normal(size=(n, n))
        S = 0.5 * (S + S.T)
        w, V = _eig(S)
        assert np.max(np.abs(V.T @ V - np.eye(n))) <= 1e-9
        assert np.max(np.abs(V @ np.diag(w) @ V.T - S)) <= 1e-8 * (1 + np.max(np.abs(S)))
        assert np.all(np.diff(w) >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        S = rng.normal(size=(8, 8))
        S = 0.5 * (S + S.T)
        (wa, Va), (wb, Vb) = _eig(S), _eig(S)
        assert np.array_equal(wa, wb)
        assert np.array_equal(Va, Vb)

    @pytest.mark.parametrize("n", [1, 3, 4, 16])
    def test_stack_matches_each_matrix_bit_for_bit(self, n):
        # The joint eigenbasis decomposes blocks of one size as one stack.
        S = np.random.default_rng(n).normal(size=(5, n, n))
        w, V = _eig(S)
        for k in range(5):
            wk, Vk = _eig(S[k])
            assert w[k].tobytes() == wk.tobytes()
            assert V[k].tobytes() == Vk.tobytes()

    @pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
    def test_aggregate_spectrum_is_the_lagrangian_spectrum(self, name):
        p = SMALL_INSTANCES[name]()
        gamma = np.random.default_rng(0).uniform(0.0, 2.0, size=p.num_constraints)
        A, (w, V) = _aggregate_spectrum(p, gamma)
        want = lagrangian(p, gamma).A
        assert A.tobytes() == want.tobytes()
        assert w.tobytes() == _eig(want)[0].tobytes()
        assert V.tobytes() == _eig(want)[1].tobytes()


class TestIsDefinite:
    def test_examples(self):
        for M, want in ((np.eye(2), True), (np.diag([2.0, 0.0]), False), (np.diag([1.0, -1.0]), False)):
            assert is_definite(M, _eig(M)[0][0]) == want
        # diag(2, 0) has its nullspace spanned by e_2: one zero eigenvalue under the same tolerance
        M = np.diag([2.0, 0.0])
        w, V = _eig(M)
        zero = np.abs(w) <= PSD_TOL * max(1.0, np.max(np.abs(M)))
        assert np.count_nonzero(zero) == 1
        assert np.allclose(np.abs(V[:, zero][:, 0]), [0.0, 1.0])

    def test_agrees_with_leading_minors(self):
        # Sylvester: PD iff all leading principal minors are positive.
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 60:
            S = rng.normal(size=(3, 3))
            S = 0.5 * (S + S.T) + rng.normal() * np.eye(3)
            lam = np.linalg.eigvalsh(S)
            if abs(lam[0]) <= 10 * PSD_TOL:
                continue
            checked += 1
            minors_pos = all(np.linalg.det(S[:k, :k]) > 0 for k in (1, 2, 3))
            assert is_definite(S, _eig(S)[0][0]) == minors_pos


def gram_solve_homogeneous(E):
    """The Gram-matrix rule ``solve_homogeneous`` replaced, kept as its
    oracle: kernel directions from the eigendecomposition of E'E, one
    counting as kernel when ||E v|| <= KERNEL_RTOL * sigma_max, and the
    all-ones vector projected onto them."""
    E = np.atleast_2d(np.asarray(E, dtype=float))
    w, V = _eig(E.T @ E)
    smax = float(np.sqrt(max(w[-1], 0.0)))
    kernel = V[:, np.linalg.norm(E @ V, axis=0) <= KERNEL_RTOL * smax]
    if kernel.shape[1] == 0:
        return None
    u = kernel @ kernel.sum(axis=0)
    return u / np.linalg.norm(u)


class TestSolveHomogeneous:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_gram_oracle_on_rank_deficient_matrices(self, seed):
        # tall, square and wide E of every rank up to full, at scales 1e-3 to 1e3
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 7, size=2)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        E = 10.0 ** rng.uniform(-3, 3) * rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols))
        if rank == 0:
            E[0, 0] = 1.0  # the zero matrix is a documented edge case, tested below
        got, want = solve_homogeneous(E), gram_solve_homogeneous(E)
        if want is None:
            assert got is None
        else:
            assert np.max(np.abs(got - want)) <= 1e-10
            assert np.max(np.abs(E @ got)) <= 1e-9 * np.max(np.abs(E))

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_kernel_cut_at_kernel_rtol(self, scale):
        # a singular value 1e-7 of the largest is not kernel, 1e-11 is
        rng = np.random.default_rng(3)
        U, V = (np.linalg.qr(rng.normal(size=(3, 3)))[0] for _ in range(2))
        assert solve_homogeneous(scale * U @ np.diag([1.0, 0.5, 1e-7]) @ V.T) is None
        v = solve_homogeneous(scale * U @ np.diag([1.0, 0.5, 1e-11]) @ V.T)
        assert abs(abs(v @ V[:, 2]) - 1.0) <= 1e-12

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


def commutator_sweep(p, gamma, tol=1e-8) -> bool:
    """Whether the forms whitened by A(gamma)^(-1/2) commute pairwise:
    every commutator entry within tol * max(1, largest whitened entry)^2."""
    w, V = np.linalg.eigh(lagrangian(p, gamma).A)
    W = V @ np.diag(w**-0.5) @ V.T
    mats = W @ p.A @ W
    scale = max(1.0, float(np.max(np.abs(mats)))) ** 2
    return all(
        np.max(np.abs(mats[i] @ mats[j] - mats[j] @ mats[i])) <= tol * scale
        for i in range(len(mats))
        for j in range(i + 1, len(mats))
    )


class TestWhitenSimdiag:
    """Whitening, ``_whiten``, on the ``_aggregate_spectrum`` pair."""

    def test_already_diagonal_family(self):
        p = example1()
        sd = whiten_at(p, np.zeros(2))
        assert np.allclose(sd.diagonals[0], [1.0, 1.0], atol=1e-12)
        assert np.allclose(sd.diagonals[1], [1.0, -1.0], atol=1e-12)
        assert np.allclose(sd.diagonals[2], [-1.0, 1.0], atol=1e-12)
        assert np.allclose(sd.basis, np.eye(2), atol=1e-12)

    def test_whitening_with_offdiagonal_objective(self):
        rng = np.random.default_rng(4)
        A0 = random_spd(rng, 3)
        D1, D2 = np.diag([1.0, -2.0, 0.5]), np.diag([0.0, 3.0, -1.0])
        # congruence by A0^(1/2) makes a commuting whitened family
        w, V = _eig(A0)
        R = V @ np.diag(np.sqrt(w)) @ V.T
        p = Qcqp(
            objective=QuadraticFn(A0, np.zeros(3), 0.0),
            constraints=(
                QuadraticFn(R @ D1 @ R, np.zeros(3), -1.0),
                QuadraticFn(R @ D2 @ R, np.zeros(3), -1.0),
            ),
            num_inequalities=2,
            num_equalities=0,
        )
        sd = whiten_at(p, np.zeros(2))
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
            whiten_at(p, np.zeros(2))

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("num_forms", [1, 2])
    def test_refuses_what_the_commutator_sweep_flags(self, n, num_forms):
        for seed in range(40):
            p = barvinok_random(n, num_forms, seed)
            gamma, spec = _definite_multiplier(p)
            try:
                _whiten(p, spec)
                accepted = True
            except NotSimultaneouslyDiagonalizable as e:
                assert "do not commute" in str(e)
                accepted = False
            assert accepted == commutator_sweep(p, gamma), seed

    @pytest.mark.parametrize("seed", range(100, 110))
    def test_eigenspaces_share_their_tuple_exactly(self, seed):
        # Under a cond-1e4 map each joint eigenspace of dimension k still
        # gives one diagonal tuple, bit for bit, so Gamma gets one
        # eigenvalue row per eigenspace.
        for n, k, m, s in ((1, 2, 2, 0), (1, 2, 2, 1), (2, 3, 2, 0), (2, 3, 2, 1), (2, 3, 2, 2)):
            p = quadratic_matrix_program(n, k, m, seed=s)
            U = conditioned_map(np.random.default_rng(seed), p.dim, 1e4)
            sd = build_gamma_data(affine_transform(p, U, np.zeros(p.dim))).sd
            assert sd.multiplicity == k
            _, counts = np.unique(sd.diagonals.T, axis=0, return_counts=True)
            assert counts.tolist() == [k] * n, (n, k, m, s)


def _rescaled(p, s) -> Qcqp:
    """p with constraint i multiplied by s[i]."""
    cons = tuple(QuadraticFn(si * q.A, si * q.b, si * q.c) for si, q in zip(s, p.constraints))
    return Qcqp(p.objective, cons, p.num_inequalities, p.num_equalities)


def _multiplicity(p) -> int:
    return build_gamma_data(p).sd.multiplicity


class TestKronMultiplicity:
    """The joint eigenbasis's multiplicity against the given-basis scan
    ``kron_oracle`` on instances given in Kronecker form."""

    def test_scaled_identities_give_full_multiplicity(self):
        n = 4
        p = Qcqp(
            objective=QuadraticFn(np.eye(n), np.zeros(n), 0.0),
            constraints=(QuadraticFn(-2.0 * np.eye(n), np.zeros(n), -1.0),),
            num_inequalities=1,
            num_equalities=0,
        )
        assert _multiplicity(p) == kron_oracle(p) == n

    def test_example1_is_one(self, ex1):
        assert _multiplicity(ex1) == kron_oracle(ex1) == 1

    def test_constructed_block_structure_detected(self):
        p = quadratic_matrix_program(2, 3, 2, seed=9)
        k = _multiplicity(p)
        assert k in (3, 6)
        assert k == kron_oracle(p)

    def test_roundtrip(self):
        p = quadratic_matrix_program(3, 2, 2, seed=5)
        k = _multiplicity(p)
        assert k == kron_oracle(p)
        n = p.dim // k
        for q in p.quadratics():
            assert np.max(np.abs(np.kron(np.eye(k), q.A[:n, :n]) - q.A)) <= 1e-10

    @pytest.mark.parametrize("name", sorted(SMALL_INSTANCES))
    def test_matches_given_basis_scan(self, name):
        # each instance family is built in Kronecker form, or has k = 1
        p = SMALL_INSTANCES[name]()
        k = _multiplicity(p)
        assert k == kron_oracle(p)
        assert (k == p.dim) == all_scaled_identities(p)

    @pytest.mark.parametrize("name", [*sorted(SMALL_INSTANCES), "tiny-distinct"])
    def test_constraint_scaling_keeps_multiplicity(self, name):
        # Whitening at the rescaled multiplier gamma*_i / s_i gives the same
        # A(gamma*), so only the scale of the whitened constraint forms moves.
        p = TINY_DISTINCT if name == "tiny-distinct" else SMALL_INSTANCES[name]()
        gd = build_gamma_data(p)
        assert gd.sd.multiplicity == kron_oracle(p)
        rng = np.random.default_rng(sorted(SMALL_INSTANCES).index(name) if name in SMALL_INSTANCES else 99)
        m = p.num_constraints
        for s in (np.full(m, 1e-8), np.full(m, 1e8), 10.0 ** rng.uniform(-8.0, 3.0, size=m)):
            scaled = _rescaled(p, s)
            assert whiten_at(scaled, gd.gamma_star / s).multiplicity == gd.sd.multiplicity, s

    def test_basis_change_keeps_multiplicity(self):
        p = quadratic_matrix_program(2, 3, 2, seed=0)
        U = conditioned_map(np.random.default_rng(0), p.dim, 100.0)
        moved = affine_transform(p, U, np.zeros(p.dim))
        assert kron_oracle(p) == _multiplicity(p) == 3
        # the given-basis scan loses the structure; the joint eigenbasis keeps it
        assert kron_oracle(moved) == 1
        assert _multiplicity(moved) == 3
