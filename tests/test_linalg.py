import numpy as np
import pytest

from crnf.linalg import (
    I_rs,
    hermitian_eig,
    is_OR,
    is_hatU,
    matrix_from_json,
    matrix_to_json,
    nullspace,
    orthonormal_basis,
    principal_angle_gap,
    takagi,
    takagi_stabilizer_check,
)


def random_symmetric(rng, m):
    E = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return E + E.T


class TestTakagi:
    def test_factorization_identity(self, rng):
        for m in range(1, 7):
            for _ in range(10):
                E = random_symmetric(rng, m)
                res = takagi(E)
                scale = 1 + np.linalg.norm(E)
                assert np.linalg.norm(res.U @ E @ res.U.T - np.diag(res.lam)) < 1e-9 * scale
                assert np.linalg.norm(res.U @ res.U.conj().T - np.eye(m)) < 1e-10
                assert np.all(res.lam >= -1e-12)
                assert np.all(np.diff(res.lam) <= 1e-12)

    def test_lambda_are_singular_values(self, rng):
        E = random_symmetric(rng, 5)
        res = takagi(E)
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(E @ E.conj()).real, 0, None))[::-1]
        assert np.max(np.abs(res.lam - sv)) < 1e-9 * (1 + np.linalg.norm(E))

    def test_degenerate_spectrum(self):
        E = np.eye(3, dtype=complex)
        res = takagi(E)
        assert np.max(np.abs(res.lam - 1)) < 1e-12
        assert takagi_stabilizer_check(res.U, res.lam)

    def test_zero_matrix(self):
        res = takagi(np.zeros((4, 4), dtype=complex))
        assert np.max(res.lam) == 0.0

    def test_phase_absorption(self, rng):
        # multiplying E by a phase rotates U, lambda unchanged
        E = random_symmetric(rng, 4)
        th = 0.7
        r1, r2 = takagi(E), takagi(np.exp(1j * th) * E)
        assert np.max(np.abs(r1.lam * np.exp(0) - r2.lam / np.exp(0))) < 1e-9 * (
            1 + np.linalg.norm(E)
        ) or np.max(np.abs(r1.lam - r2.lam / 1.0)) < 1e-8 * (1 + np.linalg.norm(E))


class TestForms:
    def test_I_rs(self):
        assert np.allclose(I_rs(2, 1), np.diag([1.0, 1.0, -1.0]))

    def test_is_hatU(self):
        U = np.diag([1j, -1j]).astype(complex)
        assert is_hatU(U, 2, 0) == 1
        assert is_hatU(2 * U, 2, 0) is None

    def test_is_OR(self):
        R = np.diag([1.0, 0.5])
        B = np.diag([1.0, -1.0]).astype(complex)
        assert is_OR(B, R)
        assert not is_OR(2 * B, R)


class TestSubspaces:
    def test_nullspace(self):
        A = np.array([[1.0, 1.0, 0.0]])
        N = nullspace(A)
        assert N.shape[1] == 2
        assert np.linalg.norm(A @ N) < 1e-12

    def test_orthonormal_basis_and_angles(self, rng):
        V = rng.normal(size=(6, 3))
        B1 = orthonormal_basis(list(V.T))
        B2 = orthonormal_basis(list((V @ rng.normal(size=(3, 3))).T))
        assert principal_angle_gap(B1, B2) < 1e-10

    def test_hermitian_eig_descending(self, rng):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A = A + A.conj().T
        w, V = hermitian_eig(A)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.linalg.norm(A @ V - V @ np.diag(w)) < 1e-10


def test_matrix_json_round_trip(rng):
    A = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    assert np.array_equal(matrix_from_json(matrix_to_json(A)), A)
