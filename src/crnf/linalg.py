"""Dense complex linear algebra helpers.

Takagi factorization of complex symmetric matrices, Hermitian
eigendecomposition with deterministic ordering, tolerance-aware
nullspace, and membership tests for the matrix groups used by the
normal-form modules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .series import DEFAULT_TOL


@dataclass
class TakagiResult:
    lam: np.ndarray  # real, descending, nonnegative
    U: np.ndarray  # unitary with U E U^T = diag(lam)


def hermitian_eig(A, tol=DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns (w, V) with A = V diag(w) V^*.
    """
    A = np.asarray(A, dtype=complex)
    if A.size and np.max(np.abs(A - A.conj().T)) > tol * (1 + np.max(np.abs(A))):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, V = np.linalg.eigh(0.5 * (A + A.conj().T))
    idx = np.argsort(-w, kind="stable")
    return w[idx], V[:, idx]


def takagi(E, tol=DEFAULT_TOL) -> TakagiResult:
    """Takagi factorization: U E U^T = diag(lam) for symmetric E.

    lam are the singular values of E in descending order.  Built on the
    SVD; repeated singular values are handled by taking a matrix square
    root on each degenerate block.
    """
    E = np.asarray(E, dtype=complex)
    m = E.shape[0]
    if E.shape != (m, m):
        raise ValueError("matrix must be square")
    scale = np.max(np.abs(E)) if E.size else 0.0
    if m and np.max(np.abs(E - E.T)) > tol * (1 + scale):
        raise ValueError("matrix is not symmetric within tolerance")
    E = 0.5 * (E + E.T)
    if m == 0:
        return TakagiResult(np.zeros(0), np.zeros((0, 0), dtype=complex))
    V, sv, Wh = np.linalg.svd(E)
    W = Wh.conj().T
    # group (nearly) equal singular values
    groups = []
    start = 0
    for i in range(1, m + 1):
        if i == m or abs(sv[i] - sv[start]) > tol * (1 + sv[0]):
            groups.append(list(range(start, i)))
            start = i
    blocks = []
    for idx in groups:
        Z = V[:, idx].T @ W[:, idx]
        blocks.append(scipy.linalg.sqrtm(Z))
    Q = scipy.linalg.block_diag(*blocks)
    U0 = V @ Q.conj()  # E = U0 diag(sv) U0^T
    U = U0.conj().T
    return TakagiResult(sv.copy(), U)


def takagi_stabilizer_check(U, lam, tol=DEFAULT_TOL):
    """True iff U is unitary and U diag(lam) U^T = diag(lam)."""
    U = np.asarray(U, dtype=complex)
    lam = np.asarray(lam, dtype=float)
    m = U.shape[0]
    if np.max(np.abs(U.conj().T @ U - np.eye(m))) > tol:
        return False
    D = np.diag(lam.astype(complex))
    return bool(np.max(np.abs(U @ D @ U.T - D)) <= tol * (1 + np.max(lam, initial=0.0)))


def I_rs(r, s):
    d = np.ones(r + s)
    d[r:] = -1.0
    return np.diag(d)


def is_hatU(U, r, s, tol=DEFAULT_TOL):
    """Return +1 / -1 if U^* I_{r,s} U = +/- I_{r,s}, else None."""
    U = np.asarray(U, dtype=complex)
    J = I_rs(r, s)
    M = U.conj().T @ J @ U
    if np.max(np.abs(M - J)) <= tol:
        return +1
    if np.max(np.abs(M + J)) <= tol:
        return -1
    return None


def is_OR(B, R, tol=DEFAULT_TOL):
    """True iff B^T R B = R (preserves the bilinear form of R)."""
    B = np.asarray(B, dtype=complex)
    R = np.asarray(R, dtype=complex)
    return bool(np.max(np.abs(B.T @ R @ B - R), initial=0.0) <= tol * (1 + np.max(np.abs(R), initial=0.0)))


def nullspace(A, tol=DEFAULT_TOL):
    """Orthonormal basis (columns) of the kernel of A; real if A is real."""
    A = np.asarray(A)
    A = A.astype(np.result_type(A, float))
    if A.size == 0:
        return np.eye(A.shape[1], dtype=A.dtype)
    _, sv, Vh = np.linalg.svd(A)
    r = int(np.sum(sv > tol * (sv[0] + 1)))
    return Vh[r:].conj().T


def orthonormal_basis(vectors, tol=DEFAULT_TOL):
    """Deterministic pivoted Gram-Schmidt on a list of vectors (columns out).

    At each step the remaining vector with the largest residual norm is
    orthonormalized next; vectors with residual below tolerance are
    dropped.
    """
    vecs = [np.asarray(v, dtype=complex).copy() for v in vectors]
    basis = []
    active = list(range(len(vecs)))
    while active:
        norms = [np.linalg.norm(vecs[i]) for i in active]
        j = int(np.argmax(norms))
        if norms[j] <= tol:
            break
        pick = active.pop(j)
        q = vecs[pick] / np.linalg.norm(vecs[pick])
        basis.append(q)
        for i in active:
            vecs[i] = vecs[i] - q * (q.conj() @ vecs[i])
    if not basis:
        return np.zeros((len(vectors[0]) if vectors else 0, 0), dtype=complex)
    return np.column_stack(basis)


def principal_angle_gap(U, V):
    """Max |1 - cos(theta)| over principal angles of two subspaces given by
    orthonormal column bases.  0 when the spans coincide."""
    U = np.asarray(U)
    V = np.asarray(V)
    if U.shape[1] != V.shape[1]:
        return 1.0
    if U.shape[1] == 0:
        return 0.0
    sv = np.linalg.svd(U.conj().T @ V, compute_uv=False)
    return float(np.max(np.abs(1.0 - sv)))


def matrix_to_json(A):
    A = np.asarray(A, dtype=complex)
    return [[[float(x.real), float(x.imag)] for x in row] for row in A]


def matrix_from_json(rows):
    return np.array([[complex(x[0], x[1]) for x in row] for row in rows], dtype=complex)
