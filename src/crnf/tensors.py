"""CR frames, the iterated contraction operator on characteristic forms,
the filtration of first-order jet spaces E_j / F_k, finite
nondegeneracy, and the invariant tensors attached to a generic
submanifold at the origin.

All tensors are evaluated at the origin only; the intermediate objects
(vector-field and form coefficients) are truncated series in the
ambient coordinates (Z, Zbar).  E_j, F_j and psi_j are read from one
pass over the CR words (``_tensors``): each word of length j is one CR
field applied to a word of length j - 1, and its values at 0 span E_j
and, paired with F_{j-1}, give psi_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .series import DEFAULT_TOL, MixedSeries, fixed_point
from .hypersurfaces import GenericSubmanifold, Hypersurface
from .linalg import orthonormal_basis, nullspace


# ---------------------------------------------------------------------------
# frames


@dataclass
class CRFrame:
    """Basis of CR vector fields.

    ``L[k]`` is a list of N series: the coefficients of the k-th CR field
    over (d/dZbar^1 .. d/dZbar^N).
    """

    N: int
    d: int
    L: list

    @property
    def n(self):
        return self.N - self.d


def cr_frame(M: GenericSubmanifold, tol=DEFAULT_TOL) -> CRFrame:
    """Frame L_k = d/dZbar^k + sum_j mu_{kj} d/dZbar^{n+j} with L_k rho = 0."""
    N, d, n = M.N, M.d, M.n
    trunc = M.trunc
    W = [[M.rho_zb(l + 1, n + j + 1) for j in range(d)] for l in range(d)]
    W0inv = np.linalg.inv(M.dbar_block0())

    # W^{-1} solves W X = I; each round corrects X by W0^{-1} (I - W X) with
    # W0 the constant part of W.  X is a row-major flat list.
    def defect(X):
        r = []
        for i in range(d):
            for j in range(d):
                acc = MixedSeries.constant(N, trunc, 1.0 if i == j else 0.0)
                for k in range(d):
                    acc = acc - W[i][k] * X[k * d + j]
                r.append(acc)
        return r

    def correct(X, r):
        return [
            sum((r[k * d + j] * complex(W0inv[i, k]) for k in range(d)), X[i * d + j])
            for i in range(d)
            for j in range(d)
        ]

    X0 = [MixedSeries.constant(N, trunc, complex(c)) for c in W0inv.ravel()]
    Winv = fixed_point(defect, correct, X0, trunc, tol, "cr_frame")
    L = []
    for k in range(n):
        v = [M.rho_zb(l + 1, k + 1) for l in range(d)]
        coeffs = [MixedSeries.zero(N, trunc) for _ in range(N)]
        coeffs[k] = MixedSeries.constant(N, trunc, 1.0)
        for j in range(d):
            terms = (Winv[j * d + l] * v[l] for l in range(d))
            coeffs[n + j] = -1.0 * sum(terms, MixedSeries.zero(N, trunc))
        L.append(coeffs)
    return CRFrame(N, d, L)


def frame_residual(M: GenericSubmanifold, frame: CRFrame):
    """max norm of L_k rho_l over all k, l."""
    worst = 0.0
    for coeffs in frame.L:
        for r in M.rho:
            worst = max(worst, apply_field_bar(coeffs, r).norm())
    return worst


def apply_field_bar(coeffs, F: MixedSeries) -> MixedSeries:
    """Apply sum_m coeffs[m] d/dZbar^m to F."""
    N = F.n
    out = MixedSeries.zero(N, F.trunc)
    for m in range(N):
        c = coeffs[m]
        if c.norm() == 0.0:
            continue
        out = out + c * F.diff("zb", m + 1)
    return out


def apply_word(frame: CRFrame, J, F: MixedSeries) -> MixedSeries:
    """Apply L^J = L_{J_1} ... L_{J_k} to F (indices 1-based)."""
    out = F
    for idx in reversed(J):
        out = apply_field_bar(frame.L[idx - 1], out)
    return out


def _value0(series_list):
    N = series_list[0].n
    zero = (0,) * N
    return np.array([complex(f.coeff(zero, zero, 0)) for f in series_list])


def _words(n, j):
    if j == 0:
        return [()]
    out = []
    for w in _words(n, j - 1):
        for k in range(1, n + 1):
            out.append(w + (k,))
    return out


@dataclass
class Subspace:
    ambient_dim: int
    basis: np.ndarray  # orthonormal columns
    tol: float = DEFAULT_TOL

    @property
    def dim(self):
        return self.basis.shape[1]


def _tensors(M: GenericSubmanifold, kmax, frame: CRFrame, tol):
    """One pass over the CR words of length <= kmax: (E_0..E_kmax, psi_1..psi_kmax).

    Level j maps each word J of length j to the series L^J (d rho_l / dZ^m);
    the word (k,) + w is L_k applied to the series of w, in the order of
    operations of ``apply_word``.  E_j is spanned by the values at 0 of
    levels 0..j (level 0 scaled by 2i); psi_j pairs the values of level j
    with F_{j-1}.
    """
    if not 0 <= kmax < M.trunc:
        raise ValueError(f"word length {kmax} outside 0..{M.trunc - 1} at truncation {M.trunc}")
    n, d, N = M.n, M.d, M.N
    level = {(): [[M.rho_z(l + 1, m + 1) for m in range(N)] for l in range(d)]}
    vectors = [2j * _value0(rows) for rows in level[()]]
    Es = [Subspace(N, orthonormal_basis(vectors, tol), tol)]
    psis = []
    for j in range(1, kmax + 1):
        level = {
            (k,) + w: [[apply_field_bar(frame.L[k - 1], f) for f in row] for row in rows]
            for w, rows in level.items()
            for k in range(1, n + 1)
        }
        values = {w: [_value0(row) for row in rows] for w, rows in level.items()}
        psis.append(_psi(j, values, F_space(M, Es[-1], frame, tol), n, d))
        vectors += [v for vals in values.values() for v in vals]
        Es.append(Subspace(N, orthonormal_basis(vectors, tol), tol))
    return Es, psis


def E_spaces(M: GenericSubmanifold, kmax, frame: CRFrame | None = None, tol=DEFAULT_TOL):
    """Subspaces E_0 .. E_kmax spanned by the word-iterated form values at 0."""
    return _tensors(M, kmax, frame or cr_frame(M), tol)[0]


def gradient_spans(M: GenericSubmanifold, kmax, frame: CRFrame | None = None, tol=DEFAULT_TOL):
    """Spans of L^J (d rho_l / dZ)(0), |J| <= j, without the form factors.

    Used to cross-check the word-based computation of E_j.
    """
    if frame is None:
        frame = cr_frame(M)
    n, d, N = M.n, M.d, M.N
    out = []
    for j in range(kmax + 1):
        vs = []
        for jl in range(j + 1):
            for w in _words(n, jl):
                for l in range(1, d + 1):
                    vs.append(_value0([apply_word(frame, w, M.rho_z(l, m + 1)) for m in range(N)]))
        out.append(Subspace(N, orthonormal_basis(vs, tol), tol))
    return out


def random_frame(M: GenericSubmanifold, rng, frame: CRFrame | None = None):
    """A randomized CR frame: invertible constant mixing plus series-coefficient
    perturbations of a reference frame (still annihilates rho)."""
    if frame is None:
        frame = cr_frame(M)
    n, N, trunc = M.n, M.N, M.trunc
    A = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    if abs(np.linalg.det(A)) < 0.1:
        A = A + np.eye(n)
    newL = []
    for k in range(n):
        coeffs = [MixedSeries.zero(N, trunc) for _ in range(N)]
        for m in range(n):
            fac = MixedSeries.constant(N, trunc, complex(A[k, m]))
            # series-valued mixing: add a random linear coefficient
            for q in range(N):
                cz = 0.2 * (rng.standard_normal() + 1j * rng.standard_normal())
                fac = fac + cz * MixedSeries.variable(N, trunc, "z", q + 1)
            for m2 in range(N):
                c = frame.L[m][m2]
                if c.norm():
                    coeffs[m2] = coeffs[m2] + fac * c
        newL.append(coeffs)
    return CRFrame(N, M.d, newL)


def nondegeneracy(M: GenericSubmanifold, kmax, tol=DEFAULT_TOL):
    """Smallest k with dim E_k = N, or None if not reached by kmax."""
    Es = E_spaces(M, kmax, tol=tol)
    for k, E in enumerate(Es):
        if E.dim == M.N:
            return k
    return None


def vbar_basis(frame: CRFrame):
    """Values at 0 of the conjugated frame fields (vectors over d/dZ), N x n."""
    return np.column_stack([np.conj(_value0(coeffs)) for coeffs in frame.L])


def F_space(M: GenericSubmanifold, E: Subspace, frame: CRFrame, tol=DEFAULT_TOL) -> Subspace:
    """F_k = (annihilator of E = E_k) intersected with the conjugate CR space."""
    V = vbar_basis(frame)
    # covector xi acts on vector v by xi . v (bilinear); E basis columns are
    # stored as vectors, so annihilation reads E^T v = 0
    A = E.basis.T @ V
    K = nullspace(A, tol)
    cols = [V @ K[:, j] for j in range(K.shape[1])]
    return Subspace(M.N, orthonormal_basis(cols, tol), tol)


# ---------------------------------------------------------------------------
# tensors


@dataclass
class TensorRep:
    order: int
    components: np.ndarray  # shape (n,)*order + (dimF, d)
    F_basis: np.ndarray  # N x dimF, orthonormal columns
    trivial: bool = False

    def to_json(self):
        comp = self.components
        return {
            "order": self.order,
            "trivial": self.trivial,
            "shape": list(comp.shape),
            "re": np.real(comp).tolist(),
            "im": np.imag(comp).tolist(),
        }


def psi(M: GenericSubmanifold, j, frame: CRFrame | None = None, tol=DEFAULT_TOL) -> TensorRep:
    """Invariant tensor of order j at 0.

    Components are 1/j! times the pairing of the word-iterated form
    coefficients L^J(d rho_l/dZ)(0) with an orthonormal basis of F_{j-1}.
    Indexing: (j frame indices, F_{j-1} basis index, defining-function
    index).
    """
    if j < 1:
        raise ValueError("order must be >= 1")
    return _tensors(M, j, frame or cr_frame(M), tol)[1][-1]


def _psi(j, values, F: Subspace, n, d) -> TensorRep:
    """psi_j from the values at 0 of the words of length j (see ``psi``)."""
    comp = np.zeros((n,) * j + (F.dim, d), dtype=complex)
    if F.dim == 0:
        return TensorRep(j, comp, F.basis, trivial=True)
    fac = 1.0 / math.factorial(j)
    for w, vals in values.items():
        idx = tuple(k - 1 for k in w)
        for l, xi in enumerate(vals):
            for f in range(F.dim):
                comp[idx + (f, l)] = fac * (xi @ F.basis[:, f])
    return TensorRep(j, comp, F.basis)


def levi_form(M, frame=None, tol=DEFAULT_TOL) -> TensorRep:
    """Order-1 tensor (the Levi form) of a hypersurface or submanifold."""
    M = _as_generic(M)
    return psi(M, 1, frame, tol)


def third_tensor(M, frame=None, tol=DEFAULT_TOL) -> TensorRep:
    """Order-2 tensor with the last index running over an orthonormal basis
    of the annihilator of E_1 (the Levi-kernel directions)."""
    M = _as_generic(M)
    return psi(M, 2, frame, tol)


def _as_generic(M):
    return M.to_generic() if isinstance(M, Hypersurface) else M


def levi_matrix(M, tol=DEFAULT_TOL):
    """Hermitian n x n Levi matrix g of a hypersurface (d = 1)."""
    Mg = _as_generic(M)
    if Mg.d != 1:
        raise ValueError("Levi matrix requires a hypersurface")
    t = levi_form(Mg, tol=tol)
    n = Mg.n
    # F_0 basis is an orthonormalization of the conjugate frame values,
    # which at 0 are the coordinate directions e_beta
    g = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(t.components.shape[1]):
            g[a, b] = t.components[(a, b, 0)]
    return g


def basis_change(t: TensorRep, B, a) -> TensorRep:
    """Transform tensor components under a frame change.

    B[alpha, gamma] expresses the old frame in the new one (old_alpha =
    sum_gamma B[alpha, gamma] new_gamma) and `a` rescales the
    characteristic form.  The first `order` indices contract with B, the
    F-index with conj(B) restricted to the F-block when dimensions agree.
    """
    c = t.components.copy()
    B = np.asarray(B, dtype=complex)
    j = t.order
    for ax in range(j):
        c = np.tensordot(B, c, axes=([1], [ax]))
        c = np.moveaxis(c, 0, ax)
    dimF = c.shape[j]
    if dimF:
        if B.shape[0] == dimF:
            BF = B
        else:
            BF = B[-dimF:, -dimF:]
        c = np.tensordot(np.conj(BF), c, axes=([1], [j]))
        c = np.moveaxis(c, 0, j)
    c = a * c
    return TensorRep(t.order, c, t.F_basis, t.trivial)


# ---------------------------------------------------------------------------
# the cubic form


def cubic_form(M, frame=None, tol=DEFAULT_TOL) -> TensorRep:
    """Cubic form q(L_a, L_b, N) = <d rho, [L_b, [L_a, N]]> at 0 of a
    hypersurface, normalized so that on a hypersurface already in
    third-order normal form q = (i/2) h holds componentwise: it equals
    (i/2) times the third tensor (tests/test_tensors.py checks this
    against the nested brackets, off model form too)."""
    Mg = _as_generic(M)
    if Mg.d != 1:
        raise ValueError("cubic form requires a hypersurface")
    t = third_tensor(Mg, frame, tol)
    return TensorRep(2, 0.5j * t.components, t.F_basis, t.trivial)


# ---------------------------------------------------------------------------


def tensors_report(M, kmax=3, tol=DEFAULT_TOL):
    Mg = _as_generic(M)
    kmax = min(kmax, Mg.trunc - 1)
    Es, psis = _tensors(Mg, kmax, cr_frame(Mg), tol)
    k = next((j for j, E in enumerate(Es) if E.dim == Mg.N), None)
    out_psi = {}
    for j, t in enumerate(psis, 1):
        out_psi[str(j)] = t.to_json()
        if t.trivial:
            break
    return {"k_nondeg": k, "dims_E": [E.dim for E in Es], "psi": out_psi}
