"""Remainder space for the complete formal normal form.

A hypersurface at a generic Levi degeneracy can be written

    im w = <z',zbar'>_{r,s} + 2 Re(zbar^n p_R(z)) + F(z, zbar, re w)

with F real and of weighted order >= 4.  The normalization procedure
removes everything from F except a remainder N lying in a prescribed
graded subspace, defined type by type ((k,l) = bidegree in (z, zbar),
s-powers handled slice by slice).  With Q = <z',zbar'>_{r,s} and
pbar = pbar(grad, gradbar) the Fischer adjoint of a polynomial p
(fischer.apply_pbar), so that D = Qbar = sum_j eps_j d_j dbar_j:

  * no (k,0) or (0,l) components at all;
  * N_11 in ker D;
  * N_k1 = zbar^n H_k0 (k = 2 or k >= 4) with H_k0 independent of z^n;
  * N_31 in ker (Q p_R)bar (the Fischer complement of the line spanned
    by Q p_R);
  * N_22 = H_22 + Q z^n zbar^n H_00,  H_22 in ker D;
  * N_32 = Q^2 z^n H_00 + Q H_21 + H_32,  H_21 (type (2,1)) and H_32
    in ker D;
  * N_42 = Q zbar^n H_30 + H_42,  H_30 independent of z^n, H_42 in ker D;
  * N_33 = H_33 + Q^2 z^n H_01 + Q^2 zbar^n H_10,  H_33 in ker D^2;
  * every other type is unconstrained.

Each clause is a sum of parts of two kinds: a Fischer kernel ker pbar on
the slice, and a product span q H over the monomials of the
complementary type (all of them, those free of z^n, or a Fischer kernel
on that slice).  _TABLE holds them, one entry per clause.  These clauses
were validated computationally: together with the second-order-jet
gauge conditions on the transformation they make the degree-by-degree
normalization system square and invertible (see full_nf).

All constructions are finite-dimensional linear algebra on coefficient
slices.  Real bases are kept in "stacked" coordinates (Re parts then Im
parts of the type-(k,l) coefficient vector, k >= l); for k > l the
type-(l,k) coefficients of a real series are implied by conjugation,
and for k = l bases are restricted to the conjugation-symmetric real
slice.

The bases are orthonormalized without factoring a realized 2d x 2p
matrix.  For k > l the complex d x p columns of the clause are
orthonormalized (SVD) and then realized: a complex orthonormal U
realizes to the orthonormal real basis [U, iU].  For k = l the
symmetric real points have the closed-form orthonormal basis P of
_sigma_basis, (e_i + e_flip(i))/sqrt2 and (e_{d+i} - e_{d+flip(i)})/sqrt2
for the pairs of a key with its flip and e_i for a flip-fixed key; the
slice basis is P times an orthonormal basis of the column space of
P^t times the realized columns.  An unlisted slice has the identity
(k > l) or P (k = l) as its basis, with no factorization.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries
from .fischer import apply_pbar, mons, op_matrix, pbar_matrix, type_basis
from .hypersurfaces import hermitian_quadric, p_R_poly
from .linalg import nullspace


# ---------------------------------------------------------------------------
# differential operators


def eps_signs(n, r):
    """Signs of the primed bilinear form: +1 (first r), -1 (rest)."""
    return [1.0] * r + [-1.0] * (n - 1 - r)


def bilinear_laplacian(F: MixedSeries, r) -> MixedSeries:
    """<grad', gradbar'> F = sum_{j<n} eps_j d^2 F / dz^j dzbar^j, the
    Fischer adjoint Qbar(grad, gradbar) of Q = <z',zbar'>_{r,s}."""
    return apply_pbar(hermitian_quadric(F.n, F.trunc, r=r, s=F.n - 1 - r), F)


def S_R_apply(u: MixedSeries, r, R) -> MixedSeries:
    """S_R u = -<grad', gradbar'>(p_R u); maps type (k-1,l+1) to (k,l)."""
    pr = p_R_poly(u.n, u.trunc, R)
    return bilinear_laplacian(pr * u, r) * (-1.0)


# ---------------------------------------------------------------------------
# slice linear algebra helpers


def _colspace(cols, tol=1e-10):
    """Orthonormal column space basis."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0))
    u, s, _ = np.linalg.svd(cols, full_matrices=False)
    rank = int(np.sum(s > tol * (s[0] if len(s) else 1.0)))
    return u[:, :rank]


def _realize(B):
    """Complex basis (d x p) -> real basis (2d x 2p): columns v, iv."""
    d, p = B.shape
    out = np.zeros((2 * d, 2 * p))
    out[:d, :p] = B.real
    out[d:, :p] = B.imag
    out[:d, p:] = -B.imag
    out[d:, p:] = B.real
    return out


def _sigma_basis(n, k):
    """Orthonormal real basis (2d x d, stacked coordinates) of the
    conjugation-symmetric real points of a type-(k,k) slice: the
    fixed space of sigma(c)_(a,b,m) = conj(c_(b,a,m)).  With keys in
    type_basis order, (a, b) sits at index i = ia*K + ib and its flip at
    ib*K + ia.  The columns are (e_i + e_flip)/sqrt2 for a > b, e_i for
    a = b, and (e_{d+i} - e_{d+flip})/sqrt2 for a > b."""
    K = len(mons(n, k))
    d = K * K
    ia, ib = np.triu_indices(K, 1)  # a > b: mons is in descending lex order
    i, flip, h = ia * K + ib, ib * K + ia, len(ia)
    pairs = np.arange(h)
    P = np.zeros((2 * d, d))
    P[i, pairs] = P[flip, pairs] = np.sqrt(0.5)
    P[np.arange(K) * (K + 1), h + np.arange(K)] = 1.0
    P[d + i, h + K + pairs] = np.sqrt(0.5)
    P[d + flip, h + K + pairs] = -np.sqrt(0.5)
    return P


# ---------------------------------------------------------------------------
# the clause table


class Kernel(NamedTuple):
    """ker pbar(grad, gradbar) on a slice (p homogeneous)."""

    p: MixedSeries


class Span(NamedTuple):
    """The products q H, H of the type of the slice minus that of q (q
    homogeneous): over all its monomials (H None), those free of z^n
    (H = FREE_OF_ZN), or a basis of the Kernel H on its slice."""

    q: MixedSeries
    H: object = None


FREE_OF_ZN = "free of z^n"

#: The remainder space, one entry per clause of the module docstring:
#: (k, l) -> the parts of the slice, from Q = <z',zbar'>_{r,s}, p_R, z^n
#: and zbar^n.  "k1" is the clause of every (k, 1) not listed.
_TABLE = {
    (1, 1): lambda Q, pR, zn, znb: [Kernel(Q)],
    "k1": lambda Q, pR, zn, znb: [Span(znb, FREE_OF_ZN)],
    (3, 1): lambda Q, pR, zn, znb: [Kernel(Q * pR)],
    (2, 2): lambda Q, pR, zn, znb: [Kernel(Q), Span(Q * zn * znb)],
    (3, 2): lambda Q, pR, zn, znb: [Span(Q * Q * zn), Span(Q, Kernel(Q)), Kernel(Q)],
    (4, 2): lambda Q, pR, zn, znb: [Span(Q * znb, FREE_OF_ZN), Kernel(Q)],
    (3, 3): lambda Q, pR, zn, znb: [Kernel(Q * Q), Span(Q * Q * zn), Span(Q * Q * znb)],
}


def _clause(k, l):
    """The table entry of the type (k, l), k >= l >= 1; None if unlisted."""
    return _TABLE.get((k, l), _TABLE["k1"] if l == 1 else None)


def _part_columns(part, n, k, l, m, trunc):
    """Complex columns spanning one part of a clause on the type-(k, l)
    slice with s-power m, in type_basis order."""
    p = part.p if isinstance(part, Kernel) else part.q
    a, b, _, _ = next(p.terms())
    ka, lb = k - sum(a), l - sum(b)
    keys, src = type_basis(n, k, l, m), type_basis(n, ka, lb, m)
    if isinstance(part, Kernel):
        return nullspace(pbar_matrix(p, keys, src), 1e-10)
    C = op_matrix(lambda e: p * e, src, keys, n, trunc)
    if part.H is None:
        return C
    if part.H is FREE_OF_ZN:
        return C[:, np.array([key[n - 1] == 0 for key in src], dtype=bool)]
    return C @ _part_columns(part.H, n, ka, lb, m, trunc)


def normal_slice_real_basis(n, r, R, k, l, m):
    """Orthonormal real basis (stacked coords, 2d rows) of the remainder
    subspace of the type-(k,l), s^m slice; requires k >= l >= 1.

    Unlisted types return the full slice; for k = l the basis spans the
    conjugation-symmetric real points only.  The module docstring says
    how the basis is orthonormalized.
    """
    if k < l:
        raise ValueError("use k >= l; the (l,k) part follows by conjugation")
    clause = _clause(k, l)
    if clause is None:
        if k == l:
            return _sigma_basis(n, k)
        return np.eye(2 * len(mons(n, k)) * len(mons(n, l)))
    trunc = k + l + 2 * m
    polys = (
        hermitian_quadric(n, trunc, r=r, s=n - 1 - r),
        p_R_poly(n, trunc, R),
        MixedSeries.variable(n, trunc, "z", n),
        MixedSeries.variable(n, trunc, "zb", n),
    )
    cols = np.column_stack([_part_columns(part, n, k, l, m, trunc) for part in clause(*polys)])
    if k != l:
        return _realize(_colspace(cols))
    P = _sigma_basis(n, k)
    return P @ _colspace(P.T @ _realize(cols))


def remainder_bases(n, r, R, nu):
    """The real bases of the remainder space at weighted degree nu:
    {(k, l, m): normal_slice_real_basis(n, r, R, k, l, m)} over the type
    slices with k >= l >= 1 and k + l + 2m = nu."""
    bases = {}
    for k in range(1, nu + 1):
        for l in range(1, k + 1):
            m2 = nu - k - l
            if m2 >= 0 and m2 % 2 == 0:
                bases[(k, l, m2 // 2)] = normal_slice_real_basis(n, r, R, k, l, m2 // 2)
    return bases


# ---------------------------------------------------------------------------
# membership and projection


def _type_slices(F: MixedSeries):
    """Split into {(k,l,m): coefficient dict} pieces."""
    n = F.n
    out = {}
    for key, v in F.coeffs.items():
        k, l, m = sum(key[:n]), sum(key[n : 2 * n]), key[2 * n]
        out.setdefault((k, l, m), {})[key] = v
    return out


def _slice_vector(coeffs, basis):
    v = np.zeros(len(basis), dtype=complex)
    index = {key: i for i, key in enumerate(basis)}
    for key, val in coeffs.items():
        v[index[key]] = val
    return v


def _stack(v):
    return np.concatenate([v.real, v.imag])


def _unstack(x):
    d = len(x) // 2
    return x[:d] + 1j * x[d:]


def _project_slices(F: MixedSeries, basis, tol):
    """The type slices (k, l, m) of the real series F with k >= l, in
    sorted order: yields ((k, l, m), coeffs, keys, x, p) with coeffs the
    slice's coefficients, keys its monomials (type_basis), x its stacked
    coefficient vector and p the orthogonal projection of x onto the
    remainder slice.  basis((k, l, m)) is the real basis of a listed
    slice; types with k or l = 0 project to 0, unlisted types to x."""
    if not F.is_real(tol):
        raise ValueError("input series must be real")
    n = F.n
    for (k, l, m), coeffs in sorted(_type_slices(F).items()):
        if k < l:
            continue  # implied by reality of F
        keys = type_basis(n, k, l, m)
        x = _stack(_slice_vector(coeffs, keys))
        if k == 0 or l == 0:
            p = np.zeros_like(x)
        elif _clause(k, l) is None:
            p = x
        else:
            B = basis((k, l, m))
            p = B @ (B.T @ x)
        yield (k, l, m), coeffs, keys, x, p


def _fresh_bases(n, r, R):
    return lambda klm: normal_slice_real_basis(n, r, R, *klm)


def normal_space_report(F: MixedSeries, r, R, tol=DEFAULT_TOL):
    """Per-type membership certificates for the remainder space.

    Returns {(k,l,m): {"listed", "residual", "ok"}} for k >= l; the
    conjugate (l,k) parts are implied by reality of F.
    """
    report = {}
    for (k, l, m), coeffs, _, x, p in _project_slices(F, _fresh_bases(F.n, r, R), tol):
        scale = max(abs(v) for v in coeffs.values())
        if k == 0 or l == 0:
            resid, ok = scale, scale <= tol
        else:
            resid = float(np.linalg.norm(x - p))
            ok = resid <= tol * (1.0 + scale)
        report[(k, l, m)] = {
            "listed": k == 0 or l == 0 or _clause(k, l) is not None,
            "residual": resid,
            "ok": ok,
        }
    return report


def is_in_normal_space(F: MixedSeries, r, R, tol=DEFAULT_TOL):
    report = normal_space_report(F, r, R, tol)
    return all(entry["ok"] for entry in report.values())


def project_onto(F: MixedSeries, basis, tol=DEFAULT_TOL):
    """(N, F - N): the orthogonal projection N (coefficient metric) of the
    real series F onto the remainder space whose listed slices have the
    real bases basis((k, l, m)) (see _project_slices)."""
    n = F.n
    N_coeffs = {}
    for (k, l, m), _, keys, _, p in _project_slices(F, basis, tol):
        for key, val in zip(keys, _unstack(p)):
            if abs(val) > STORE_TOL:
                N_coeffs[key] = complex(val)
                if k != l:
                    ck = key[n : 2 * n] + key[:n] + (key[2 * n],)
                    N_coeffs[ck] = complex(np.conj(val))
    N = MixedSeries(n, F.trunc, N_coeffs)
    return N, F - N


def project_normal(F: MixedSeries, r, R, tol=DEFAULT_TOL):
    """Orthogonal projection (coefficient metric) onto the remainder
    space: returns (N, complement) with F = N + complement, N in the
    remainder space and complement orthogonal to it.

    F must be real; all type slices are processed.
    """
    return project_onto(F, _fresh_bases(F.n, r, R), tol)


def normal_space_dim(n, r, R, nu):
    """Total real dimension of the remainder space at weighted degree nu."""
    return sum(B.shape[1] for B in remainder_bases(n, r, R, nu).values())
