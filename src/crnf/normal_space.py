"""Remainder space for the complete formal normal form.

A hypersurface at a generic Levi degeneracy can be written

    im w = <z',zbar'>_{r,s} + 2 Re(zbar^n p_R(z)) + F(z, zbar, re w)

with F real and of weighted order >= 4.  The normalization procedure
removes everything from F except a remainder N lying in a prescribed
graded subspace, defined type by type ((k,l) = bidegree in (z, zbar),
s-powers handled slice by slice):

  * no (k,0) or (0,l) components at all;
  * N_11 in ker D,            D = <grad', gradbar'> = sum_j eps_j d_j dbar_j;
  * N_k1 = zbar^n H_k0 (k = 2 or k >= 4) with H_k0 independent of z^n;
  * N_31 in ker qbar(grad,gradbar) with q = <z',zbar'> p_R  (the Fischer
    complement of the line spanned by <z',zbar'> p_R);
  * N_22 = <z',zbar'> z^n zbar^n H_00 + H_22,  H_22 in ker D;
  * N_32 = <z',zbar'>^2 z^n H_00 + <z',zbar'> H_21 + H_32,
    H_21 in ker D (type (2,1)), H_32 in ker D;
  * N_42 = <z',zbar'> zbar^n H_30 + H_42, H_30 independent of z^n,
    H_42 in ker D;
  * N_33 = <z',zbar'>^2 (z^n H_01 + conj) + H_33,  H_33 in ker D^2;
  * every other type is unconstrained.

These clauses were validated computationally: together with the
second-order-jet gauge conditions on the transformation they make the
degree-by-degree normalization system square and invertible (see
full_nf).

All constructions are finite-dimensional linear algebra on coefficient
slices.  Real bases are kept in "stacked" coordinates (Re parts then Im
parts of the type-(k,l) coefficient vector, k >= l); for k > l the
type-(l,k) coefficients of a real series are implied by conjugation,
and for k = l bases are restricted to the conjugation-symmetric real
slice.
"""

from __future__ import annotations

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries
from .fischer import mons, op_matrix, type_basis
from .hypersurfaces import p_R_poly


# ---------------------------------------------------------------------------
# differential operators


def eps_signs(n, r):
    """Signs of the primed bilinear form: +1 (first r), -1 (rest)."""
    return [1.0] * r + [-1.0] * (n - 1 - r)


def bilinear_laplacian(F: MixedSeries, r) -> MixedSeries:
    """<grad', gradbar'> F = sum_{j<n} eps_j d^2 F / dz^j dzbar^j."""
    n = F.n
    out = MixedSeries.zero(n, F.trunc)
    for j, e in enumerate(eps_signs(n, r)):
        out = out + F.diff("z", j + 1).diff("zb", j + 1) * e
    return MixedSeries(n, F.trunc, out.coeffs)


def S_R_apply(u: MixedSeries, r, R) -> MixedSeries:
    """S_R u = -<grad', gradbar'>(p_R u); maps type (k-1,l+1) to (k,l)."""
    pr = p_R_poly(u.n, u.trunc, R)
    return bilinear_laplacian(pr * u, r) * (-1.0)


# ---------------------------------------------------------------------------
# slice linear algebra helpers


def _complex_nullspace(A, tol=1e-10):
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    rank = int(np.sum(s > tol * (s[0] if len(s) else 1.0)))
    return vh[rank:].conj().T


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


def _sigma_matrix(basis, n):
    """Conjugate-flip involution on a self-conjugate (k,k) slice, in
    stacked real coordinates: sigma(c)_(a,b,m) = conj(c_(b,a,m))."""
    d = len(basis)
    index = {key: i for i, key in enumerate(basis)}
    S = np.zeros((2 * d, 2 * d))
    for i, key in enumerate(basis):
        a, b, m = key[:n], key[n : 2 * n], key[2 * n]
        j = index[b + a + (m,)]
        S[j, i] = 1.0
        S[d + j, d + i] = -1.0
    return S


# ---------------------------------------------------------------------------
# clause builders.  Each builds the (k,l) slice with s-power m at its own
# weighted degree trunc = k + l + 2m.


def _ctx_polys(n, r, R, trunc):
    z = [MixedSeries.variable(n, trunc, "z", i + 1) for i in range(n)]
    zb = [MixedSeries.variable(n, trunc, "zb", i + 1) for i in range(n)]
    Q = MixedSeries.zero(n, trunc)
    for j, e in enumerate(eps_signs(n, r)):
        Q = Q + z[j] * zb[j] * e
    return Q, p_R_poly(n, trunc, R), z[n - 1], zb[n - 1]


def _lap_null(n, r, trunc, k, l, m, power=1):
    basis = type_basis(n, k, l, m)
    if k < power or l < power:
        return np.eye(len(basis), dtype=complex)
    op = lambda e: bilinear_laplacian(e, r)
    if power == 2:
        inner = op
        op = lambda e: bilinear_laplacian(inner(e), r)
    A = op_matrix(op, basis, type_basis(n, k - power, l - power, m), n, trunc)
    return _complex_nullspace(A)


def _clause_11(n, r, R, trunc, m):
    return _lap_null(n, r, trunc, 1, 1, m)


def _clause_31(n, r, R, trunc, m):
    # Fischer complement of the line C * (<z',zbar'> p_R)
    Q, pr, _, _ = _ctx_polys(n, r, R, trunc)
    q = Q * pr
    basis = type_basis(n, 3, 1, m)
    row = np.zeros((1, len(basis)), dtype=complex)
    fact = np.array([1, 1, 2, 6, 24, 120, 720], dtype=float)
    for i, key in enumerate(basis):
        a, b = key[:n], key[n : 2 * n]
        c = q.coeff(a, b, 0)
        # qbar(grad,gradbar) z^a zbar^b = conj(q_{a,b}) a! b!
        row[0, i] = np.conj(c) * np.prod(fact[list(a)]) * np.prod(fact[list(b)])
    return _complex_nullspace(row)


def _clause_22(n, r, R, trunc, m):
    Q, _, zn, znb = _ctx_polys(n, r, R, trunc)
    basis = type_basis(n, 2, 2, m)
    q = Q * zn * znb
    parts = [
        _lap_null(n, r, trunc, 2, 2, m),
        op_matrix(lambda e: q * e, type_basis(n, 0, 0, m), basis, n, trunc),
    ]
    return _colspace(np.column_stack(parts))


def _clause_32(n, r, R, trunc, m):
    Q, _, zn, _ = _ctx_polys(n, r, R, trunc)
    basis = type_basis(n, 3, 2, m)
    q = Q * Q * zn
    parts = [
        op_matrix(lambda e: q * e, type_basis(n, 0, 0, m), basis, n, trunc),
        op_matrix(lambda e: Q * e, type_basis(n, 2, 1, m), basis, n, trunc)
        @ _lap_null(n, r, trunc, 2, 1, m),
        _lap_null(n, r, trunc, 3, 2, m),
    ]
    return _colspace(np.column_stack(parts))


def _clause_42(n, r, R, trunc, m):
    Q, _, _, znb = _ctx_polys(n, r, R, trunc)
    basis = type_basis(n, 4, 2, m)
    h30 = [a + (0,) * n + (m,) for a in mons(n, 3) if a[n - 1] == 0]
    q = Q * znb
    parts = [
        op_matrix(lambda e: q * e, h30, basis, n, trunc),
        _lap_null(n, r, trunc, 4, 2, m),
    ]
    return _colspace(np.column_stack(parts))


def _clause_k1(k):
    def build(n, r, R, trunc, m):
        basis = type_basis(n, k, 1, m)
        index = {key: i for i, key in enumerate(basis)}
        en = tuple([0] * (n - 1) + [1])
        cols = []
        for a in mons(n, k):
            if a[n - 1] == 0:
                v = np.zeros(len(basis), dtype=complex)
                v[index[a + en + (m,)]] = 1.0
                cols.append(v)
        return (
            np.column_stack(cols)
            if cols
            else np.zeros((len(basis), 0), dtype=complex)
        )

    return build


def _clause_33_real(n, r, R, trunc, m):
    """Real basis (stacked coords) of the (3,3) remainder slice:
    ker D^2 plus the real span of Q^2 (z^n H_01 + conj)."""
    Q, _, zn, _ = _ctx_polys(n, r, R, trunc)
    basis = type_basis(n, 3, 3, m)
    d = len(basis)
    cols = [_realize(_lap_null(n, r, trunc, 3, 3, m, power=2))]
    index = {key: i for i, key in enumerate(basis)}
    for j in range(n):
        e = [0] * n
        e[j] = 1
        h01 = MixedSeries(n, trunc, {(0,) * n + tuple(e) + (m,): 1.0}, _normalized=True)
        for coef in (1.0, 1.0j):
            elt = Q * Q * zn * h01 * coef
            elt = elt + elt.conj()
            v = np.zeros(2 * d)
            for kk, vv in elt.coeffs.items():
                if kk in index:
                    v[index[kk]] = vv.real
                    v[d + index[kk]] = vv.imag
            cols.append(v.reshape(-1, 1))
    return _colspace(np.column_stack(cols))


#: clause registry: (k,l) -> builder(n, r, R, trunc, m).
#: complex-valued builders return a complex basis of the (k,l) slice;
#: builders whose name ends in ``_real`` return stacked real bases.
_CLAUSES = {
    (1, 1): _clause_11,
    (3, 1): _clause_31,
    (2, 2): _clause_22,
    (3, 2): _clause_32,
    (4, 2): _clause_42,
    (3, 3): _clause_33_real,
}
_REAL_CLAUSES = {(3, 3)}


def _clause_for(k, l):
    if (k, l) in _CLAUSES:
        return _CLAUSES[(k, l)], (k, l) in _REAL_CLAUSES
    if l == 1:
        return _clause_k1(k), False
    return None, False


def normal_slice_real_basis(n, r, R, k, l, m):
    """Orthonormal real basis (stacked coords, 2d rows) of the remainder
    subspace of the type-(k,l), s^m slice; requires k >= l >= 1.

    Unlisted types return the full slice; for k = l the basis spans the
    conjugation-symmetric real points only.
    """
    if k < l:
        raise ValueError("use k >= l; the (l,k) part follows by conjugation")
    basis = type_basis(n, k, l, m)
    d = len(basis)
    trunc = k + l + 2 * m
    builder, is_real = _clause_for(k, l)
    if builder is None:
        out = _realize(np.eye(d, dtype=complex))
    elif is_real:
        out = builder(n, r, R, trunc, m)
    else:
        out = _realize(builder(n, r, R, trunc, m))
    if k == l:
        P = 0.5 * (np.eye(2 * d) + _sigma_matrix(basis, n))
        return _colspace(P @ out)
    return _colspace(out)


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
        elif _clause_for(k, l)[0] is None:
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
            "listed": k == 0 or l == 0 or _clause_for(k, l)[0] is not None,
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


def remainder_blocks(n, bases):
    """Complex coefficient blocks of the remainder space with the slice
    bases ``bases`` (remainder_bases).

    Yields (keys, C) per type slice (k, l, m): column j of C holds the
    monomial coefficients, at keys, of the j-th real basis vector of the
    slice.  For k != l the keys and rows of the conjugate (l, k) slice
    follow those of the slice itself, so each column is a real series.
    Entries of modulus <= STORE_TOL are 0.
    """
    for (k, l, m), B in bases.items():
        keys = type_basis(n, k, l, m)
        d = len(keys)
        C = B[:d] + 1j * B[d:]
        C[np.abs(C) <= STORE_TOL] = 0.0
        if k != l:
            keys = keys + [key[n : 2 * n] + key[:n] + (m,) for key in keys]
            C = np.vstack([C, C.conj()])
        yield keys, C


def normal_space_dim(n, r, R, nu):
    """Total real dimension of the remainder space at weighted degree nu."""
    return sum(B.shape[1] for B in remainder_bases(n, r, R, nu).values())
