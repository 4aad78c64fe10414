"""Fischer decomposition of homogeneous polynomial types.

For a polynomial ``p`` of type (a,b) in (z, zbar), the adjoint operator
``pbar(grad, gradbar)`` replaces each monomial ``c * z^a zbar^b`` of p by
``conj(c) * d^a/dz^a d^b/dzbar^b``, applied in closed form on exponents
(falling factorials; apply_pbar, pbar_matrix).  The classical
decomposition writes any F of type (k,l) uniquely as ``F = p*G + H``
with ``pbar(grad,gradbar) H = 0``; the two-polynomial variant adds a
second factor with an image side condition.  The remainder clauses of
normal_space are kernels of such operators.

Everything here is computed on finite coefficient slices: an s-power is
inert for these operators, so mixed inputs are processed slice by slice.
"""

from __future__ import annotations

import functools

import numpy as np

from .series import DEFAULT_TOL, MixedSeries


@functools.cache
def mons(n, deg):
    """All exponent tuples of length n with given total degree, as a tuple
    in descending lex order.  Cached: the result is immutable."""
    if n == 1:
        return ((deg,),)
    return tuple((first,) + rest for first in range(deg, -1, -1) for rest in mons(n - 1, deg - first))


def type_basis(n, k, l, m):
    """Monomial keys of type (k,l) with s-power m, in deterministic order."""
    return [a + b + (m,) for a in mons(n, k) for b in mons(n, l)]


def vec_of(F: MixedSeries, basis):
    return np.array([F.coeffs.get(key, 0.0) for key in basis], dtype=complex)


def series_of(vec, basis, n, trunc):
    coeffs = {}
    for key, v in zip(basis, vec):
        if abs(v) > 0:
            coeffs[key] = complex(v)
    return MixedSeries(n, trunc, coeffs)


def _falling(x, k):
    """prod_i x_i! / (x_i - k_i)! for each row x of the exponent array x,
    k <= x; in floating point, exact up to 2**53."""
    out = np.ones(len(x))
    for t in range(int(k.max(initial=0))):
        out *= np.where(t < k, x - t, 1).prod(axis=1)
    return out


def _pbar_images(p: MixedSeries, keys):
    """pbar(grad, gradbar) on the monomials ``keys``, term by term of p in
    closed form: c z^a zbar^b takes z^alpha zbar^beta s^m to
    conj(c) alpha!/(alpha - a)! beta!/(beta - b)! z^(alpha - a)
    zbar^(beta - b) s^m.  Yields (i, E, w) per term: the monomials keys[i]
    it does not annihilate, their images (rows of E) and the factors w."""
    E = np.array(keys, dtype=np.int64).reshape(len(keys), 2 * p.n + 1)
    for a, b, m, c in p.terms():
        if m:
            raise ValueError("operator polynomial cannot depend on s")
        ab = np.array(a + b + (0,))
        i = np.flatnonzero((E >= ab).all(axis=1))
        yield i, E[i] - ab, np.conj(c) * _falling(E[i], ab)


def apply_pbar(p: MixedSeries, F: MixedSeries) -> MixedSeries:
    """Apply pbar(grad, gradbar) to F; s-powers of F are inert."""
    keys = list(F.coeffs)
    vals = np.array([F.coeffs[k] for k in keys], dtype=complex)
    out = {}
    for i, E, w in _pbar_images(p, keys):
        for key, v in zip(map(tuple, E.tolist()), w * vals[i]):
            out[key] = out.get(key, 0.0) + v
    return MixedSeries(F.n, F.trunc, out)


def pbar_matrix(p: MixedSeries, src, dst):
    """Matrix of pbar(grad, gradbar) from the monomial slice src to the
    slice dst that holds its image."""
    index = {key: i for i, key in enumerate(dst)}
    M = np.zeros((len(dst), len(src)), dtype=complex)
    for j, E, w in _pbar_images(p, src):
        M[[index[key] for key in map(tuple, E.tolist())], j] += w
    return M


def _single_type(F: MixedSeries):
    types = {(k, l) for (k, l) in F.type_decompose()}
    if len(types) > 1:
        raise ValueError("input must be homogeneous of a single type")
    return types.pop() if types else None


def _slices(F: MixedSeries):
    n = F.n
    by_m = {}
    for key, v in F.coeffs.items():
        by_m.setdefault(key[2 * n], {})[key] = v
    return {m: MixedSeries(n, F.trunc, t, _normalized=True) for m, t in by_m.items()}


def op_matrix(op, src_basis, dst_basis, n, trunc):
    """Matrix of a series operator (a callable on MixedSeries) from the
    src monomial slice to the dst slice."""
    cols = np.zeros((len(dst_basis), len(src_basis)), dtype=complex)
    index = {key: i for i, key in enumerate(dst_basis)}
    for j, key in enumerate(src_basis):
        img = op(MixedSeries(n, trunc, {key: 1.0}, _normalized=True))
        for k, v in img.coeffs.items():
            if k in index:
                cols[index[k], j] = v
    return cols


def fischer_decompose(F: MixedSeries, p: MixedSeries):
    """F = p*G + H with pbar(grad,gradbar) H = 0; unique.

    F must be homogeneous of a single type (k,l); s-powers are allowed
    and processed independently.
    """
    n = F.n
    tF = _single_type(F)
    if tF is None:
        return MixedSeries.zero(n, F.trunc), MixedSeries.zero(n, F.trunc)
    tp = _single_type(p)
    k, l = tF
    a, b = tp
    if k < a or l < b:
        raise ValueError("type of p does not divide type of F")
    G_total = MixedSeries.zero(n, F.trunc)
    H_total = MixedSeries.zero(n, F.trunc)
    for m, Fm in _slices(F).items():
        bas_F = type_basis(n, k, l, m)
        bas_G = type_basis(n, k - a, l - b, m)
        Mp = op_matrix(lambda e: p * e, bas_G, bas_F, n, F.trunc)
        Md = pbar_matrix(p, bas_F, bas_G)
        A = Md @ Mp  # square, positive definite in the Fischer metric
        rhs = Md @ vec_of(Fm, bas_F)
        g = np.linalg.solve(A, rhs)
        Gm = series_of(g, bas_G, n, F.trunc)
        G_total = G_total + Gm
        H_total = H_total + (Fm - p * Gm)
    return G_total, H_total


def fischer_decompose2(F: MixedSeries, p: MixedSeries, q: MixedSeries, tol=DEFAULT_TOL):
    """F = p*G1 + q*G2 + H with qbar(grad,gradbar)H = 0 and
    pbar(grad,gradbar)H in the image of S, S u = -pbar(grad,gradbar)(q*u).

    Returns (G1, G2, H).  The triple (G1, G2, H) is unique; the witness u
    is not and is discarded.
    """
    n = F.n
    tF = _single_type(F)
    if tF is None:
        z = MixedSeries.zero(n, F.trunc)
        return z, z, z
    k, l = tF
    pa, pb = _single_type(p)
    qa, qb = _single_type(q)
    G1_t = MixedSeries.zero(n, F.trunc)
    G2_t = MixedSeries.zero(n, F.trunc)
    H_t = MixedSeries.zero(n, F.trunc)
    for m, Fm in _slices(F).items():
        bas_F = type_basis(n, k, l, m)
        bas_1 = type_basis(n, k - pa, l - pb, m)
        bas_2 = type_basis(n, k - qa, l - qb, m)
        dF, d1, d2 = len(bas_F), len(bas_1), len(bas_2)
        Mp = op_matrix(lambda e: p * e, bas_1, bas_F, n, F.trunc)
        Mq = op_matrix(lambda e: q * e, bas_2, bas_F, n, F.trunc)
        Dq = pbar_matrix(q, bas_F, bas_2)
        Dp = pbar_matrix(p, bas_F, bas_1)
        # S: u (same slice as G1 source after q-multiplication) -> bas_1
        bas_u = type_basis(n, k - pa - qa, l - pb - qb, m) if (k >= pa + qa and l >= pb + qb) else []
        if bas_u:
            S = -Dp @ op_matrix(lambda e: q * e, bas_u, bas_F, n, F.trunc)
        else:
            S = np.zeros((d1, 0), dtype=complex)
        du = S.shape[1]
        # unknowns: [G1 (d1), G2 (d2), H (dF), u (du)]
        nunk = d1 + d2 + dF + du
        rows = []
        rhs = []
        # F = Mp G1 + Mq G2 + H
        A1 = np.zeros((dF, nunk), dtype=complex)
        A1[:, :d1] = Mp
        A1[:, d1 : d1 + d2] = Mq
        A1[:, d1 + d2 : d1 + d2 + dF] = np.eye(dF)
        rows.append(A1)
        rhs.append(vec_of(Fm, bas_F))
        # qbar H = 0
        A2 = np.zeros((d2, nunk), dtype=complex)
        A2[:, d1 + d2 : d1 + d2 + dF] = Dq
        rows.append(A2)
        rhs.append(np.zeros(d2, dtype=complex))
        # pbar H - S u = 0
        A3 = np.zeros((d1, nunk), dtype=complex)
        A3[:, d1 + d2 : d1 + d2 + dF] = Dp
        if du:
            A3[:, d1 + d2 + dF :] = -S
        rows.append(A3)
        rhs.append(np.zeros(d1, dtype=complex))
        A = np.vstack(rows)
        r = np.concatenate(rhs)
        sol, *_ = np.linalg.lstsq(A, r, rcond=None)
        res = np.linalg.norm(A @ sol - r)
        if res > tol * (1 + np.linalg.norm(r)):
            raise ValueError(f"two-factor decomposition failed, residual {res:.3e}")
        G1_t = G1_t + series_of(sol[:d1], bas_1, n, F.trunc)
        G2_t = G2_t + series_of(sol[d1 : d1 + d2], bas_2, n, F.trunc)
        H_t = H_t + series_of(sol[d1 + d2 : d1 + d2 + dF], bas_F, n, F.trunc)
    return G1_t, G2_t, H_t
