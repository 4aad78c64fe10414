"""Complete formal normal form at a generic Levi degeneracy.

Input is a hypersurface already brought to the third-order model form

    im w = <z',zbar'>_{r,s} + 2 Re(zbar^n p_R(z)) + F(z, zbar, re w)

(run partial_nf first).  The residual transformation freedom factors
uniquely as T o P where P is a finite-dimensional polynomial
"normalization" map (parameters c, A, B, a, b, d below) and T = id +
(f', f^n, g) has vanishing second/third-order jet constants (the "G0"
gauge).  For each weighted degree nu the correction solves the linear
equation

    L(f', f^n, g) = Re(i g + 2<f',zbar'> + 2(pbar_R + 2 z^n zbar^n) f^n)
                    |_{w -> s + i<z',zbar'>}  =  F_nu  mod  N_nu

with N_nu the remainder space of normal_space.  The solver assembles L
degreewise as a real linear system over monomial coefficients: one
column per map unknown under the gauge constraints, then the
remainder-space coordinates, slice by slice from the real bases of
normal_space.remainder_bases.  The assembly runs on exponent arrays.
The column of a map unknown z^a s^j is the real part of z^a W (or
i z^a W), with W one of a few fixed series per slot, component and
s-power (_column_factors).  A monomial key is packed into one integer
(series._strides); packing is linear, so multiplying by z^a adds a
constant to the packed keys of W, which are formed once per W, and one
binary search in the sorted packed keys of the rows places all of its
terms.  A remainder slice places its monomials once in the same way.
The system is assembled as a sparse matrix straight from its nonzeros (no
dense matrix is formed) and factored once by sparse LU (SuperLU, through
scipy.sparse.linalg.splu).  It is square and invertible: its extreme
singular values come from Lanczos iterations (ARPACK svds) on the matrix
and, through the factor, on its inverse; the margin sigma_min/sigma_max
gates the factor and is reported per degree, and the tests check both
values against a dense SVD.  N is read back from the solved system: its
monomial coefficients are the remainder columns times their solved
coordinates.  Lower-degree coupling is handled by
re-applying the actual polynomial map after each degree, which is
self-correcting.
"""

from __future__ import annotations

import functools
import math
import types
from dataclasses import dataclass, field

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries, NormalFormError, _strides, _to_arrays
from .fischer import mons
from .hypersurfaces import Hypersurface, hermitian_quadric, model_phi, p_R_poly
from .linalg import nullspace
from .maps import FormalMap, apply_map
from .partial_nf import levi_matrix_of, partial_nf
from .normal_space import (
    S_R_apply,
    eps_signs,
    is_in_normal_space,
    project_normal,
    project_onto,
    remainder_bases,
)

__all__ = [
    "NormalizationP",
    "NormalFormResult",
    "NormalFormError",
    "S_R_apply",
    "is_in_normal_space",
    "project_normal",
    "validate_P",
    "normalization_algebra",
    "check_G0",
    "solve_L",
    "normal_form",
    "factor_map",
    "detect_model",
    "to_model_form",
]


# ---------------------------------------------------------------------------
# normalization parameters


def _real_cbrt(c):
    return math.copysign(abs(c) ** (1.0 / 3.0), c)


@dataclass
class NormalizationP:
    """Parameters of the residual polynomial map

        z' -> A z' + w B + (2i/c) <Az', B>_{r,s} A z' + q'(z, w)
        z^n -> c^(1/3) z^n + sum_{|I|=2} d_I z^I
        w  -> c w + 2i <Az', B>_{r,s} w

    with <Az', B>_{r,s} = sum_b eps_b conj(B_b) (Az')^b, eps the signs of
    the Levi form (eps_signs), and
         q'^beta = sum_{|J|=3} a3[beta,J] z^J
                   + (sum_{alpha<beta} bl[beta,alpha] (Az')^alpha
                      + cdiag[beta] (Az')^beta) w.

    c is nonzero real, cdiag is real; A must satisfy A* I_{r,s} A =
    c I_{r,s} and A / |c|^{1/3} must preserve R (see validate_P).
    """

    n: int
    c: float
    A: np.ndarray
    B: np.ndarray
    a3: np.ndarray  # (n-1, #{|J|=3}) over mons(n, 3)
    bl: np.ndarray  # (n-1, n-1), strict lower triangle used
    cdiag: np.ndarray  # (n-1,) real
    d2: np.ndarray  # (#{|I|=2},) over mons(n, 2)

    @classmethod
    def identity(cls, n):
        return cls(
            n=n,
            c=1.0,
            A=np.eye(n - 1, dtype=complex),
            B=np.zeros(n - 1, dtype=complex),
            a3=np.zeros((n - 1, len(mons(n, 3))), dtype=complex),
            bl=np.zeros((n - 1, n - 1), dtype=complex),
            cdiag=np.zeros(n - 1),
            d2=np.zeros(len(mons(n, 2)), dtype=complex),
        )

    def is_identity(self, tol=DEFAULT_TOL):
        ident = NormalizationP.identity(self.n)
        return (
            abs(self.c - 1.0) <= tol
            and np.linalg.norm(self.A - ident.A) <= tol
            and np.linalg.norm(self.B) <= tol
            and np.linalg.norm(self.a3) <= tol
            and np.linalg.norm(self.bl) <= tol
            and np.linalg.norm(self.cdiag) <= tol
            and np.linalg.norm(self.d2) <= tol
        )

    def to_map(self, trunc, r) -> FormalMap:
        """The map of these parameters at Levi signature r (r + s = n - 1)."""
        n = self.n
        eps = eps_signs(n, r)
        zero = (0,) * n
        zs = [MixedSeries.variable(n, trunc, "z", j + 1) for j in range(n)]
        w = MixedSeries.variable(n, trunc, "s")
        Az = []
        for b in range(n - 1):
            comp = MixedSeries.zero(n, trunc)
            for j in range(n - 1):
                if abs(self.A[b, j]) > STORE_TOL:
                    comp = comp + self.A[b, j] * zs[j]
            Az.append(comp)
        sigma = MixedSeries.zero(n, trunc)
        for b in range(n - 1):
            if abs(self.B[b]) > STORE_TOL:
                sigma = sigma + (eps[b] * np.conj(self.B[b])) * Az[b]
        fs = []
        for b in range(n - 1):
            f = Az[b] + self.B[b] * w + (2j / self.c) * (sigma * Az[b])
            for idx, J in enumerate(mons(n, 3)):
                v = self.a3[b, idx]
                if abs(v) > STORE_TOL:
                    f = f + MixedSeries.monomial(n, trunc, J, zero, 0, v)
            lin = MixedSeries.zero(n, trunc)
            for a in range(b):
                if abs(self.bl[b, a]) > STORE_TOL:
                    lin = lin + self.bl[b, a] * Az[a]
            if abs(self.cdiag[b]) > STORE_TOL:
                lin = lin + float(self.cdiag[b]) * Az[b]
            f = f + lin * w
            fs.append(f)
        fn = _real_cbrt(self.c) * zs[n - 1]
        for idx, I in enumerate(mons(n, 2)):
            v = self.d2[idx]
            if abs(v) > STORE_TOL:
                fn = fn + MixedSeries.monomial(n, trunc, I, zero, 0, v)
        fs.append(fn)
        g = float(self.c) * w + 2j * (sigma * w)
        return FormalMap(fs, g)

    def to_json_dict(self):
        from .linalg import matrix_to_json

        return {
            "n": self.n,
            "c": float(self.c),
            "A": matrix_to_json(self.A),
            "B": matrix_to_json(self.B.reshape(1, -1)),
            "a3": matrix_to_json(self.a3),
            "bl": matrix_to_json(self.bl),
            "cdiag": list(map(float, self.cdiag)),
            "d2": matrix_to_json(self.d2.reshape(1, -1)),
        }

    @classmethod
    def from_json_dict(cls, d):
        from .linalg import matrix_from_json

        P = cls(
            n=int(d["n"]),
            c=float(d["c"]),
            A=matrix_from_json(d["A"]),
            B=matrix_from_json(d["B"]).ravel(),
            a3=matrix_from_json(d["a3"]),
            bl=matrix_from_json(d["bl"]),
            cdiag=np.asarray(d["cdiag"], dtype=float),
            d2=matrix_from_json(d["d2"]).ravel(),
        )
        # to_map would skip a NaN entry as if it were below STORE_TOL
        params = (P.c, P.A, P.B, P.a3, P.bl, P.cdiag, P.d2)
        if not all(np.isfinite(x).all() for x in params):
            raise ValueError("normalization parameters must be finite")
        return P


def validate_P(P: NormalizationP, r, R, tol=DEFAULT_TOL):
    """Group conditions on the linear parameters: A* I_{r,s} A = c I_{r,s}
    and A^t R A = |c|^{2/3} R (i.e. A/|c|^{1/3} preserves R); c real
    nonzero, cdiag real (by construction)."""
    n = P.n
    if abs(P.c) <= tol:
        return False
    R = np.asarray(R, dtype=complex)
    Irs = np.diag(eps_signs(n, r))
    scale = max(1.0, np.linalg.norm(P.A) ** 2)
    if np.linalg.norm(P.A.conj().T @ Irs @ P.A - P.c * Irs) > tol * scale:
        return False
    if np.linalg.norm(P.A.T @ R @ P.A - abs(P.c) ** (2.0 / 3.0) * R) > tol * max(
        1.0, np.linalg.norm(R)
    ) * scale:
        return False
    return True


def normalization_algebra(r, R, tol=DEFAULT_TOL):
    """Real basis of the Lie algebra of the group conditions of validate_P:
    the pairs (X, tau), X complex (n-1) x (n-1) and tau real, with

        X* I_{r,s} + I_{r,s} X = tau I_{r,s},   X^t R + R X = (2 tau/3) R.

    Returns (Xs, taus), the basis elements stacked along the first axis.
    For every real combination (X, tau), c = e^tau and A = expm(X) satisfy
    the group conditions: A / e^(tau/2) is in U(r, s) and A / e^(tau/3)
    preserves R."""
    R = np.asarray(R, dtype=complex)
    m = R.shape[0]
    Irs = np.diag(eps_signs(m + 1, r))

    def conditions(v):
        X, tau = (v[: m * m] + 1j * v[m * m : -1]).reshape(m, m), v[-1]
        E = np.stack(
            [
                X.conj().T @ Irs + Irs @ X - tau * Irs,
                X.T @ R + R @ X - (2.0 * tau / 3.0) * R,
            ]
        )
        return np.concatenate([E.real.ravel(), E.imag.ravel()])

    unit = np.eye(2 * m * m + 1)
    K = nullspace(np.column_stack([conditions(e) for e in unit]), tol)
    return (K[: m * m] + 1j * K[m * m : -1]).T.reshape(-1, m, m), K[-1]


def check_G0(T: FormalMap, tol=DEFAULT_TOL):
    """T = id + (f', f^n, g) is in the gauge class G0: every coefficient of
    T - id is a map unknown of the graded system (_unknown_monomials) at
    its weighted degree.  Rejects any stored coefficient at a degree with
    no unknowns, a coefficient of modulus > tol that is not an unknown
    (the constants of NormalizationP), and a real part > tol where the
    unknown is imaginary only."""
    n = T.n
    ident = FormalMap.identity(n, T.trunc)
    for (slot, comp), f, f0 in zip(_slots(n), T.fs + [T.g], ident.fs + [ident.g]):
        for key, v in (f - f0).coeffs.items():
            unknowns = _gauge_table(n, _degree(slot, key))
            parts = unknowns.get((slot, comp, key))
            if not unknowns or (parts is None and abs(v) > tol):
                return False
            if parts == "y" and abs(v.real) > tol:
                return False
    return True


# ---------------------------------------------------------------------------
# the graded linear solver


#: a map term z^a s^j in slot "fp" (f'), "fn" (f^n) or "g" has weighted
#: degree |a| + 2j + _OFFSET[slot]
_OFFSET = {"fp": 1, "fn": 2, "g": 0}


def _slots(n):
    """(slot, comp) of the map components f^1, ..., f^n, g in order."""
    return [("fp", beta) for beta in range(n - 1)] + [("fn", 0), ("g", 0)]


def _degree(slot, key):
    """Weighted degree of the map term with series key ``key`` in ``slot``."""
    return sum(key[:-1]) + 2 * key[-1] + _OFFSET[slot]


def _unknown_monomials(n, nu):
    """The gauge class G0 at weighted degree nu: the map unknowns of the
    graded system, a list of (slot, comp, a, j, parts) with parts in
    {"xy", "y"}.  This is the one statement of G0 (check_G0 and the
    sampler of equivalence.random_allowed_map read it): T - id starts at
    degree 4, and the constants of NormalizationP are left out."""
    if nu < 4:
        return []
    by_degree = [mons(n, d) for d in range(nu + 1)]
    out = []
    for slot, comp in _slots(n):
        for j in range((nu - _OFFSET[slot]) // 2 + 1):
            d = nu - _OFFSET[slot] - 2 * j
            for a in by_degree[d]:
                parts = "xy"
                if slot == "fp" and (d, j) == (3, 0):
                    continue  # a^beta_J constants live in P
                if slot == "fp" and (d, j) == (1, 1):
                    alpha = a.index(1)
                    if alpha < comp:
                        continue  # b^beta_alpha constants live in P
                    if alpha == comp:
                        parts = "y"  # real part is the c^beta constant
                if slot == "fn" and (d, j) == (2, 0):
                    continue  # d_I constants live in P
                out.append((slot, comp, a, j, parts))
    return out


@functools.cache
def _gauge_table(n, nu):
    """{(slot, comp, series key): parts} over the unknowns of
    _unknown_monomials at weighted degree nu.  Cached: the result is a
    read-only mapping."""
    zero = (0,) * n
    return types.MappingProxyType(
        {(slot, comp, a + zero + (j,)): parts for slot, comp, a, j, parts in _unknown_monomials(n, nu)}
    )


def _factor(A, nu):
    """Sparse LU factor of the square CSC matrix A of the degree-nu system
    and the extreme singular values of A: returns (lu, sigma_min,
    sigma_max).

    sigma_max is the largest singular value of A and sigma_min the
    reciprocal of that of A^-1, applied through the factor; both come from
    ARPACK (svds) with one fixed start vector, so they do not depend on
    call order.  Raises NormalFormError if the factor is exactly singular,
    if ARPACK does not converge, or if sigma_min <= 1e-10 sigma_max."""
    # imported here: only runs that build a graded system pay for it
    import scipy.sparse.linalg as sla

    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        lu = sla.splu(A)
        Ainv = sla.LinearOperator(
            A.shape,
            matvec=lu.solve,
            rmatvec=lambda v: lu.solve(v, trans="T"),
            dtype=float,
        )
        sigma_max = sla.svds(A, k=1, v0=v0, return_singular_vectors=False)[0]
        inv_max = sla.svds(Ainv, k=1, v0=v0, return_singular_vectors=False)[0]
    except RuntimeError as e:  # "Factor is exactly singular", ArpackNoConvergence
        raise NormalFormError(f"graded system at degree {nu}: {e}") from e
    sigma_max, sigma_min = float(sigma_max), 1.0 / float(inv_max)
    # "not >" so that a NaN margin fails too
    if not sigma_min > 1e-10 * sigma_max:
        raise NormalFormError(
            f"graded system at degree {nu} is numerically singular "
            f"(sigma_min/sigma_max = {sigma_min / sigma_max:.3e})"
        )
    return lu, sigma_min, sigma_max


class _LSystem:
    """Assembled real linear system for one weighted degree.

    The rows are the real and imaginary parts of the monomial
    coefficients at degree nu, one key (a, b, m) per conjugate pair with
    a >= b in lex order (a = b: the real part only), ordered by m, then
    |a|, then a and b in mons order.  A key is found by its packed integer
    (series._strides): a binary search in the sorted packed keys of the
    rows gives its row.  Packing is linear, and a >= b compares the packed
    z part with the packed zbar part.

    mat is the square sparse (CSC) matrix, assembled from the COO triplets
    of its columns: first the map unknowns, then the remainder
    coordinates.  bases holds the real bases of the remainder slices
    (normal_space.remainder_bases) behind those coordinates, lu is the
    SuperLU factor, remainder the remainder columns, and sigma_min,
    sigma_max the extreme singular values (_factor)."""

    def __init__(self, n, r, R, nu):
        # imported here: only runs that build a graded system pay for it
        import scipy.sparse

        self.n, self.r, self.nu = n, r, nu
        self.R = np.asarray(R, dtype=complex)
        weights = np.ones(2 * n + 1, dtype=np.int64)
        weights[-1] = 2
        strides = _strides(weights, nu)
        if strides is None:
            raise NormalFormError(f"graded system at degree {nu} is too large to index")
        # packed key = z part + zbar part + m; the z part of a is M times
        # the zbar part of the same exponents
        self._sz, self._szb = strides[:n], strides[n : 2 * n]
        self._M = int(strides[0] // strides[n])

        exps, packed, selfconj = [], [], []
        for m in range(nu // 2 + 1):
            for k in range(nu - 2 * m + 1):
                A, B = _mons_array(n, k), _mons_array(n, nu - 2 * m - k)
                za, zb = A @ self._sz, B @ self._szb
                ia, ib = np.nonzero(za[:, None] >= self._M * zb[None, :])
                exps.append(np.column_stack([A[ia], B[ib], np.full(len(ia), m)]))
                packed.append(za[ia] + zb[ib] + m)
                selfconj.append(za[ia] == self._M * zb[ib])
        self._exps = np.concatenate(exps)
        selfconj = np.concatenate(selfconj)
        width = np.where(selfconj, 1, 2)
        self._pos = np.cumsum(width) - width
        self._selfconj = selfconj
        self.nrows = int(width.sum())
        packed = np.concatenate(packed)
        self._order = np.argsort(packed)
        self._sorted = packed[self._order]

        rows, cols, vals = [], [], []
        self.unknowns = []
        groups = {}
        for slot, comp, a, j, parts in _unknown_monomials(n, nu):
            groups.setdefault((slot, comp, j), []).append((a, len(self.unknowns), parts))
            self.unknowns.extend((slot, comp, a, j, part) for part in parts)
        W = _column_factors(n, r, self.R, nu)
        for (slot, comp, j), members in groups.items():
            i, c, v = self._map_triplets(W(slot, comp, j), members)
            rows.append(i)
            cols.append(c)
            vals.append(v)
        k0 = len(self.unknowns)
        # remainder-space coordinates, slice by slice
        self.bases = remainder_bases(n, r, self.R, nu)
        ncols = k0
        for (k, l, m), B in self.bases.items():
            i, c, v = self._slice_triplets(k, l, m, B)
            rows.append(i)
            cols.append(c + ncols)
            vals.append(v)
            ncols += B.shape[1]
        if self.nrows != ncols:
            raise NormalFormError(
                f"graded system at degree {nu} is not square: "
                f"{self.nrows} equations, {ncols} unknowns"
            )
        self.mat = scipy.sparse.csc_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.nrows, ncols),
        )
        self.mat.eliminate_zeros()  # from a conjugate pair that cancels
        self.remainder = self.mat[:, k0:]
        self.lu, self.sigma_min, self.sigma_max = _factor(self.mat, nu)

    def _canonical(self, za, zb, m):
        """For keys with packed z parts za, zbar parts zb and s-powers m:
        (row, selfconj, flipped) of the row key of each, flipped where
        a < b (the row is that of the conjugate key)."""
        flipped = za < self._M * zb
        packed = np.where(flipped, self._M * zb + za // self._M, za + zb) + m
        at = self._order[np.searchsorted(self._sorted, packed)]
        return self._pos[at], self._selfconj[at], flipped

    def _map_triplets(self, W, members):
        """COO triplets of the map-unknown columns z^a W and i z^a W over
        members, a list of (a, first column, parts): the canonical rows
        of Re(c z^a W).  The key of a term of z^a W is that of W plus the
        packed a, so W is packed once."""
        n = self.n
        E, w = _to_arrays(W.coeffs, 2 * n + 1)
        shift = np.array([a for a, _, _ in members], dtype=np.int64).reshape(-1, n) @ self._sz
        za = E[:, :n] @ self._sz + shift[:, None]
        p, selfconj, flipped = self._canonical(za, E[:, n : 2 * n] @ self._szb, E[:, 2 * n])
        rows, cols, vals = [], [], []
        for part, v in (("x", w), ("y", 1j * w)):
            col = np.array([c + parts.index(part) if part in parts else -1 for _, c, parts in members])
            on = col >= 0
            # Re(v z^a W) at a row key: v/2 from the key, conj(v)/2 from
            # its conjugate; both when a = b
            u = np.where(selfconj, v.real, 0.5 * np.where(flipped, v.conj(), v))[on]
            both = ~selfconj[on]
            c = np.broadcast_to(col[on, None], u.shape)
            rows += [p[on].ravel(), p[on][both] + 1]
            cols += [c.ravel(), c[both]]
            vals += [u.real.ravel(), u.imag[both]]
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    def _slice_triplets(self, k, l, m, B):
        """COO triplets (row, column, value) of the real basis B (stacked
        coordinates, rows in type_basis order) of the remainder slice
        (k, l, m); entries of complex modulus <= STORE_TOL are left out.
        For k = l only keys with a >= b have rows of their own; for k != l
        a key with a < b writes its conjugate at the conjugate key."""
        A, Bm = _mons_array(self.n, k), _mons_array(self.n, l)
        za = np.repeat(A @ self._sz, len(Bm))
        zb = np.tile(Bm @ self._szb, len(A))
        p, selfconj, flipped = self._canonical(za, zb, m)
        d = len(za)
        row = np.concatenate([p, np.where(selfconj, -1, p + 1)])
        sign = np.concatenate([np.ones(d), np.where(flipped, -1.0, 1.0)])
        if k == l:
            row[np.concatenate([flipped, flipped])] = -1
        i, j = np.nonzero(B)
        key = i % d
        on = (row[i] >= 0) & (np.hypot(B[key, j], B[key + d, j]) > STORE_TOL)
        i, j = i[on], j[on]
        return row[i], j, B[i, j] * sign[i]

    def rhs_of(self, F: MixedSeries):
        """The canonical rows of the real series F, homogeneous of degree
        nu."""
        n = self.n
        v = np.zeros(self.nrows)
        E, c = _to_arrays(F.coeffs, 2 * n + 1)
        za, zb = E[:, :n] @ self._sz, E[:, n : 2 * n] @ self._szb
        keep = za >= self._M * zb
        p, selfconj, _ = self._canonical(za[keep], zb[keep], E[keep, 2 * n])
        c = c[keep]
        v[p] = c.real
        v[p[~selfconj] + 1] = c.imag[~selfconj]
        return v

    def series_of(self, v, trunc) -> MixedSeries:
        """The real series whose canonical rows are v (inverse of rhs_of)."""
        n = self.n
        val = np.zeros(len(self._pos), dtype=complex)
        val.real = v[self._pos]
        pair = ~self._selfconj
        val.imag[pair] = v[self._pos[pair] + 1]
        keep = np.abs(val) > STORE_TOL
        E = self._exps[keep]
        flip = np.r_[n : 2 * n, :n, 2 * n]
        coeffs = {}
        for key, ckey, c, p in zip(
            map(tuple, E.tolist()), map(tuple, E[:, flip].tolist()), val[keep].tolist(), pair[keep].tolist()
        ):
            coeffs[key] = c
            if p:
                coeffs[ckey] = c.conjugate()
        return MixedSeries(n, trunc, coeffs)


def _mons_array(n, k):
    """mons(n, k) as an int64 array of shape (#, n)."""
    return np.array(mons(n, k), dtype=np.int64).reshape(-1, n)


def _column_factors(n, r, R, nu):
    """W(slot, comp, j): the series whose product with z^a is the column
    of the map unknown z^a s^j of (slot, comp) before its real part is
    taken: 2 eps_comp zbar^comp (s + iQ)^j for f', 2 (pbar_R + 2 z^n
    zbar^n) (s + iQ)^j for f^n and i (s + iQ)^j for g."""
    Q = hermitian_quadric(n, nu, r=r, s=n - 1 - r)
    prefix_fn = 2.0 * (
        p_R_poly(n, nu, R).conj()
        + 2.0 * MixedSeries.variable(n, nu, "z", n) * MixedSeries.variable(n, nu, "zb", n)
    )
    eps = eps_signs(n, r)
    svar = MixedSeries.variable(n, nu, "s")
    sw = [MixedSeries.constant(n, nu, 1.0)]
    for _ in range(nu // 2):
        sw.append(sw[-1] * (svar + 1j * Q))

    def W(slot, comp, j):
        if slot == "fp":
            return (2.0 * eps[comp]) * MixedSeries.variable(n, nu, "zb", comp + 1) * sw[j]
        if slot == "fn":
            return prefix_fn * sw[j]
        return 1j * sw[j]

    return W


_SYSTEM_CACHE = {}


def _get_system(n, r, R, nu) -> _LSystem:
    """The cached system of (n, r, R, nu), built from R rounded to 14
    decimals, the precision of the cache key, so that it does not depend
    on which nearby R came first."""
    R = np.asarray(R, dtype=complex).round(14)
    key = (n, r, tuple(R.ravel()), nu)
    if key not in _SYSTEM_CACHE:
        _SYSTEM_CACHE[key] = _LSystem(n, r, R, nu)
    return _SYSTEM_CACHE[key]


@dataclass
class GradedSolution:
    nu: int
    fp: list
    fn: MixedSeries
    g: MixedSeries
    N: MixedSeries
    sigma_min: float
    sigma_max: float
    residual: float
    dim: int

    def to_map(self, trunc) -> FormalMap:
        n = self.fn.n
        ident = FormalMap.identity(n, trunc)
        fs = [
            ident.fs[b] + MixedSeries(n, trunc, self.fp[b].coeffs)
            for b in range(n - 1)
        ]
        fs.append(ident.fs[n - 1] + MixedSeries(n, trunc, self.fn.coeffs))
        g = ident.g + MixedSeries(n, trunc, self.g.coeffs)
        return FormalMap(fs, g, check=False)


def solve_L(F_nu: MixedSeries, r, R, tol=DEFAULT_TOL) -> GradedSolution:
    """Solve L(f', f^n, g) + N = F_nu with the gauge constraints; F_nu
    must be real and weighted-homogeneous of degree nu >= 4."""
    n = F_nu.n
    degs = {d for d, comp in F_nu.weighted_decompose().items() if comp.norm() > 0}
    if len(degs) > 1:
        raise ValueError("input must be weighted homogeneous")
    nu = degs.pop() if degs else 4
    if nu < 4:
        raise ValueError("weighted degree must be at least 4")
    if not F_nu.is_real(tol):
        raise ValueError("input must be a real series")
    sys_ = _get_system(n, r, R, nu)
    rhs = sys_.rhs_of(F_nu)
    x = sys_.lu.solve(rhs)
    residual = float(np.linalg.norm(sys_.mat @ x - rhs))

    trunc = max(F_nu.trunc, nu)
    k0 = len(sys_.unknowns)
    fp_terms = [dict() for _ in range(n - 1)]
    fn_terms = {}
    g_terms = {}
    for val, (slot, comp, a, j, part) in zip(x[:k0], sys_.unknowns):
        c = val if part == "x" else 1j * val
        key = a + (0,) * n + (j,)
        if slot == "fp":
            fp_terms[comp][key] = fp_terms[comp].get(key, 0.0) + c
        elif slot == "fn":
            fn_terms[key] = fn_terms.get(key, 0.0) + c
        else:
            g_terms[key] = g_terms.get(key, 0.0) + c
    return GradedSolution(
        nu=nu,
        fp=[MixedSeries(n, trunc, t) for t in fp_terms],
        fn=MixedSeries(n, trunc, fn_terms),
        g=MixedSeries(n, trunc, g_terms),
        N=sys_.series_of(sys_.remainder @ x[k0:], trunc),
        sigma_min=sys_.sigma_min,
        sigma_max=sys_.sigma_max,
        residual=residual,
        dim=sys_.mat.shape[0],
    )


# ---------------------------------------------------------------------------
# model detection and the degree loop


def detect_model(M: Hypersurface, tol=DEFAULT_TOL):
    """Extract (r, R) from the weighted <= 3 part of the graph function;
    raises if M is not in third-order model form."""
    n = M.n
    phi2 = M.phi.weighted_component(2)
    phi3 = M.phi.weighted_component(3)
    g = levi_matrix_of(phi2)
    diag = np.real(np.diag(g))
    if np.linalg.norm(g - np.diag(diag)) > tol:
        raise ValueError("second-order part is not diagonal; run partial_nf first")
    r = int(np.sum(diag > 0.5))
    expected = np.array(eps_signs(n, r) + [0.0])
    if np.linalg.norm(diag - expected) > tol:
        raise ValueError(
            "second-order part is not the signature model; run partial_nf first"
        )
    # cubic part: 2 Re(zbar^n p_R) with p_R = z'^t R z' + (z^n)^2
    R = np.zeros((n - 1, n - 1), dtype=complex)
    en = [0] * n
    en[n - 1] = 1
    en = tuple(en)
    for i in range(n - 1):
        for j in range(i, n - 1):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            v = phi3.coeff(tuple(e), en, 0)
            if i == j:
                R[i, i] = v
            else:
                R[i, j] = 0.5 * v
                R[j, i] = 0.5 * v
    check = model_phi(n, M.trunc, r, R)
    resid = (phi2 + phi3 - check.truncate(3)).norm()
    if resid > tol * (1.0 + phi3.norm()):
        raise ValueError(
            "third-order part is not of generic-degeneracy model form "
            f"(defect {resid:.3e}); run partial_nf first"
        )
    e2 = [0] * n
    e2[n - 1] = 2
    if abs(phi3.coeff(tuple(e2), en, 0) - 1.0) > tol:
        raise ValueError("the (z^n)^2 zbar^n cubic coefficient must be 1")
    return r, R


def to_model_form(M: Hypersurface, tol=DEFAULT_TOL, res=None) -> Hypersurface:
    """M itself if it is in third-order model form, else the output of its
    third-order normalization; ``res`` is partial_nf(M) when already known.
    Raises ValueError unless M has a generic Levi degeneracy."""
    try:
        detect_model(M, tol)
        return M
    except ValueError:
        if res is None:
            res = partial_nf(M, tol)
    if res.case not in ("generic", "semidef_iii"):
        raise ValueError("hypersurface does not have a generic Levi degeneracy")
    return res.M_out


@dataclass
class NormalFormResult:
    N: MixedSeries
    T: FormalMap
    P_used: NormalizationP
    M_out: Hypersurface
    r: int
    R: np.ndarray
    diagnostics: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "N": self.N.to_json_dict(),
            "T": {
                "f": [f.to_json_dict() for f in self.T.fs],
                "g": self.T.g.to_json_dict(),
            },
            "diagnostics": {"per_degree": list(self.diagnostics)},
        }


def normal_form(M: Hypersurface, P: NormalizationP = None, degree=None,
                tol=DEFAULT_TOL) -> NormalFormResult:
    """Normalize M (already in third-order model form) through the given
    weighted degree; P fixes the residual transformation freedom."""
    n, trunc = M.n, M.trunc
    if degree is None:
        degree = trunc
    if degree > trunc:
        raise ValueError("degree cannot exceed the truncation order")
    if degree < 4:
        raise ValueError("degree must be at least 4")
    if P is None:
        P = NormalizationP.identity(n)
    if P.n != n:
        raise ValueError("normalization dimension mismatch")
    r, R = detect_model(M, tol)
    if not validate_P(P, r, R, tol):
        raise ValueError("normalization parameters violate the group conditions")
    phi0 = model_phi(n, trunc, r, R)
    cur = M
    T_total = None
    if not P.is_identity(tol):
        cur = apply_map(cur, P.to_map(trunc, r), tol)
        # form preservation (the content of the group conditions)
        r2, R2 = detect_model(cur, max(tol, 1e3 * tol))
        if r2 != r or np.linalg.norm(R2 - R) > 1e3 * tol * (1 + np.linalg.norm(R)):
            raise ValueError("normalization map did not preserve the model form")
    diagnostics = []
    for nu in range(4, degree + 1):
        D = (cur.phi - phi0).weighted_component(nu)
        if D.norm() <= STORE_TOL:
            diagnostics.append(
                {"nu": nu, "dim": 0, "sigma_min": float("inf"), "residual": 0.0}
            )
            continue
        sol = solve_L(D, r, R, tol)
        diagnostics.append(
            {
                "nu": nu,
                "dim": sol.dim,
                "sigma_min": sol.sigma_min,
                "residual": sol.residual,
            }
        )
        step = sol.to_map(trunc)
        cur = apply_map(cur, step, tol)
        T_total = step if T_total is None else step.compose(T_total)
        # exactness per degree: non-remainder components vanish through nu
        Dn = (cur.phi - phi0).weighted_component(nu)
        bases = _get_system(n, r, R, nu).bases
        _, comp = project_onto(Dn, bases.__getitem__, tol)
        scale = max(1.0, Dn.norm())
        if comp.norm() > 1e3 * tol * scale:
            raise NormalFormError(
                f"degree-{nu} correction left a non-remainder defect "
                f"{comp.norm():.3e}"
            )
    if T_total is None:
        T_total = FormalMap.identity(n, trunc)
    N = (cur.phi - phi0).truncate(degree)
    return NormalFormResult(
        N=N,
        T=T_total,
        P_used=P,
        M_out=cur,
        r=r,
        R=R,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# factorization of a form-preserving map into T o P


def factor_map(Phi: FormalMap, r, tol=DEFAULT_TOL):
    """Factor a map that preserves the model form of Levi signature r
    uniquely as Phi = T o P with P a NormalizationP map and T in the gauge
    class; returns (T, P)."""
    n = Phi.n
    Afull, c = Phi.jacobian0()
    if abs(c.imag) > tol * max(1.0, abs(c)):
        raise ValueError("w-coefficient must be real for a form-preserving map")
    c = float(c.real)
    A = Afull[: n - 1, : n - 1].copy()
    if np.linalg.norm(Afull[n - 1, : n - 1]) > tol * max(
        1.0, np.linalg.norm(Afull)
    ) or np.linalg.norm(Afull[: n - 1, n - 1]) > tol * max(1.0, np.linalg.norm(Afull)):
        raise ValueError("linear part does not preserve the degeneracy splitting")
    zero = (0,) * n
    B = np.array([f.coeff(zero, zero, 1) for f in Phi.fs[: n - 1]], dtype=complex)
    a3 = np.zeros((n - 1, len(mons(n, 3))), dtype=complex)
    for b in range(n - 1):
        for idx, J in enumerate(mons(n, 3)):
            a3[b, idx] = Phi.fs[b].coeff(J, zero, 0)
    d2 = np.array([Phi.fs[n - 1].coeff(I, zero, 0) for I in mons(n, 2)], dtype=complex)
    bl = np.zeros((n - 1, n - 1), dtype=complex)
    cdiag = np.zeros(n - 1)
    AinvT = np.linalg.inv(A).T
    for b in range(n - 1):
        mvec = np.zeros(n - 1, dtype=complex)
        for a in range(n - 1):
            e = [0] * n
            e[a] = 1
            mvec[a] = Phi.fs[b].coeff(tuple(e), zero, 1)
        t = AinvT @ mvec
        for a in range(b):
            bl[b, a] = t[a]
        cdiag[b] = t[b].real
    P = NormalizationP(n=n, c=c, A=A, B=B, a3=a3, bl=bl, cdiag=cdiag, d2=d2)
    Pmap = P.to_map(Phi.trunc, r)
    T = Phi.compose(Pmap.inverse(tol))
    return T, P
