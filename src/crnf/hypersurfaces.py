"""Geometric input types: hypersurfaces in graph form and generic
submanifolds given by defining equations, plus the standard model
hypersurfaces used throughout the package.

A hypersurface is ``im w = phi(z, zbar, re w)`` with ``phi`` a real
MixedSeries, O(2), no constant or linear part.  A generic submanifold of
codimension d in C^N is given by d real defining series ``rho_l(Z, Zbar)``
(MixedSeries with n = N whose s-slot is unused).
"""

from __future__ import annotations

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries


class Hypersurface:
    """Graph-form hypersurface im w = phi(z, zbar, s), s = re w."""

    __slots__ = ("n", "trunc", "phi")

    def __init__(self, phi: MixedSeries, tol=DEFAULT_TOL):
        if not phi.is_real(tol):
            raise ValueError("phi must be a real series")
        if abs(phi.coeff((0,) * phi.n, (0,) * phi.n, 0)) > tol:
            raise ValueError("phi must vanish at 0")
        md = phi.min_wdeg()
        if md is not None:
            # no ordinary-linear part: z, zbar or s alone
            zero = (0,) * phi.n
            for i in range(phi.n):
                e = [0] * phi.n
                e[i] = 1
                if abs(phi.coeff(tuple(e), zero, 0)) > tol or abs(
                    phi.coeff(zero, tuple(e), 0)
                ) > tol:
                    raise ValueError("phi must have vanishing differential at 0")
            if abs(phi.coeff(zero, zero, 1)) > tol:
                raise ValueError("phi must have vanishing differential at 0")
        self.n = phi.n
        self.trunc = phi.trunc
        self.phi = phi.realified()

    def to_generic(self) -> "GenericSubmanifold":
        """Defining function rho = -im w + phi(z, zbar, (w + wbar)/2) in C^{n+1}.

        Terms of phi with high s-degree may exceed the ambient (ordinary
        degree) truncation; the conversion is exact whenever the ambient
        degree |a|+|b|+m of every term stays within trunc (always true for
        the polynomial models used in tests).
        """
        n, T = self.n, self.trunc
        N = n + 1
        Z = [MixedSeries.variable(N, T, "z", i + 1) for i in range(N)]
        Zb = [MixedSeries.variable(N, T, "zb", i + 1) for i in range(N)]
        # w = Z[n] has weight 1 in C^{n+1}, hence allow_const
        phi = self.phi.subs(
            z=Z[:n], zb=Zb[:n], s=(Z[n] + Zb[n]) * 0.5, allow_const=True
        )
        return GenericSubmanifold([phi + 0.5j * (Z[n] - Zb[n])])

    def __repr__(self):
        return f"Hypersurface(n={self.n}, trunc={self.trunc}, phi={self.phi})"


class GenericSubmanifold:
    """Generic submanifold of C^N of codimension d with defining series rho."""

    __slots__ = ("N", "d", "trunc", "rho")

    def __init__(self, rho, tol=DEFAULT_TOL):
        rho = list(rho)
        if not rho:
            raise ValueError("need at least one defining series")
        N = rho[0].n
        d = len(rho)
        self.N = N
        self.d = d
        self.trunc = min(r.trunc for r in rho)
        self.rho = rho
        zero = (0,) * N
        for r in rho:
            if r.n != N:
                raise ValueError("defining series live in different spaces")
            if not r.is_real(tol):
                raise ValueError("defining series must be real")
            if abs(r.coeff(zero, zero, 0)) > tol:
                raise ValueError("defining series must vanish at 0")
            if any(key[2 * N] for key in r.coeffs):
                raise ValueError("ambient series cannot use the s slot")
        J = self.jacobian0()
        sv = np.linalg.svd(J, compute_uv=False) if J.size else np.zeros(0)
        if len(sv) < d or sv[min(d - 1, len(sv) - 1)] <= tol:
            raise ValueError("defining equations are degenerate at 0")
        W = self.dbar_block0()
        if abs(np.linalg.det(W)) <= tol:
            raise ValueError(
                "last-d block of d(rho)/d(Zbar) is singular at 0; "
                "coordinates are not admissible"
            )

    @property
    def n(self):
        return self.N - self.d

    def rho_z(self, l, m):
        """d(rho_l)/dZ^m as a series (l, m 1-based)."""
        return self.rho[l - 1].diff("z", m)

    def rho_zb(self, l, m):
        return self.rho[l - 1].diff("zb", m)

    def jacobian0(self):
        """d x 2N Jacobian of (rho) in (Z, Zbar) at 0."""
        zero = (0,) * self.N
        rows = []
        for r in self.rho:
            row = []
            for m in range(1, self.N + 1):
                row.append(complex(r.diff("z", m).coeff(zero, zero, 0)))
            for m in range(1, self.N + 1):
                row.append(complex(r.diff("zb", m).coeff(zero, zero, 0)))
            rows.append(row)
        return np.array(rows, dtype=complex)

    def dbar_block0(self):
        """d x d matrix d(rho_l)/dZbar^{n+k} at 0."""
        zero = (0,) * self.N
        n = self.n
        return np.array(
            [
                [
                    complex(r.diff("zb", n + k + 1).coeff(zero, zero, 0))
                    for k in range(self.d)
                ]
                for r in self.rho
            ],
            dtype=complex,
        )

    def __repr__(self):
        return f"GenericSubmanifold(N={self.N}, d={self.d}, trunc={self.trunc})"


# ---------------------------------------------------------------------------
# standard models


def _zvars(n, trunc):
    return (
        [MixedSeries.variable(n, trunc, "z", i + 1) for i in range(n)],
        [MixedSeries.variable(n, trunc, "zb", i + 1) for i in range(n)],
    )


def hermitian_quadric(n, trunc, r=None, s=0):
    """<z', zbar'>_{r,s} = sum_{j<=r} |z^j|^2 - sum_{r<j<=r+s} |z^j|^2 over the
    first n-1 variables by default (r + s = n - 1); pass r=n for the sphere."""
    if r is None:
        r = n - 1 - s
    z, zb = _zvars(n, trunc)
    out = MixedSeries.zero(n, trunc)
    for j in range(r):
        out = out + z[j] * zb[j]
    for j in range(r, r + s):
        out = out - z[j] * zb[j]
    return out


def sphere(n, trunc):
    """im w = |z|^2 (Levi-nondegenerate model)."""
    z, zb = _zvars(n, trunc)
    phi = MixedSeries.zero(n, trunc)
    for j in range(n):
        phi = phi + z[j] * zb[j]
    return Hypersurface(phi)


def flat(n, trunc):
    """im w = 0."""
    return Hypersurface(MixedSeries.zero(n, trunc))


def p_R_poly(n, trunc, R):
    """p_R(z) = z'^t R z' + (z^n)^2 as a type-(2,0) series."""
    z, _ = _zvars(n, trunc)
    R = np.asarray(R, dtype=complex)
    out = z[n - 1] * z[n - 1]
    for i in range(n - 1):
        for j in range(n - 1):
            if abs(R[i, j]) > STORE_TOL:
                out = out + R[i, j] * z[i] * z[j]
    return out


def model_phi(n, trunc, r, R):
    """<z',zbar'>_{r,s} + 2 Re(zbar^n p_R(z)) with r + s = n - 1."""
    zbn = MixedSeries.variable(n, trunc, "zb", n)
    mixed = zbn * p_R_poly(n, trunc, R)
    return hermitian_quadric(n, trunc, r=r, s=n - 1 - r) + mixed + mixed.conj()


def model_hypersurface(n, trunc, R, s=0):
    """im w = model_phi(n, trunc, r, R) with r = n - 1 - s."""
    return Hypersurface(model_phi(n, trunc, n - 1 - s, R))


def model_D(n, trunc, lam):
    """Model with R = diag(lam) (lam has n-1 entries)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    return model_hypersurface(n, trunc, np.diag(lam))
