"""Formal holomorphic transformations of C^{n+1} fixing the origin.

A :class:`FormalMap` is (z, w) -> (f(z,w), g(z,w)) with f an n-tuple of
truncated holomorphic series and g a holomorphic series whose weighted
order is >= 2 (the map preserves the complex tangent space {w = 0} at 0).
Each component is a MixedSeries with no zbar terms, w in the s slot.
Such a map is formally invertible iff A = df/dz(0) is invertible and the
w-coefficient c of g is nonzero.

`apply_map` pushes a graph-form hypersurface forward through an
invertible map, and `to_regular` removes all harmonic terms (terms of
phi that are independent of z or independent of zbar).
"""

from __future__ import annotations

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries, fixed_point
from .hypersurfaces import Hypersurface


class FormalMap:
    __slots__ = ("n", "trunc", "fs", "g")

    def __init__(self, fs, g: MixedSeries, check=True):
        fs = list(fs)
        n = len(fs)
        self.n = n
        self.fs = fs
        self.g = g
        self.trunc = min([f.trunc for f in fs] + [g.trunc])
        if check:
            zero = (0,) * n
            for f in fs + [g]:
                if f.n != n:
                    raise ValueError("component series live in different spaces")
                if any(any(k[n : 2 * n]) for k in f.coeffs):
                    raise ValueError("map components cannot depend on zbar")
                if abs(f.coeff(zero, zero, 0)) > STORE_TOL:
                    raise ValueError("map must fix the origin")
            md = g.min_wdeg()
            if md is not None and md < 2:
                raise ValueError("w-component must have weighted order >= 2")

    # -- structure -------------------------------------------------------

    @classmethod
    def identity(cls, n, trunc):
        fs = [MixedSeries.variable(n, trunc, "z", i + 1) for i in range(n)]
        return cls(fs, MixedSeries.variable(n, trunc, "s"))

    @classmethod
    def linear(cls, A, c, trunc):
        """z -> A z, w -> c w."""
        A = np.asarray(A, dtype=complex)
        n = A.shape[0]
        fs = []
        for i in range(n):
            f = MixedSeries.zero(n, trunc)
            for j in range(n):
                if abs(A[i, j]) > STORE_TOL:
                    f = f + A[i, j] * MixedSeries.variable(n, trunc, "z", j + 1)
            fs.append(f)
        return cls(fs, complex(c) * MixedSeries.variable(n, trunc, "s"))

    def jacobian0(self):
        """(A, c): A[i,j] = df^i/dz^j(0), c = dg/dw(0)."""
        n = self.n
        zero = (0,) * n
        A = np.zeros((n, n), dtype=complex)
        for i, f in enumerate(self.fs):
            for j in range(n):
                e = [0] * n
                e[j] = 1
                A[i, j] = f.coeff(tuple(e), zero, 0)
        c = complex(self.g.coeff(zero, zero, 1))
        return A, c

    def weight2_zform(self):
        """Coefficient matrix Q of the z-quadratic part of g (g_2 = c w + z^T Q z)."""
        n = self.n
        Q = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                e = [0] * n
                e[i] += 1
                e[j] += 1
                v = self.g.coeff(tuple(e), (0,) * n, 0)
                if i == j:
                    Q[i, i] = v
                else:
                    Q[i, j] = 0.5 * v
                    Q[j, i] = 0.5 * v
        return Q

    def norm(self):
        return max([f.norm() for f in self.fs] + [self.g.norm()])

    def compose(self, other: "FormalMap") -> "FormalMap":
        """self o other."""
        fs = [f.subs(z=other.fs, s=other.g) for f in self.fs]
        g = self.g.subs(z=other.fs, s=other.g)
        return FormalMap(fs, g, check=False)

    def distance(self, other: "FormalMap"):
        return max(
            [(f - h).norm() for f, h in zip(self.fs, other.fs)]
            + [(self.g - other.g).norm()]
        )

    def inverse(self, tol=DEFAULT_TOL) -> "FormalMap":
        """Formal inverse, exact to the common truncation order."""
        n, T = self.n, self.trunc
        A, c = self.jacobian0()
        if abs(np.linalg.det(A)) <= tol or abs(c) <= tol:
            raise ValueError("map is not formally invertible")
        Ainv = np.linalg.inv(A)
        zs = [MixedSeries.variable(n, T, "z", j + 1) for j in range(n)]
        w = MixedSeries.variable(n, T, "s")
        zero = MixedSeries.zero(n, T)

        def times_Ainv(vs):
            return [
                sum((a * v for a, v in zip(row, vs) if abs(a) > STORE_TOL), zero)
                for row in Ainv
            ]

        # weighted-linear part L: z -> Az, w -> c w + z^T Q z; seed with L^{-1}
        Q = self.weight2_zform()
        Qt = Ainv.T @ Q @ Ainv
        qterm = zero
        for i in range(n):
            for j in range(n):
                if abs(Qt[i, j]) > STORE_TOL:
                    qterm = qterm + Qt[i, j] * (zs[i] * zs[j])
        S = FormalMap(times_Ainv(zs), (w - qterm) * (1.0 / c), check=False)

        def defect(S):
            TS = self.compose(S)
            return [z - f for z, f in zip(zs, TS.fs)] + [w - TS.g]

        # Newton step of L at S: A df = r_f, c dg + 2 S_f^T Q df = r_g
        def correct(S, r):
            df = times_Ainv(r[:n])
            rg = r[n]
            for i, j in zip(*np.nonzero(np.abs(Q) > STORE_TOL)):
                rg = rg - (2.0 * Q[i, j]) * (S.fs[i] * df[j])
            fs = [f + d for f, d in zip(S.fs, df)]
            return FormalMap(fs, S.g + rg * (1.0 / c), check=False)

        return fixed_point(defect, correct, S, T, tol, "FormalMap.inverse")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.n,
            "trunc": self.trunc,
            "f": [f.to_json_dict() for f in self.fs],
            "g": self.g.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d):
        fs = [MixedSeries.from_json_dict(x) for x in d["f"]]
        return cls(fs, MixedSeries.from_json_dict(d["g"]))

    def __repr__(self):
        comps = ", ".join(str(f) for f in self.fs)
        return f"FormalMap(f=({comps}), g={self.g})"


# ---------------------------------------------------------------------------


def apply_map(M: Hypersurface, T: FormalMap, tol=DEFAULT_TOL) -> Hypersurface:
    """Image of the hypersurface under an invertible formal map.

    Solves im G = phi(F, Fbar, re G) for the new graph function, where
    (F, G) = T^{-1}(z, s + i t) and t is the unknown imaginary part.
    """
    if M.n != T.n:
        raise ValueError("dimension mismatch")
    _, cT = T.jacobian0()
    if abs(cT.imag) > tol * abs(cT):
        raise ValueError(
            "w-coefficient of the map must be real to preserve graph form"
        )
    n, trunc = M.n, min(M.trunc, T.trunc)
    S = T.inverse(tol)
    _, cS = S.jacobian0()
    c0 = cS.real
    if abs(c0) <= tol:
        raise ValueError("degenerate w-component after inversion")
    svar = MixedSeries.variable(n, trunc, "s")

    def defect(t):
        # evaluate S at w = s + i t; t is O(2) up to rounding, so the image
        # checks of subs are skipped
        wimg = svar + 1j * t
        F = [f.subs(s=wimg, allow_const=True) for f in S.fs]
        G = S.g.subs(s=wimg, allow_const=True)
        Fb = [f.conj() for f in F]
        return [-G.im_part() + M.phi.subs(z=F, zb=Fb, s=G.re_part())]

    t = fixed_point(
        defect,
        lambda t, r: (t + r[0] * (1.0 / c0)).realified(),
        MixedSeries.zero(n, trunc),
        trunc,
        tol,
        "apply_map",
    )
    return Hypersurface(t.realified(), tol)


def _pure_part(phi: MixedSeries):
    """Terms of phi that do not involve zbar (including pure s powers)."""
    n = phi.n
    out = {k: v for k, v in phi.coeffs.items() if not any(k[n : 2 * n])}
    return MixedSeries(phi.n, phi.trunc, out, _normalized=True)


def to_regular(M: Hypersurface, tol=DEFAULT_TOL):
    """Remove all harmonic terms of phi: the result satisfies
    phi(z, 0, s) = 0 (hence by reality phi(0, zbar, s) = 0).

    Returns (M_regular, T) with M_regular the image of M under T.
    """
    n, trunc = M.n, M.trunc
    zero = (0,) * n
    ident = FormalMap.identity(n, trunc)

    def correct(state, pure):
        cur, total = state
        # chi = P(z, w) + r(w)/2 with P the z-dependent pure part, r the
        # pure (re w)-part; the change w -> w - 2i chi cancels the lowest
        # pure terms of phi
        chi = MixedSeries(
            n,
            trunc,
            {k: (0.5 if k[:n] == zero else 1.0) * v for k, v in pure[0].coeffs.items()},
        )
        T = FormalMap(ident.fs, ident.g - 2j * chi, check=False)
        return apply_map(cur, T, tol), T.compose(total)

    return fixed_point(
        lambda state: [_pure_part(state[0].phi)],
        correct,
        (M, ident),
        trunc,
        tol,
        "to_regular",
    )
