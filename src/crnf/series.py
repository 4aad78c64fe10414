"""Truncated formal power series with weighted grading.

:class:`MixedSeries` holds series in ``z = (z^1..z^n)``, the conjugate
variables ``zbar``, and one real variable ``s``.  Weights: ``z`` and
``zbar`` have weight 1, ``s`` has weight 2.

The components of a holomorphic map ``(z, w) -> (f, g)`` are series with
no ``zbar`` terms, with ``w`` (also of weight 2) in the ``s`` slot.
Composing maps, and evaluating a component at ``w = s + i t``, are both
:meth:`MixedSeries.subs`.

Coefficients are complex binary64.  Series are immutable once built;
all operations return new objects.  Terms of weighted degree above
``trunc`` are discarded eagerly, and coefficients of modulus below
``STORE_TOL`` are never stored.  A NaN coefficient is kept, so that a
numerical failure shows in ``norm()`` instead of vanishing.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: default tolerance for zero tests and rank decisions
DEFAULT_TOL = 1e-9
#: storage threshold; smaller than DEFAULT_TOL so that decisions made at
#: DEFAULT_TOL are not perturbed by pruning
STORE_TOL = 1e-13

# threshold (pair count) below which plain dict loops beat the array product
_SMALL_MUL = 600


class NormalFormError(RuntimeError):
    """Numerical failure: a singular graded system, or an iteration that
    did not converge."""


# ---------------------------------------------------------------------------
# dict-level helpers.  A "termdict" maps an exponent tuple to a complex
# coefficient; `weights` is the per-slot weight vector.


def _wdeg(exp, weights):
    return sum(w * e for w, e in zip(weights, exp))


def _clean(terms, weights, trunc):
    return {
        k: complex(v)
        for k, v in terms.items()
        if not abs(v) <= STORE_TOL and _wdeg(k, weights) <= trunc
    }


def _add_into(acc, terms, factor=1.0):
    for k, v in terms.items():
        acc[k] = acc.get(k, 0.0) + factor * v


def _mul_arrays(expA, valA, expB, valB, weights, trunc):
    """Cauchy product of exponent/coefficient arrays (``(k, nslots)`` int64
    and complex128).  Output exponents are packed into one mixed-radix key
    with radix ``trunc + 2``: every exponent of a truncated term is at most
    ``trunc``, since all slot weights are >= 1."""
    wa = expA @ weights
    wb = expB @ weights
    ii, jj = np.nonzero(wa[:, None] + wb[None, :] <= trunc)
    nc = expA.shape[1]
    if ii.size == 0:
        return np.empty((0, nc), dtype=np.int64), np.empty(0, dtype=np.complex128)
    exps = expA[ii] + expB[jj]
    vals = valA[ii] * valB[jj]
    radix = trunc + 2
    keys = np.zeros(exps.shape[0], dtype=np.int64)
    for c in range(nc):
        keys = keys * radix + exps[:, c]
    uk, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    out = np.zeros(uk.size, dtype=np.complex128)
    np.add.at(out, inv, vals)
    return exps[first], out


def _mul_dict(A, B, weights, trunc):
    """Cauchy product of two termdicts, truncated at weighted degree trunc."""
    if not A or not B:
        return {}
    if len(A) * len(B) <= _SMALL_MUL:
        out = {}
        for ka, va in A.items():
            wa = _wdeg(ka, weights)
            for kb, vb in B.items():
                if wa + _wdeg(kb, weights) > trunc:
                    continue
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0.0) + va * vb
        return {k: v for k, v in out.items() if not abs(v) <= STORE_TOL}
    expA = np.array(list(A.keys()), dtype=np.int64).reshape(len(A), len(weights))
    valA = np.fromiter(A.values(), dtype=np.complex128, count=len(A))
    expB = np.array(list(B.keys()), dtype=np.int64).reshape(len(B), len(weights))
    valB = np.fromiter(B.values(), dtype=np.complex128, count=len(B))
    warr = np.asarray(weights, dtype=np.int64)
    exps, vals = _mul_arrays(expA, valA, expB, valB, warr, trunc)
    out = {}
    for row, v in zip(exps, vals):
        if not abs(v) <= STORE_TOL:
            out[tuple(int(e) for e in row)] = complex(v)
    return out


# ---------------------------------------------------------------------------
# generic composition engine
#
# `images` is a list with one entry per input slot:
#   ("mono", out_exp_tuple, coeff)          -- monomial image (incl. identity)
#   ("series", termdict_out)                -- general image
#   ("near", out_exp_tuple, coeff, termdict_out)
#                                           -- image = coeff*mono + delta;
#                                              evaluated by a Taylor scheme
# All "series"/"near" termdicts live purely in the *output* space, which makes
# sequential elimination of the pending slots sound (no images contain a
# pending slot).


def _compose_terms(terms, weights_in, images, nslots_out, weights_out, trunc):
    pend = [i for i, im in enumerate(images) if im[0] != "mono"]
    pend_pos = {i: p for p, i in enumerate(pend)}
    npend = len(pend)
    comb_weights = tuple(weights_in[i] for i in pend) + tuple(weights_out)
    ncomb = npend + nslots_out

    # phase 1: apply monomial images, keep pending exponents in front slots
    cur = {}
    for exp, c in terms.items():
        out = [0] * ncomb
        coeff = c
        alive = True
        for i, e in enumerate(exp):
            if e == 0:
                continue
            im = images[i]
            if im[0] == "mono":
                mexp, mc = im[1], im[2]
                if mc == 0:
                    alive = False
                    break
                coeff *= mc**e
                for c2, me in enumerate(mexp):
                    if me:
                        out[npend + c2] += me * e
            else:
                out[pend_pos[i]] = e
        if not alive:
            continue
        key = tuple(out)
        if _wdeg(key, comb_weights) > trunc:
            continue
        cur[key] = cur.get(key, 0.0) + coeff

    # phase 2: eliminate pending slots one at a time
    zero_out = (0,) * nslots_out
    for p in range(npend):
        if not cur:
            break
        im = images[pend[p]]
        groups: dict[int, dict] = {}
        for exp, c in cur.items():
            e = exp[p]
            rest = exp[:p] + (0,) + exp[p + 1 :]
            groups.setdefault(e, {})[rest] = c
        maxe = max(groups)
        if im[0] == "series":
            S = {(0,) * npend + k: v for k, v in im[1].items()}
            R: dict = {}
            for e in range(maxe, -1, -1):
                if R:
                    R = _mul_dict(R, S, comb_weights, trunc)
                blk = groups.get(e)
                if blk:
                    _add_into(R, blk)
            cur = R
        else:  # "near"
            bexp, bc, delta = im[1], im[2], im[3]
            D = {(0,) * npend + k: v for k, v in delta.items()}
            dpow = {(0,) * ncomb: 1.0}
            R: dict = {}
            for j in range(0, maxe + 1):
                if j > 0:
                    dpow = _mul_dict(dpow, D, comb_weights, trunc)
                    if not dpow:
                        break
                blk = {}
                for e in range(j, maxe + 1):
                    A_e = groups.get(e)
                    if not A_e:
                        continue
                    fac = math.comb(e, j) * (bc ** (e - j))
                    for k, v in A_e.items():
                        nk = list(k)
                        for c2, me in enumerate(bexp):
                            if me:
                                nk[npend + c2] += me * (e - j)
                        nk = tuple(nk)
                        if _wdeg(nk, comb_weights) > trunc:
                            continue
                        blk[nk] = blk.get(nk, 0.0) + v * fac
                if blk:
                    if j > 0:
                        blk = _mul_dict(blk, dpow, comb_weights, trunc)
                    _add_into(R, blk)
            cur = R

    out = {}
    for exp, c in cur.items():
        if abs(c) <= STORE_TOL:
            continue
        key = exp[npend:]
        out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if not abs(v) <= STORE_TOL}


def _as_image(img, base_exp, nslots_out):
    """Classify an image termdict as 'near' (identity-like) or 'series'."""
    if base_exp is not None and base_exp in img:
        bc = img[base_exp]
        delta = {k: v for k, v in img.items() if k != base_exp}
        return ("near", base_exp, bc, delta)
    return ("series", img)


# ---------------------------------------------------------------------------


class MixedSeries:
    """Truncated series in (z, zbar, s); exponent keys (a..., b..., m)."""

    __slots__ = ("n", "trunc", "coeffs")

    def __init__(self, n: int, trunc: int, coeffs=None, *, _normalized=False):
        self.n = n
        self.trunc = trunc
        if coeffs is None:
            coeffs = {}
        if not _normalized:
            coeffs = _clean(coeffs, self.weights, trunc)
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, n, trunc):
        return cls(n, trunc, {}, _normalized=True)

    @classmethod
    def monomial(cls, n, trunc, a, b, m, coeff=1.0):
        a = tuple(a)
        b = tuple(b)
        key = a + b + (m,)
        return cls(n, trunc, {key: complex(coeff)})

    @classmethod
    def variable(cls, n, trunc, kind, k=None):
        """kind in {'z','zb','s'}; k is 1-based for z/zb."""
        e = [0] * (2 * n + 1)
        if kind == "s":
            e[2 * n] = 1
        elif kind == "z":
            e[k - 1] = 1
        elif kind == "zb":
            e[n + k - 1] = 1
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        return cls(n, trunc, {tuple(e): 1.0})

    @classmethod
    def constant(cls, n, trunc, c):
        if abs(c) <= STORE_TOL:
            return cls.zero(n, trunc)
        return cls(n, trunc, {(0,) * (2 * n + 1): complex(c)})

    # -- basic structure ----------------------------------------------

    @property
    def nslots(self):
        return 2 * self.n + 1

    @property
    def weights(self):
        return (1,) * (2 * self.n) + (2,)

    def terms(self):
        """Iterate (a, b, m, coeff)."""
        n = self.n
        for k, v in self.coeffs.items():
            yield k[:n], k[n : 2 * n], k[2 * n], v

    def coeff(self, a, b, m):
        return self.coeffs.get(tuple(a) + tuple(b) + (m,), 0.0 + 0.0j)

    def norm(self):
        """Largest coefficient modulus; NaN if a coefficient is NaN."""
        a = list(map(abs, self.coeffs.values()))
        return math.nan if math.isnan(sum(a)) else max(a, default=0.0)

    def min_wdeg(self):
        w = self.weights
        return min((_wdeg(k, w) for k in self.coeffs), default=None)

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.n != other.n:
            raise ValueError("mismatched number of variables")
        return min(self.trunc, other.trunc)

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MixedSeries.constant(self.n, self.trunc, other)
        t = self._check(other)
        out = dict(self.coeffs)
        _add_into(out, other.coeffs)
        return MixedSeries(self.n, t, out)

    __radd__ = __add__

    def __neg__(self):
        return MixedSeries(
            self.n, self.trunc, {k: -v for k, v in self.coeffs.items()}, _normalized=True
        )

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = MixedSeries.constant(self.n, self.trunc, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return MixedSeries(
                self.n,
                self.trunc,
                {k: v * other for k, v in self.coeffs.items()},
            )
        t = self._check(other)
        out = _mul_dict(self.coeffs, other.coeffs, self.weights, t)
        return MixedSeries(self.n, t, out, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, e):
        """Power by repeated squaring, for an integer e >= 0."""
        if e < 0:
            raise ValueError("a series power needs an exponent >= 0")
        out = MixedSeries.constant(self.n, self.trunc, 1.0)
        base = self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def conj(self):
        """Formal conjugate: swap z/zbar exponents, conjugate coefficients."""
        n = self.n
        out = {}
        for k, v in self.coeffs.items():
            out[k[n : 2 * n] + k[:n] + (k[2 * n],)] = v.conjugate()
        return MixedSeries(self.n, self.trunc, out, _normalized=True)

    def re_part(self):
        return (self + self.conj()) * 0.5

    def im_part(self):
        return (self - self.conj()) * (-0.5j)

    def diff(self, kind, k=None):
        """Formal derivative; kind in {'z','zb','s'}, k 1-based."""
        n = self.n
        if kind == "s":
            slot, wt = 2 * n, 2
        elif kind == "z":
            slot, wt = k - 1, 1
        elif kind == "zb":
            slot, wt = n + k - 1, 1
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        out = {}
        for key, v in self.coeffs.items():
            e = key[slot]
            if e == 0:
                continue
            nk = key[:slot] + (e - 1,) + key[slot + 1 :]
            out[nk] = out.get(nk, 0.0) + e * v
        return MixedSeries(self.n, max(self.trunc - wt, 0), out, _normalized=True)

    # -- grading -------------------------------------------------------

    def weighted_component(self, nu):
        w = self.weights
        out = {k: v for k, v in self.coeffs.items() if _wdeg(k, w) == nu}
        return MixedSeries(self.n, self.trunc, out, _normalized=True)

    def weighted_decompose(self):
        w = self.weights
        parts = {}
        for k, v in self.coeffs.items():
            parts.setdefault(_wdeg(k, w), {})[k] = v
        return {
            nu: MixedSeries(self.n, self.trunc, t, _normalized=True)
            for nu, t in sorted(parts.items())
        }

    def type_decompose(self):
        n = self.n
        parts = {}
        for key, v in self.coeffs.items():
            parts.setdefault((sum(key[:n]), sum(key[n : 2 * n])), {})[key] = v
        return {
            kl: MixedSeries(self.n, self.trunc, t, _normalized=True)
            for kl, t in sorted(parts.items())
        }

    def truncate(self, new_trunc):
        w = self.weights
        out = {k: v for k, v in self.coeffs.items() if _wdeg(k, w) <= new_trunc}
        return MixedSeries(self.n, new_trunc, out, _normalized=True)

    # -- reality -------------------------------------------------------

    def reality_defect(self):
        n = self.n
        worst = 0.0
        for k, v in self.coeffs.items():
            kc = k[n : 2 * n] + k[:n] + (k[2 * n],)
            partner = complex(self.coeffs.get(kc, 0.0))
            worst = max(worst, abs(v - partner.conjugate()))
        return worst

    def is_real(self, tol=DEFAULT_TOL):
        return self.reality_defect() <= tol

    def realified(self):
        """Average with own conjugate (projects onto real series)."""
        return self.re_part()

    # -- substitution ----------------------------------------------------

    def subs(self, z=None, zb=None, s=None, allow_const=False):
        """Simultaneous substitution.

        ``z``/``zb``: optional lists of n images (MixedSeries or None for
        identity); ``s``: optional image.  All images must live in a common
        output space.  Unless ``allow_const``, images must have no constant
        term.
        """
        n = self.n
        imgs: list = [None] * self.nslots
        given = []
        z = z or [None] * n
        zb = zb or [None] * n
        for i in range(n):
            imgs[i] = z[i]
            imgs[n + i] = zb[i]
        imgs[2 * n] = s
        for im in imgs:
            if im is not None:
                given.append(im)
        if not given:
            return self
        n_out = given[0].n
        trunc_out = min(self.trunc, min(im.trunc for im in given))
        for im in given:
            if im.n != n_out:
                raise ValueError("images live in different spaces")
            if not allow_const and abs(im.coeff((0,) * n_out, (0,) * n_out, 0)) > STORE_TOL:
                raise ValueError("image has a constant term (pass allow_const=True)")
        if s is not None and not allow_const:
            md = s.min_wdeg()
            if md is not None and md < 2:
                raise ValueError("image of s must be O(2) in weighted degree")
        if any(im is None for im in imgs) and n_out != n:
            raise ValueError("identity images require matching output space")
        nslots_out = 2 * n_out + 1
        weights_out = (1,) * (2 * n_out) + (2,)
        images = []
        for slot, im in enumerate(imgs):
            unit = [0] * nslots_out
            if slot < 2 * n and n_out == n:
                unit[slot] = 1
            elif slot == 2 * n and n_out == n:
                unit[2 * n_out] = 1
            else:
                unit = None
            unit = tuple(unit) if unit is not None else None
            if im is None:
                images.append(("mono", unit, 1.0))
            elif len(im.coeffs) == 1:
                (kk, vv), = im.coeffs.items()
                images.append(("mono", kk, vv))
            else:
                images.append(_as_image(im.coeffs, unit, nslots_out))
        out = _compose_terms(
            self.coeffs, self.weights, images, nslots_out, weights_out, trunc_out
        )
        return MixedSeries(n_out, trunc_out, out, _normalized=True)

    # -- serialization ---------------------------------------------------

    def sorted_terms(self):
        n = self.n
        w = self.weights

        def keyf(item):
            k, _ = item
            return (_wdeg(k, w), k[:n], k[n : 2 * n], k[2 * n])

        return sorted(self.coeffs.items(), key=keyf)

    def to_json_dict(self):
        n = self.n
        terms = []
        for k, v in self.sorted_terms():
            terms.append(
                {
                    "z": list(k[:n]),
                    "zbar": list(k[n : 2 * n]),
                    "s": k[2 * n],
                    "re": float(v.real),
                    "im": float(v.imag),
                }
            )
        return {
            "n": self.n,
            "trunc": self.trunc,
            "real": self.is_real(),
            "terms": terms,
        }

    @classmethod
    def from_json_dict(cls, d):
        n = int(d["n"])
        trunc = int(d["trunc"])
        coeffs = {}
        for t in d.get("terms", []):
            a = tuple(int(x) for x in t["z"])
            b = tuple(int(x) for x in t["zbar"])
            m = int(t["s"])
            if len(a) != n or len(b) != n:
                raise ValueError("exponent length does not match n")
            c = complex(t["re"], t["im"])
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c}")
            key = a + b + (m,)
            coeffs[key] = coeffs.get(key, 0.0) + c
        return cls(n, trunc, coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        n = self.n
        parts = []
        for k, v in self.sorted_terms():
            factors = []
            for i in range(n):
                if k[i]:
                    factors.append(f"z{i+1}" + (f"^{k[i]}" if k[i] > 1 else ""))
            for i in range(n):
                e = k[n + i]
                if e:
                    factors.append(f"zb{i+1}" + (f"^{e}" if e > 1 else ""))
            if k[2 * n]:
                factors.append("s" + (f"^{k[2*n]}" if k[2 * n] > 1 else ""))
            mono = "*".join(factors) if factors else "1"
            parts.append(f"({v.real:+.6g}{v.imag:+.6g}i)*{mono}")
        return " + ".join(parts)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# fixed-point iteration


def fixed_point(defect, correct, x, trunc, tol, what):
    """Iterate ``x <- correct(x, r)`` with ``r = defect(x)``, a list of series.

    Each round of the formal equations solved here fixes at least one more
    weighted degree, so ``trunc + 2`` rounds suffice.  The loop stops early
    once the residual has no stored coefficient.  The residual ``res`` is the
    largest coefficient modulus of ``r``.  After the budget, the iterate is
    returned iff ``res <= tol * max(1, scale)``, with ``scale`` the largest
    residual of any round: the terms the loop cancels are that large, so
    rounding leaves a residual relative to them.  Otherwise, and at once
    when a residual is not finite, NormalFormError names the loop ``what``.
    """
    rounds = max(trunc + 2, 0)
    scale = 0.0
    for k in range(rounds + 1):
        r = defect(x)
        norms = [d.norm() for d in r]
        if not all(map(math.isfinite, norms)):
            raise NormalFormError(f"{what}: non-finite residual in round {k}")
        res = max(norms, default=0.0)
        if res <= STORE_TOL:
            return x
        scale = max(scale, res)
        if k < rounds:
            x = correct(x, r)
    if not res <= tol * max(1.0, scale):
        raise NormalFormError(
            f"{what} did not converge in {rounds} rounds (defect {res:.3e})"
        )
    return x


# ---------------------------------------------------------------------------
# graph form <-> complex form


def graph_to_complex(phi: MixedSeries, tol=DEFAULT_TOL) -> MixedSeries:
    """Solve im w = phi(z, zbar, re w) for w = Q(z, zbar, wbar).

    The result reuses the s-slot of MixedSeries for the variable wbar
    (same weight).  Q = wbar + 2i*phi(z, zbar, (Q + wbar)/2).
    """
    if not phi.is_real(tol):
        raise ValueError("phi must be a real series")
    n, trunc = phi.n, phi.trunc
    wbar = MixedSeries.variable(n, trunc, "s")
    return fixed_point(
        lambda Q: [wbar + 2j * phi.subs(s=(Q + wbar) * 0.5) - Q],
        lambda Q, r: Q + r[0],
        wbar,
        trunc,
        tol,
        "graph_to_complex",
    )


def complex_to_graph(Q: MixedSeries, tol=DEFAULT_TOL) -> MixedSeries:
    """Inverse of graph_to_complex: recover phi with im w = phi(z,zbar,re w)."""
    n, trunc = Q.n, Q.trunc
    s = MixedSeries.variable(n, trunc, "s")

    def defect(phi):
        # w = Q(z,zbar,wbar), wbar = s - i*phi  =>  phi = (Q - (s - i*phi))/(2i)
        wbar = s - 1j * phi
        return [(Q.subs(s=wbar) - wbar) * (-0.5j) - phi]

    phi = fixed_point(
        defect,
        lambda phi, r: phi + r[0],
        MixedSeries.zero(n, trunc),
        trunc,
        tol,
        "complex_to_graph",
    )
    return phi.realified()
