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

A series stores its terms as a dict from exponent tuples to coefficients
(``MixedSeries.coeffs``).  Composition (:meth:`MixedSeries.subs`) instead
runs on arrays from entry to exit: an int64 exponent array with one row per
term and a complex128 coefficient vector.  Monomial images are applied to
all terms by one integer matrix product; the other images are substituted
one slot at a time through the array Cauchy product :func:`_mul_arrays`.
Equal exponent rows are summed by packing each row into one int64 key (a
mixed radix with one digit per slot, sized by the truncation) and then
``np.unique`` and ``np.bincount``; when such keys would overflow, rows are
compared whole.  Small products of series (``*``) stay in dict loops.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain

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
# helpers.  A "termdict" maps an exponent tuple to a complex coefficient.
# A MixedSeries key has slot weights (1, ..., 1, 2), so its weighted degree
# is ``sum(k) + k[-1]``.  An "array series" is a pair (exps, vals): an
# int64 exponent array of shape (k, nslots) and a complex128 vector.


def _clean(terms, trunc):
    return {
        k: complex(v)
        for k, v in terms.items()
        if not abs(v) <= STORE_TOL and sum(k) + k[-1] <= trunc
    }


def _add_into(acc, terms):
    for k, v in terms.items():
        acc[k] = acc.get(k, 0.0) + v


def _strides(weights, trunc):
    """Mixed-radix strides that pack an exponent row of weighted degree
    <= trunc into one int64 key, injectively: the exponent of a slot of
    weight w is at most trunc // w.  None when the keys would not fit."""
    strides = []
    size = 1
    for w in reversed(weights):
        strides.append(size)
        size *= trunc // int(w) + 1
    if size > np.iinfo(np.int64).max:
        return None
    return np.array(strides[::-1], dtype=np.int64)


def _sum_equal(keys, vals):
    """The index of one occurrence of each distinct key, and the summed
    coefficient of each, keys in ascending order.  ``keys`` is a vector of
    packed keys or an exponent array compared row by row."""
    uk, inv = np.unique(keys, return_inverse=True, axis=None if keys.ndim == 1 else 0)
    inv = inv.reshape(-1)
    at = np.empty(len(uk), dtype=np.intp)
    at[inv] = np.arange(inv.size)
    out = np.empty(len(uk), dtype=np.complex128)
    out.real = np.bincount(inv, vals.real, len(uk))
    out.imag = np.bincount(inv, vals.imag, len(uk))
    return at, out


def _combine(exps, vals, strides):
    """Array series with the coefficients of equal exponent rows summed;
    rows are compared by their keys packed with ``strides``, or whole when
    that is None."""
    if vals.size < 2:
        return exps, vals
    at, out = _sum_equal(exps if strides is None else exps @ strides, vals)
    return exps[at], out


def _stored(exps, vals):
    """Array series without coefficients of modulus <= STORE_TOL (a NaN
    is kept)."""
    keep = ~(np.abs(vals) <= STORE_TOL)
    return exps[keep], vals[keep]


def _mul_arrays(A, B, weights, trunc, strides):
    """Cauchy product of two array series, truncated at weighted degree
    trunc, with equal rows summed and stored coefficients only.  Output
    rows are packed by ``strides`` (from :func:`_strides`), or compared
    whole when that is None."""
    expA, valA = A
    expB, valB = B
    # B in order of degree: the partners of row i of A are a prefix of it,
    # up to degree trunc - deg(i)
    degB = expB @ weights
    order = np.argsort(degB, kind="stable")
    expB, valB = expB[order], valB[order]
    cnt = np.searchsorted(degB[order], trunc - expA @ weights, side="right")
    ii = np.repeat(np.arange(cnt.size), cnt)
    jj = np.arange(ii.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    vals = valA[ii] * valB[jj]
    if strides is None:
        at, out = _sum_equal(expA[ii] + expB[jj], vals)
    else:
        at, out = _sum_equal((expA @ strides)[ii] + (expB @ strides)[jj], vals)
    return _stored(expA[ii[at]] + expB[jj[at]], out)


def _to_arrays(terms, nslots):
    """A termdict as an array series."""
    exps = np.fromiter(
        chain.from_iterable(terms), dtype=np.int64, count=len(terms) * nslots
    ).reshape(len(terms), nslots)
    vals = np.fromiter(terms.values(), dtype=np.complex128, count=len(terms))
    return exps, vals


def _to_dict(exps, vals):
    """An array series as a termdict."""
    return dict(zip(map(tuple, exps.tolist()), vals.tolist()))


def _mul_dict(A, B, trunc):
    """Cauchy product of two MixedSeries termdicts, truncated at weighted
    degree trunc."""
    if not A or not B:
        return {}
    if len(A) * len(B) <= _SMALL_MUL:
        Bd = [(kb, vb, sum(kb) + kb[-1]) for kb, vb in B.items()]
        out = {}
        for ka, va in A.items():
            room = trunc - sum(ka) - ka[-1]
            for kb, vb, db in Bd:
                if db > room:
                    continue
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0.0) + va * vb
        return {k: v for k, v in out.items() if not abs(v) <= STORE_TOL}
    nslots = len(next(iter(A)))
    weights = np.ones(nslots, dtype=np.int64)
    weights[-1] = 2
    return _to_dict(
        *_mul_arrays(
            _to_arrays(A, nslots), _to_arrays(B, nslots), weights, trunc, _strides(weights, trunc)
        )
    )


# ---------------------------------------------------------------------------
# composition kernel
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
#
# The kernel works on array series in a combined space: one column per
# pending slot that some input term uses, then the output slots.  Phase 1
# applies the monomial images to all terms at once (an integer matmul of the
# exponent columns, and powers of the image coefficients); phase 2 removes
# the pending columns one at a time, by Horner's scheme for a "series" image
# and by the binomial Taylor expansion around coeff*mono for a "near" image.
# Slots that no input term uses are never looked at.


def _compose_terms(terms, weights_in, images, nslots_out, weights_out, trunc):
    if not terms:
        return {}
    E, V = _to_arrays(terms, len(weights_in))
    used = np.flatnonzero(E.any(axis=0)).tolist()
    mono = [i for i in used if images[i][0] == "mono"]
    pend = [i for i in used if images[i][0] != "mono"]
    npend = len(pend)
    weights = np.array([weights_in[i] for i in pend] + list(weights_out), dtype=np.int64)
    strides = _strides(weights, trunc)

    # phase 1: apply monomial images, keep pending exponents in front columns
    X = np.zeros((V.size, npend + nslots_out), dtype=np.int64)
    X[:, :npend] = E[:, pend]
    keep = np.ones(V.size, dtype=bool)
    if mono:
        Em = E[:, mono]
        X[:, npend:] = Em @ np.array([images[i][1] for i in mono], dtype=np.int64)
        for col, i in enumerate(mono):
            mc = images[i][2]
            if mc == 0:
                keep &= Em[:, col] == 0
            elif mc != 1:
                V = V * np.power(complex(mc), Em[:, col])
    keep &= X @ weights <= trunc
    X, V = _combine(X[keep], V[keep], strides)

    # phase 2: eliminate pending columns one at a time
    for p in range(npend):
        if V.size == 0:
            return {}
        im = images[pend[p]]
        e = X[:, p]
        maxe = int(e.max())
        X = X.copy()
        X[:, p] = 0
        if im[0] == "series":
            S = _lift(im[1], npend, nslots_out)
            R = X[:0], V[:0]
            for k in range(maxe, -1, -1):
                if R[1].size:
                    R = _mul_arrays(R, S, weights, trunc, strides)
                sel = e == k
                if sel.any():
                    R = _combine(
                        np.concatenate([R[0], X[sel]]), np.concatenate([R[1], V[sel]]), strides
                    )
        else:  # "near"
            bexp, bc, delta = im[1], im[2], im[3]
            D = _lift(delta, npend, nslots_out)
            shift = np.zeros(X.shape[1], dtype=np.int64)
            shift[npend:] = bexp
            binom = np.array(
                [[math.comb(a, j) for j in range(maxe + 1)] for a in range(maxe + 1)],
                dtype=np.float64,
            )
            bcpow = np.array([bc**a for a in range(maxe + 1)], dtype=np.complex128)
            dpow = np.zeros((1, X.shape[1]), dtype=np.int64), np.ones(1, dtype=np.complex128)
            deg, step = X @ weights, int(shift @ weights)
            parts = []
            for j in range(maxe + 1):
                if j > 0:
                    dpow = _mul_arrays(dpow, D, weights, trunc, strides)
                    if dpow[1].size == 0:
                        break
                # the term (coeff*mono)^(e-j) D^j of a row, when some term
                # of D^j leaves it within the truncation
                ej = e - j
                sel = np.flatnonzero(
                    (ej >= 0) & (deg + ej * step + (dpow[0] @ weights).min() <= trunc)
                )
                ej = ej[sel]
                blk = _combine(
                    X[sel] + ej[:, None] * shift, V[sel] * (binom[e[sel], j] * bcpow[ej]), strides
                )
                if blk[1].size:
                    if j > 0:
                        blk = _mul_arrays(blk, dpow, weights, trunc, strides)
                    parts.append(blk)
            R = _combine(
                np.concatenate([P[0] for P in parts] or [X[:0]]),
                np.concatenate([P[1] for P in parts] or [V[:0]]),
                strides,
            )
        X, V = R

    return _to_dict(*_stored(X[:, npend:], V))


def _lift(terms, npend, nslots_out):
    """A termdict of the output space as an array series in the combined
    space (zero pending columns)."""
    exps, vals = _to_arrays(terms, nslots_out)
    out = np.zeros((vals.size, npend + nslots_out), dtype=np.int64)
    out[:, npend:] = exps
    return out, vals


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
            coeffs = _clean(coeffs, trunc)
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
        return min((sum(k) + k[-1] for k in self.coeffs), default=None)

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
        out = _mul_dict(self.coeffs, other.coeffs, t)
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
        out = {k: v for k, v in self.coeffs.items() if sum(k) + k[-1] == nu}
        return MixedSeries(self.n, self.trunc, out, _normalized=True)

    def weighted_decompose(self):
        parts = {}
        for k, v in self.coeffs.items():
            parts.setdefault(sum(k) + k[-1], {})[k] = v
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
        out = {k: v for k, v in self.coeffs.items() if sum(k) + k[-1] <= new_trunc}
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

        def keyf(item):
            k, _ = item
            return (sum(k) + k[-1], k[:n], k[n : 2 * n], k[2 * n])

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
