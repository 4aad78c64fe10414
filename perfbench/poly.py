"""Plain truncated polynomials, independent of ``crnf.series``.

The benchmark builds its inputs and checks crnf's outputs with this
module, so that a fault in crnf's own series arithmetic cannot hide
itself.  A polynomial is a dict mapping an exponent tuple to a complex
coefficient:

* mixed, in (z, zbar, s): keys ``a + b + (m,)`` for ``z^a zbar^b s^m``;
* holomorphic, in (z, w): keys ``a + (m,)`` for ``z^a w^m``.

Every z and zbar slot has weight 1, the last slot (s or w) weight 2.
Coefficients cross the crnf boundary only through the series JSON form
(``to_json_dict`` / ``from_json_dict``).
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def wdeg(key):
    return sum(key[:-1]) + 2 * key[-1]


def monomials(nz, nu):
    """Exponent keys of weighted degree nu over nz weight-1 slots plus one
    weight-2 slot, in a fixed order."""
    out = []
    for m in range(nu // 2 + 1):
        d = nu - 2 * m
        for a in itertools.product(range(d + 1), repeat=nz):
            if sum(a) == d:
                out.append(tuple(a) + (m,))
    return out


def add(*polys, scale=None):
    out = {}
    for i, p in enumerate(polys):
        c = 1.0 if scale is None else scale[i]
        for k, v in p.items():
            out[k] = out.get(k, 0.0) + c * v
    return out


def mul(p, q, trunc):
    out = {}
    for ka, va in p.items():
        da = wdeg(ka)
        for kb, vb in q.items():
            if da + wdeg(kb) > trunc:
                continue
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return out


def conj_mixed(p, n):
    return {k[n : 2 * n] + k[:n] + k[2 * n :]: complex(v).conjugate() for k, v in p.items()}


def real_part(p, n):
    """(p + conj p) / 2: the real series with the same 'upper' half."""
    return add(p, conj_mixed(p, n), scale=(0.5, 0.5))


def subs_s(p, n, delta, trunc):
    """p(z, zbar, s + delta) for a mixed polynomial delta of weighted
    order >= 2."""
    powers = [{(0,) * (2 * n + 1): 1.0}]
    out = {}
    for key, c in p.items():
        m = key[2 * n]
        while len(powers) <= m:
            powers.append(mul(powers[-1], delta, trunc))
        for j in range(m + 1):
            mono = {key[: 2 * n] + (m - j,): c * math.comb(m, j)}
            out = add(out, mul(mono, powers[j], trunc))
    return out


def linear_z(p, n, A):
    """p(A z, conj(A) zbar, s): a linear change of the z coordinates."""
    A = np.asarray(A, dtype=complex)
    # the change keeps weighted degrees, so no product needs truncating
    top = max((wdeg(k) for k in p), default=0)
    forms = []
    for i in range(n):
        zf = {}
        for j in range(n):
            e = [0] * (2 * n + 1)
            e[j] = 1
            zf[tuple(e)] = A[i, j]
        forms.append(zf)
    forms += [conj_mixed(f, n) for f in forms]
    powers = {}

    def power(slot, e):
        if (slot, e) not in powers:
            powers[(slot, e)] = (
                {(0,) * (2 * n + 1): 1.0} if e == 0 else mul(power(slot, e - 1), forms[slot], top)
            )
        return powers[(slot, e)]

    out = {}
    for key, c in p.items():
        term = {(0,) * (2 * n) + (key[2 * n],): c}
        for slot in range(2 * n):
            if key[slot]:
                term = mul(term, power(slot, key[slot]), top)
        out = add(out, term)
    return out


def prune(p, tol=1e-15):
    return {k: v for k, v in p.items() if abs(v) > tol}


# ---------------------------------------------------------------------------
# the crnf JSON series form


def to_json(p, n, trunc):
    """The crnf JSON form of a mixed polynomial."""
    terms = []
    for k, v in sorted(p.items()):
        v = complex(v)
        terms.append(
            {
                "z": list(k[:n]),
                "zbar": list(k[n : 2 * n]),
                "s": k[-1],
                "re": v.real,
                "im": v.imag,
            }
        )
    return {"n": n, "trunc": trunc, "terms": terms}


def from_json(d, mixed=True):
    out = {}
    for t in d["terms"]:
        key = tuple(t["z"]) + (tuple(t["zbar"]) if mixed else ()) + (t["s"],)
        out[key] = out.get(key, 0.0) + complex(t["re"], t["im"])
    return out


# ---------------------------------------------------------------------------
# numeric evaluation


def evaluate(p, variables):
    """Value of p at points: ``variables`` is a list with one complex
    array per slot (all of the same shape); the arithmetic is done in
    their precision."""
    if not p:
        return np.zeros_like(variables[0])
    dtype = np.result_type(complex, *variables)
    keys = np.array(list(p.keys()), dtype=np.int64)
    coeffs = np.array(list(p.values()), dtype=dtype)
    mono = np.ones((len(keys),) + variables[0].shape, dtype=dtype)
    for slot, x in enumerate(variables):
        top = int(keys[:, slot].max())
        table = np.stack([x**e for e in range(top + 1)])
        mono *= table[keys[:, slot]]
    return np.tensordot(coeffs, mono, axes=1)
