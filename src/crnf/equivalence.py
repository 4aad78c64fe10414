"""Formal-equivalence testing at truncation scale.

Two hypersurfaces at a generic Levi degeneracy are formally equivalent iff
they have matching low-order invariants and, for matched choices of the
residual normalization parameters, identical complete normal forms.  The
comparison here is at FIXED normalizations: a mismatch with differing
normalizations does not prove inequivalence (searching the continuous
normalization group is out of scope; see `equivalent_to_degree`).

`random_allowed_map` draws deterministic pseudorandom transformations from
the group preserving the third-order model (the finite-dimensional
normalization parameters, with (c, A) exponentiated from the Lie algebra
of the group conditions at any Levi signature, and a higher-order gauge
part), for use in invariance testing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .series import DEFAULT_TOL, MixedSeries
from .fischer import mons
from .hypersurfaces import Hypersurface
from .maps import FormalMap
from .partial_nf import partial_nf
from .full_nf import (
    NormalizationP,
    _degree,
    _gauge_table,
    _slots,
    check_G0,
    factor_map,
    normal_form,
    normalization_algebra,
    to_model_form,
    validate_P,
)

__all__ = [
    "EquivalenceReport",
    "invariants_signature",
    "equivalent_to_degree",
    "random_allowed_map",
    "matched_normalization",
]


def invariants_signature(M: Hypersurface, tol=DEFAULT_TOL):
    """(r, s, case, data): signature of the third-order invariants, where
    data is the invariant tuple lambda (semidefinite cases) or the cubic
    coefficient matrix R (indefinite generic case), or None."""
    return _signature(partial_nf(M, tol))


def _signature(res):
    if res.lam is not None:
        data = tuple(round(float(x), 9) for x in res.lam)
    elif res.R is not None:
        data = res.R
    else:
        data = None
    return res.r, res.s, res.case, data


def _signatures_match(sig1, sig2, tol):
    if sig1[:3] != sig2[:3]:
        return False
    d1, d2 = sig1[3], sig2[3]
    if d1 is None or d2 is None:
        return d1 is None and d2 is None
    if isinstance(d1, tuple) and isinstance(d2, tuple):
        return len(d1) == len(d2) and max(
            abs(a - b) for a, b in zip(d1, d2)
        ) <= max(tol, 1e-7)
    a1, a2 = np.asarray(d1), np.asarray(d2)
    return a1.shape == a2.shape and np.max(np.abs(a1 - a2)) <= max(tol, 1e-7)


@dataclass
class EquivalenceReport:
    invariants_match: bool
    signature_1: tuple
    signature_2: tuple
    degree: int
    normal_forms_match: bool = False
    max_deviation: float = float("nan")
    P_1: NormalizationP | None = None
    P_2: NormalizationP | None = None
    note: str = ""

    def to_json_dict(self):
        def sig_json(sig):
            r, s, case, data = sig
            if isinstance(data, np.ndarray):
                from .linalg import matrix_to_json

                data = {"R": matrix_to_json(data)}
            elif data is not None:
                data = {"lambda": list(data)}
            return {"r": r, "s": s, "case": case, "invariant": data}

        out = {
            "invariants_match": self.invariants_match,
            "signature_1": sig_json(self.signature_1),
            "signature_2": sig_json(self.signature_2),
            "degree": self.degree,
            "normal_forms_match": self.normal_forms_match,
            "max_deviation": None
            if self.max_deviation != self.max_deviation
            else self.max_deviation,
            "note": self.note,
        }
        if self.P_1 is not None:
            out["normalization_1"] = self.P_1.to_json_dict()
        if self.P_2 is not None:
            out["normalization_2"] = self.P_2.to_json_dict()
        return out


def equivalent_to_degree(
    M: Hypersurface,
    M2: Hypersurface,
    P: NormalizationP = None,
    P2: NormalizationP = None,
    degree=None,
    tol=DEFAULT_TOL,
) -> EquivalenceReport:
    """Compare complete normal forms through the given weighted degree at
    the fixed normalizations P and P2.

    Equal normal forms certify formal equivalence to that degree; unequal
    normal forms with differing normalizations are inconclusive (the
    report says so) since equivalence quantifies over the normalization
    choice."""
    res1 = partial_nf(M, tol)
    res2 = partial_nf(M2, tol)
    sig1, sig2 = _signature(res1), _signature(res2)
    if degree is None:
        degree = min(M.trunc, M2.trunc)
    if not _signatures_match(sig1, sig2, tol):
        return EquivalenceReport(
            invariants_match=False,
            signature_1=sig1,
            signature_2=sig2,
            degree=degree,
            note="invariant signatures differ; normal forms not compared",
        )
    A = to_model_form(M, tol, res1)
    B = to_model_form(M2, tol, res2)
    if P is None:
        P = NormalizationP.identity(M.n)
    if P2 is None:
        P2 = NormalizationP.identity(M2.n)
    N1 = normal_form(A, P, degree, tol).N.coeffs
    N2 = normal_form(B, P2, degree, tol).N.coeffs
    # from the raw coefficients: a series difference drops those <= STORE_TOL
    keys = N1.keys() | N2.keys()
    dev = float(np.max([abs(N1.get(k, 0) - N2.get(k, 0)) for k in keys], initial=0.0))
    match = dev <= max(tol, 1e-7)
    note = (
        "normal forms agree at the given normalizations"
        if match
        else "normal forms differ at the given normalizations; "
        "inequivalence is not certified"
    )
    return EquivalenceReport(
        invariants_match=True,
        signature_1=sig1,
        signature_2=sig2,
        degree=degree,
        normal_forms_match=match,
        max_deviation=dev,
        P_1=P,
        P_2=P2,
        note=note,
    )


def matched_normalization(
    M: Hypersurface, P: NormalizationP, Phi: FormalMap, tol=DEFAULT_TOL
) -> NormalizationP:
    """Normalization parameters P2 such that normal_form(Phi(M), P2)
    reproduces normal_form(M, P), for a model-form-preserving map Phi.

    The total normalizing map of M is T o P; composing with Phi^{-1} and
    re-factoring through the gauge splitting yields the induced P2."""
    res = normal_form(M, P, degree=4, tol=tol)
    total = res.T.compose(P.to_map(M.trunc, res.r)) if not P.is_identity() else res.T
    # only the low-order jet of the total map matters for the factorization
    comp = total.compose(Phi.inverse(tol))
    _, P2 = factor_map(comp, res.r, tol)
    return P2


# ---------------------------------------------------------------------------
# randomized allowed transformations


def _random_stabilizer(r, R, rng, scale):
    """(c, A) = (e^tau, expm(X)) for a Gaussian element (X, tau) of the
    normalization algebra of scale ``scale``: a draw from the identity
    component of the group of validate_P, near the identity for small
    scale."""
    Xs, taus = normalization_algebra(r, R)
    a = scale * rng.normal(size=len(taus))
    return math.exp(a @ taus), scipy.linalg.expm(np.tensordot(a, Xs, 1))


def random_allowed_map(r, R, seed, scale=0.05, trunc=8, tol=DEFAULT_TOL):
    """Deterministic random transformation preserving the third-order model
    with signature r and cubic matrix R: returns (Phi, P) with Phi = T o P,
    P the normalization parameters (validate_P holds) and T a random
    higher-order gauge map. scale = 0 gives the identity."""
    R = np.asarray(R, dtype=complex)
    n = R.shape[0] + 1
    rng = np.random.default_rng(seed)
    P = NormalizationP.identity(n)
    if scale > 0:
        c, A = _random_stabilizer(r, R, rng, scale)
        P.c, P.A = c, A
        cn = rng.normal
        P.B = scale * (cn(size=n - 1) + 1j * cn(size=n - 1))
        n3, n2 = len(mons(n, 3)), len(mons(n, 2))
        P.a3 = scale * (cn(size=(n - 1, n3)) + 1j * cn(size=(n - 1, n3)))
        P.bl = np.tril(scale * (cn(size=(n - 1, n - 1)) + 1j * cn(size=(n - 1, n - 1))), -1)
        P.cdiag = scale * cn(size=n - 1)
        P.d2 = scale * (cn(size=n2) + 1j * cn(size=n2))
    if not validate_P(P, r, R, tol):
        raise RuntimeError("sampled normalization failed the group conditions")
    if scale <= 0:
        return FormalMap.identity(n, trunc), P
    # random gauge part: three proposed monomials per component, each kept
    # if it is a gauge unknown at its weighted degree
    ident = FormalMap.identity(n, trunc)
    comps = ident.fs + [ident.g]
    zero = (0,) * n
    for i, (slot, comp) in enumerate(_slots(n)):
        for _ in range(3):
            j = int(rng.integers(0, trunc // 2 + 1))
            d = int(rng.integers(0, trunc - 2 * j + 1))
            a = tuple(rng.multinomial(d, [1.0 / n] * n))
            key = a + zero + (j,)
            parts = _gauge_table(n, _degree(slot, key)).get((slot, comp, key))
            if parts is None:
                continue
            coeff = scale * (rng.normal() + 1j * rng.normal())
            if parts == "y":
                coeff = 1j * coeff.imag
            comps[i] = comps[i] + MixedSeries.monomial(n, trunc, a, zero, j, coeff)
    T = FormalMap(comps[:n], comps[n])
    assert check_G0(T, tol)
    return T.compose(P.to_map(trunc, r)), P
