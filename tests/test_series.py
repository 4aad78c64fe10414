import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crnf.series import (
    DEFAULT_TOL,
    STORE_TOL,
    MixedSeries,
    NormalFormError,
    _SMALL_MUL,
    _compose_terms,
    _strides,
    fixed_point,
)


def z(n, trunc, k):
    return MixedSeries.variable(n, trunc, "z", k)


def zb(n, trunc, k):
    return MixedSeries.variable(n, trunc, "zb", k)


def s(n, trunc):
    return MixedSeries.variable(n, trunc, "s")


class TestArithmetic:
    def test_monomial_product(self):
        p = z(1, 4, 1) * zb(1, 4, 1)
        assert p.coeff((1,), (1,), 0) == 1.0
        assert len(p.coeffs) == 1

    def test_truncation_discards_high_degree(self):
        a = z(1, 2, 1) * z(1, 2, 1)
        assert (a * z(1, 2, 1)).norm() == 0.0

    def test_s_has_weight_two(self):
        sq = s(1, 4) * s(1, 4)
        assert sq.coeff((0,), (0,), 2) == 1.0
        assert (s(1, 3) * s(1, 3)).norm() == 0.0

    def test_mismatched_n_raises(self):
        with pytest.raises(ValueError):
            z(1, 4, 1) + z(2, 4, 1)

    def test_result_trunc_is_min(self):
        assert (z(1, 6, 1) * z(1, 3, 1)).trunc == 3


class TestDifferentiation:
    def test_z_derivative(self):
        f = z(1, 4, 1) * z(1, 4, 1)
        assert (f.diff("z", 1) - 2.0 * z(1, 4, 1)).norm() < 1e-14

    def test_s_derivative_of_s_free_series(self):
        assert (z(1, 4, 1) * zb(1, 4, 1)).diff("s").norm() == 0.0

    def test_zb_derivative(self):
        f = z(2, 5, 1) * zb(2, 5, 2) * s(2, 5)
        g = f.diff("zb", 2)
        assert (g - z(2, 5, 1) * s(2, 5)).norm() < 1e-14


class TestSubstitution:
    def test_taylor_shift_in_s(self):
        n, T = 1, 4
        f = s(n, T) * s(n, T)
        phi = z(n, T, 1) * zb(n, T, 1)
        g = f.subs(s=s(n, T) + 1j * phi)
        expect = f + 2j * (s(n, T) * phi) - phi * phi
        assert (g - expect).norm() < 1e-13

    def test_identity_substitution(self):
        f = z(2, 6, 1) * zb(2, 6, 2) + s(2, 6)
        imgs = [z(2, 6, 1), z(2, 6, 2)]
        imgsb = [zb(2, 6, 1), zb(2, 6, 2)]
        assert (f.subs(z=imgs, zb=imgsb, s=s(2, 6)) - f).norm() < 1e-14

    def test_holo_w_substitution(self):
        n, T = 1, 4
        w = MixedSeries.variable(n, T, "s")
        phi = z(n, T, 1) * zb(n, T, 1)
        out = w.subs(z=[z(n, T, 1)], s=s(n, T) + 1j * phi)
        assert (out - (s(n, T) + 1j * phi)).norm() < 1e-14


class TestDecompositions:
    def test_type_decompose(self):
        f = z(1, 4, 1) * zb(1, 4, 1) + z(1, 4, 1) * z(1, 4, 1)
        d = f.type_decompose()
        assert set(d) == {(1, 1), (2, 0)}
        assert (sum(d.values(), MixedSeries.zero(1, 4)) - f).norm() == 0.0

    def test_s_does_not_affect_type(self):
        f = s(1, 4) * z(1, 4, 1)
        assert set(f.type_decompose()) == {(1, 0)}

    def test_real_series_type_symmetry(self):
        f = (z(1, 6, 1) * zb(1, 6, 1) * z(1, 6, 1) + MixedSeries.monomial(1, 6, (2,), (1,), 1, 2.0)).realified()
        d = f.type_decompose()
        for (k, l), comp in d.items():
            assert (comp.conj() - d[(l, k)]).norm() < 1e-14

    def test_weighted_decompose(self):
        f = z(1, 4, 1) * zb(1, 4, 1) + s(1, 4)
        d = f.weighted_decompose()
        assert set(d) == {2}
        assert not MixedSeries.zero(1, 4).weighted_decompose()

    def test_type_components_of_product_convolve(self, rng):
        n, T = 2, 5
        a = MixedSeries.zero(n, T)
        b = MixedSeries.zero(n, T)
        for _ in range(8):
            ka = tuple(int(x) for x in rng.integers(0, 2, n))
            kb = tuple(int(x) for x in rng.integers(0, 2, n))
            a = a + MixedSeries.monomial(n, T, ka, kb, 0, rng.normal())
            b = b + MixedSeries.monomial(n, T, kb, ka, 0, rng.normal())
        da, db = a.type_decompose(), b.type_decompose()
        dp = (a * b).type_decompose()
        for (k, l), comp in dp.items():
            conv = MixedSeries.zero(n, T)
            for (k1, l1), c1 in da.items():
                for (k2, l2), c2 in db.items():
                    if k1 + k2 == k and l1 + l2 == l:
                        conv = conv + c1 * c2
            assert (comp - conv).norm() < 1e-12


class TestReality:
    def test_realified_is_real(self, rng):
        f = MixedSeries.monomial(2, 4, (1, 0), (0, 1), 1, 1 + 2j)
        assert f.realified().is_real()

    def test_reality_preserved_by_ops(self):
        a = (z(1, 6, 1) * zb(1, 6, 1)).realified()
        b = (MixedSeries.monomial(1, 6, (2,), (1,), 0, 1j)).realified()
        assert (a + b).is_real() and (a * b).is_real()


class TestFixedPoint:
    def test_settling_step_returns_iterate(self):
        # x = 1 + z x has the truncated geometric series as its solution
        one = MixedSeries.constant(1, 4, 1.0)
        zz = z(1, 4, 1)
        x = fixed_point(
            lambda x: [one + zz * x - x],
            lambda x, r: x + r[0],
            MixedSeries.zero(1, 4),
            4,
            DEFAULT_TOL,
            "geometric",
        )
        assert (x - (one + zz + zz**2 + zz**3 + zz**4)).norm() == 0.0

    def test_step_that_never_settles_raises(self):
        one = MixedSeries.constant(1, 4, 1.0)
        with pytest.raises(NormalFormError, match="drift did not converge in 6 rounds"):
            fixed_point(
                lambda x: [one],
                lambda x, r: x + r[0],
                MixedSeries.zero(1, 4),
                4,
                DEFAULT_TOL,
                "drift",
            )

    @staticmethod
    def stalling(residuals):
        """A loop whose residual in round k is residuals[k] (the iterate is k)."""
        return (
            lambda k: [MixedSeries.constant(1, 4, residuals[k])],
            lambda k, r: k + 1,
        )

    def test_residual_at_a_relative_rounding_floor_returns(self):
        # peaks near 1e7, then stalls at about eps * 1e7, above tol itself
        defect, correct = self.stalling([3e6, 1.2e7, 40.0, 1e-3] + [2.5e-9] * 3)
        assert fixed_point(defect, correct, 0, 4, DEFAULT_TOL, "floor") == 6

    def test_residual_stalled_above_the_relative_bound_raises(self):
        defect, correct = self.stalling([3e6, 1.2e7, 40.0, 1e-3] + [0.5] * 3)
        with pytest.raises(NormalFormError, match="stall did not converge in 6 rounds"):
            fixed_point(defect, correct, 0, 4, DEFAULT_TOL, "stall")

    def test_empty_budget_still_checks_the_residual(self):
        defect, correct = self.stalling([0.5])
        with pytest.raises(NormalFormError, match="short did not converge in 0 rounds"):
            fixed_point(defect, correct, 0, -3, DEFAULT_TOL, "short")

    def test_non_finite_residual_raises_at_once(self):
        defect, correct = self.stalling([1.0, float("nan")] + [0.0] * 5)
        with pytest.raises(NormalFormError, match="nan: non-finite residual in round 1"):
            fixed_point(defect, correct, 0, 4, DEFAULT_TOL, "nan")


class TestNonFinite:
    def test_nan_is_stored_and_shows_in_the_norm(self):
        a = MixedSeries.constant(1, 4, 1e200) * 1e200
        assert np.isnan((a - a).norm())

    def test_nan_survives_products_and_composition(self):
        nan = MixedSeries.constant(2, 6, 1e200) * 1e200
        nan = nan - nan
        f = z(2, 6, 1) + nan * zb(2, 6, 2)
        g = (1.0 + z(2, 6, 1) + z(2, 6, 2) + zb(2, 6, 1) + s(2, 6)) ** 3
        # the dict product, then the array product (more pairs than _SMALL_MUL)
        assert len(g.coeffs) * len(f.coeffs) <= _SMALL_MUL and np.isnan((g * f).norm())
        assert len(g.coeffs) * len((g * f).coeffs) > _SMALL_MUL
        assert np.isnan((g * (g * f)).norm())
        assert np.isnan(f.subs(z=[z(2, 6, 1) + s(2, 6), None]).norm())

    def test_nan_survives_the_kernel_and_the_reference(self):
        n, trunc = 2, 6
        nslots = 2 * n + 1
        weights = (1,) * (2 * n) + (2,)
        rng = np.random.default_rng(3)
        terms = {(1, 0, 0, 1, 0): complex("nan"), (2, 0, 0, 0, 1): 1.0}
        for kinds in (("series",) * nslots, ("near",) * nslots, ("identity",) * nslots):
            images = [_random_image(k, i, n, trunc, rng) for i, k in enumerate(kinds)]
            for compose in (_compose_terms, _compose_terms_ref):
                out = compose(terms, weights, images, nslots, weights, trunc)
                assert any(np.isnan(abs(v)) for v in out.values()), (kinds[0], compose.__name__)


class TestPower:
    def test_power_by_squaring_matches_repeated_products(self):
        x = MixedSeries.constant(2, 8, 1.0) + z(2, 8, 1) - 0.5 * zb(2, 8, 2)
        rep = MixedSeries.constant(2, 8, 1.0)
        for e in range(8):
            assert ((x**e) - rep).norm() < 1e-12
            rep = rep * x
        with pytest.raises(ValueError):
            x ** -1


class TestSerialization:
    def test_round_trip(self, rng):
        f = MixedSeries.monomial(2, 6, (1, 0), (0, 2), 1, 0.5 - 0.25j) + s(2, 6)
        g = MixedSeries.from_json_dict(f.to_json_dict())
        assert (f - g).norm() == 0.0

    def test_non_finite_coefficient_rejected(self):
        d = MixedSeries.monomial(1, 4, (1,), (1,), 0, 1.0).to_json_dict()
        d["terms"][0]["re"] = float("nan")
        with pytest.raises(ValueError, match="non-finite"):
            MixedSeries.from_json_dict(d)

    def test_holo_round_trip(self):
        f = MixedSeries.monomial(2, 6, (1, 2), (0, 0), 1, 1j) + MixedSeries.variable(2, 6, "s")
        g = MixedSeries.from_json_dict(f.to_json_dict())
        assert (f - g).norm() == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 1),
            st.floats(-2, 2, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_add_commutes_and_conj_involution(terms):
    n, T = 1, 6
    f = MixedSeries.zero(n, T)
    g = MixedSeries.zero(n, T)
    for a, b, m, c in terms:
        f = f + MixedSeries.monomial(n, T, (a,), (b,), m, c)
        g = g + MixedSeries.monomial(n, T, (b,), (a,), m, c / 2)
    assert ((f + g) - (g + f)).norm() == 0.0
    assert (f.conj().conj() - f).norm() == 0.0
    assert ((f * g).conj() - f.conj() * g.conj()).norm() < 1e-12


# ---------------------------------------------------------------------------
# The dict composition engine that the array kernel replaced, kept as the
# reference: it walks the terms one at a time, with exponent tuples as keys.


def _wdeg(exp, weights):
    return sum(w * e for w, e in zip(weights, exp))


def _add_into(acc, terms):
    for k, v in terms.items():
        acc[k] = acc.get(k, 0.0) + v


def _mul_dict_ref(A, B, weights, trunc):
    out = {}
    for ka, va in A.items():
        wa = _wdeg(ka, weights)
        for kb, vb in B.items():
            if wa + _wdeg(kb, weights) > trunc:
                continue
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return {k: v for k, v in out.items() if not abs(v) <= STORE_TOL}


def _compose_terms_ref(terms, weights_in, images, nslots_out, weights_out, trunc):
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
    for p in range(npend):
        if not cur:
            break
        im = images[pend[p]]
        groups = {}
        for exp, c in cur.items():
            e = exp[p]
            rest = exp[:p] + (0,) + exp[p + 1 :]
            groups.setdefault(e, {})[rest] = c
        maxe = max(groups)
        if im[0] == "series":
            S = {(0,) * npend + k: v for k, v in im[1].items()}
            R = {}
            for e in range(maxe, -1, -1):
                if R:
                    R = _mul_dict_ref(R, S, comb_weights, trunc)
                blk = groups.get(e)
                if blk:
                    _add_into(R, blk)
            cur = R
        else:  # "near"
            bexp, bc, delta = im[1], im[2], im[3]
            D = {(0,) * npend + k: v for k, v in delta.items()}
            dpow = {(0,) * ncomb: 1.0}
            R = {}
            for j in range(0, maxe + 1):
                if j > 0:
                    dpow = _mul_dict_ref(dpow, D, comb_weights, trunc)
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
                        blk = _mul_dict_ref(blk, dpow, comb_weights, trunc)
                    _add_into(R, blk)
            cur = R

    out = {}
    for exp, c in cur.items():
        if abs(c) <= STORE_TOL:
            continue
        key = exp[npend:]
        out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if not abs(v) <= STORE_TOL}


def _random_terms(rng, n, trunc, count, min_deg=0, max_exp=3):
    """A sparse termdict of a MixedSeries in n variables."""
    out = {}
    for _ in range(count):
        k = tuple(int(x) for x in rng.integers(0, max_exp + 1, 2 * n + 1))
        if min_deg <= sum(k) + k[-1] <= trunc:
            out[k] = complex(rng.normal(), rng.normal())
    return out


def _random_image(kind, slot, n, trunc, rng):
    """An image of the composition kernel for input slot ``slot``."""
    unit = tuple(int(i == slot) for i in range(2 * n + 1))
    if kind == "identity":
        return ("mono", unit, 1.0)
    if kind in ("mono", "mono0"):
        exp = (0,)
        while not 1 <= sum(exp) + exp[-1] <= 2:
            exp = tuple(int(x) for x in rng.integers(0, 2, 2 * n + 1))
        return ("mono", exp, 0.0 if kind == "mono0" else complex(rng.normal(), rng.normal()))
    if kind == "series":
        return ("series", _random_terms(rng, n, trunc, 4, min_deg=1) or {unit: 1.0})
    if kind == "near":
        return ("near", unit, complex(rng.normal(), rng.normal()), _random_terms(rng, n, trunc, 4, min_deg=2))
    # allow_const: a constant term in a "series" or a "near" image
    terms = _random_terms(rng, n, trunc, 3, min_deg=1)
    terms[(0,) * (2 * n + 1)] = complex(rng.normal(), rng.normal())
    if kind == "const_series":
        return ("series", terms)
    return ("near", unit, complex(rng.normal(), rng.normal()), terms)


def _assert_close_to_reference(terms, weights, images, nslots_out, trunc):
    got = _compose_terms(terms, weights, images, nslots_out, weights, trunc)
    ref = _compose_terms_ref(terms, weights, images, nslots_out, weights, trunc)
    scale = max(map(abs, list(got.values()) + list(ref.values())), default=0.0)
    for k in set(got) | set(ref):
        assert abs(got.get(k, 0.0) - ref.get(k, 0.0)) <= 1e-13 * scale, k
    return got


_KINDS = ("identity", "mono", "mono0", "series", "near", "const_series", "const_near")


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 7),
    st.lists(st.sampled_from(_KINDS), min_size=7, max_size=7),
    st.integers(0, 2**32 - 1),
)
def test_array_kernel_matches_dict_reference(n, trunc, kinds, seed):
    rng = np.random.default_rng(seed)
    nslots = 2 * n + 1
    weights = (1,) * (2 * n) + (2,)
    terms = _random_terms(rng, n, trunc, 12)
    images = [_random_image(kinds[i], i, n, trunc, rng) for i in range(nslots)]
    _assert_close_to_reference(terms, weights, images, nslots, trunc)


def test_packed_keys_fall_back_to_whole_rows_when_they_overflow():
    # series images in all 11 slots of n = 5 give 22 columns; at trunc 8
    # their radices multiply to 9**20 * 5**2 > 2**63 - 1
    n, trunc = 5, 8
    weights = (1,) * (2 * n) + (2,)
    assert _strides(weights + weights, trunc) is None
    assert _strides(weights[1:] + weights, trunc) is None
    assert _strides(weights, trunc) is not None
    rng = np.random.default_rng(7)
    nslots = 2 * n + 1
    unit = np.eye(nslots, dtype=int)

    def mono(*slots):
        return tuple(int(e) for e in sum(unit[list(slots)]))

    terms = {mono(i): 1.0 for i in range(nslots)}  # every slot in use
    for _ in range(12):
        terms[mono(*rng.integers(0, nslots, 3))] = complex(rng.normal(), rng.normal())
    images = []
    for i in range(nslots):
        j, k = rng.integers(0, nslots - 1, 2)
        images.append(("series", {mono(i): 1.0, mono(j): rng.normal(), mono(j, k): rng.normal()}))
    got = _assert_close_to_reference(terms, weights, images, nslots, trunc)
    assert len(got) > 200
