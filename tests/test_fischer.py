import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crnf.fischer import (
    apply_pbar,
    fischer_decompose,
    fischer_decompose2,
    mons,
    pbar_matrix,
    series_of,
    type_basis,
    vec_of,
)
from crnf.series import MixedSeries
from crnf.hypersurfaces import hermitian_quadric, p_R_poly


def random_type_series(rng, n, k, l, m=0, trunc=10):
    basis = type_basis(n, k, l, m)
    coeffs = {
        key: rng.normal() + 1j * rng.normal() for key in basis
    }
    return MixedSeries(n, trunc, coeffs)


class TestMons:
    def test_counts(self):
        assert len(mons(2, 3)) == 4
        assert len(mons(3, 2)) == 6

    def test_lex_sorted_and_total_degree(self):
        ms = mons(3, 2)
        assert all(sum(a) == 2 for a in ms)
        assert list(ms) == sorted(ms, reverse=True) or list(ms) == sorted(ms)

    def test_cached_result_is_immutable(self):
        assert isinstance(mons(3, 4), tuple) and mons(3, 4) is mons(3, 4)


class TestFischer:
    def test_exact_multiple(self, rng):
        n, T = 2, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)  # type (1,1)
        G0 = random_type_series(rng, n, 1, 1, trunc=T)
        F = p * G0
        G, H = fischer_decompose(F, p)
        assert (F - (p * G + H)).norm() < 1e-9
        assert H.norm() < 1e-9
        assert (G - G0).norm() < 1e-9

    def test_kernel_element_passes_through(self, rng):
        n, T = 2, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)
        # z1^2 zbar2^2 is annihilated by the conjugate operator of z1 zbar1
        F = MixedSeries.monomial(n, T, (2, 0), (0, 2), 0, 1.0)
        G, H = fischer_decompose(F, p)
        assert G.norm() < 1e-9
        assert (H - F).norm() < 1e-9

    def test_square_example(self):
        n, T = 1, 10
        p = MixedSeries.monomial(n, T, (1,), (1,), 0, 1.0)
        F = MixedSeries.monomial(n, T, (2,), (2,), 0, 1.0)
        G, H = fischer_decompose(F, p)
        assert H.norm() < 1e-9
        assert (G - p).norm() < 1e-9

    def test_side_condition_and_uniqueness(self, rng):
        n, T = 3, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)
        for _ in range(10):
            F = random_type_series(rng, n, 2, 2, trunc=T)
            G, H = fischer_decompose(F, p)
            assert (F - (p * G + H)).norm() < 1e-9
            assert apply_pbar(p, H).norm() < 1e-9
            G2, H2 = fischer_decompose(p * G + H, p)
            assert (G - G2).norm() < 1e-9 and (H - H2).norm() < 1e-9


class TestFischer2:
    def test_zero(self):
        n, T = 2, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)
        q = p_R_poly(n, T, np.diag([1.0])) * MixedSeries.zero(n, T).constant(n, T, 1.0)
        q = p_R_poly(n, T, np.diag([1.0]))
        F = MixedSeries.zero(n, T)
        G1, G2, H = fischer_decompose2(F, p, q)
        assert G1.norm() + G2.norm() + H.norm() < 1e-12

    def test_reconstruction_random(self, rng):
        n, T = 2, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)
        q = p_R_poly(n, T, np.diag([1.0]))
        for _ in range(10):
            F = random_type_series(rng, n, 3, 2, trunc=T)
            G1, G2, H = fischer_decompose2(F, p, q)
            assert (F - (p * G1 + q * G2 + H)).norm() < 1e-9
            assert apply_pbar(q, H).norm() < 1e-9

    def test_uniqueness_fixed_point(self, rng):
        n, T = 2, 10
        p = hermitian_quadric(n, T, r=n - 1, s=0)
        q = p_R_poly(n, T, np.diag([0.5]))
        F = random_type_series(rng, n, 3, 2, trunc=T)
        G1, G2, H = fischer_decompose2(F, p, q)
        G1b, G2b, Hb = fischer_decompose2(p * G1 + q * G2 + H, p, q)
        assert (G1 - G1b).norm() < 1e-8
        assert (G2 - G2b).norm() < 1e-8
        assert (H - Hb).norm() < 1e-8


def test_vec_series_round_trip(rng):
    n = 2
    basis = type_basis(n, 2, 1, 1)
    v = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    F = series_of(v, basis, n, 10)
    assert np.linalg.norm(vec_of(F, basis) - v) < 1e-14


def _apply_pbar_ref(p: MixedSeries, F: MixedSeries) -> MixedSeries:
    """pbar(grad, gradbar) F by chains of single derivatives (the oracle of
    the closed form on exponents)."""
    n = F.n
    out = MixedSeries.zero(n, F.trunc)
    for a, b, m, c in p.terms():
        if m:
            raise ValueError("operator polynomial cannot depend on s")
        term = F
        for i in range(n):
            for _ in range(a[i]):
                term = term.diff("z", i + 1)
            for _ in range(b[i]):
                term = term.diff("zb", i + 1)
        out = out + term * c.conjugate()
    return MixedSeries(n, F.trunc, out.coeffs)


def _random_terms(rng, n, count, deg, max_exp, s_max):
    """Random coefficients of ``count`` monomials; total z/zbar degree
    ``deg`` if given (a homogeneous polynomial), s-power up to s_max."""
    out = {}
    for _ in range(count):
        k = [int(x) for x in rng.integers(0, max_exp + 1, 2 * n)]
        if deg is not None:
            k = [int(x) for x in rng.multinomial(deg, [1.0 / (2 * n)] * (2 * n))]
        out[tuple(k) + (int(rng.integers(0, s_max + 1)),)] = complex(rng.normal(), rng.normal())
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_closed_form_pbar_matches_derivative_chains(n, deg, seed):
    rng = np.random.default_rng(seed)
    trunc = 12
    p = MixedSeries(n, trunc, _random_terms(rng, n, 3, deg, 0, 0))
    F = MixedSeries(n, trunc, _random_terms(rng, n, 12, None, 4, 2))
    got, ref = apply_pbar(p, F), _apply_pbar_ref(p, F)
    scale = max(ref.norm(), got.norm())
    for key in set(got.coeffs) | set(ref.coeffs):
        assert abs(got.coeffs.get(key, 0.0) - ref.coeffs.get(key, 0.0)) <= 1e-12 * scale, key


def test_pbar_matrix_matches_apply_pbar(rng):
    n, trunc = 3, 10
    p = hermitian_quadric(n, trunc, r=1, s=1) * p_R_poly(n, trunc, np.diag([1.0, 0.41]))
    src, dst = type_basis(n, 4, 2, 1), type_basis(n, 1, 1, 1)
    v = rng.normal(size=len(src)) + 1j * rng.normal(size=len(src))
    F = series_of(v, src, n, trunc)
    assert np.linalg.norm(pbar_matrix(p, src, dst) @ v - vec_of(apply_pbar(p, F), dst)) < 1e-12


def test_pbar_of_a_polynomial_in_s_raises():
    n, trunc = 2, 8
    p = MixedSeries.monomial(n, trunc, (1, 0), (0, 0), 1)
    F = MixedSeries.monomial(n, trunc, (2, 0), (1, 0), 0)
    with pytest.raises(ValueError, match="cannot depend on s"):
        apply_pbar(p, F)
    with pytest.raises(ValueError, match="cannot depend on s"):
        _apply_pbar_ref(p, F)
