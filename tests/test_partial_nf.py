import numpy as np
import pytest

from crnf.hypersurfaces import Hypersurface, model_D, sphere
from crnf.maps import FormalMap, apply_map
from crnf.partial_nf import (
    aut_dim_bound,
    classify_H,
    detect_generic,
    generic_partial_nf,
    partial_nf,
    transform_H,
)
from conftest import perturbed_model


def random_allowed_frame_change(rng, n):
    """B = [[V, c], [0, d]] with a V V* = I, random c, d != 0, a > 0."""
    m = n - 1
    X = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    U, _ = np.linalg.qr(X)
    a = float(np.exp(rng.normal()))
    B = np.zeros((n, n), dtype=complex)
    B[:m, :m] = U / np.sqrt(a)
    B[:m, n - 1] = 0.3 * (rng.normal(size=m) + 1j * rng.normal(size=m))
    B[n - 1, n - 1] = (rng.normal() + 1j * rng.normal()) or 1.0
    return B, a


class TestClassifyH:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generic_diagonal(self, n):
        lam = np.linspace(1.0, 0.25, n - 1)
        H = np.diag(list(lam) + [1.0]).astype(complex)
        cls = classify_H(H)
        assert cls.case == "iii"
        assert np.max(np.abs(cls.lam - lam)) < 1e-9
        assert np.max(np.abs(transform_H(H, cls.B, cls.a) - cls.H_target)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_case_i(self, n):
        H = np.zeros((n, n), dtype=complex)
        for j in range(n - 2):
            H[j, j] = 1.0 - 0.3 * j
        H[n - 2, n - 1] = H[n - 1, n - 2] = 0.7
        cls = classify_H(H)
        assert cls.case == "i"
        assert np.max(np.abs(transform_H(H, cls.B, cls.a) - cls.H_target)) < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_case_ii(self, n):
        H = np.zeros((n, n), dtype=complex)
        for j in range(n - 1):
            H[j, j] = 2.0 - 0.5 * j
        cls = classify_H(H)
        assert cls.case == "ii"
        assert abs(cls.lam[0] - 1.0) < 1e-9 if n > 1 else True
        assert np.max(np.abs(transform_H(H, cls.B, cls.a) - cls.H_target)) < 1e-8

    def test_exclusivity_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 5))
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = H + H.T
            cls = classify_H(H)
            assert cls.case in ("i", "ii", "iii")
            assert np.max(np.abs(transform_H(H, cls.B, cls.a) - cls.H_target)) < 1e-7 * (
                1 + np.max(np.abs(H))
            ) * max(1.0, np.linalg.norm(cls.B) ** 2)

    def test_lambda_frame_invariance(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 5))
            H = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            H = H + H.T
            cls = classify_H(H)
            B, a = random_allowed_frame_change(rng, n)
            cls2 = classify_H(transform_H(H, B, a))
            assert cls2.case == cls.case
            assert np.max(np.abs(cls2.lam - cls.lam)) < 1e-7


class TestPartialNF:
    def test_model_recovers_lambda(self):
        res = partial_nf(model_D(3, 8, (1.0, 0.5)))
        assert res.case == "semidef_iii"
        assert (res.r, res.s) == (2, 0)
        assert np.max(np.abs(res.lam - [1.0, 0.5])) < 1e-9

    def test_lambda_zero_model(self):
        res = partial_nf(model_D(2, 8, (0.0,)))
        assert res.case == "semidef_iii"
        assert res.lam[0] == 0.0

    def test_sphere_is_not_degenerate(self):
        res = partial_nf(sphere(2, 8))
        assert res.case == "other"
        assert (res.r, res.s) == (2, 0)

    def test_detect_generic(self):
        assert detect_generic(model_D(2, 8, (1.0,)))
        assert not detect_generic(sphere(2, 8))

    def test_lambda_invariant_under_random_map(self, rng):
        M = perturbed_model(2, 8, (1.0,), seed=1, amp=0.03)
        base = generic_partial_nf(M)
        from crnf.series import MixedSeries

        I = FormalMap.identity(2, 8)
        Tm = FormalMap(
            [
                0.9 * I.fs[0] + MixedSeries.monomial(2, 8, (0, 2), (0, 0), 0, 0.1j),
                1.1 * I.fs[1] + MixedSeries.monomial(2, 8, (1, 1), (0, 0), 0, 0.05),
            ],
            0.8 * I.g + MixedSeries.monomial(2, 8, (2, 0), (0, 0), 0, 0.02),
        )
        res = generic_partial_nf(apply_map(M, Tm))
        assert np.max(np.abs(res.lam - base.lam)) < 1e-6

    def test_output_is_in_model_form(self):
        from crnf.full_nf import detect_model

        M = perturbed_model(3, 8, (1.0, 0.5), seed=2, amp=0.02)
        res = generic_partial_nf(M)
        r, R = detect_model(res.M_out, 1e-7)
        assert r == 2
        assert np.max(np.abs(R - np.diag([1.0, 0.5]))) < 1e-7


class TestAutBound:
    def test_frozen_values(self):
        # hand-evaluated dimension-count oracles
        assert aut_dim_bound(2, [0.0]) == 19
        assert aut_dim_bound(2, [1.0]) == 17
        assert aut_dim_bound(3, [1.0, 0.5]) == 60
        assert aut_dim_bound(3, [1.0, 1.0]) == 61
        assert aut_dim_bound(3, [1.0, 0.0]) == 61
        assert aut_dim_bound(3, [0.0, 0.0]) == 65

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            aut_dim_bound(3, [0.5, 0.25])
        with pytest.raises(ValueError):
            aut_dim_bound(3, [1.0])
