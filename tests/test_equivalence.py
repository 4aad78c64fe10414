import sys

import numpy as np
import pytest

from crnf.series import MixedSeries
from crnf.hypersurfaces import Hypersurface, model_D, model_hypersurface, sphere
from crnf.maps import apply_map, FormalMap
from crnf.full_nf import NormalizationP, detect_model, normal_form, validate_P, check_G0
from crnf.equivalence import (
    equivalent_to_degree,
    invariants_signature,
    matched_normalization,
    random_allowed_map,
)
from conftest import perturbed_model


class TestSignature:
    def test_model_signature(self):
        r, s, case, lam = invariants_signature(model_D(3, 8, (1.0, 0.5)))
        assert (r, s, case) == (2, 0, "semidef_iii")
        assert lam == (1.0, 0.5)

    def test_sphere_vs_model_mismatch(self):
        rep = equivalent_to_degree(sphere(2, 8), model_D(2, 8, (1.0,)))
        assert not rep.invariants_match
        assert not rep.normal_forms_match

    def test_signature_invariant_under_allowed_map(self):
        M = perturbed_model(2, 8, (1.0,), seed=0, amp=0.03)
        sig = invariants_signature(M)
        for seed in range(3):
            Phi, _ = random_allowed_map(1, np.diag([1.0]), seed=seed, scale=0.04)
            sig2 = invariants_signature(apply_map(M, Phi))
            assert sig2[:3] == sig[:3]
            assert max(abs(a - b) for a, b in zip(sig[3], sig2[3])) < 1e-7

    def test_linearly_equivalent_models_match(self):
        M = model_D(3, 8, (1.0, 0.5))
        A = np.diag([-1.0, 1.0, 1.0]).astype(complex)
        M2 = apply_map(M, FormalMap.linear(A, 1.0, 8))
        assert invariants_signature(M) == invariants_signature(M2)


class TestRandomAllowedMap:
    def test_deterministic_in_seed(self):
        R = np.diag([1.0])
        a1, P1 = random_allowed_map(1, R, seed=42, scale=0.05)
        a2, P2 = random_allowed_map(1, R, seed=42, scale=0.05)
        assert a1.distance(a2) == 0.0
        assert np.array_equal(P1.B, P2.B)

    def test_scale_zero_is_identity(self):
        Phi, P = random_allowed_map(1, np.diag([1.0]), seed=1, scale=0.0)
        assert Phi.distance(FormalMap.identity(2, 8)) == 0.0
        assert P.is_identity()

    @pytest.mark.parametrize("lam", [(0.0,), (1.0,), (1.0, 0.5), (1.0, 1.0), (1.0, 0.0)])
    def test_emitted_P_is_valid(self, lam):
        R = np.diag(lam)
        n = len(lam) + 1
        for seed in range(5):
            Phi, P = random_allowed_map(n - 1, R, seed=seed, scale=0.05)
            assert validate_P(P, n - 1, R)

    def test_map_preserves_model_form(self):
        from crnf.full_nf import detect_model

        lam = (1.0, 0.5)
        M = model_D(3, 8, lam)
        Phi, _ = random_allowed_map(2, np.diag(lam), seed=3, scale=0.05)
        r, R = detect_model(apply_map(M, Phi), 1e-7)
        assert r == 2 and np.max(np.abs(R - np.diag(lam))) < 1e-7

    def test_non_diagonal_R(self):
        R = np.array([[1.0, 0.3], [0.3, 0.5]])
        M = model_hypersurface(3, 4, R)
        for seed in range(20):
            Phi, P = random_allowed_map(2, R, seed=seed, scale=0.1, trunc=4)
            assert validate_P(P, 2, R)
            r, R2 = detect_model(apply_map(M, Phi), 1e-7)
            assert r == 2 and np.max(np.abs(R2 - R)) < 1e-7

    @pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (4, 2)])
    def test_map_preserves_model_form_at_indefinite_signature(self, n, r):
        lam = (1.0, 0.5, 0.25)[: n - 1]
        M = model_hypersurface(n, 4, np.diag(lam), s=n - 1 - r)
        for seed in range(3):
            Phi, _ = random_allowed_map(r, np.diag(lam), seed=seed, scale=0.1, trunc=4)
            r2, R = detect_model(apply_map(M, Phi), 1e-7)
            assert r2 == r and np.max(np.abs(R - np.diag(lam))) < 1e-7


class TestEquivalence:
    def test_invariance_under_allowed_maps(self):
        n, trunc = 2, 8
        lam = (1.0,)
        M = perturbed_model(n, trunc, lam, seed=6, amp=0.04)
        for seed in range(3):
            Phi, _ = random_allowed_map(1, np.diag(lam), seed=seed, scale=0.04)
            Mp = apply_map(M, Phi)
            P2 = matched_normalization(M, NormalizationP.identity(n), Phi)
            rep = equivalent_to_degree(M, Mp, None, P2, degree=trunc)
            assert rep.invariants_match
            assert rep.normal_forms_match
            assert rep.max_deviation < 1e-6

    @pytest.mark.parametrize("n, r, trunc", [(3, 1, 6), (4, 2, 5)])
    def test_invariance_at_indefinite_signature(self, n, r, trunc):
        lam = (1.0, 0.5, 0.25)[: n - 1]
        M = perturbed_model(n, trunc, lam, seed=80 + n, amp=0.03, s=n - 1 - r)
        Phi, _ = random_allowed_map(r, np.diag(lam), seed=0, scale=0.05, trunc=trunc)
        Mp = apply_map(M, Phi)
        P2 = matched_normalization(M, NormalizationP.identity(n), Phi)
        rep = equivalent_to_degree(M, Mp, None, P2, degree=trunc)
        assert rep.invariants_match
        assert rep.normal_forms_match
        assert rep.max_deviation < 1e-6

    def test_max_deviation_reads_differences_below_store_tol(self):
        n, trunc = 2, 6
        res = normal_form(perturbed_model(n, trunc, (1.0,), seed=8), degree=trunc)
        # shift the largest remainder coefficient (and its conjugate) by 5e-14
        key = max(res.N.coeffs, key=lambda k: abs(res.N.coeffs[k]))
        coeffs = dict(res.M_out.phi.coeffs)
        for k in {key, key[n : 2 * n] + key[:n] + key[2 * n :]}:
            coeffs[k] += 5e-14
        M2 = Hypersurface(MixedSeries(n, trunc, coeffs))
        rep = equivalent_to_degree(res.M_out, M2, degree=trunc)
        assert rep.normal_forms_match
        assert 1e-14 < rep.max_deviation < 1e-12

    def test_extra_normal_term_detected(self):
        n, trunc = 2, 8
        M = perturbed_model(n, trunc, (1.0,), seed=8)
        res = normal_form(M)
        # z1^2 zbar2^2 + conj is killed by the trace operator, hence a
        # degree-4 remainder-space direction
        extra = MixedSeries.monomial(n, trunc, (2, 0), (0, 2), 0, 0.02).realified()
        M2 = Hypersurface(res.M_out.phi + extra)
        rep = equivalent_to_degree(M, M2, degree=trunc)
        assert rep.invariants_match
        assert not rep.normal_forms_match
        assert abs(rep.max_deviation - extra.norm()) < 1e-6

    def test_report_json(self):
        rep = equivalent_to_degree(sphere(2, 8), model_D(2, 8, (1.0,)))
        d = rep.to_json_dict()
        assert d["invariants_match"] is False
        assert "signature_1" in d and "signature_2" in d

    def test_third_order_normalization_runs_once_per_input(self, monkeypatch):
        module = sys.modules["crnf.partial_nf"]
        orig = module.third_order_form
        calls = []

        def counted(M, *args, **kwargs):
            calls.append(M)
            return orig(M, *args, **kwargs)

        monkeypatch.setattr(module, "third_order_form", counted)
        model = model_D(2, 6, (1.0,))
        raw = apply_map(model, FormalMap.linear(np.diag([2.0, 1.0]), 1.0, 6))
        rep = equivalent_to_degree(raw, model, degree=6)
        assert rep.invariants_match
        assert len(calls) == 2

    def test_non_generic_inputs_are_refused(self):
        with pytest.raises(ValueError):
            equivalent_to_degree(sphere(2, 6), sphere(2, 6))
