import numpy as np
import pytest

from crnf.fischer import mons
from crnf.series import MixedSeries
from crnf.normal_space import (
    S_R_apply,
    bilinear_laplacian,
    eps_signs,
    is_in_normal_space,
    normal_space_dim,
    normal_space_report,
    project_normal,
)


def mono(n, trunc, a, b, m, c=1.0):
    return MixedSeries.monomial(n, trunc, a, b, m, c)


def real_pair(n, trunc, a, b, m, c=1.0):
    return (mono(n, trunc, a, b, m, c) + mono(n, trunc, b, a, m, np.conj(c)))


class TestOperators:
    def test_eps_signs(self):
        assert eps_signs(3, 2) == [1.0, 1.0]
        assert eps_signs(3, 1) == [1.0, -1.0]

    def test_laplacian(self):
        n, T = 3, 6
        F = mono(n, T, (1, 0, 0), (1, 0, 0), 0)
        assert abs(bilinear_laplacian(F, 2).coeff((0,) * n, (0,) * n, 0) - 1.0) < 1e-14
        G = mono(n, T, (1, 0, 0), (0, 1, 0), 0)
        assert bilinear_laplacian(G, 2).norm() == 0.0

    def test_S_R_action(self):
        n, T = 2, 8
        R = np.diag([1.0])
        # S_R u = -Delta(p_R u); on u = zbar1^2 the p_R = z1^2 + z2^2 part
        # contributes -Delta(z1^2 zbar1^2) = -4 z1 zbar1
        u = mono(n, T, (0, 0), (2, 0), 0)
        out = S_R_apply(u, 1, R)
        assert abs(out.coeff((1, 0), (1, 0), 0) + 4.0) < 1e-12


class TestDimensions:
    @pytest.mark.parametrize(
        "n,lam,nu,expected",
        [
            # frozen from the squareness audit: dim F_nu - #map unknowns
            (2, (1.0,), 4, 23),
            (2, (1.0,), 8, 173),
            (3, (1.0, 0.5), 8, 1327),
            (3, (0.0, 0.0), 6, 330),
        ],
    )
    def test_frozen_dimensions(self, n, lam, nu, expected):
        assert normal_space_dim(n, n - 1, np.diag(lam), nu) == expected

    @pytest.mark.parametrize("n,lam", [(2, (0.0,)), (2, (1.0,)), (3, (1.0, 0.5)), (3, (1.0, 1.0))])
    @pytest.mark.parametrize("nu", [4, 5, 6, 7, 8])
    def test_squareness_balance(self, n, lam, nu):
        """#map unknowns + dim N_nu = dim F_nu for every degree."""
        from crnf.full_nf import _unknown_monomials

        nunk = 0
        for slot, comp, a, j, parts in _unknown_monomials(n, nu):
            nunk += 2 if parts == "xy" else 1
        ndim = normal_space_dim(n, n - 1, np.diag(lam), nu)
        target = 0
        for m in range(nu // 2 + 1):
            d = nu - 2 * m
            for k in range(d + 1):
                target += len(mons(n, k)) * len(mons(n, d - k))
        assert nunk + ndim == target

    def test_slice_bases_do_not_depend_on_cache_state(self, monkeypatch):
        from crnf import full_nf, normal_space

        n, r, R, nu = 3, 2, np.diag([1.0, 0.5]), 8
        monkeypatch.setattr(full_nf, "_SYSTEM_CACHE", {})
        for lower in range(4, nu):
            full_nf._get_system(n, r, R, lower)
        held = full_nf._get_system(n, r, R, nu).bases
        assert len(held) == 10
        for kl_m, B in held.items():
            assert np.array_equal(B, normal_space.normal_slice_real_basis(n, r, R, *kl_m)), kl_m


class TestMembership:
    def test_kernel_of_laplacian_terms_are_kept(self):
        n, T = 3, 6
        R = np.diag([1.0, 0.5])
        F = real_pair(n, T, (1, 0, 0), (0, 1, 0), 1, 0.5 + 0.25j)
        assert is_in_normal_space(F, 2, R)

    def test_trace_terms_are_removable(self):
        n, T = 3, 6
        R = np.diag([1.0, 0.5])
        F = real_pair(n, T, (1, 0, 0), (1, 0, 0), 1, 0.5)
        assert not is_in_normal_space(F, 2, R)

    def test_pure_types_are_removable(self):
        n, T = 2, 6
        F = real_pair(n, T, (2, 2), (0, 0), 0, 1.0)
        assert not is_in_normal_space(F, 1, np.diag([1.0]))

    def test_unlisted_type_is_unrestricted(self):
        n, T = 2, 8
        F = real_pair(n, T, (2, 2), (1, 2), 0, 1.0 - 0.5j)  # type (4,3)
        assert is_in_normal_space(F, 1, np.diag([1.0]))

    def test_kl1_needs_no_zn_dependence(self):
        n, T = 2, 6
        R = np.diag([1.0])
        # zbar^n z1^2: (2,1) with H_20 = z1^2 free of z^n -> kept
        ok = real_pair(n, T, (2, 0), (0, 1), 0, 1.0)
        assert is_in_normal_space(ok, 1, R)
        # zbar^n z1 z2 has z^n-dependence in H_20 -> removable direction
        bad = real_pair(n, T, (1, 1), (0, 1), 0, 1.0)
        assert not is_in_normal_space(bad, 1, R)

    def test_report_structure(self):
        n, T = 2, 6
        R = np.diag([1.0])
        F = real_pair(n, T, (2, 0), (0, 1), 0, 1.0) + real_pair(n, T, (2, 2), (0, 0), 0, 1.0)
        rep = normal_space_report(F, 1, R)
        assert rep[(2, 1, 0)]["ok"]
        assert not rep[(4, 0, 0)]["ok"]


class TestProjection:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_projection_reconstructs_and_is_idempotent(self, seed):
        from conftest import random_real_perturbation

        rng = np.random.default_rng(seed)
        n, T = 2, 8
        R = np.diag([1.0])
        F = random_real_perturbation(n, T, rng, nterms=30)
        N, C = project_normal(F, 1, R)
        assert (F - (N + C)).norm() < 1e-10
        assert is_in_normal_space(N, 1, R)
        N2, C2 = project_normal(N, 1, R)
        assert C2.norm() < 1e-10
        assert (N2 - N).norm() < 1e-10
