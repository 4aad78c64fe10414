import math

import numpy as np
import pytest

from crnf.fischer import mons, op_matrix, type_basis
from crnf.series import MixedSeries
from crnf.normal_space import (
    S_R_apply,
    _colspace,
    _realize,
    _sigma_basis,
    bilinear_laplacian,
    eps_signs,
    is_in_normal_space,
    normal_slice_real_basis,
    normal_space_dim,
    normal_space_report,
    project_normal,
    remainder_bases,
)
from crnf.hypersurfaces import p_R_poly


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


# ---------------------------------------------------------------------------
# the remainder slices against hand-written clause builders: one builder
# per clause, the Laplacian by chains of derivatives, the (3, 3) clause
# as the real span of ker D^2 and Q^2 (z^n H_01 + conj)


def _laplacian_ref(F, r):
    out = MixedSeries.zero(F.n, F.trunc)
    for j, e in enumerate(eps_signs(F.n, r)):
        out = out + F.diff("z", j + 1).diff("zb", j + 1) * e
    return MixedSeries(F.n, F.trunc, out.coeffs)


def _nullspace_ref(A):
    if A.shape[0] == 0:
        return np.eye(A.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(A)
    return vh[int(np.sum(s > 1e-10 * s[0])) :].conj().T


def _polys_ref(n, r, trunc, R):
    z = [MixedSeries.variable(n, trunc, "z", i + 1) for i in range(n)]
    zb = [MixedSeries.variable(n, trunc, "zb", i + 1) for i in range(n)]
    Q = MixedSeries.zero(n, trunc)
    for j, e in enumerate(eps_signs(n, r)):
        Q = Q + z[j] * zb[j] * e
    return Q, p_R_poly(n, trunc, R), z[n - 1], zb[n - 1]


def _lap_null_ref(n, r, trunc, k, l, m, power=1):
    basis = type_basis(n, k, l, m)
    op = lambda e: _laplacian_ref(e, r)  # noqa: E731
    if power == 2:
        op = lambda e: _laplacian_ref(_laplacian_ref(e, r), r)  # noqa: E731
    return _nullspace_ref(op_matrix(op, basis, type_basis(n, k - power, l - power, m), n, trunc))


def _times_ref(q, src, basis, n, trunc):
    return op_matrix(lambda e: q * e, src, basis, n, trunc)


def _sigma_matrix(basis, n):
    """Conjugate-flip involution on a self-conjugate (k,k) slice, in
    stacked real coordinates: sigma(c)_(a,b,m) = conj(c_(b,a,m))."""
    d = len(basis)
    index = {key: i for i, key in enumerate(basis)}
    S = np.zeros((2 * d, 2 * d))
    for i, key in enumerate(basis):
        a, b, m = key[:n], key[n : 2 * n], key[2 * n]
        j = index[b + a + (m,)]
        S[j, i] = 1.0
        S[d + j, d + i] = -1.0
    return S


def _slice_basis_ref(n, r, R, k, l, m):
    trunc = k + l + 2 * m
    basis = type_basis(n, k, l, m)
    d = len(basis)
    Q, pR, zn, znb = _polys_ref(n, r, trunc, R)
    h00 = type_basis(n, 0, 0, m)
    free = lambda kk: [a + (0,) * n + (m,) for a in mons(n, kk) if a[n - 1] == 0]  # noqa: E731
    if (k, l) == (1, 1):
        out = _realize(_lap_null_ref(n, r, trunc, 1, 1, m))
    elif (k, l) == (3, 1):
        # qbar(grad, gradbar) z^a zbar^b = conj(q_{a,b}) a! b! on a (3,1) slice
        q = Q * pR
        fact = [math.factorial(i) for i in range(7)]
        row = np.array(
            [[np.conj(q.coeff(key[:n], key[n : 2 * n], 0)) * np.prod([fact[i] for i in key[: 2 * n]]) for key in basis]]
        )
        out = _realize(_nullspace_ref(row))
    elif l == 1:
        out = _realize(_times_ref(znb, free(k), basis, n, trunc))
    elif (k, l) == (2, 2):
        parts = [_lap_null_ref(n, r, trunc, 2, 2, m), _times_ref(Q * zn * znb, h00, basis, n, trunc)]
        out = _realize(_colspace(np.column_stack(parts)))
    elif (k, l) == (3, 2):
        parts = [
            _times_ref(Q * Q * zn, h00, basis, n, trunc),
            _times_ref(Q, type_basis(n, 2, 1, m), basis, n, trunc) @ _lap_null_ref(n, r, trunc, 2, 1, m),
            _lap_null_ref(n, r, trunc, 3, 2, m),
        ]
        out = _realize(_colspace(np.column_stack(parts)))
    elif (k, l) == (4, 2):
        parts = [_times_ref(Q * znb, free(3), basis, n, trunc), _lap_null_ref(n, r, trunc, 4, 2, m)]
        out = _realize(_colspace(np.column_stack(parts)))
    elif (k, l) == (3, 3):
        cols = [_realize(_lap_null_ref(n, r, trunc, 3, 3, m, power=2))]
        index = {key: i for i, key in enumerate(basis)}
        for j in range(n):
            h01 = MixedSeries.monomial(n, trunc, (0,) * n, tuple(int(i == j) for i in range(n)), m)
            for coef in (1.0, 1.0j):
                elt = Q * Q * zn * h01 * coef
                elt = elt + elt.conj()
                v = np.zeros(2 * d)
                for key, val in elt.coeffs.items():
                    v[index[key]], v[d + index[key]] = val.real, val.imag
                cols.append(v.reshape(-1, 1))
        out = np.column_stack(cols)
    else:
        out = np.eye(2 * d)
    if k == l:
        out = 0.5 * (np.eye(2 * d) + _sigma_matrix(basis, n)) @ out
    return _colspace(out)


_SPAN_GRID = [
    (2, 1, (0.0,), 8),
    (2, 1, (1.0,), 8),
    (3, 2, (1.0, 0.5), 8),
    (3, 1, (1.0, 0.5), 8),
    (3, 2, (0.0, 0.0), 8),
    (4, 3, (1.0, 0.41, 0.72), 5),
    (4, 1, (1.0, 0.41, 0.72), 5),
]


@pytest.mark.parametrize("n,r,lam,top", _SPAN_GRID)
def test_clause_table_spans_the_hand_written_clauses(n, r, lam, top):
    R = np.diag(lam)
    for nu in range(4, top + 1):
        for (k, l, m), B in remainder_bases(n, r, R, nu).items():
            ref = _slice_basis_ref(n, r, R, k, l, m)
            assert B.shape == ref.shape, (nu, k, l, m)
            assert np.abs(B @ B.T - ref @ ref.T).max(initial=0.0) <= 1e-12, (nu, k, l, m)


def test_33_clause_real_points_have_its_complex_dimension():
    """The (3, 3) clause V = ker D^2 + Q^2 z^n H_01 + Q^2 zbar^n H_10 is
    closed under conjugation, so its real points span it over C: the real
    slice basis lies in V and has V's complex dimension."""
    n, r, R, m = 3, 1, np.diag([1.0, 0.5]), 1
    trunc = 6 + 2 * m
    keys = type_basis(n, 3, 3, m)
    Q, _, zn, znb = _polys_ref(n, r, trunc, R)
    V = _colspace(
        np.column_stack(
            [
                _lap_null_ref(n, r, trunc, 3, 3, m, power=2),
                _times_ref(Q * Q * zn, type_basis(n, 0, 1, m), keys, n, trunc),
                _times_ref(Q * Q * znb, type_basis(n, 1, 0, m), keys, n, trunc),
            ]
        )
    )
    B = normal_slice_real_basis(n, r, R, 3, 3, m)
    C = B[: len(keys)] + 1j * B[len(keys) :]
    assert B.shape[1] == V.shape[1] < len(keys)
    assert np.abs(C - V @ (V.conj().T @ C)).max() <= 1e-12


@pytest.mark.parametrize("n,k", [(2, 1), (2, 3), (3, 2), (4, 3)])
def test_sigma_basis_spans_the_symmetric_real_points(n, k):
    """P P^t is the projector (I + S)/2 onto the fixed points of the
    conjugate flip S, and P has orthonormal columns."""
    P = _sigma_basis(n, k)
    d = len(mons(n, k)) ** 2
    S = _sigma_matrix(type_basis(n, k, k, 1), n)
    assert P.shape == (2 * d, d)
    assert np.abs(P @ P.T - 0.5 * (np.eye(2 * d) + S)).max() <= 1e-15
    assert np.abs(P.T @ P - np.eye(d)).max() <= 1e-15


@pytest.mark.parametrize("n,r,lam,top", _SPAN_GRID)
def test_slice_bases_are_orthonormal(n, r, lam, top):
    R = np.diag(lam)
    for nu in range(4, top + 1):
        for klm, B in remainder_bases(n, r, R, nu).items():
            assert np.abs(B.T @ B - np.eye(B.shape[1])).max(initial=0.0) <= 1e-12, (nu, klm)


@pytest.mark.parametrize("r", [3, 1])
@pytest.mark.parametrize("nu", [6, 7])
def test_large_n4_slices_span_the_hand_written_clauses(nu, r):
    """The n = 4 slices at nu = 6, 7: the unlisted (4,3,0) and (5,2,0),
    where the basis is the identity, and the listed (3,3,0) and (4,2,0),
    orthonormalized in sigma coordinates or as complex columns."""
    R = np.diag([1.0, 0.41, 0.72])
    for (k, l, m), B in remainder_bases(4, r, R, nu).items():
        ref = _slice_basis_ref(4, r, R, k, l, m)
        assert B.shape == ref.shape, (k, l, m)
        assert np.abs(B @ B.T - ref @ ref.T).max(initial=0.0) <= 1e-12, (k, l, m)
