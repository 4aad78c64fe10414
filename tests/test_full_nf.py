import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from crnf.series import MixedSeries
from crnf.fischer import mons, type_basis
from crnf.hypersurfaces import (
    Hypersurface,
    hermitian_quadric,
    model_D,
    model_hypersurface,
    p_R_poly,
    sphere,
)
from crnf.maps import FormalMap, apply_map
from crnf.normal_space import (
    eps_signs,
    is_in_normal_space,
    normal_slice_real_basis,
    project_normal,
)
from crnf import full_nf
from crnf.full_nf import (
    NormalFormError,
    NormalizationP,
    _LSystem,
    _factor,
    _get_system,
    _unknown_monomials,
    check_G0,
    detect_model,
    factor_map,
    model_phi,
    normal_form,
    normalization_algebra,
    solve_L,
    validate_P,
)
from crnf.partial_nf import aut_dim_bound
from conftest import perturbed_model, random_real_perturbation

# (n, lambda) of the frozen dimension table of acceptance criterion 6
ORACLE_CASES = [
    (2, (0.0,)),
    (2, (1.0,)),
    (3, (0.0, 0.0)),
    (3, (1.0, 0.0)),
    (3, (1.0, 0.5)),
    (3, (1.0, 1.0)),
    (4, (0.0, 0.0, 0.0)),
    (4, (1.0, 0.5, 0.25)),
    (4, (1.0, 1.0, 1.0)),
    (4, (1.0, 1.0, 0.0)),
    (4, (1.0, 0.0, 0.0)),
    (4, (1.0, 1.0, 0.5)),
]
_u = np.random.default_rng(31).uniform(0.05, 0.95, size=(5, 2))
RANDOM_CASES = [(3, (1.0, u[0])) for u in _u[:2]] + [(4, (1.0, *u)) for u in _u[2:]]


class TestValidateP:
    def test_identity_is_valid(self):
        P = NormalizationP.identity(3)
        assert validate_P(P, 2, np.diag([1.0, 0.5]))

    def test_unitary_orthogonal_linear_part(self):
        P = NormalizationP.identity(3)
        P.A = np.diag([-1.0, 1.0]).astype(complex)  # unitary and preserves R
        P.B = np.array([0.3 + 1j, -2.0])
        assert validate_P(P, 2, np.diag([1.0, 0.5]))

    def test_scaling_violation_rejected(self):
        P = NormalizationP.identity(3)
        P.A = 2.0 * np.eye(2, dtype=complex)
        assert not validate_P(P, 2, np.diag([1.0, 0.5]))

    def test_zero_c_rejected(self):
        P = NormalizationP.identity(2)
        P.c = 0.0
        assert not validate_P(P, 1, np.diag([1.0]))

    def test_lambda_zero_allows_dilation(self):
        P = NormalizationP.identity(2)
        P.c = 4.0
        P.A = 2.0 * np.eye(1, dtype=complex)
        assert validate_P(P, 1, np.diag([0.0]))

    def test_json_round_trip(self):
        P = NormalizationP.identity(3)
        P.B = np.array([1j, 0.5])
        P.d2 = P.d2 + 0.25
        Q = NormalizationP.from_json_dict(P.to_json_dict())
        assert Q.n == P.n and np.allclose(Q.B, P.B) and np.allclose(Q.d2, P.d2)


class TestNormalizationAlgebra:
    @pytest.mark.parametrize("n, lam", ORACLE_CASES + RANDOM_CASES)
    def test_dimension_plus_free_parameters_is_aut_dim_bound(self, n, lam):
        Xs, taus = normalization_algebra(n - 1, np.diag(lam))
        P = NormalizationP.identity(n)
        # real dimensions of B, a3, d2 (complex), bl (strict lower), cdiag (real)
        free = 2 * (P.B.size + P.a3.size + P.d2.size) + (n - 1) * (n - 2) + n - 1
        assert len(taus) + free == aut_dim_bound(n, lam)

    @pytest.mark.parametrize("r", [0, 1, 2])
    def test_exponentials_satisfy_the_group_conditions(self, r, rng):
        R = np.array([[1.0, 0.3], [0.3, 0.5]]) if r == 2 else np.diag([1.0, 0.0])
        Xs, taus = normalization_algebra(r, R)
        for _ in range(5):
            a = rng.normal(size=len(taus))
            P = NormalizationP.identity(3)
            P.c = float(np.exp(a @ taus))
            P.A = scipy.linalg.expm(np.tensordot(a, Xs, 1))
            assert validate_P(P, r, R)


class TestCheckG0:
    def test_identity(self):
        assert check_G0(FormalMap.identity(2, 8))

    def test_cubic_constant_rejected(self):
        n, T = 2, 8
        I = FormalMap.identity(n, T)
        Tm = FormalMap(
            [I.fs[0] + MixedSeries.monomial(n, T, (3, 0), (0, 0), 0, 0.1), I.fs[1]], I.g
        )
        assert not check_G0(Tm)

    def test_quadratic_fn_constant_rejected(self):
        n, T = 2, 8
        I = FormalMap.identity(n, T)
        Tm = FormalMap(
            [I.fs[0], I.fs[1] + MixedSeries.monomial(n, T, (2, 0), (0, 0), 0, 0.1)], I.g
        )
        assert not check_G0(Tm)

    def test_real_diagonal_zw_rejected_imag_allowed(self):
        n, T = 2, 8
        I = FormalMap.identity(n, T)
        bad = FormalMap(
            [I.fs[0] + MixedSeries.monomial(n, T, (1, 0), (0, 0), 1, 0.1), I.fs[1]], I.g
        )
        good = FormalMap(
            [I.fs[0] + MixedSeries.monomial(n, T, (1, 0), (0, 0), 1, 0.1j), I.fs[1]], I.g
        )
        assert not check_G0(bad)
        assert check_G0(good)

    @pytest.mark.parametrize("n", [2, 3])
    def test_table_driven_check_matches_rule_oracle(self, n):
        """check_G0 agrees with the rules written out term by term on
        identity + c * monomial, for every monomial of every component."""
        trunc = 7
        I = FormalMap.identity(n, trunc)
        cs = [0.3, 0.3j, 2e-9, 2e-9j, 5e-10, 5e-10j, 1e-12, 1e-12j, 0.3 + 5e-10j]
        cases = 0
        for i in range(n + 1):
            for j in range(trunc // 2 + 1):
                for d in range(trunc - 2 * j + 1):
                    for a in mons(n, d):
                        for c in cs:
                            comps = I.fs + [I.g]
                            comps[i] = comps[i] + MixedSeries.monomial(n, trunc, a, (0,) * n, j, c)
                            T = FormalMap(comps[:n], comps[n], check=False)
                            assert check_G0(T) == _check_G0_rules(T), (i, a, j, c)
                            cases += 1
        assert cases == {2: 1890, 3: 7200}[n]


def _check_G0_rules(T, tol=1e-9):
    """Oracle for check_G0: the gauge rules written out one by one."""
    n = T.n
    A, c = T.jacobian0()
    if np.linalg.norm(A - np.eye(n)) > tol or abs(c - 1.0) > tol:
        return False
    zero = (0,) * n
    ident = FormalMap.identity(n, T.trunc)
    fs = [f - i for f, i in zip(T.fs, ident.fs)]
    g = T.g - ident.g
    md = g.min_wdeg()
    if md is not None and md < 4:
        return False
    mdn = fs[n - 1].min_wdeg()
    if mdn is not None and mdn < 2:
        return False
    for b in range(n - 1):
        mdb = fs[b].min_wdeg()
        if mdb is not None and mdb < 3:
            return False
        for J in mons(n, 3):
            if abs(fs[b].coeff(J, zero, 0)) > tol:
                return False
        for a in range(n - 1):
            e = [0] * n
            e[a] = 1
            v = fs[b].coeff(tuple(e), zero, 1)
            if a < b and abs(v) > tol:
                return False
            if a == b and abs(v.real) > tol:
                return False
    for I in mons(n, 2):
        if abs(fs[n - 1].coeff(I, zero, 0)) > tol:
            return False
    return True


class TestDetectModel:
    def test_model_detected(self):
        r, R = detect_model(model_D(3, 8, (1.0, 0.5)))
        assert r == 2
        assert np.max(np.abs(R - np.diag([1.0, 0.5]))) < 1e-12

    def test_sphere_rejected(self):
        with pytest.raises(ValueError):
            detect_model(sphere(2, 8))

    def test_missing_cubic_rejected(self):
        n, T = 2, 8
        from crnf.hypersurfaces import hermitian_quadric

        M = Hypersurface(hermitian_quadric(n, T, r=1, s=0))
        with pytest.raises(ValueError):
            detect_model(M)


class TestSolveL:
    def test_pure_type_forces_g(self):
        """For a purely (k,0) + (0,k) input with k >= 3 the only
        contribution is from Re(i g), so g_k = -2i F_{k0} exactly.
        (For k = 2 the conjugate of the p_R f^n term also lands in type
        (2,0), so the identity holds only in the k >= 3 branch.)"""
        n = 2
        for a, m in [((3, 1), 0), ((2, 1), 1)]:
            c = 0.7 - 0.2j
            F = (
                MixedSeries.monomial(n, 8, a, (0,) * n, m, c)
                + MixedSeries.monomial(n, 8, (0,) * n, a, m, np.conj(c))
            )
            sol = solve_L(F, 1, np.diag([1.0]))
            assert abs(sol.g.coeff(a, (0,) * n, m) - (-2j * c)) < 1e-9
            assert sol.N.norm() < 1e-9

    def test_weighted_homogeneity_required(self):
        n = 2
        F = (
            MixedSeries.monomial(n, 8, (2, 2), (0, 0), 0, 1.0).realified()
            + MixedSeries.monomial(n, 8, (3, 2), (0, 0), 0, 1.0).realified()
        )
        with pytest.raises(ValueError):
            solve_L(F, 1, np.diag([1.0]))

    def test_reality_required(self):
        n = 2
        F = MixedSeries.monomial(n, 8, (2, 2), (0, 0), 0, 1.0)
        with pytest.raises(ValueError):
            solve_L(F, 1, np.diag([1.0]))

    @pytest.mark.parametrize(
        "n,lam", [(2, (0.0,)), (2, (1.0,)), (3, (1.0, 0.5))]
    )
    def test_solution_solves_the_equation(self, n, lam, rng):
        """Applying the solved map must leave exactly the remainder N at
        that degree."""
        trunc = 8
        R = np.diag(lam)
        M0 = model_D(n, trunc, lam)
        for nu in (4, 5):
            F = random_real_perturbation(
                n, trunc, rng, nterms=40, min_deg=nu
            ).weighted_component(nu)
            if F.norm() == 0:
                continue
            sol = solve_L(F, n - 1, R)
            assert sol.sigma_min > 1e-8 * sol.sigma_max
            assert sol.residual < 1e-9 * max(1.0, F.norm())
            M = Hypersurface(M0.phi + F)
            out = apply_map(M, sol.to_map(trunc))
            D = (out.phi - M0.phi).weighted_component(nu)
            assert (D - sol.N).norm() < 1e-9 * max(1.0, F.norm())
            assert is_in_normal_space(sol.N, n - 1, R)

    @pytest.mark.parametrize("nu", [4, 5])
    def test_remainder_matches_slice_expansion_n4(self, nu, rng):
        """N read back from the solved n = 4 system equals the remainder
        coordinates expanded slice by slice through the stacked bases."""
        n, R = 4, np.diag([1.0, 0.6, 0.3])
        coeffs = {}
        for k in range(nu + 1):
            for l in range(nu + 1 - k):
                if (nu - k - l) % 2 == 0:
                    for key in type_basis(n, k, l, (nu - k - l) // 2):
                        coeffs[key] = rng.normal() + 1j * rng.normal()
        F = MixedSeries(n, nu, coeffs).realified()
        sol = solve_L(F, n - 1, R)

        sys_ = _get_system(n, n - 1, R, nu)
        x = sys_.lu.solve(sys_.rhs_of(F))
        col = len(sys_.unknowns)
        N = {}
        for k in range(1, nu + 1):
            for l in range(1, k + 1):
                if nu - k - l < 0 or (nu - k - l) % 2:
                    continue
                m = (nu - k - l) // 2
                basis = type_basis(n, k, l, m)
                d = len(basis)
                B = normal_slice_real_basis(n, n - 1, R, k, l, m)
                xs = x[col : col + B.shape[1]]
                col += B.shape[1]
                for key, c in zip(basis, B[:d] @ xs + 1j * (B[d:] @ xs)):
                    N[key] = N.get(key, 0.0) + c
                    if k != l:
                        ck = key[n : 2 * n] + key[:n] + (m,)
                        N[ck] = N.get(ck, 0.0) + np.conj(c)
        assert col == sys_.mat.shape[1]
        oracle = MixedSeries(n, nu, N)
        assert oracle.norm() > 0
        assert (sol.N - oracle).norm() <= 1e-12 * max(1.0, oracle.norm())
        assert is_in_normal_space(sol.N, n - 1, R)
        assert sol.residual < 1e-9


def _with_singular_values(s, seed=0):
    """Q1 diag(s) Q2^t as a sparse CSC matrix, Q1, Q2 random orthogonal."""
    rng = np.random.default_rng(seed)
    Q1, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    Q2, _ = np.linalg.qr(rng.normal(size=(len(s), len(s))))
    return scipy.sparse.csc_array(Q1 @ np.diag(s) @ Q2.T)


def _random_homogeneous(n, nu, rng):
    """Real series with a random coefficient on every monomial of weighted
    degree nu."""
    coeffs = {}
    for k in range(nu + 1):
        for l in range(nu + 1 - k):
            if (nu - k - l) % 2 == 0:
                for key in type_basis(n, k, l, (nu - k - l) // 2):
                    coeffs[key] = rng.normal() + 1j * rng.normal()
    return MixedSeries(n, nu, coeffs).realified()


# (n, lambda, nu, r): every system at r = n - 1 and at one r < n - 1
SPARSE_ORACLE_SYSTEMS = [
    pytest.param(n, lam, nu, r, id=f"n{n}-r{r}-nu{nu}")
    for n, lam, nus in [
        (2, (1.0,), range(4, 11)),
        (3, (1.0, 0.37), range(4, 9)),
        (4, (1.0, 0.41, 0.73), range(4, 6)),
    ]
    for r in (n - 1, (n - 1) // 2)
    for nu in nus
]


def _canonical_rows_ref(n, nu):
    """Canonical monomial keys at weighted degree nu with a >= b, plus a
    'self' flag; each key stands for one (a != b: two) real equations."""
    rows = []
    for m in range(nu // 2 + 1):
        d = nu - 2 * m
        for k in range(d + 1):
            l = d - k
            for a in mons(n, k):
                for b in mons(n, l):
                    if a > b or a == b:
                        rows.append((a + b + (m,), a == b))
    return rows


def _map_columns_ref(n, r, R, nu):
    """The map-unknown columns assembled from series products: for each
    unknown the series Re(c z^a W) is formed and its coefficients are
    placed by a dict from keys to rows.  Returns (unknowns, dense
    matrix)."""
    row_index, pos = {}, 0
    for key, selfconj in _canonical_rows_ref(n, nu):
        row_index[key] = (pos, selfconj)
        pos += 1 if selfconj else 2
    trunc = nu
    Q = hermitian_quadric(n, trunc, r=r, s=n - 1 - r)
    pr = p_R_poly(n, trunc, np.asarray(R, dtype=complex))
    prefix_fn = 2.0 * (
        pr.conj()
        + 2.0 * MixedSeries.variable(n, trunc, "z", n) * MixedSeries.variable(n, trunc, "zb", n)
    )
    zb = [MixedSeries.variable(n, trunc, "zb", j + 1) for j in range(n)]
    eps = eps_signs(n, r)
    svar = MixedSeries.variable(n, trunc, "s")
    sw = [MixedSeries.constant(n, trunc, 1.0)]
    for _ in range(nu // 2):
        sw.append(sw[-1] * (svar + 1j * Q))
    columns, unknowns = [], []
    for slot, comp, a, j, parts in _unknown_monomials(n, nu):
        za = MixedSeries.monomial(n, trunc, a, (0,) * n, 0)
        if slot == "fp":
            base = (2.0 * eps[comp]) * (za * zb[comp]) * sw[j]
        elif slot == "fn":
            base = prefix_fn * za * sw[j]
        else:
            base = 1j * (za * sw[j])
        for part in parts:
            term = (base if part == "x" else 1j * base).re_part()
            col = np.zeros(pos)
            for key, v in term.coeffs.items():
                if key[:n] >= key[n : 2 * n]:
                    p, selfconj = row_index[key]
                    col[p] = v.real
                    if not selfconj:
                        col[p + 1] = v.imag
            columns.append(col)
            unknowns.append((slot, comp, a, j, part))
    return unknowns, np.column_stack(columns)


class TestGradedSystem:
    def test_zero_column_is_singular(self):
        A = _with_singular_values(np.logspace(0, -2, 12)).toarray()
        A[:, 5] = 0.0
        with pytest.raises(NormalFormError, match="exactly singular"):
            _factor(scipy.sparse.csc_array(A), 4)

    def test_margin_below_the_gate_raises(self):
        with pytest.raises(NormalFormError, match="numerically singular"):
            _factor(_with_singular_values(np.logspace(0, -12, 12)), 4)

    def test_margin_above_the_gate_passes(self):
        A = _with_singular_values(np.logspace(0, -9, 12))
        lu, sigma_min, sigma_max = _factor(A, 4)
        assert sigma_max == pytest.approx(1.0, rel=1e-12)
        assert sigma_min == pytest.approx(1e-9, rel=1e-6)
        b = np.arange(12.0)
        x = lu.solve(b)
        # backward stable: the residual is small against |A| |x|, |A| = 1
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(x)

    def test_lanczos_failure_raises(self, monkeypatch):
        import scipy.sparse.linalg as sla

        def no_convergence(*args, **kwargs):
            raise sla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])

        monkeypatch.setattr(sla, "svds", no_convergence)
        with pytest.raises(NormalFormError, match="No convergence"):
            _factor(_with_singular_values(np.logspace(0, -2, 12)), 4)

    @pytest.mark.parametrize("n, lam, nu, r", SPARSE_ORACLE_SYSTEMS)
    def test_sparse_solver_matches_dense_oracle(self, n, lam, nu, r, monkeypatch):
        monkeypatch.setattr(full_nf, "_SYSTEM_CACHE", {})
        R = np.diag(lam)
        F = _random_homogeneous(n, nu, np.random.default_rng(nu))
        runs = []
        for _ in range(2):
            full_nf._SYSTEM_CACHE.clear()
            sol = solve_L(F, r, R)
            runs.append((sol.sigma_min, sol.sigma_max, sol.N.coeffs))
        # bitwise: the answer must not depend on the cache state
        assert runs[0] == runs[1]

        sys_ = _get_system(n, r, R, nu)
        A = sys_.mat.toarray()
        sv = np.linalg.svd(A, compute_uv=False)
        assert abs(sol.sigma_max - sv[0]) <= 1e-12 * sv[0]
        assert abs(sol.sigma_min - sv[-1]) <= 1e-12 * sv[-1]
        x = np.linalg.solve(A, sys_.rhs_of(F))
        k0 = len(sys_.unknowns)
        oracle = sys_.series_of(A[:, k0:] @ x[k0:], nu)
        assert oracle.norm() > 0
        assert (sol.N - oracle).norm() <= 1e-12 * max(1.0, oracle.norm())


class TestNormalForm:
    def test_model_is_fixed(self):
        M = model_D(2, 8, (1.0,))
        res = normal_form(M)
        assert res.N.norm() < 1e-12
        assert res.T.distance(FormalMap.identity(2, 8)) < 1e-12

    def test_already_normal_is_fixed(self):
        n, trunc = 2, 8
        lam = (1.0,)
        M = perturbed_model(n, trunc, lam, seed=3)
        res = normal_form(M)
        res2 = normal_form(res.M_out)
        assert res2.T.distance(FormalMap.identity(n, trunc)) < 1e-9
        assert (res2.N - res.N).norm() < 1e-9

    @pytest.mark.parametrize("n,lam", [(2, (0.0,)), (2, (1.0,)), (3, (1.0, 0.5))])
    def test_output_properties(self, n, lam):
        trunc = 8
        M = perturbed_model(n, trunc, lam, seed=7)
        res = normal_form(M)
        assert is_in_normal_space(res.N, res.r, res.R)
        assert check_G0(res.T)
        assert (apply_map(M, res.T).phi - res.M_out.phi).norm() < 1e-9
        assert (
            res.M_out.phi - model_phi(n, trunc, res.r, res.R) - res.N
        ).norm() < 1e-9
        for d in res.diagnostics:
            assert d["residual"] < 1e-8
            assert d["sigma_min"] > 0

    def test_deterministic(self):
        M = perturbed_model(2, 8, (1.0,), seed=9)
        r1, r2 = normal_form(M), normal_form(M)
        assert (r1.N - r2.N).norm() == 0.0
        assert r1.T.distance(r2.T) == 0.0

    def test_invalid_P_rejected(self):
        M = model_D(2, 8, (1.0,))
        P = NormalizationP.identity(2)
        P.A = 3.0 * np.eye(1, dtype=complex)
        with pytest.raises(ValueError):
            normal_form(M, P)

    def test_degree_bounds(self):
        M = model_D(2, 8, (1.0,))
        with pytest.raises(ValueError):
            normal_form(M, degree=9)
        with pytest.raises(ValueError):
            normal_form(M, degree=3)

    def test_non_remainder_defect_raises(self, monkeypatch):
        """A degree step that does not remove the non-remainder part of
        F_nu fails loudly."""
        monkeypatch.setattr(
            full_nf.GradedSolution, "to_map", lambda self, trunc: FormalMap.identity(self.fn.n, trunc)
        )
        with pytest.raises(NormalFormError, match="non-remainder defect"):
            normal_form(perturbed_model(2, 6, (1.0,), seed=4))

    def test_json_shape(self):
        res = normal_form(perturbed_model(2, 8, (1.0,), seed=4), degree=5)
        d = res.to_json_dict()
        assert set(d) == {"N", "T", "diagnostics"}
        rows = d["diagnostics"]["per_degree"]
        assert [row["nu"] for row in rows] == [4, 5]
        assert all(
            set(row) == {"nu", "dim", "sigma_min", "residual"} for row in rows
        )


class TestNormalizationMap:
    @pytest.mark.parametrize("n, r", [(3, 1), (4, 1), (4, 2)])
    def test_B_term_keeps_model_form_at_every_signature(self, n, r):
        # <Az', B>_{r,s} carries the signs of the Levi form
        R = np.diag([1.0, 0.5, 0.25][: n - 1])
        P = NormalizationP.identity(n)
        P.B = np.array([0.05, 0.03j, -0.02][: n - 1])
        assert validate_P(P, r, R)
        M = model_hypersurface(n, 4, R, s=n - 1 - r)
        r2, R2 = detect_model(apply_map(M, P.to_map(4, r)), 1e-9)
        assert r2 == r and np.max(np.abs(R2 - R)) < 1e-9

    def test_B_only_normalization_at_indefinite_signature(self):
        P = NormalizationP.identity(3)
        P.B = np.array([0.05, 0.03j])
        res = normal_form(model_hypersurface(3, 6, np.diag([1.0, 0.5]), s=1), P)
        assert (res.r, res.R.shape) == (1, (2, 2))
        assert is_in_normal_space(res.N, 1, res.R)


class TestFactorMap:
    def test_round_trip(self):
        n, trunc = 2, 8
        lam = (1.0,)
        P = NormalizationP.identity(n)
        P.B = np.array([0.2 - 0.1j])
        P.a3 = 0.1 * np.arange(P.a3.size).reshape(P.a3.shape) * (1 + 1j)
        P.cdiag = np.array([0.3])
        P.d2 = np.array([0.1j, 0.0, -0.2])
        assert validate_P(P, n - 1, np.diag(lam))
        I = FormalMap.identity(n, trunc)
        Tg = FormalMap(
            [I.fs[0] + MixedSeries.monomial(n, trunc, (2, 0), (0, 0), 1, 0.05j), I.fs[1]],
            I.g + MixedSeries.monomial(n, trunc, (4, 0), (0, 0), 0, 0.02),
        )
        assert check_G0(Tg)
        Phi = Tg.compose(P.to_map(trunc, n - 1))
        T2, P2 = factor_map(Phi, n - 1)
        assert check_G0(T2)
        assert abs(P2.c - P.c) < 1e-10
        assert np.max(np.abs(P2.A - P.A)) < 1e-10
        assert np.max(np.abs(P2.B - P.B)) < 1e-10
        assert np.max(np.abs(P2.a3 - P.a3)) < 1e-10
        assert np.max(np.abs(P2.cdiag - P.cdiag)) < 1e-10
        assert np.max(np.abs(P2.d2 - P.d2)) < 1e-10
        recomposed = T2.compose(P2.to_map(trunc, n - 1))
        assert recomposed.distance(Phi) < 1e-9


@pytest.mark.parametrize("n, lam, nu, r", SPARSE_ORACLE_SYSTEMS)
def test_map_columns_match_the_series_product_assembly(n, lam, nu, r):
    sys_ = _LSystem(n, r, np.diag(lam), nu)
    unknowns, ref = _map_columns_ref(n, r, np.diag(lam), nu)
    assert sys_.unknowns == unknowns
    k0 = len(unknowns)
    A = sys_.mat[:, :k0].toarray()
    assert A.shape == ref.shape
    assert np.abs(A - ref).max() <= 1e-15 * np.abs(ref).max()


def test_system_does_not_depend_on_which_nearby_R_came_first(monkeypatch):
    """Two R equal to 14 decimals share a cache entry; the system built
    for it is the same whichever of them is asked for first."""
    n, r, nu = 3, 2, 6
    R1 = np.diag([1.0, 0.41])
    R2 = R1.copy()
    R2[1, 1] += 3.3e-16
    monkeypatch.setattr(full_nf, "_SYSTEM_CACHE", {})
    built = []
    for first, second in ((R1, R2), (R2, R1)):
        full_nf._SYSTEM_CACHE.clear()
        sys_ = _get_system(n, r, first, nu)
        assert _get_system(n, r, second, nu) is sys_
        built.append(sys_)
    a, b = built
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a.mat, attr), getattr(b.mat, attr))
    assert a.bases.keys() == b.bases.keys()
    for klm in a.bases:
        assert np.array_equal(a.bases[klm], b.bases[klm]), klm
    assert (a.sigma_min, a.sigma_max) == (b.sigma_min, b.sigma_max)
