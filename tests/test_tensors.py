import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crnf.hypersurfaces import GenericSubmanifold, Hypersurface, flat, model_D, sphere
from crnf.parser import parse_expression
from crnf.fischer import mons
from crnf.series import MixedSeries
from crnf.linalg import orthonormal_basis, principal_angle_gap
from crnf.tensors import (
    E_spaces,
    F_space,
    Subspace,
    _value0,
    _words,
    apply_word,
    basis_change,
    cr_frame,
    cubic_form,
    frame_residual,
    gradient_spans,
    levi_matrix,
    nondegeneracy,
    psi,
    random_frame,
    tensors_report,
    third_tensor,
    vbar_basis,
)
from conftest import perturbed_model, random_real_perturbation


def test_frame_annihilates_defining_series():
    M = model_D(3, 6, (1.0, 0.5)).to_generic()
    frame = cr_frame(M)
    assert frame_residual(M, frame) < 1e-10


def test_codimension_two_frame_and_nondegeneracy():
    """Generic submanifold of C^4 (z1, z2, w1, w2) with two defining series."""
    N, T = 4, 6
    z1, z2, w1, w2 = [MixedSeries.variable(N, T, "z", k + 1) for k in range(N)]
    zb1, zb2, wb1, wb2 = [MixedSeries.variable(N, T, "zb", k + 1) for k in range(N)]
    # rho_l = -im w_l + ..., with -im w = (i/2)(w - wbar)
    rho1 = 0.5j * (w1 - wb1) + z1 * zb1 + (0.3 * z1 * z2 * wb2).re_part()
    rho1 = rho1 + (0.2 * z2 * wb1 * wb2).re_part()
    rho2 = 0.5j * (w2 - wb2) + z2 * zb2 + (0.4 * z1 * wb1 * zb2).re_part()
    rho2 = rho2 + (0.1j * w1 * wb2 * zb1).re_part()
    M = GenericSubmanifold([rho1, rho2])
    frame = cr_frame(M)
    assert frame_residual(M, frame) < 1e-10
    assert [E.dim for E in E_spaces(M, 3, frame)] == [2, 4, 4, 4]
    assert nondegeneracy(M, 3) == 1


def test_sphere_levi_is_identity():
    g = levi_matrix(sphere(2, 6))
    assert np.linalg.norm(g - np.eye(2)) < 1e-12


def test_model_levi_pattern():
    g = levi_matrix(model_D(3, 6, (1.0, 0.5)))
    assert np.linalg.norm(g - np.diag([1.0, 1.0, 0.0])) < 1e-9


def test_model_third_tensor_matrix():
    M = model_D(3, 6, (1.0, 0.5))
    t = third_tensor(M)
    H = t.components[:, :, 0, 0]
    target = np.diag([1.0, 0.5, 1.0])
    assert np.max(np.abs(H - target)) < 1e-9


def test_psi_symmetry_in_first_slots():
    M = model_D(3, 6, (1.0, 0.5)).to_generic()
    t = psi(M, 2)
    c = t.components
    assert np.max(np.abs(c - np.swapaxes(c, 0, 1))) < 1e-9


def _field_apply(X, F: MixedSeries) -> MixedSeries:
    """Apply a (2N)-component vector field (over d/dZ then d/dZbar) to F."""
    N = F.n
    out = MixedSeries.zero(N, F.trunc)
    for m in range(N):
        if X[m].norm():
            out = out + X[m] * F.diff("z", m + 1)
        if X[N + m].norm():
            out = out + X[N + m] * F.diff("zb", m + 1)
    return out


def _bracket(X, Y):
    """Lie bracket of two vector fields given by 2N coefficient series."""
    return [_field_apply(X, Ym) - _field_apply(Y, Xm) for Xm, Ym in zip(X, Y)]


def bracket_cubic_form(M):
    """Oracle for cubic_form: q(L_a, L_b, N) = <d rho, [L_b, [L_a, N]]> at 0
    from nested brackets of the frame fields, with N running over F_1.
    The constant -i/4 relates the raw pairing to the normalization
    q = (i/2) h on a hypersurface in third-order normal form."""
    Mg = M.to_generic()
    frame = cr_frame(Mg)
    n, N = Mg.n, Mg.N
    F = F_space(Mg, E_spaces(Mg, 1, frame)[1], frame)
    zero2N = [MixedSeries.zero(N, Mg.trunc) for _ in range(2 * N)]
    # frame fields (antiholomorphic part only) and their conjugates
    # (holomorphic part only) as 2N-component vectors
    Lbar = [zero2N[:N] + list(coeffs) for coeffs in frame.L]
    Lconj = [[c.conj() for c in coeffs] + zero2N[N:] for coeffs in frame.L]
    # F_1 vectors expressed in the conjugate frame: F.basis = Vbar @ cvec
    cvecs, *_ = np.linalg.lstsq(vbar_basis(frame), F.basis, rcond=None)
    rho_z0 = _value0([Mg.rho_z(1, m + 1) for m in range(N)])
    comp = np.zeros((n, n, F.dim, 1), dtype=complex)
    for f in range(F.dim):
        Nf = list(zero2N)
        for b in range(n):
            cb = complex(cvecs[b, f])
            if abs(cb) > 1e-15:
                Nf = [X + cb * Y for X, Y in zip(Nf, Lconj[b])]
        for al in range(n):
            inner = _bracket(Lbar[al], Nf)
            for be in range(n):
                outer = _bracket(Lbar[be], inner)
                comp[al, be, f, 0] = -0.25j * (_value0(outer[:N]) @ rho_z0)
    return comp


def nonlinear_change(M, rng, amp=0.3):
    """The hypersurface M moved by z -> z + (random terms of degree 1 to 3
    in z), which changes its cubic terms."""
    n, T = M.n, M.phi.trunc
    zs = []
    for k in range(n):
        f = MixedSeries.variable(n, T, "z", k + 1)
        for d in (1, 2, 3):
            for a in mons(n, d):
                c = amp * (rng.normal() + 1j * rng.normal())
                f = f + MixedSeries.monomial(n, T, a, (0,) * n, 0, c)
        zs.append(f)
    return Hypersurface(M.phi.subs(z=zs, zb=[f.conj() for f in zs]))


def test_cubic_form_matches_third_tensor():
    M = model_D(3, 6, (1.0, 0.5))
    h = third_tensor(M).components[:, :, 0, 0]
    q = cubic_form(M).components[:, :, 0, 0]
    assert np.max(np.abs(q - 0.5j * h)) < 1e-8
    # the nested-bracket oracle agrees with (i/2) third_tensor on models and
    # on perturbed models moved by nonlinear maps
    rng = np.random.default_rng(11)
    for n, lam in [(2, (1.0,)), (2, (0.0,)), (3, (1.0, 0.5))]:
        inputs = [model_D(n, 5, lam)]
        for seed in (1, 2):
            inputs.append(nonlinear_change(perturbed_model(n, 5, lam, seed=seed, amp=0.03), rng))
        for M in inputs:
            h = third_tensor(M).components
            assert h.shape == (n, n, 1, 1)
            oracle = bracket_cubic_form(M)
            assert np.max(np.abs(oracle - 0.5j * h)) <= 1e-12 * max(1.0, np.max(np.abs(h)))
            assert np.array_equal(cubic_form(M).components, 0.5j * h)


def test_nondegeneracy_orders():
    assert nondegeneracy(sphere(2, 6).to_generic(), 3) == 1
    assert nondegeneracy(model_D(2, 6, (0.0,)).to_generic(), 3) == 2
    assert nondegeneracy(flat(2, 12).to_generic(), 5) is None


def test_frame_independence_of_E_spaces(rng):
    M = perturbed_model(2, 6, (1.0,), seed=5, amp=0.03).to_generic()
    base = cr_frame(M)
    Es1 = E_spaces(M, 2, base)
    Es2 = E_spaces(M, 2, random_frame(M, rng, base))
    for E1, E2 in zip(Es1, Es2):
        assert E1.dim == E2.dim
        if E1.dim:
            assert principal_angle_gap(E1.basis, E2.basis) < 1e-8


def test_word_spans_match_gradient_spans(rng):
    for seed in range(5):
        M = perturbed_model(2, 6, (1.0,), seed=seed, amp=0.03).to_generic()
        Es = E_spaces(M, 2)
        Gs = gradient_spans(M, 2)
        for E, G in zip(Es, Gs):
            assert E.dim == G.dim
            if E.dim:
                assert principal_angle_gap(E.basis, G.basis) < 1e-8


def test_basis_change_covariance():
    M = model_D(3, 6, (1.0, 0.5))
    t = psi(M.to_generic(), 1)
    B = np.diag([2.0, 1.0, 1.0]).astype(complex)
    t2 = basis_change(t, B, 1.0)
    g = t.components[:, :, 0]
    g2 = t2.components[:, :, 0]
    assert np.max(np.abs(g2 - B @ g @ B.conj().T)) < 1e-9 or np.max(
        np.abs(g2 - B.conj().T @ g @ B)
    ) < 1e-9


def test_tensors_report_sphere():
    rep = tensors_report(sphere(2, 6))
    assert rep["k_nondeg"] == 1


def test_tensors_report_builds_the_frame_once(monkeypatch):
    module = sys.modules["crnf.tensors"]
    orig = module.cr_frame
    calls = []

    def counted(M, *args, **kwargs):
        calls.append(M)
        return orig(M, *args, **kwargs)

    monkeypatch.setattr(module, "cr_frame", counted)
    rep = tensors_report(model_D(2, 6, (1.0,)), kmax=3)
    assert len(rep["psi"]) == 3
    assert len(calls) == 1


def linear_change(M, A):
    """The hypersurface M moved by z -> A z."""
    n, T = M.n, M.phi.trunc
    z = [MixedSeries.variable(n, T, "z", k + 1) for k in range(n)]
    zs = [sum((complex(A[i, k]) * z[k] for k in range(n)), MixedSeries.zero(n, T)) for i in range(n)]
    return Hypersurface(M.phi.subs(z=zs, zb=[f.conj() for f in zs]))


def word_by_word_psi(M, j, frame):
    """psi_j with every word applied from scratch by apply_word.  E_{j-1}
    is spanned by the same values, listed in the order of the word tree
    (level by level, each word after the words it extends)."""
    n, d, N = M.n, M.d, M.N

    def values(w):
        return [
            _value0([apply_word(frame, w, M.rho_z(l + 1, m + 1)) for m in range(N)])
            for l in range(d)
        ]

    vectors = [2j * v for v in values(())]
    for jl in range(1, j):
        for w in _words(n, jl):
            vectors += values(w[::-1])
    F = F_space(M, Subspace(N, orthonormal_basis(vectors)), frame)
    comp = np.zeros((n,) * j + (F.dim, d), dtype=complex)
    fac = 1.0 / math.factorial(j)
    for w in _words(n, j):
        for l, xi in enumerate(values(w)):
            for f in range(F.dim):
                comp[tuple(k - 1 for k in w) + (f, l)] = fac * (xi @ F.basis[:, f])
    return comp


def test_psi_matches_word_by_word_oracle():
    rng = np.random.default_rng(7)
    phi = parse_expression("z1*zb1 + zb2*z2^3 + z2*zb2^3", 6)
    M = Hypersurface(phi + random_real_perturbation(2, 6, rng, amp=0.03, min_deg=5))
    A = np.array([[1.0, 0.3 - 0.2j], [0.1j, 0.8]])
    Mg = linear_change(M, A).to_generic()
    frame = cr_frame(Mg)
    for j in (1, 2, 3):
        t = psi(Mg, j, frame)
        assert t.components.size  # psi_3 is nontrivial on this input
        assert np.array_equal(t.components, word_by_word_psi(Mg, j, frame))


@pytest.mark.parametrize(
    "M, calls", [(model_D(2, 6, (1.0,)), 42), (model_D(3, 6, (1.0, 0.5)), 156)]
)
def test_tensors_report_applies_each_field_once_per_word(monkeypatch, M, calls):
    module = sys.modules["crnf.tensors"]
    orig = module.apply_field_bar
    count = []

    def counted(*args):
        count.append(1)
        return orig(*args)

    monkeypatch.setattr(module, "apply_field_bar", counted)
    tensors_report(M, kmax=3)
    # one field per word of length 1..3, for each of the N components of d rho
    assert len(count) == calls


@settings(max_examples=8, deadline=None)
@given(
    lam=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
    entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
)
def test_E_dims_and_nondegeneracy_invariant_under_linear_change(lam, seed, entries):
    e = np.array(entries)
    A = np.eye(2) + 0.5 * (e[:4] + 1j * e[4:]).reshape(2, 2)
    assume(np.linalg.cond(A) < 10.0)
    M = perturbed_model(2, 6, (lam,), seed=seed, amp=0.03)
    before, after = tensors_report(M), tensors_report(linear_change(M, A))
    assert after["dims_E"] == before["dims_E"]
    assert after["k_nondeg"] == before["k_nondeg"]
