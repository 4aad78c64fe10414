import numpy as np
import pytest

from crnf.series import MixedSeries
from crnf.hypersurfaces import Hypersurface, model_D, sphere
from crnf.maps import FormalMap, apply_map, to_regular


def test_identity_and_compose():
    I = FormalMap.identity(2, 6)
    L = FormalMap.linear(np.diag([2.0, 3.0]), 4.0, 6)
    assert L.compose(I).distance(L) < 1e-14
    assert I.compose(L).distance(L) < 1e-14


def test_inverse_round_trip(rng):
    n, T = 2, 8
    I = FormalMap.identity(n, T)
    fs = [
        I.fs[0] + MixedSeries.monomial(n, T, (2, 0), (0, 0), 0, 0.3 + 0.1j),
        I.fs[1] + MixedSeries.monomial(n, T, (0, 1), (0, 0), 1, 0.2j),
    ]
    g = 2.0 * I.g + MixedSeries.monomial(n, T, (1, 1), (0, 0), 0, 0.5)
    Tm = FormalMap(fs, g)
    S = Tm.inverse()
    assert Tm.compose(S).distance(FormalMap.identity(n, T)) < 1e-10
    assert S.compose(Tm).distance(FormalMap.identity(n, T)) < 1e-10


@pytest.mark.parametrize("trunc", [6, 10])
def test_inverse_with_w_in_f_and_z_squared_in_g(trunc):
    # (z1 + 0.3 w, z2; w + 0.3 z1^2): an f correction feeds g one degree up
    n = 2
    I = FormalMap.identity(n, trunc)
    z1 = I.fs[0]
    Tm = FormalMap([z1 + 0.3 * I.g, I.fs[1]], I.g + 0.3 * (z1 * z1))
    S = Tm.inverse()
    assert Tm.compose(S).distance(I) < 1e-12
    assert S.compose(Tm).distance(I) < 1e-12


def test_inverse_of_random_coupled_maps():
    n, trunc = 2, 6
    I = FormalMap.identity(n, trunc)
    rng = np.random.default_rng(5)

    def cn(size=None):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    for _ in range(30):
        A = np.eye(n) + 0.3 * cn((n, n))
        fs = [
            sum((A[i, j] * I.fs[j] for j in range(n)), 0.3 * cn() * I.g)
            + 0.3 * cn() * (I.fs[0] * I.fs[1])
            for i in range(n)
        ]
        g = (1 + 0.3 * cn()) * I.g
        for a in [(2, 0), (1, 1), (0, 2), (1, 0)]:
            g = g + MixedSeries.monomial(n, trunc, a, (0, 0), sum(a) == 1, 0.3 * cn())
        Tm = FormalMap(fs, g)
        assert Tm.compose(Tm.inverse()).distance(I) < 1e-9


def test_noninvertible_rejected():
    n, T = 2, 6
    I = FormalMap.identity(n, T)
    Tm = FormalMap([I.fs[0], I.fs[0]], I.g, check=False)
    with pytest.raises(ValueError):
        Tm.inverse()


def test_apply_linear_map_to_sphere():
    M = sphere(2, 6)
    # z -> z/sqrt(2), w -> w/2 preserves im w = |z|^2
    Tm = FormalMap.linear(np.eye(2) / np.sqrt(2.0), 0.5, 6)
    out = apply_map(M, Tm)
    assert (out.phi - M.phi).norm() < 1e-10


def test_apply_map_requires_real_w_coefficient():
    M = sphere(2, 6)
    Tm = FormalMap.linear(np.eye(2), 1j, 6)
    with pytest.raises(ValueError):
        apply_map(M, Tm)


def test_apply_map_composes(rng):
    n, T = 2, 8
    M = model_D(n, T, (1.0,))
    I = FormalMap.identity(n, T)
    T1 = FormalMap(
        [I.fs[0] + MixedSeries.monomial(n, T, (2, 0), (0, 0), 0, 0.1), I.fs[1]], I.g
    )
    T2 = FormalMap(
        [I.fs[0], I.fs[1]], I.g + MixedSeries.monomial(n, T, (0, 4), (0, 0), 0, 0.05)
    )
    lhs = apply_map(apply_map(M, T1), T2)
    rhs = apply_map(M, T2.compose(T1))
    assert (lhs.phi - rhs.phi).norm() < 1e-9


def test_to_regular_removes_pure_terms():
    n, T = 2, 6
    M0 = sphere(n, T)
    phi = M0.phi + (
        MixedSeries.monomial(n, T, (3, 0), (0, 0), 0, 0.5j)
        + MixedSeries.monomial(n, T, (0, 0), (3, 0), 0, -0.5j)
    )
    M = Hypersurface(phi)
    reg, Tm = to_regular(M)
    pure = {
        k: v
        for k, v in reg.phi.coeffs.items()
        if not any(k[n : 2 * n]) or not any(k[:n])
    }
    assert max((abs(v) for v in pure.values()), default=0.0) < 1e-10
    assert (apply_map(M, Tm).phi - reg.phi).norm() < 1e-10


def test_map_json_round_trip():
    n, T = 2, 6
    I = FormalMap.identity(n, T)
    Tm = FormalMap(
        [I.fs[0] + MixedSeries.monomial(n, T, (1, 1), (0, 0), 0, 1j), I.fs[1]],
        I.g + MixedSeries.monomial(n, T, (2, 0), (0, 0), 1, 0.25),
    )
    back = FormalMap.from_json_dict(Tm.to_json_dict())
    assert Tm.distance(back) == 0.0


def test_map_components_cannot_depend_on_zbar():
    n, T = 2, 6
    I = FormalMap.identity(n, T)
    with pytest.raises(ValueError):
        FormalMap([I.fs[0] + MixedSeries.monomial(n, T, (1, 0), (0, 1), 0, 0.1), I.fs[1]], I.g)
