"""Third-order normalization of real hypersurfaces.

Pipeline: remove harmonic terms, diagonalize the Levi form to
diag(+1 x r, -1 x s, 0), remove the cubic coefficients coupling the
nondegenerate directions, and classify the residual symmetric matrix H
of third-order data.  For a semidefinite Levi form of rank n-1 the
classification is a strict trichotomy with a real invariant vector
lambda; a nonzero lower-right entry of H (gamma != 0) characterizes
generic Levi degeneracy and leads to the model form with matrix R,
canonicalized to D(lambda) in the definite case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .series import DEFAULT_TOL, STORE_TOL, MixedSeries, NormalFormError
from .hypersurfaces import Hypersurface
from .maps import FormalMap, apply_map, to_regular
from .linalg import hermitian_eig, takagi, matrix_to_json


# ---------------------------------------------------------------------------
# coefficient extraction


def levi_matrix_of(phi: MixedSeries):
    """Hermitian matrix g[alpha, beta] = coefficient of zbar^alpha z^beta."""
    n = phi.n
    g = np.zeros((n, n), dtype=complex)
    for al in range(n):
        for be in range(n):
            a = [0] * n
            b = [0] * n
            a[be] = 1
            b[al] = 1
            g[al, be] = phi.coeff(tuple(a), tuple(b), 0)
    return g


def cubic_coeffs(phi: MixedSeries):
    """Symmetric k[alpha, beta, mu] with the (1,2)-part of phi equal to
    sum k[a,b,m] zbar^a zbar^b z^m."""
    n = phi.n
    k = np.zeros((n, n, n), dtype=complex)
    for key, v in phi.coeffs.items():
        a, b, m = key[:n], key[n : 2 * n], key[2 * n]
        if m or sum(a) != 1 or sum(b) != 2:
            continue
        mu = a.index(1)
        idx = [i for i in range(n) for _ in range(b[i])]
        al, be = idx
        if al == be:
            k[al, al, mu] = v
        else:
            k[al, be, mu] = 0.5 * v
            k[be, al, mu] = 0.5 * v
    return k


def _eps_vector(n, r, s):
    e = np.zeros(n)
    e[:r] = 1.0
    e[r : r + s] = -1.0
    return e


def _is_diag_eps(g, r, s, tol):
    n = g.shape[0]
    return np.max(np.abs(g - np.diag(_eps_vector(n, r, s)))) <= tol


# ---------------------------------------------------------------------------
# third-order form


@dataclass
class ThirdOrderForm:
    M: Hypersurface
    map: FormalMap
    r: int
    s: int
    h: np.ndarray  # (n, n, n_kernel) symmetric in first two indices
    g: np.ndarray  # diagonal Levi matrix actually achieved


def third_order_form(M: Hypersurface, tol=DEFAULT_TOL) -> ThirdOrderForm:
    n, T = M.n, M.trunc
    cur, total = to_regular(M, tol)

    g = levi_matrix_of(cur.phi)
    scale = max(np.max(np.abs(g)), 1.0)
    w, V = hermitian_eig(g, tol)
    r = int(np.sum(w > tol * scale))
    s = int(np.sum(w < -tol * scale))
    if s > r:
        # flip the sign of w (an allowed change) to enforce r >= s
        Tf = FormalMap.linear(np.eye(n), -1.0, T)
        cur = apply_map(cur, Tf, tol)
        total = Tf.compose(total)
        g = levi_matrix_of(cur.phi)
        w, V = hermitian_eig(g, tol)
        r, s = s, r
    if not _is_diag_eps(g, r, s, tol):
        # columns ordered: positive, negative, kernel eigenvalues
        pos = [i for i in range(n) if w[i] > tol * scale]
        neg = [i for i in range(n) if w[i] < -tol * scale]
        ker = [i for i in range(n) if i not in pos and i not in neg]
        order = pos + neg + ker
        scl = np.array(
            [1.0 / np.sqrt(abs(w[i])) if abs(w[i]) > tol * scale else 1.0 for i in order]
        )
        Binv = V[:, order] * scl[None, :]
        Bmap = np.linalg.inv(Binv)
        Tl = FormalMap.linear(Bmap, 1.0, T)
        cur = apply_map(cur, Tl, tol)
        total = Tl.compose(total)

    cur, total = _kill_quadratic(cur, total, r, s, tol)

    h = cubic_coeffs(cur.phi)[:, :, r + s :]
    return ThirdOrderForm(cur, total, r, s, h, levi_matrix_of(cur.phi))


def _kill_quadratic(cur: Hypersurface, total: FormalMap, r, s, tol=DEFAULT_TOL):
    """Remove cubic coefficients k[.,.,mu] for nondegenerate directions mu."""
    n, T = cur.n, cur.trunc
    eps = _eps_vector(n, r, s)
    k = cubic_coeffs(cur.phi)
    if np.max(np.abs(k[:, :, : r + s]), initial=0.0) <= STORE_TOL:
        return cur, total
    fs = []
    for mu in range(n):
        f = MixedSeries.variable(n, T, "z", mu + 1)
        if mu < r + s:
            q = MixedSeries.zero(n, T)
            for al in range(n):
                for be in range(al, n):
                    c = np.conj(k[al, be, mu]) * eps[mu]
                    if al != be:
                        c = 2 * c
                    if abs(c) > STORE_TOL:
                        a = [0] * n
                        a[al] += 1
                        a[be] += 1
                        q = q + MixedSeries.monomial(n, T, a, (0,) * n, 0, c)
            f = f + q
        fs.append(f)
    Tq = FormalMap(fs, MixedSeries.variable(n, T, "s"))
    cur = apply_map(cur, Tq, tol)
    total = Tq.compose(total)
    k2 = cubic_coeffs(cur.phi)
    res = np.max(np.abs(k2[:, :, : r + s]), initial=0.0)
    if res > 1e3 * tol:
        raise NormalFormError(f"cubic normalization failed, residual {res:.3e}")
    return cur, total


# ---------------------------------------------------------------------------
# classification of the symmetric H matrix (Levi semidefinite, rank n-1)


@dataclass
class HClassification:
    case: str  # "i", "ii", "iii"
    lam: np.ndarray  # length n-1, descending, lam[0] in {0, 1}
    B: np.ndarray  # frame-change matrix [[V, c], [0, d]]
    a: float  # positive characteristic rescale
    H_target: np.ndarray

    @property
    def d(self):
        return self.B[-1, -1]


def _takagi_phase(E, phase, tol):
    """Takagi data of E after multiplying by a unit-modulus phase factor:
    returns (lam, U) with U E U^T = conj(phase) * diag(lam), lam >= 0."""
    m = E.shape[0]
    if m == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    tk = takagi(E, tol)
    # absorb the phase: (e^{i th} U) E (e^{i th} U)^T = e^{2 i th} diag(lam)
    th = 0.5 * np.angle(np.conj(phase))
    return tk.lam, np.exp(1j * th) * tk.U


def _unitary_sending_to_last(beta):
    """Unitary V1 with V1 beta = |beta| e_last."""
    m = len(beta)
    nb = np.linalg.norm(beta)
    v = np.asarray(beta, dtype=complex) / nb
    from .linalg import nullspace

    # orthonormal complement of v, then v^* as the last row
    comp = nullspace(v.conj()[None, :])
    V1 = np.zeros((m, m), dtype=complex)
    for j in range(m - 1):
        V1[j, :] = np.conj(comp[:, j])
    V1[-1, :] = np.conj(v)
    return V1


def classify_H(H, tol=DEFAULT_TOL) -> HClassification:
    """Classify a symmetric n x n matrix H (third-order data with the Levi
    form normalized to diag(1,...,1,0)) into the strict trichotomy, with
    the frame change realizing the target form."""
    H = np.asarray(H, dtype=complex)
    n = H.shape[0]
    if np.max(np.abs(H - H.T), initial=0.0) > tol * (1 + np.max(np.abs(H), initial=0.0)):
        raise ValueError("H must be symmetric")
    H = 0.5 * (H + H.T)
    m = n - 1
    A = H[:m, :m]
    beta = H[:m, n - 1]
    gamma = complex(H[n - 1, n - 1])
    scale = 1.0 + np.max(np.abs(H), initial=0.0)

    if abs(gamma) > tol * scale:
        # case (iii): decouple, cube-root scaling, symmetric diagonalization
        E = A - np.outer(beta, beta) / gamma
        tk = takagi(E, tol) if m else None
        lam_raw = tk.lam if m else np.zeros(0)
        lam1 = lam_raw[0] if m else 0.0
        if lam1 > tol * scale:
            a = lam1**3 / abs(gamma)
        else:
            a = 1.0
            lam_raw = np.zeros(m)
        dmod = 1.0 / (abs(gamma) ** (1.0 / 3.0) * a ** (1.0 / 3.0))
        darg = -np.angle(gamma)
        d = dmod * np.exp(1j * darg)
        # upper-left factor: conj(d) * Vt E Vt^T must be diagonal >= 0
        if m:
            lam_raw2, U = _takagi_phase(E, np.conj(d) / abs(d), tol)
            lam = dmod * lam_raw2 if lam1 > tol * scale else np.zeros(m)
            Vt = U
        else:
            lam = np.zeros(0)
            Vt = np.zeros((0, 0), dtype=complex)
        V = Vt / np.sqrt(a)
        c = -(V @ beta) / gamma if m else np.zeros(0, dtype=complex)
        B = np.zeros((n, n), dtype=complex)
        B[:m, :m] = V
        B[:m, n - 1] = c
        B[n - 1, n - 1] = d
        tgt = np.zeros((n, n), dtype=complex)
        if m:
            tgt[:m, :m] = np.diag(lam)
        tgt[n - 1, n - 1] = 1.0
        return HClassification("iii", _clean_lam(lam, tol), B, float(a), tgt)

    if np.max(np.abs(beta), initial=0.0) > tol * scale:
        # case (i)
        nb = float(np.linalg.norm(beta))
        V1 = _unitary_sending_to_last(beta)
        Ap = V1 @ A @ V1.T
        # p shifts the last row/column of A' to zero
        p = np.zeros(m, dtype=complex)
        for j in range(m - 1):
            p[j] = -Ap[j, m - 1] / nb
        p[m - 1] = -Ap[m - 1, m - 1] / (2 * nb)
        E = Ap[: m - 1, : m - 1]
        tkE = takagi(E, tol) if m - 1 else None
        lam1 = tkE.lam[0] if (m - 1 and tkE.lam.size) else 0.0
        if lam1 > tol * scale:
            dmod = 1.0 / lam1
        else:
            dmod = 1.0
        # off-diagonal normalization: sqrt(a) |d|^2 |beta| = 1
        a = (1.0 / (dmod**2 * nb)) ** 2
        d = complex(dmod)
        if m - 1 and lam1 > tol * scale:
            lamE, F = _takagi_phase(E, np.conj(d) / abs(d), tol)
            lam_top = dmod * lamE
        elif m - 1:
            F = np.eye(m - 1, dtype=complex)
            lam_top = np.zeros(m - 1)
        else:
            F = np.zeros((0, 0), dtype=complex)
            lam_top = np.zeros(0)
        Vt = np.zeros((m, m), dtype=complex)
        Vt[: m - 1, : m - 1] = F
        Vt[m - 1, m - 1] = 1.0
        V2 = Vt / np.sqrt(a)
        # c from p = a V2^* c together with a V2 V2^* = I gives c = V2 p
        c = V2 @ p
        V = V2 @ V1
        B = np.zeros((n, n), dtype=complex)
        B[:m, :m] = V
        B[:m, n - 1] = c
        B[n - 1, n - 1] = d
        lam = np.concatenate([lam_top, [0.0]])
        tgt = np.zeros((n, n), dtype=complex)
        tgt[:m, :m] = np.diag(lam)
        tgt[m - 1, n - 1] = 1.0
        tgt[n - 1, m - 1] = 1.0
        return HClassification("i", _clean_lam(lam, tol), B, float(a), tgt)

    # case (ii): gamma = 0, beta = 0
    tkA = takagi(A, tol) if m else None
    lam_raw = tkA.lam if m else np.zeros(0)
    lam1 = lam_raw[0] if lam_raw.size else 0.0
    if lam1 > tol * scale:
        dmod = 1.0 / lam1
        lamA, U = _takagi_phase(A, 1.0, tol)
        lam = dmod * lamA
        Vt = U
    else:
        dmod = 1.0
        lam = np.zeros(m)
        Vt = np.eye(m, dtype=complex)
    a = 1.0
    d = complex(dmod)
    V = Vt / np.sqrt(a)
    B = np.zeros((n, n), dtype=complex)
    B[:m, :m] = V
    B[n - 1, n - 1] = d
    tgt = np.zeros((n, n), dtype=complex)
    if m:
        tgt[:m, :m] = np.diag(lam)
    return HClassification("ii", _clean_lam(lam, tol), B, float(a), tgt)


def _clean_lam(lam, tol):
    lam = np.real(np.asarray(lam, dtype=complex)).astype(float)
    lam[np.abs(lam) <= 10 * tol] = 0.0
    return lam


def transform_H(H, B, a):
    """Frame-change action on the third-order matrix: a * conj(d) * B H B^T."""
    B = np.asarray(B, dtype=complex)
    d = B[-1, -1]
    return a * np.conj(d) * (B @ np.asarray(H, dtype=complex) @ B.T)


# ---------------------------------------------------------------------------
# top-level drivers


@dataclass
class PartialNFResult:
    r: int
    s: int
    case: str  # "generic" | "semidef_i" | "semidef_ii" | "semidef_iii" | "other"
    lam: np.ndarray | None
    R: np.ndarray | None
    map: FormalMap
    M_out: Hypersurface
    aut_bound: int | None = None

    def to_json(self):
        return {
            "r": self.r,
            "s": self.s,
            "case": self.case,
            "lambda": None if self.lam is None else [float(x) for x in self.lam],
            "R": None if self.R is None else matrix_to_json(self.R),
            "aut_dim_bound": self.aut_bound,
            "map": self.map.to_json_dict(),
            "phi": self.M_out.phi.to_json_dict(),
        }


def _frame_to_coordinate_map(B, a, trunc):
    """Coordinate map realizing the frame change (B, a): z -> Bc z, w -> a w
    with Bc = inv(B^H)."""
    Bc = np.linalg.inv(np.asarray(B, dtype=complex).conj().T)
    return FormalMap.linear(Bc, float(a), trunc)


def H_matrix(form: ThirdOrderForm):
    """Symmetric n x n matrix of third-order data when the Levi kernel is
    one-dimensional."""
    n = form.M.n
    if form.r + form.s != n - 1:
        raise ValueError("Levi form does not have rank n-1")
    return form.h[:, :, 0]


def detect_generic(M: Hypersurface, tol=DEFAULT_TOL) -> bool:
    """True iff the Levi form has rank n-1 and the hypersurface has a
    generic Levi degeneracy (gamma entry of H nonzero)."""
    form = third_order_form(M, tol)
    n = M.n
    if form.r + form.s != n - 1:
        return False
    H = H_matrix(form)
    return abs(H[n - 1, n - 1]) > tol * (1 + np.max(np.abs(H)))


def partial_nf(M: Hypersurface, tol=DEFAULT_TOL) -> PartialNFResult:
    """Full third-order normalization with trichotomy classification."""
    form = third_order_form(M, tol)
    n, T = M.n, M.trunc
    r, s = form.r, form.s
    if r + s != n - 1:
        return PartialNFResult(r, s, "other", None, None, form.map, form.M)
    H = H_matrix(form)
    scale = 1 + np.max(np.abs(H))
    gamma = H[n - 1, n - 1]
    if s == 0:
        cls = classify_H(H, tol)
        Tl = _frame_to_coordinate_map(cls.B, cls.a, T)
        cur = apply_map(form.M, Tl, tol)
        total = Tl.compose(form.map)
        cur, total = _kill_quadratic(cur, total, r, s, tol)
        h2 = cubic_coeffs(cur.phi)[:, :, r + s :]
        Hfin = h2[:, :, 0]
        if np.max(np.abs(Hfin - cls.H_target)) > 1e3 * tol * scale:
            raise NormalFormError("classification map did not reach the target form")
        case = {"i": "semidef_i", "ii": "semidef_ii", "iii": "semidef_iii"}[cls.case]
        bound = aut_dim_bound(n, cls.lam) if cls.case == "iii" else None
        return PartialNFResult(r, s, case, cls.lam, None, total, cur, bound)
    if abs(gamma) > tol * scale:
        # indefinite generic: decouple and scale gamma to 1, report R
        mdim = n - 1
        c = -H[:mdim, n - 1] / gamma
        dmod = abs(gamma) ** (-1.0 / 3.0)
        d = dmod * np.exp(-1j * np.angle(gamma))
        B = np.eye(n, dtype=complex)
        B[:mdim, n - 1] = c
        B[n - 1, n - 1] = d
        Tl = _frame_to_coordinate_map(B, 1.0, T)
        cur = apply_map(form.M, Tl, tol)
        total = Tl.compose(form.map)
        cur, total = _kill_quadratic(cur, total, r, s, tol)
        Hfin = cubic_coeffs(cur.phi)[:, :, r + s :][:, :, 0]
        R = Hfin[:mdim, :mdim]
        return PartialNFResult(r, s, "generic", None, R, total, cur)
    return PartialNFResult(r, s, "other", None, None, form.map, form.M)


def generic_partial_nf(M: Hypersurface, tol=DEFAULT_TOL) -> PartialNFResult:
    """Normalization at a generic Levi degeneracy; errors otherwise."""
    res = partial_nf(M, tol)
    if res.case == "semidef_iii":
        out = PartialNFResult(
            res.r, res.s, "generic", res.lam, None, res.map, res.M_out, res.aut_bound
        )
        return out
    if res.case == "generic":
        return res
    raise ValueError("hypersurface does not have a generic Levi degeneracy")


def aut_dim_bound(n, lam, tol=DEFAULT_TOL) -> int:
    """Dimension bound for the stability group at a generic semidefinite
    Levi degeneracy with invariant lambda."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if len(lam) != n - 1:
        raise ValueError("lambda must have n-1 entries")
    base = (n - 1) * n * (n + 1) * (n + 2) // 3
    if np.all(np.abs(lam) <= tol):
        return base + 3 * n * n - n + 1
    if abs(lam[0] - 1.0) > tol:
        raise ValueError("lambda must be 0 or start with 1")
    mu = int(np.sum(np.abs(lam) <= tol))
    pos = sorted([x for x in lam if x > tol], reverse=True)
    mults = []
    for x in pos:
        if mults and abs(x - mults[-1][0]) <= 1e-7:
            mults[-1][1] += 1
        else:
            mults.append([x, 1])
    extra = sum(m * (m - 1) // 2 for _, m in mults) + mu * mu
    return base + 2 * n * n + n - 1 + extra
