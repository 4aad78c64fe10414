"""The four workloads: seeded inputs, the timed operation, and the checks
of its output.

Each workload draws its items in rounds.  A round holds one item per
configuration, and item ``i`` of round ``k`` is drawn from the seed
sequence ``(seed, k, i)``, so every run with one seed sees the same
items in the same order, and a run attempts whole rounds only.  crnf
receives nothing but the generated hypersurfaces (and, for
``equiv_mapped``, an integer seed for its own map sampler).

The checks compare outputs with the construction or with properties of
the method; none of them compares with stored output.
"""

from __future__ import annotations

import numpy as np

import crnf
import poly

# Seed-sequence tags, so that distinct uses of one run seed never share
# a random stream.
_ITEM, _PATTERN, _POINTS, _WARM = 1, 2, 3, 4


# ---------------------------------------------------------------------------
# input construction (plain polynomials, no crnf arithmetic)


def model_poly(n, lam):
    """<z',zbar'> + 2 Re(zbar^n p(z)), p(z) = sum lam_j z_j^2 + z_n^2."""
    out = {}
    for j in range(n - 1):
        e = [0] * n
        e[j] = 1
        out[tuple(e) + tuple(e) + (0,)] = 1.0
    en = tuple([0] * (n - 1) + [1])
    for j, c in enumerate(tuple(lam) + (1.0,)):
        if c == 0.0:
            continue
        a = [0] * n
        a[j] = 2
        out[tuple(a) + en + (0,)] = out.get(tuple(a) + en + (0,), 0.0) + c
        out[en + tuple(a) + (0,)] = out.get(en + tuple(a) + (0,), 0.0) + c
    return out


def perturbation(n, trunc, rng, amp, per_degree=None, pattern_rng=None):
    """Real perturbation supported in every weighted degree 4..trunc.

    ``per_degree=None`` fills every monomial (dense).  Otherwise each
    degree gets ``per_degree`` monomials; their positions come from
    ``pattern_rng`` and their values from ``rng``.
    """
    out = {}
    for nu in range(4, trunc + 1):
        keys = poly.monomials(2 * n, nu)
        if per_degree is not None:
            pick = pattern_rng.choice(len(keys), size=per_degree, replace=False)
            keys = [keys[i] for i in sorted(pick)]
        for k in keys:
            out[k] = amp * complex(rng.normal(), rng.normal())
    return poly.real_part(out, n)


def hypersurface(phi, n, trunc):
    series = crnf.MixedSeries.from_json_dict(poly.to_json(phi, n, trunc))
    return crnf.Hypersurface(series)


def series_poly(series, mixed=True):
    return poly.from_json(series.to_json_dict(), mixed)


def map_polys(T):
    d = T.to_json_dict()
    return [poly.from_json(f, False) for f in d["f"]], poly.from_json(d["g"], False)


# ---------------------------------------------------------------------------
# checks shared by several workloads


def max_diff(p, q):
    keys = set(p) | set(q)
    return max((abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys), default=0.0)


def conj_holo(p):
    return {k: complex(v).conjugate() for k, v in p.items()}


def defect_coefficients(phi_in, phi_out, fs, g, n, trunc, tol, rng, dtype=complex, npts=4, nfft=64):
    """Size of every weighted-degree part 0..trunc of the defect

        D = im g(z, w) - phi_out(f(z, w), fbar(zbar, wbar), re g(z, w)),
        w = s + i phi_in(z, zbar, s),

    at ``npts`` seeded directions z = eps u, zbar = eps conj(u), s =
    eps^2 t with |u_j| = 1 and t in [-1, 1].  zbar is an independent
    variable, so D is a polynomial in eps whose eps^k coefficient is the
    weighted-degree-k part of D.  The coefficients come from D at
    ``nfft`` points of a circle |eps| = rho (a discrete Fourier
    transform), evaluated in ``dtype``.  The error bound of the degree-k
    part is rounding (10 machine epsilons of the largest term im g or
    phi_out on the circle) plus the terms of degree k + nfft folded onto
    degree k (a Cauchy bound from the circle 2 rho), both divided by
    rho^k.  Of the radii 1, 1/2, ..., 1/64 the one with the smallest
    largest ratio of bound to ``tol`` is used.  Returns the largest
    |coefficient| per degree, the radius and the error bounds."""
    unit = 10 * float(np.finfo(dtype).eps)
    u = np.exp(2j * np.pi * rng.uniform(size=(npts, n))).astype(dtype)
    t = rng.uniform(-1.0, 1.0, npts).astype(dtype)
    fbs, gb = [conj_holo(f) for f in fs], conj_holo(g)
    phib_in = poly.conj_mixed(phi_in, n)
    roots = np.exp(2j * np.pi * np.arange(nfft, dtype=dtype) / nfft)
    # row k of the transform picks the eps^k coefficient
    degrees = np.arange(trunc + 1)
    dft = np.conj(roots)[None, :] ** degrees[:, None] / nfft
    best = None
    prev_max = np.inf
    with np.errstate(all="ignore"):  # the outer circles may overflow
        for rho in (2.0**-k for k in range(-1, 7)):
            eps = rho * roots[:, None]
            z = [eps * u[:, j] for j in range(n)]
            zb = [eps * np.conj(u[:, j]) for j in range(n)]
            s = eps**2 * t
            w = s + 1j * poly.evaluate(phi_in, z + zb + [s])
            wb = s - 1j * poly.evaluate(phib_in, z + zb + [s])
            F = [poly.evaluate(f, z + [w]) for f in fs]
            Fb = [poly.evaluate(f, zb + [wb]) for f in fbs]
            G, Gb = poly.evaluate(g, z + [w]), poly.evaluate(gb, zb + [wb])
            P = poly.evaluate(phi_out, F + Fb + [(G + Gb) / 2])
            D = (G - Gb) / 2j - P
            scale = float(max(np.max(np.abs(G)), np.max(np.abs(P))))
            bound = (unit * scale + prev_max * 2.0**-nfft) / rho**degrees
            worst = float(np.max(bound / tol))
            if rho <= 1.0 and np.isfinite(worst) and (best is None or worst < best[3]):
                c = (dft @ D) / (rho**degrees)[:, None]
                best = (np.max(np.abs(c), axis=1).astype(float), rho, bound, worst)
            prev_max = float(np.max(np.abs(D)))
    if best is None:
        raise ArithmeticError("the defect overflows on every circle")
    return best[:3]


def defect_scale(phi_in, phi_out, fs, g, n, trunc, rho=0.5, nfft=64):
    """S_0..S_trunc: the weighted-degree parts of a majorant of the
    defect, that is of the same composition with every coefficient
    replaced by its modulus.  S_k bounds the sum of the moduli of the
    terms that make up the degree-k part of the defect at any of the
    directions of ``defect_coefficients``: the size its rounding scales
    with.  The parts come from z = zbar = eps, s = eps^2 on the circle
    |eps| = rho, like the defect's."""
    mod = lambda p: {k: abs(v) for k, v in p.items()}  # noqa: E731
    eps = rho * np.exp(2j * np.pi * np.arange(nfft) / nfft)
    z, s = [eps] * n, eps**2
    w = s + poly.evaluate(mod(phi_in), z + z + [s])
    F = [poly.evaluate(mod(f), z + [w]) for f in fs]
    G = poly.evaluate(mod(g), z + [w])
    A = G + poly.evaluate(mod(phi_out), F + F + [G])
    return np.abs(np.fft.fft(A)[: trunc + 1] / nfft) / rho ** np.arange(trunc + 1)


#: a weighted-degree part of the defect may be this share of the terms
#: it is made of (at least of 1); crnf's own solver tolerance is 1e-9
COEFF_TOL = 1e-9


def pointwise_ok(phi_in, phi_out, T, n, trunc, rng):
    """T takes the input hypersurface onto phi_out up to weighted degree
    trunc: every part of the defect of degree <= trunc vanishes."""
    fs, g = map_polys(T)
    tol = COEFF_TOL * np.maximum(1.0, defect_scale(phi_in, phi_out, fs, g, n, trunc))
    state = rng.bit_generator.state
    for dtype in (complex, np.clongdouble):
        # extended precision where double rounding hides the answer
        rng.bit_generator.state = state
        coeffs, rho, bound = defect_coefficients(phi_in, phi_out, fs, g, n, trunc, tol, rng, dtype)
        if np.all(bound <= 0.1 * tol):
            break
    worst = int(np.argmax(coeffs / tol))
    ok = np.all(coeffs <= tol) and np.all(bound <= 0.1 * tol)
    return ok, (
        f"largest defect part {coeffs[worst]:.2e} in degree {worst}, allowed {tol[worst]:.1e} "
        f"(radius {rho:g}, error bound {bound[worst]:.1e}, {np.dtype(dtype).name})"
    )


def identity_map_poly(n):
    fs = []
    for j in range(n):
        e = [0] * (n + 1)
        e[j] = 1
        fs.append({tuple(e): 1.0})
    return fs, {(0,) * n + (1,): 1.0}


def warm_up_systems(workload, configs):
    """Build the graded systems and bases of each (n, lambda, trunc): a
    normal form of a model with one perturbing term per degree needs all
    of them and little else.  The positions of the terms are fixed per
    configuration, so the set-up work does not depend on the seed."""
    for i, (n, lam, trunc) in enumerate(configs):
        pattern = np.random.default_rng([_WARM, n, trunc])
        pert = perturbation(n, trunc, workload.rng(_WARM, i), 0.03, 1, pattern)
        crnf.normal_form(hypersurface(poly.add(model_poly(n, lam), pert), n, trunc))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    #: one entry per item of a round, ordered from cheap to dear: with
    #: well-separated costs the median operation of a run is the median
    #: of the middle configuration, which a slow spell of the machine
    #: moves only once it covers half of the run
    configs = ()

    def __init__(self, seed):
        self.seed = seed

    def rng(self, *tags):
        return np.random.default_rng([self.seed, *tags])

    def make_round(self, k):
        return [self.make_item(self.rng(_ITEM, k, i), cfg) for i, cfg in enumerate(self.configs)]

    def warm_up(self):
        """Set-up work a steady-state user has already paid for."""

    def checks(self):
        """Named checks: ``(name, fn(item, out, rng) -> (ok, detail))``."""
        return []

    def sample_checks(self):
        """Costlier checks, run on the first round only."""
        return []


class _NormalFormWorkload(Workload):
    def op(self, item):
        return crnf.normal_form(item["M"])

    def checks(self):
        return [
            ("pointwise", self.check_pointwise),
            ("normal_space", self.check_normal_space),
            ("gauge_G0", self.check_gauge),
            ("model_lambda", self.check_lambda),
            ("remainder_is_output", self.check_remainder),
        ]

    def sample_checks(self):
        return [("idempotent", self.check_idempotent)]

    @staticmethod
    def check_pointwise(item, res, rng):
        return pointwise_ok(
            item["phi"], series_poly(res.M_out.phi), res.T, item["n"], item["trunc"], rng
        )

    @staticmethod
    def check_normal_space(item, res, rng):
        return crnf.is_in_normal_space(res.N, res.r, res.R), "N outside the remainder space"

    @staticmethod
    def check_gauge(item, res, rng):
        return crnf.check_G0(res.T), "T outside the gauge class G0"

    @staticmethod
    def check_lambda(item, res, rng):
        n = item["n"]
        want = np.diag(item["lam"]).astype(complex)
        worst = 0.0
        for M in (item["M"], res.M_out):
            r, R = crnf.detect_model(M)
            if r != n - 1:
                return False, f"signature r={r}, expected {n - 1}"
            worst = max(worst, float(np.max(np.abs(R - want))))
        worst = max(worst, float(np.max(np.abs(res.R - want))))
        return worst <= 1e-9, f"R differs from diag(lambda) by {worst:.3e}"

    @staticmethod
    def check_remainder(item, res, rng):
        """N is the output graph function minus the model (the normalized
        degree is the truncation), and it is not zero."""
        want = poly.add(series_poly(res.M_out.phi), model_poly(item["n"], item["lam"]), scale=(1, -1))
        N = series_poly(res.N)
        dev = max_diff(N, want)
        size = max((abs(v) for v in N.values()), default=0.0)
        return dev <= 1e-12 and size > 1e-6, f"N - (phi_out - model) = {dev:.3e}, |N| = {size:.3e}"

    @staticmethod
    def check_idempotent(item, res, rng):
        again = crnf.normal_form(res.M_out)
        fs, g = map_polys(again.T)
        ifs, ig = identity_map_poly(item["n"])
        dev_T = max([max_diff(f, i) for f, i in zip(fs, ifs)] + [max_diff(g, ig)])
        dev_N = max_diff(series_poly(again.N), series_poly(res.N))
        return dev_T <= 1e-9 and dev_N <= 1e-9, f"T - id = {dev_T:.3e}, N - N' = {dev_N:.3e}"

    @staticmethod
    def make_model_item(n, lam, trunc, pert):
        phi = poly.add(model_poly(n, lam), pert)
        return {"n": n, "lam": tuple(lam), "trunc": trunc, "phi": phi, "M": hypersurface(phi, n, trunc)}


class NFStream(_NormalFormWorkload):
    """normal_form over a stream of densely perturbed models of a few
    fixed configurations; their graded systems are built in set-up."""

    name = "nf_stream"
    configs = ((2, (0.0,), 5), (3, (1.0, 0.5), 5), (2, (1.0,), 8))
    AMP = 0.03

    def make_item(self, rng, cfg):
        n, lam, trunc = cfg
        return self.make_model_item(n, lam, trunc, perturbation(n, trunc, rng, self.AMP))

    def warm_up(self):
        warm_up_systems(self, self.configs)


class NFFresh(_NormalFormWorkload):
    """normal_form where every item has a fresh lambda, so every item
    builds its graded systems and normal-space bases from scratch."""

    name = "nf_fresh"
    # three n = 4 items per round, so the median (an n = 4 item) is taken
    # over more samples
    configs = ((3, 5), (4, 5), (4, 5), (4, 5), (3, 8))
    AMP = 0.03
    PER_DEGREE = 3

    def make_item(self, rng, cfg):
        n, trunc = cfg
        lam = (1.0,) + tuple(sorted(rng.uniform(0.1, 0.9, n - 2), reverse=True))
        # fixed positions per configuration, so the cost of an item does
        # not depend on where its few terms happen to fall
        pattern = np.random.default_rng([_PATTERN, n, trunc])
        pert = perturbation(n, trunc, rng, self.AMP, self.PER_DEGREE, pattern)
        return self.make_model_item(n, lam, trunc, pert)


class EquivMapped(Workload):
    """An invariance round trip: a perturbed model is pushed through a
    random allowed map, then matched_normalization and
    equivalent_to_degree compare the two normal forms."""

    name = "equiv_mapped"
    configs = ((2, (1.0,), 4), (3, (1.0, 0.5), 4), (2, (0.0,), 7))
    AMP = 0.03
    MAP_SCALE = 0.2

    def make_item(self, rng, cfg):
        n, lam, trunc = cfg
        phi = poly.add(model_poly(n, lam), perturbation(n, trunc, rng, self.AMP))
        return {
            "n": n,
            "lam": lam,
            "trunc": trunc,
            "phi": phi,
            "M": hypersurface(phi, n, trunc),
            "map_seed": int(rng.integers(2**31)),
        }

    def op(self, item):
        n, lam, trunc = item["n"], item["lam"], item["trunc"]
        Phi, _ = crnf.random_allowed_map(
            n - 1, np.diag(lam), seed=item["map_seed"], scale=self.MAP_SCALE, trunc=trunc
        )
        Mp = crnf.apply_map(item["M"], Phi)
        P2 = crnf.matched_normalization(item["M"], crnf.NormalizationP.identity(n), Phi)
        report = crnf.equivalent_to_degree(item["M"], Mp, None, P2, degree=trunc)
        return {"Phi": Phi, "Mp": Mp, "P2": P2, "report": report}

    def warm_up(self):
        warm_up_systems(self, self.configs)

    def checks(self):
        return [("report", self.check_report), ("mapped_pointwise", self.check_mapped)]

    def sample_checks(self):
        return [("normal_forms_agree", self.check_normal_forms)]

    @staticmethod
    def check_report(item, out, rng):
        rep = out["report"]
        ok = rep.invariants_match and rep.normal_forms_match and rep.max_deviation <= 1e-6
        return ok, f"invariants_match={rep.invariants_match} deviation={rep.max_deviation}"

    @staticmethod
    def check_mapped(item, out, rng):
        """The input really moved, and the map takes it onto its image."""
        moved = max_diff(series_poly(out["Mp"].phi), item["phi"])
        ok, detail = pointwise_ok(
            item["phi"], series_poly(out["Mp"].phi), out["Phi"], item["n"], item["trunc"], rng
        )
        return ok and moved > 1e-3, f"moved by {moved:.3e}; {detail}"

    @staticmethod
    def check_normal_forms(item, out, rng):
        """Both normal forms, coefficient by coefficient, within the
        acceptance tolerance 1e-6, and not trivially zero."""
        trunc = item["trunc"]
        N1 = series_poly(crnf.normal_form(item["M"], None, trunc).N)
        N2 = series_poly(crnf.normal_form(out["Mp"], out["P2"], trunc).N)
        dev = max_diff(N1, N2)
        size = max((abs(v) for v in N1.values()), default=0.0)
        return dev <= 1e-6 and size > 1e-4, f"N1 - N2 = {dev:.3e}, |N1| = {size:.3e}"


class Invariants(Workload):
    """partial_nf and tensors_report on hypersurfaces moved off model
    form by an explicit change of coordinates."""

    name = "invariants"
    # three n = 3 items per round: their cost varies by about 20 % with
    # the item, so the median is taken over more of them
    configs = ((2, 6), (3, 5), (3, 5), (3, 5), (2, 8))
    AMP = 0.03
    PER_DEGREE = 3
    H_AMP = 0.3

    def make_item(self, rng, cfg):
        n, trunc = cfg
        lam = (1.0,) + tuple(sorted(rng.uniform(0.1, 0.9, n - 2), reverse=True))
        pattern = np.random.default_rng([_PATTERN, n, trunc])
        phi = poly.add(
            model_poly(n, lam), perturbation(n, trunc, rng, self.AMP, self.PER_DEGREE, pattern)
        )
        # w -> w + 2i h(z):  phi -> phi(z, zbar, s + 2 Im h) + 2 Re h
        h = {}
        for d in (2, 3):
            for a in poly.monomials(n, d):
                if a[-1] == 0:
                    h[a[:-1] + (0,) * n + (0,)] = self.H_AMP * complex(rng.normal(), rng.normal())
        hb = poly.conj_mixed(h, n)
        im_h2 = poly.add(h, hb, scale=(-1j, 1j))
        re_h2 = poly.add(h, hb)
        phi = poly.add(poly.subs_s(phi, n, im_h2, trunc), re_h2)
        # z -> A z with A well away from singular
        while True:
            A = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            if np.linalg.cond(A) < 5.0:
                break
        phi = poly.prune(poly.real_part(poly.linear_z(phi, n, A), n))
        return {"n": n, "lam": lam, "trunc": trunc, "phi": phi, "M": hypersurface(phi, n, trunc)}

    def op(self, item):
        return {"pnf": crnf.partial_nf(item["M"]), "tensors": crnf.tensors_report(item["M"])}

    def checks(self):
        return [
            ("raw_input", self.check_raw),
            ("case_lambda", self.check_lambda),
            ("tensors", self.check_tensors),
            ("partial_nf_pointwise", self.check_pointwise),
        ]

    @staticmethod
    def check_raw(item, out, rng):
        """The input is not in model form, so partial_nf has work to do."""
        try:
            crnf.detect_model(item["M"])
        except ValueError:
            return True, ""
        return False, "input is already in model form"

    @staticmethod
    def check_lambda(item, out, rng):
        res = out["pnf"]
        if res.case != "semidef_iii" or res.lam is None:
            return False, f"case {res.case}"
        dev = float(np.max(np.abs(np.asarray(res.lam) - np.asarray(item["lam"]))))
        return dev <= 1e-7, f"lambda off by {dev:.3e}"

    @staticmethod
    def check_tensors(item, out, rng):
        n = item["n"]
        rep = out["tensors"]
        want = [1, n, n + 1, n + 1]
        ok = rep["k_nondeg"] == 2 and rep["dims_E"] == want
        return ok, f"k_nondeg={rep['k_nondeg']} dims_E={rep['dims_E']}, expected 2 and {want}"

    @staticmethod
    def check_pointwise(item, out, rng):
        res = out["pnf"]
        return pointwise_ok(
            item["phi"], series_poly(res.M_out.phi), res.map, item["n"], item["trunc"], rng
        )


WORKLOADS = {w.name: w for w in (NFStream, NFFresh, EquivMapped, Invariants)}


def check_output(workload, k, i, item, out, sample):
    """``[(name, ok, detail)]`` for every check of item i of round k; the
    sample checks too when ``sample`` is true.  A check that raises has
    failed."""
    named = workload.checks() + (workload.sample_checks() if sample else [])
    results = []
    for name, fn in named:
        try:
            ok, detail = fn(item, out, workload.rng(_POINTS, k, i))
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(ok), detail))
    return results


def run_checks(workload, rounds, outputs):
    """Check every output that did not fail, with the sample checks on
    the first round; returns the failure messages."""
    failures = []
    for k, (items, outs) in enumerate(zip(rounds, outputs)):
        for i, (item, out) in enumerate(zip(items, outs)):
            if out is None:
                continue
            for name, ok, detail in check_output(workload, k, i, item, out, k == 0):
                if not ok:
                    failures.append(f"round {k} item {i} {name}: {detail}")
    return failures
