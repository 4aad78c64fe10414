"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

For the cheapest and the dearest item of the first round of every
workload it runs the operation, asserts
that every check accepts the true output, and then, check by check,
feeds slightly corrupted outputs (a coefficient of N or T moved by
1e-6, lambda moved by 1e-3, ...) and asserts that the check rejects
each.  The pointwise checks also get errors in the two top weighted
degrees of the map and of the output graph function.
Exits with status 1 if a check accepts a corrupted output or rejects a
correct one.
"""

import run  # pins BLAS threads before numpy is imported

import dataclasses
import sys
import time

crnf = run.import_crnf()

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def shift_series(series, a, b, m, delta):
    """series + delta z^a zbar^b s^m + conj(delta) z^b zbar^a s^m."""
    d = series.to_json_dict()
    terms = list(d["terms"])
    terms.append({"z": list(a), "zbar": list(b), "s": m, "re": delta.real, "im": delta.imag})
    if a != b:
        terms.append({"z": list(b), "zbar": list(a), "s": m, "re": delta.real, "im": -delta.imag})
    return crnf.MixedSeries.from_json_dict(dict(d, terms=terms))


def shift_map(T, comp, a, m, delta):
    """T with delta added to the z^a w^m coefficient of component comp
    (0..n-1 for f, n for g)."""
    d = T.to_json_dict()
    parts = d["f"] + [d["g"]]
    parts[comp] = dict(parts[comp], terms=parts[comp]["terms"] + [
        {"z": list(a), "zbar": [0] * len(a), "s": m, "re": delta.real, "im": delta.imag}
    ])
    return crnf.FormalMap.from_json_dict(dict(d, f=parts[:-1], g=parts[-1]))


def e(n, *idx):
    out = [0] * n
    for i in idx:
        out[i] += 1
    return tuple(out)


def top_degree_cases(check, item, T, phi, rebuild):
    """Corruptions the pointwise tests must see in the two top weighted
    degrees: a z_1^trunc term in g, a z_1^(trunc-1) term in f^1, and a
    real z_1^(d-1) zbar_1 pair in the output graph function for
    d = trunc - 1 and trunc.  Each has size 1e-6, or ten times the
    check's allowance in its degree where that is larger.
    ``rebuild(T, phi)`` makes the output."""
    n, trunc = item["n"], item["trunc"]
    fs, g = workloads.map_polys(T)
    scale = workloads.defect_scale(item["phi"], workloads.series_poly(phi), fs, g, n, trunc)
    size = np.maximum(1e-6, 10 * workloads.COEFF_TOL * np.maximum(1.0, scale))
    z1 = lambda d: e(n, *[0] * d)  # noqa: E731
    return [
        (check, f"g z1^{trunc} + {size[trunc]:.1e}",
         rebuild(shift_map(T, n, z1(trunc), 0, size[trunc]), phi)),
        (check, f"f1 z1^{trunc - 1} + {size[trunc]:.1e}",
         rebuild(shift_map(T, 0, z1(trunc - 1), 0, size[trunc]), phi)),
    ] + [
        (check, f"phi_out z1^{d - 1} zbar1 + {size[d]:.1e}",
         rebuild(T, shift_series(phi, z1(d - 1), z1(1), 0, size[d])))
        for d in (trunc - 1, trunc)
    ]


def nf_corruptions(item, res):
    n, trunc = item["n"], item["trunc"]
    zero = (0,) * n
    a2 = e(n, 0, 0)
    N_shifted = shift_series(res.N, e(n, 0, 0), e(n, 0, n - 1), 0, 1e-6)
    return [
        # a quadratic term in g moves im w' by 1e-6 |z|^2
        ("pointwise", "g z1^2 + 1e-6", dataclasses.replace(res, T=shift_map(res.T, n, a2, 0, 1e-6))),
        # a (4,0) term: the remainder space has no harmonic part
        ("normal_space", "N z1^4 + 1e-6",
         dataclasses.replace(res, N=shift_series(res.N, e(n, 0, 0, 0, 0), zero, 0, 1e-6))),
        # a z_1^3 term in f^1: a third-order jet constant of the gauge
        ("gauge_G0", "f1 z1^3 + 1e-6", dataclasses.replace(res, T=shift_map(res.T, 0, e(n, 0, 0, 0), 0, 1e-6))),
        ("model_lambda", "R + 1e-3", dataclasses.replace(res, R=res.R + 1e-3 * np.eye(n - 1))),
        ("remainder_is_output", "N coefficient + 1e-6", dataclasses.replace(res, N=N_shifted)),
        ("idempotent", "N coefficient + 1e-6", dataclasses.replace(res, N=N_shifted)),
    ] + top_degree_cases(
        "pointwise", item, res.T, res.M_out.phi,
        lambda T, phi: dataclasses.replace(res, T=T, M_out=crnf.Hypersurface(phi)),
    )


def equiv_corruptions(item, out):
    n, trunc = item["n"], item["trunc"]
    P2 = dataclasses.replace(out["P2"], B=out["P2"].B + 1e-3)
    return [
        ("report", "deviation 2e-6", dict(out, report=dataclasses.replace(out["report"], max_deviation=2e-6))),
        ("mapped_pointwise", "g z1^2 + 1e-6", dict(out, Phi=shift_map(out["Phi"], n, e(n, 0, 0), 0, 1e-6))),
        ("normal_forms_agree", "B of P2 + 1e-3", dict(out, P2=P2)),
    ] + top_degree_cases(
        "mapped_pointwise", item, out["Phi"], out["Mp"].phi,
        lambda T, phi: dict(out, Phi=T, Mp=crnf.Hypersurface(phi)),
    )


def invariants_corruptions(item, out):
    n, trunc = item["n"], item["trunc"]
    pnf = out["pnf"]
    rep = dict(out["tensors"], dims_E=[1, n, n, n + 1])
    return [
        ("case_lambda", "lambda + 1e-3", dict(out, pnf=dataclasses.replace(pnf, lam=pnf.lam + 1e-3))),
        ("tensors", "dims_E changed", dict(out, tensors=rep)),
        ("partial_nf_pointwise", "g z1^2 + 1e-6",
         dict(out, pnf=dataclasses.replace(pnf, map=shift_map(pnf.map, n, e(n, 0, 0), 0, 1e-6)))),
    ] + top_degree_cases(
        "partial_nf_pointwise", item, pnf.map, pnf.M_out.phi,
        lambda T, phi: dict(out, pnf=dataclasses.replace(pnf, map=T, M_out=crnf.Hypersurface(phi))),
    )


CORRUPTIONS = {
    "nf_stream": nf_corruptions,
    "nf_fresh": nf_corruptions,
    "equiv_mapped": equiv_corruptions,
    "invariants": invariants_corruptions,
}


def selftest_item(name, wl, i, item):
    """Problems found with item i of round 0 of a workload."""
    problems = []
    out = wl.op(item)
    results = workloads.check_output(wl, 0, i, item, out, sample=True)
    for check, ok, detail in results:
        if not ok:
            problems.append(f"{name}/{check} rejects a correct output: {detail}")
    cases = [(check, label, item, bad) for check, label, bad in CORRUPTIONS[name](item, out)]
    if name == "invariants":
        # the raw-input check guards the construction: a model-form
        # input must be refused
        model = workloads.hypersurface(workloads.model_poly(item["n"], item["lam"]), item["n"], item["trunc"])
        cases.append(("raw_input", "model-form input", dict(item, M=model), out))
    checked = {case[0] for case in cases}
    missing = {check for check, _, _ in results} - checked
    if missing:
        problems.append(f"{name}: no corruption for {sorted(missing)}")
    for check, label, bad_item, bad_out in cases:
        verdict = dict(
            (c, (ok, detail))
            for c, ok, detail in workloads.check_output(wl, 0, i, bad_item, bad_out, sample=True)
        )
        ok, detail = verdict[check]
        status = "accepts" if ok else "rejects"
        print(f"{name:13s} trunc {item['trunc']} {check:22s} {status} {label} ({detail})")
        if ok:
            problems.append(f"{name}/{check} accepts a corrupted output: {label}")
    return problems


def main():
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        t0 = time.perf_counter()
        wl = cls(seed=0)
        wl.warm_up()
        round0 = wl.make_round(0)
        # the cheapest and the dearest configuration of a round
        for i in (0, len(round0) - 1):
            problems += selftest_item(name, wl, i, round0[i])
        print(f"{name}: {time.perf_counter() - t0:.1f} s")
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
