"""Timings of the series layer: the apply_map composition and one product.

    python3 benchmarks/bench_series.py [--src DIR] [--label NAME] [--out FILE]

Imports crnf from ``DIR`` (default: this checkout's ``src/``), times each
case, and stores the results under ``NAME`` (default ``current``) in the
JSON file ``FILE`` (default ``BENCH_series.json`` at the root of the
checkout), next to the results of other labels already there.  Pointing
``--src`` at another checkout's ``src/`` compares two versions on the same
inputs.  BLAS threads are pinned to one before numpy is imported.

The cases are the composition at the heart of ``apply_map``,
``phi.subs(z=F, zb=conj(F), s=Re G)``, with F = z + O(2) and G = s + O(2)
mixed series as in one Picard round:

* ``compose_dense_n3_t8``: dense phi, F and G, n = 3, truncation 8;
* ``compose_dense_n2_t10``: dense, n = 2, truncation 10;
* ``compose_sparse_n4_t5``: a model plus three terms per degree, and
  three terms per degree in F and G, n = 4, truncation 5 (the shape of a
  fresh normal form);

and ``mul_dense_n3_t8``, the product of two dense series, n = 3,
truncation 8.  Each time is the median of ``REPEATS`` runs.  Inputs are
plain dicts drawn from a fixed seed, so every version sees the same ones.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 5


def monomials(n, lo, hi):
    """Keys (a, b, m) of weighted degree lo..hi in n variables."""
    out = []

    def rec(prefix, left):
        if len(prefix) == 2 * n:
            for m in range(left // 2 + 1):
                d = sum(prefix) + 2 * m
                if lo <= d <= hi:
                    out.append(tuple(prefix) + (m,))
            return
        for e in range(left + 1):
            rec(prefix + [e], left - e)

    rec([], hi)
    return out


def conj(terms, n):
    return {k[n : 2 * n] + k[:n] + k[2 * n :]: v.conjugate() for k, v in terms.items()}


def real(terms, n):
    out = {k: 0.5 * v for k, v in terms.items()}
    for k, v in conj(terms, n).items():
        out[k] = out.get(k, 0.0) + 0.5 * v
    return out


def random_terms(rng, keys, amp):
    return {k: amp * complex(rng.normal(), rng.normal()) for k in keys}


def sparse_keys(rng, n, lo, hi, per_degree):
    out = []
    for nu in range(lo, hi + 1):
        keys = monomials(n, nu, nu)
        out += [keys[i] for i in sorted(rng.choice(len(keys), per_degree, replace=False))]
    return out


def unit(n, slot):
    return tuple(int(i == slot) for i in range(2 * n + 1))


def compose_inputs(n, trunc, per_degree, seed):
    """(phi, F, G) as termdicts: phi = <z, zbar> + a real perturbation of
    degree >= 3, F_j = z_j + O(2), G = s + O(2), all mixed series.  With
    ``per_degree`` None every monomial is present, else that many per
    degree."""
    rng = np.random.default_rng(seed)

    def keys(lo, hi):
        if per_degree is None:
            return monomials(n, lo, hi)
        return sparse_keys(rng, n, lo, hi, per_degree)

    phi = real(random_terms(rng, keys(3, trunc), 0.05), n)
    for j in range(n):
        k = tuple(int(i in (j, n + j)) for i in range(2 * n + 1))
        phi[k] = phi.get(k, 0.0) + 1.0
    F = []
    for j in range(n):
        f = random_terms(rng, keys(2, trunc - 1), 0.03)
        f[unit(n, j)] = 1.0
        F.append(f)
    G = random_terms(rng, keys(2, trunc), 0.03)
    G[unit(n, 2 * n)] = 1.0
    return phi, F, G


def timed(fn):
    """Median and all times of REPEATS calls of fn, and its last result."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return {"median_s": statistics.median(times), "times_s": times}, out


def run_cases(MixedSeries):
    cases = {}
    for name, n, trunc, per_degree in (
        ("compose_dense_n3_t8", 3, 8, None),
        ("compose_dense_n2_t10", 2, 10, None),
        ("compose_sparse_n4_t5", 4, 5, 3),
    ):
        phi, F, G = compose_inputs(n, trunc, per_degree, seed=11)
        phi = MixedSeries(n, trunc, phi)
        F = [MixedSeries(n, trunc, f) for f in F]
        Fb = [MixedSeries(n, trunc, conj(f.coeffs, n)) for f in F]
        ReG = MixedSeries(n, trunc, real(G, n))
        cases[name], out = timed(lambda: phi.subs(z=F, zb=Fb, s=ReG))
        cases[name].update(terms_in=len(phi.coeffs), terms_out=len(out.coeffs))
    rng = np.random.default_rng(12)
    keys = monomials(3, 0, 8)
    a = MixedSeries(3, 8, random_terms(rng, keys, 1.0))
    b = MixedSeries(3, 8, random_terms(rng, keys, 1.0))
    cases["mul_dense_n3_t8"], out = timed(lambda: a * b)
    cases["mul_dense_n3_t8"].update(terms_in=len(a.coeffs), terms_out=len(out.coeffs))
    return cases


def environment():
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"))
    p.add_argument("--label", default="current")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_series.json"))
    args = p.parse_args(argv)
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    from crnf.series import MixedSeries

    t0 = time.perf_counter()
    cases = run_cases(MixedSeries)
    record = {"environment": environment(), "cases": cases, "wall_s": time.perf_counter() - t0}
    try:
        with open(args.out) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault("runs", {})[args.label] = record
    with open(args.out, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, c in cases.items():
        print(f"{args.label:>10}  {name:<22} {1e3 * c['median_s']:9.1f} ms")
    print(f"{args.label:>10}  wall {record['wall_s']:.1f} s")


if __name__ == "__main__":
    main()
