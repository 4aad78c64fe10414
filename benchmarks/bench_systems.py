"""Timings of the graded-system build: first calls on a fresh hypersurface.

    python3 benchmarks/bench_systems.py [--src DIR] [--label NAME] [--out FILE]

Imports crnf from ``DIR`` (default: this checkout's ``src/``), times each
case, and stores the results under ``NAME`` (default ``current``) in the
JSON file ``FILE`` (default ``BENCH_systems.json`` at the root of the
checkout), next to the results of other labels already there.  Pointing
``--src`` at another checkout's ``src/`` compares two versions on the same
inputs.  BLAS threads are pinned to one before numpy is imported.

The cases, at Levi signature r = n - 1 and R = diag(1, 1/2) (n = 3) or
diag(1, 1/2, 1/4) (n = 4):

* ``build_n{n}_nu{nu}``: one graded system ``full_nf._LSystem`` built
  from nothing, for n = 3 with nu = 4..10 and n = 4 with nu = 4..8.  The
  build is split into the remainder-space bases (``remainder_bases``),
  the sparse LU factor with its Lanczos margins (``_factor``) and the
  assembly (the rest); each case also records the dimension, the stored
  nonzeros and the margin sigma_min / sigma_max.  Each time is the median
  of ``REPEATS`` builds.
* ``normal_form_n{n}_deg{deg}``: the first ``normal_form`` call, with an
  empty system cache, at n = 4 through degree 8 and n = 3 through degree
  10, on the model plus a random real perturbation (25 draws, amplitude
  0.04, seed 100 + n).  One run each.
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
REPEATS = 3
LAMBDA = {3: (1.0, 0.5), 4: (1.0, 0.5, 0.25)}
BUILDS = {3: range(4, 11), 4: range(4, 9)}
NORMAL_FORMS = ((4, 8), (3, 10))


class StageTimer:
    """Adds the time spent in module-level functions of ``full_nf`` to
    named totals, by rebinding them to timing wrappers."""

    def __init__(self, full_nf, stages):
        self.full_nf = full_nf
        self.orig = {name: getattr(full_nf, name) for name in stages}
        self.spent = dict.fromkeys(stages, 0.0)
        for name, fn in self.orig.items():
            setattr(full_nf, name, self._timed(name, fn))

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[name] += time.perf_counter() - t0

        return timed

    def reset(self):
        self.spent = dict.fromkeys(self.spent, 0.0)

    def uninstall(self):
        for name, fn in self.orig.items():
            setattr(self.full_nf, name, fn)


def build_case(full_nf, timer, n, nu):
    R = np.diag(LAMBDA[n])
    runs = []
    for _ in range(REPEATS):
        timer.reset()
        t0 = time.perf_counter()
        sys_ = full_nf._LSystem(n, n - 1, R, nu)
        total = time.perf_counter() - t0
        bases, factor = timer.spent["remainder_bases"], timer.spent["_factor"]
        runs.append((total, bases, factor, total - bases - factor))
    med = [statistics.median(col) for col in zip(*runs)]
    return {
        "total_s": med[0],
        "bases_s": med[1],
        "factor_s": med[2],
        "assembly_s": med[3],
        "total_times_s": [run[0] for run in runs],
        "dim": int(sys_.mat.shape[0]),
        "nnz": int(sys_.mat.nnz),
        "margin": sys_.sigma_min / sys_.sigma_max,
    }


def perturbed_model(crnf_modules, n, trunc, seed, amp=0.04, nterms=25):
    """The model at R = diag(LAMBDA[n]) plus a random real perturbation of
    weighted degree >= 4 (the draws of the tests' perturbed_model)."""
    MixedSeries, Hypersurface, model_phi = crnf_modules
    rng = np.random.default_rng(seed)
    terms = {}
    for _ in range(nterms):
        a = tuple(int(x) for x in rng.integers(0, 3, n))
        b = tuple(int(x) for x in rng.integers(0, 3, n))
        m = int(rng.integers(0, 3))
        if not (4 <= sum(a) + sum(b) + 2 * m <= trunc):
            continue
        c = amp * (rng.normal() + 1j * rng.normal())
        terms[a + b + (m,)] = terms.get(a + b + (m,), 0.0) + c
    pert = MixedSeries(n, trunc, terms).re_part()
    return Hypersurface(model_phi(n, trunc, n - 1, np.diag(LAMBDA[n])) + pert)


def normal_form_case(full_nf, timer, crnf_modules, n, degree):
    M = perturbed_model(crnf_modules, n, degree, seed=100 + n)
    full_nf._SYSTEM_CACHE.clear()
    timer.reset()
    t0 = time.perf_counter()
    res = full_nf.normal_form(M, degree=degree)
    total = time.perf_counter() - t0
    full_nf._SYSTEM_CACHE.clear()
    return {
        "total_s": total,
        "bases_s": timer.spent["remainder_bases"],
        "factor_s": timer.spent["_factor"],
        "dims": [d["dim"] for d in res.diagnostics],
        "N_terms": len(res.N.coeffs),
    }


def run_cases(full_nf, crnf_modules):
    timer = StageTimer(full_nf, ("remainder_bases", "_factor"))
    cases = {}
    try:
        for n, nus in BUILDS.items():
            for nu in nus:
                cases[f"build_n{n}_nu{nu}"] = build_case(full_nf, timer, n, nu)
        for n, degree in NORMAL_FORMS:
            cases[f"normal_form_n{n}_deg{degree}"] = normal_form_case(
                full_nf, timer, crnf_modules, n, degree
            )
    finally:
        timer.uninstall()
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
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_systems.json"))
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from crnf import full_nf
    from crnf.hypersurfaces import Hypersurface, model_phi
    from crnf.series import MixedSeries

    t0 = time.perf_counter()
    cases = run_cases(full_nf, (MixedSeries, Hypersurface, model_phi))
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
        split = f"bases {c['bases_s']:7.3f}  factor {c['factor_s']:7.3f}"
        if "dim" in c:
            split += f"  assembly {c['assembly_s']:7.3f}  dim {c['dim']:5d}  nnz {c['nnz']:7d}"
        print(f"{args.label:>10}  {name:<22} {c['total_s']:8.3f} s  {split}")
    print(f"{args.label:>10}  wall {record['wall_s']:.1f} s")


if __name__ == "__main__":
    main()
