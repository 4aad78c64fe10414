"""crnf benchmark: one workload, closed loop, in one fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; crnf is imported from ``src/``.
Operations run one after another; the run attempts whole rounds of items
until the time spent in operations reaches ``--seconds``.  Every output
is checked after the timed phase.  Operation and set-up times are scaled
to a nominal host speed with a reference loop (see ``REF_NOMINAL_S``).
The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``; with ``--trace 1``
the per-layer metrics that BENCHMARK.json names, from a traced first
round.  See README.md.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# BLAS threads are pinned before numpy is first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: The host this benchmark was built on is shared, and its speed moves
#: by 1.5-2x for seconds to minutes at a time.  A fixed reference loop is
#: timed five times after set-up and once after every operation, and
#: every time of the run is scaled by sqrt(REF_NOMINAL_S / (median of
#: these loop times)).  REF_NOMINAL_S is the loop's typical time on the
#: reference machine.  crnf's operations slow down less than the loop on
#: a busy host, by about the square root of the loop's slowdown; see
#: README.md for the fit.  Raw wall times stay in the run record.
REF_ITERS = 20000
REF_NOMINAL_S = 0.0042


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_crnf():
    """Import crnf from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "crnf", "__init__.py")):
        sys.exit(f"error: no crnf sources under {SRC}")
    sys.path.insert(0, SRC)
    import crnf

    if not os.path.abspath(crnf.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: crnf was imported from {crnf.__file__}, not from {SRC}")
    return crnf


def reference_loop():
    """Wall time of fixed pure-Python work: tuple keys, dict updates and
    integer arithmetic, the staple of crnf's series code."""
    t0 = time.perf_counter()
    acc = {}
    for j in range(REF_ITERS):
        key = (j & 63, j & 7)
        acc[key] = acc.get(key, 0) + j * j
    return time.perf_counter() - t0


def per_layer_metrics():
    """The per-layer metrics that BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy
    import scipy

    def blas(mod):
        try:
            deps = mod.show_config(mode="dicts")["Build Dependencies"]
            return {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack")}
        except Exception as exc:  # the layout of show_config differs between versions
            return {"error": repr(exc)}

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None):
    args = parse_args(argv)
    import_crnf()
    import workloads
    import spans

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    wl = workloads.WORKLOADS[args.workload](args.seed)

    # ---- set-up: import (above), inputs of the first round, warm-up
    rounds = [wl.make_round(0)]
    wl.warm_up()
    setup_s = time.perf_counter() - T_START
    refs = [reference_loop() for _ in range(5)]

    # ---- timed phase: whole rounds until the operations took --seconds;
    # a traced run traces the first round only
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        layer = per_layer_metrics()
        for m in layer:
            tracer.value(m["name"])  # every metric has a span or a counter
        tracer.install()
    durations, outputs, errors = [], [], []
    busy = 0.0
    t_phase = time.perf_counter()
    k = 0
    while True:
        if k == len(rounds):
            rounds.append(wl.make_round(k))
        outs = []
        for item in rounds[k]:
            t0 = time.perf_counter()
            try:
                out = wl.op(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = None
                errors.append(f"round {k}: {type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t0
            refs.append(reference_loop())
            busy += dt
            if out is not None:
                durations.append(dt)
            outs.append(out)
        outputs.append(outs)
        if k == 0:
            # peak memory over set-up and the first round: the same fixed
            # inputs in every run with this seed, however fast the run
            rss_round0 = peak_rss_mb()
            if tracer:
                tracer.uninstall()
        k += 1
        if busy >= args.seconds:
            break
    if not durations:
        sys.exit("error: no operation completed:\n" + "\n".join(errors))
    attempted = sum(len(r) for r in outputs)
    failed = sum(o is None for r in outputs for o in r)

    # ---- checks, outside the timed phase
    failures = workloads.run_checks(wl, rounds, outputs)
    scale = (REF_NOMINAL_S / statistics.median(refs)) ** 0.5

    if tracer:
        metrics = {m["name"]: {"value": tracer.value(m["name"]), "unit": m["unit"]} for m in layer}
    else:
        metrics = {
            "setup_s": {"value": setup_s * scale, "unit": "s"},
            "op_s_p50": {"value": statistics.median(durations) * scale, "unit": "s"},
            "ops_per_min": {"value": 60.0 * len(durations) / (busy * scale), "unit": "1/min"},
            "peak_rss_mb": {"value": rss_round0, "unit": "MB"},
        }
    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "rounds": k,
        "raw_setup_s": setup_s,
        "op_durations_s": durations,
        "ref_loop_s": refs,
        "host_scale": scale,
        "raw_op_s_p50": statistics.median(durations),
        "raw_ops_per_min": 60.0 * len(durations) / busy,
        "errors": errors,
        "check_failures": failures,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer:
        tracer.write(stem + "-spans.json", t_phase)
    print("env " + json.dumps(env))
    if tracer and tracer.missing:
        print("warning: not found, so not traced: " + ", ".join(tracer.missing))
    for line in errors + failures:
        print("FAIL " + line)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
