"""Command-line front end.

Subcommands: invariants, partial-nf, normal-form, equiv, takagi,
aut-bound.  Hypersurface inputs are either series-JSON files/strings or
inline polynomial expressions over z1..zn, zb1..zbn, s (see parser).

Exit codes: 0 success, 2 input error, 3 numerical failure: singular
graded system, or an iteration that did not converge.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .series import MixedSeries
from .hypersurfaces import Hypersurface, GenericSubmanifold
from .parser import ParseError, parse_expression
from .linalg import matrix_to_json, takagi
from .tensors import tensors_report
from .partial_nf import partial_nf, aut_dim_bound
from .full_nf import NormalizationP, NormalFormError, normal_form, to_model_form
from .equivalence import equivalent_to_degree

__all__ = ["main", "parse_input"]


class InputError(ValueError):
    pass


def _read_source(arg):
    if os.path.exists(arg):
        with open(arg) as fh:
            return fh.read()
    return arg


def parse_input(arg, trunc, tol=1e-9):
    """Hypersurface (or generic submanifold) from a series-JSON file/string
    or an inline polynomial expression."""
    text = _read_source(arg).strip()
    if text.startswith("{"):
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise InputError(f"invalid JSON: {e}") from e
        try:
            if "rho" in d:
                rho = [MixedSeries.from_json_dict(x) for x in d["rho"]]
                return GenericSubmanifold(rho, tol)
            sd = d["phi"] if "phi" in d else d
            return Hypersurface(MixedSeries.from_json_dict(sd), tol)
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(str(e)) from e
    try:
        phi = parse_expression(text, trunc)
    except ParseError as e:
        raise InputError(str(e)) from e
    try:
        return Hypersurface(phi, tol)
    except ValueError as e:
        raise InputError(str(e)) from e


# lowest truncation of a command's input, from --trunc or the series JSON:
# the weighted degrees its computation reads
MIN_TRUNC = {"invariants": 2, "partial-nf": 3, "normal-form": 4, "equiv": 4}


def _load_input(arg, args):
    M = parse_input(arg, args.trunc, args.tol)
    low = MIN_TRUNC[args.command]
    if M.trunc < low:
        raise InputError(f"{args.command} needs a truncation >= {low}, got {M.trunc}")
    return M


def _degree(args, trunc):
    """--degree checked against the truncation of the input(s); by default
    that truncation."""
    if args.degree is None:
        return trunc
    if not 4 <= args.degree <= trunc:
        raise InputError(
            f"--degree must be in [4, {trunc}], the truncation of the input, "
            f"got {args.degree}"
        )
    return args.degree


def _emit(payload, text_fn, as_json):
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        text_fn(payload)


def _load_normalization(path, n):
    if path is None:
        return NormalizationP.identity(n)
    try:
        with open(path) as fh:
            return NormalizationP.from_json_dict(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise InputError(f"cannot read normalization {path!r}: {e!r}") from e


def _cmd_invariants(args):
    M = _load_input(args.input, args)
    rep = tensors_report(M, kmax=args.kmax, tol=args.tol)

    def text(rep):
        print(f"k_nondeg: {rep['k_nondeg']}")
        print(f"dims_E: {rep['dims_E']}")
        for j, t in rep["psi"].items():
            tag = "trivial" if t.get("trivial") else "nontrivial"
            print(f"psi_{j}: order {t['order']}, {tag}")

    _emit(rep, text, args.json)
    return 0


def _cmd_partial_nf(args):
    M = _load_input(args.input, args)
    res = partial_nf(M, args.tol)

    def text(d):
        print(f"r: {d['r']}  s: {d['s']}  case: {d['case']}")
        if d["lambda"] is not None:
            print(f"lambda: {d['lambda']}")
        if d["aut_dim_bound"] is not None:
            print(f"aut_dim_bound: {d['aut_dim_bound']}")

    _emit(res.to_json(), text, args.json)
    return 0


def _cmd_normal_form(args):
    given = _load_input(args.input, args)
    degree = _degree(args, given.trunc)
    M = to_model_form(given, args.tol)
    P = _load_normalization(args.normalization, M.n)
    res = normal_form(M, P, degree, args.tol)
    payload = res.to_json_dict()
    if M is not given:
        payload["note"] = "input was brought to third-order model form first"

    def text(d):
        for row in d["diagnostics"]["per_degree"]:
            print(
                f"degree {row['nu']}: dim {row['dim']}, "
                f"sigma_min {row['sigma_min']:.3e}, residual {row['residual']:.3e}"
            )
        nterms = len(d["N"].get("terms", []))
        print(f"normal form has {nterms} terms through degree {degree}")

    _emit(payload, text, args.json)
    return 0


def _cmd_equiv(args):
    M = _load_input(args.input, args)
    M2 = _load_input(args.input2, args)
    degree = _degree(args, min(M.trunc, M2.trunc))
    P = _load_normalization(args.normalization, M.n) if args.normalization else None
    P2 = _load_normalization(args.normalization2, M2.n) if args.normalization2 else None
    rep = equivalent_to_degree(M, M2, P, P2, degree, args.tol)

    def text(d):
        print(f"invariants_match: {d['invariants_match']}")
        print(f"normal_forms_match: {d['normal_forms_match']}")
        if d["max_deviation"] is not None:
            print(f"max_deviation: {d['max_deviation']:.3e}")
        print(d["note"])

    _emit(rep.to_json_dict(), text, args.json)
    return 0


def _cmd_takagi(args):
    text = _read_source(args.matrix).strip()
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid matrix JSON: {e}") from e
    try:
        E = np.array(
            [
                [
                    complex(x[0], x[1]) if isinstance(x, (list, tuple)) else complex(x)
                    for x in row
                ]
                for row in rows
            ]
        )
    except (TypeError, ValueError) as e:
        raise InputError(f"invalid matrix entries: {e}") from e
    if not np.isfinite(E).all():
        raise InputError("matrix entries must be finite")
    res = takagi(E, args.tol)
    payload = {
        "lambda": [float(x) for x in res.lam],
        "U": matrix_to_json(res.U),
        "residual": float(
            np.max(np.abs(res.U @ E @ res.U.T - np.diag(res.lam)), initial=0.0)
        ),
    }

    def text_fn(d):
        print(f"lambda: {d['lambda']}")
        print(f"residual: {d['residual']:.3e}")

    _emit(payload, text_fn, args.json)
    return 0


def _cmd_aut_bound(args):
    lam = [float(x) for x in args.lam]
    if not all(math.isfinite(x) for x in lam):
        raise InputError("lambda entries must be finite")
    if len(lam) != args.n - 1:
        raise InputError("lambda must have n-1 entries")
    bound = aut_dim_bound(args.n, lam, args.tol)
    _emit(
        {"n": args.n, "lambda": lam, "aut_dim_bound": bound},
        lambda d: print(f"aut_dim_bound: {d['aut_dim_bound']}"),
        args.json,
    )
    return 0


def _build_parser():
    p = argparse.ArgumentParser(
        prog="crnf",
        description="Invariant tensors and formal normal forms for real "
        "hypersurfaces at generic Levi degeneracies",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--json", action="store_true")

    def hypersurface_input(sp):
        sp.add_argument("--trunc", type=int, default=8)
        common(sp)

    sp = sub.add_parser("invariants", help="nondegeneracy order and tensors")
    sp.add_argument("input")
    sp.add_argument("--kmax", type=int, default=3)
    hypersurface_input(sp)
    sp.set_defaults(fn=_cmd_invariants)

    sp = sub.add_parser("partial-nf", help="third-order normalization")
    sp.add_argument("input")
    hypersurface_input(sp)
    sp.set_defaults(fn=_cmd_partial_nf)

    sp = sub.add_parser("normal-form", help="complete formal normal form")
    sp.add_argument("input")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--normalization", default=None, metavar="FILE")
    hypersurface_input(sp)
    sp.set_defaults(fn=_cmd_normal_form)

    sp = sub.add_parser("equiv", help="equivalence test at fixed normalizations")
    sp.add_argument("input")
    sp.add_argument("input2")
    sp.add_argument("--degree", type=int, default=None)
    sp.add_argument("--normalization", default=None, metavar="FILE")
    sp.add_argument("--normalization2", default=None, metavar="FILE")
    hypersurface_input(sp)
    sp.set_defaults(fn=_cmd_equiv)

    sp = sub.add_parser("takagi", help="symmetric-matrix factorization")
    sp.add_argument("matrix")
    common(sp)
    sp.set_defaults(fn=_cmd_takagi)

    sp = sub.add_parser("aut-bound", help="stability-group dimension bound")
    sp.add_argument("n", type=int)
    sp.add_argument("lam", nargs="*")
    common(sp)
    sp.set_defaults(fn=_cmd_aut_bound)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if not 0 < args.tol < math.inf:
            raise InputError(f"--tol must be finite and > 0, got {args.tol}")
        if getattr(args, "kmax", 0) < 0:
            raise InputError(f"--kmax must be >= 0, got {args.kmax}")
        return args.fn(args)
    except (InputError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NormalFormError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
