"""Command line front end: evaluate families and densities, run the suite.

Subcommands:

* ``eval SELECTOR``   tabulate one polynomial family, density, or moment on
                      an x grid (CSV or JSON rows).
* ``verify``          run the quadrature check suite; exit 0 only if every
                      check passes.
* ``expand TARGET``   compare a truncated kernel/moment expansion against
                      its closed form on an x grid.

Exit codes: 0 success, 1 verification failure, 2 usage or precondition
error.  Floats are serialized with repr, so CSV and JSON runs of the same
command carry identical digits and identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .qcore import DomainError, PoleError, TruncationError, _check_base
from .polyfam import (
    asc_P,
    asc_Q,
    b_big,
    b_small,
    chebyshev_U,
    hermite_h,
    hermite_H,
)
from .awpoly import CondDensityParams, aw_A_sym, aw_D, map_params
from .densities import f_CN, f_N, phi_cond
from .moments import c_n_gaussian, c_n_main, gamma_mk_partial, phi_expansion_partial
from .verify import SuiteConfig, _strict, report_to_json, report_to_text, run_suite

__all__ = ["main", "entry"]

_EVAL_SELECTORS = ("h", "H", "Q", "P", "B", "b", "U", "D", "A", "f_N", "f_CN", "phi", "C")


def _finite(text):
    """argparse type: a float that is neither infinite nor nan."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _base(text):
    """argparse type: a finite base q with -1 < q <= 1."""
    value = _finite(text)
    try:
        _check_base(value)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qaw",
        description="Askey-Wilson polynomials with conjugate complex parameters: "
        "evaluation, densities, moments, and a verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a family, density, or moment on a grid")
    ev.add_argument("selector", choices=_EVAL_SELECTORS, metavar="SELECTOR",
                    help="one of " + ", ".join(_EVAL_SELECTORS))
    ev.add_argument("--n", type=int, default=0, help="degree / moment order")

    vf = sub.add_parser("verify", help="run the verification suite")
    group = vf.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--check", default=None, metavar="NAME", help="run one check")
    vf.add_argument("--q", type=_base, default=None,
                    help="restrict the q grid to this single value")
    vf.add_argument("--nmax", type=int, default=SuiteConfig.nmax,
                    help="cap the polynomial orders used by the checks")
    vf.add_argument("--tol", type=_finite, default=None,
                    help="override the tolerance of the selected checks")
    vf.add_argument("--format", choices=("text", "json"), default="text")

    ex = sub.add_parser("expand", help="compare a partial expansion with its closed form")
    ex.add_argument("target", choices=("phi", "fcn"), metavar="TARGET",
                    help="phi: moment expansion of the two-sided density; "
                    "fcn: Poisson-Mehler kernel for the one-sided density")
    ex.add_argument("--n", type=int, default=40, help="number of series terms")

    for cmd in (ev, ex):
        cmd.add_argument("--q", type=_base, required=True, help="base parameter in (-1, 1]")
        cmd.add_argument("--rho1", type=_finite, default=0.0)
        cmd.add_argument("--rho2", type=_finite, default=0.0)
        cmd.add_argument("--y", type=_finite, default=0.0, help="first conditioning point")
        cmd.add_argument("--z", type=_finite, default=0.0, help="second conditioning point")
        cmd.add_argument("--x", type=_finite, default=None, help="single evaluation point")
        cmd.add_argument("--grid", type=_parse_grid, default=None, metavar="LO:HI:COUNT",
                         help="inclusive evaluation grid")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _parse_grid(spec):
    """argparse type: LO:HI:COUNT with finite bounds, as the inclusive point list."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be LO:HI:COUNT, got {spec!r}")
    lo, hi = _finite(parts[0]), _finite(parts[1])
    try:
        count = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid COUNT must be an integer, got {spec!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"grid count must be >= 1, got {count}")
    return [float(v) for v in np.linspace(lo, hi, count)]


def _points(args):
    if args.grid is not None and args.x is not None:
        raise DomainError("give either --x or --grid, not both")
    if args.grid is not None:
        return args.grid
    if args.x is not None:
        return [args.x]
    raise DomainError("an evaluation point is required: pass --x or --grid")


def _emit(rows, fmt, out):
    """Write rows as strict JSON, or as CSV headed by the first row's keys with floats by repr."""
    if fmt == "json":
        out.write(json.dumps([{k: _strict(v) for k, v in row.items()} for row in rows]))
        out.write("\n")
        return
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])
    out.write(text.getvalue())


def _table(head, points, cells):
    """One row per point: the head columns, x, then the columns cells(x) returns."""
    return [{**head, "x": x, **cells(x)} for x in points]


def _cmd_eval(args, out):
    sel = args.selector
    n, q = args.n, args.q
    if n < 0:
        raise DomainError(f"--n must be nonnegative, got {n}")
    one = {"y": args.y, "rho1": args.rho1}
    two = {**one, "z": args.z, "rho2": args.rho2}

    if sel == "C":
        if args.x is not None or args.grid is not None:
            raise DomainError("selector C is a function of (y, z); it takes no x grid")
        p = CondDensityParams(args.y, args.rho1, args.z, args.rho2, q)
        value = c_n_gaussian(n, p.y, p.z, p.rho1, p.rho2) if q == 1 else c_n_main(n, p)
        _emit([{"n": n, "q": q, **two, "value": float(value)}], args.format, out)
        return 0

    points = _points(args)
    if sel in ("h", "H", "B", "b", "U"):
        fn = {"h": hermite_h, "H": hermite_H, "B": b_big, "b": b_small}.get(sel)
        head, at = {}, lambda x: chebyshev_U(n, x) if sel == "U" else fn(n, x, q)
    elif sel == "Q":
        params = map_params(CondDensityParams(args.y, args.rho1, 0.0, 0.0, q))
        head, at = one, lambda x: asc_Q(n, x, params.a, params.b, q)
    elif sel == "P":
        head, at = one, lambda x: asc_P(n, x, args.y, args.rho1, q)
    elif sel == "D":
        params = map_params(CondDensityParams(args.y, args.rho1, args.z, args.rho2, q))
        head, at = two, lambda x: aw_D(n, x, params, q)
    elif sel == "A":
        p = CondDensityParams(args.y, args.rho1, args.z, args.rho2, q)
        head, at = two, lambda x: aw_A_sym(n, x, p)
    elif sel == "f_N":
        head, at = {}, lambda x: f_N(x, q)
    elif sel == "f_CN":
        head, at = one, lambda x: f_CN(x, args.y, args.rho1, q)
    else:  # phi
        p = CondDensityParams(args.y, args.rho1, args.z, args.rho2, q)
        head, at = two, lambda x: phi_cond(x, p)
    if sel in ("f_N", "f_CN", "phi"):
        rows = _table({"q": q, **head}, points, lambda x: asdict(at(x)))  # value, terms
    else:
        rows = _table({"n": n, "q": q, **head}, points, lambda x: {"value": float(at(x))})
    _emit(rows, args.format, out)
    return 0


def _cmd_verify(args, out):
    config = SuiteConfig(
        checks=SuiteConfig.checks if args.all else (args.check,),
        q_grid=SuiteConfig.q_grid if args.q is None else (args.q,),
        nmax=args.nmax,
        tol=args.tol,
    )
    reports = run_suite(config)
    if args.format == "json":
        out.write(report_to_json(reports))
        out.write("\n")
    else:
        out.write(report_to_text(reports))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_expand(args, out):
    points = _points(args)
    N, q = args.n, args.q
    if N < 1:
        raise DomainError(f"--n must be at least 1, got {N}")
    if args.target == "fcn":
        head = {"y": args.y, "rho1": args.rho1}

        def pair(x):
            closed, density = f_CN(x, args.y, args.rho1, q).value, f_N(x, q).value
            # f_N is 0 off the open support, where the kernel's H_i(x) overflow
            if density == 0:
                return closed, 0.0
            return closed, density * gamma_mk_partial(0, 0, x, args.y, args.rho1, q, N)
    else:
        p = CondDensityParams(args.y, args.rho1, args.z, args.rho2, q)
        head = {"y": p.y, "rho1": p.rho1, "z": p.z, "rho2": p.rho2}

        def pair(x):
            return phi_cond(x, p).value, phi_expansion_partial(x, p, N)

    def cells(x):
        closed, partial = pair(x)
        partial = float(partial)
        return {"closed_form": closed, "partial_sum": partial, "abs_error": abs(closed - partial)}

    _emit(_table({"q": q, **head, "n_terms": N}, points, cells), args.format, out)
    return 0


def _glue_option_values(argv):
    """Join '--grid LO:HI:COUNT' into '--grid=...' so negative bounds parse.

    argparse treats '-2:2:5' as an unknown option; the '=' form binds the
    value unconditionally.
    """
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--grid" and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        merged.append(tok)
        i += 1
    return merged


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_option_values(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "eval":
            return _cmd_eval(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        return _cmd_expand(args, out)
    except (DomainError, PoleError, TruncationError, ValueError) as exc:
        print(f"qaw: error: {exc}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())
