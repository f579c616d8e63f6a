"""Command-line interface.

Subcommands: enumerate, weight, vanish, verify-identity, star,
associativity, globalization, counterterm, suite.  Exit codes: 0 success,
1 check failure, 2 usage or parse error: argparse's usage errors and every
ValueError, OverflowError (an exponent too large for a float) or OSError a
command raises become one ``error:`` line and exit 2.  KWL_THREADS is the
one worker-count setting: no output depends on it.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import suite as suite_mod
from .forms import KINDS, LOG
from .graphs import enumerate_graphs, encode_graph, parse_graph
from .operators import (bivector_from_json_dict, check_associativity,
                        check_globalization, poly_from_json_list, star_product)
from .stokes import counterterm_probe, verify_identity
from .weights import compute_weight, vanishing_check

USAGE_ERROR = 2
CHECK_FAILURE = 1


def _fail_usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


def _print_json(obj: dict) -> None:
    """Print a result as one JSON line; NaN or infinity in it is an error."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"result is not finite: {exc}") from None
    print(text)


def _json_arg(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def _poisson_inputs(args, *names):
    """The bivector ``--poisson`` and the polynomials named by ``names``, each
    inline JSON or ``@file``; any fault in them is reported as bad input."""
    try:
        pi = bivector_from_json_dict(_json_arg(args.poisson))
        return pi, [poly_from_json_list(pi.dim, _json_arg(getattr(args, k))) for k in names]
    except (ValueError, OSError, RecursionError) as exc:  # deep nesting
        raise ValueError(f"bad input: {exc}") from exc


def cmd_enumerate(args) -> int:
    for g in enumerate_graphs(args.n, args.m, args.e):
        print(encode_graph(g))
    return 0


def cmd_weight(args) -> int:
    est = compute_weight(parse_graph(args.graph), args.kind, args.samples, args.seed)
    out = est.to_json_dict()
    if est.exact and est.value == 0:
        out["note"] = "exactly zero by edge count, an odd automorphism or no matching"
    _print_json(out)
    return 0


def cmd_vanish(args) -> int:
    ok, est, pattern, _ = vanishing_check(parse_graph(args.graph), args.kind, args.samples,
                                          args.seed)
    _print_json({"graph": est.graph, "pattern": pattern,
                 "value": [est.value.real, est.value.imag],
                 "stderr": est.stderr, "exact": est.exact, "passed": ok})
    return 0 if ok else CHECK_FAILURE


def cmd_verify_identity(args) -> int:
    rep = verify_identity(parse_graph(args.graph), args.kind, args.samples, args.seed,
                          kinds=(args.kind,))
    _print_json(rep.to_json_dict())
    return 0 if rep.passed else CHECK_FAILURE


def cmd_star(args) -> int:
    pi, (f, g) = _poisson_inputs(args, "f", "g")
    series = star_product(pi, args.order, args.kind, args.samples, args.seed)
    orders = []
    for p in series.multiply(f, g):
        orders.append([{"monomial": list(mono),
                        "coeff": [complex(c).real, complex(c).imag]}
                       for mono, c in sorted(p.items())])
    _print_json({"orders": orders})
    return 0


def cmd_associativity(args) -> int:
    pi, (f, g, h) = _poisson_inputs(args, "f", "g", "h")
    rep = check_associativity(pi, f, g, h, args.order, args.kind, args.samples, args.seed)
    _print_json({"orders": list(rep.orders), "residuals": list(rep.residuals),
                 "tolerances": list(rep.tolerances), "passed": rep.passed})
    return 0 if rep.passed else CHECK_FAILURE


def cmd_globalization(args) -> int:
    rep = check_globalization(args.samples, args.seed)
    out = {
        "vector_pair": [{"graph": g, "pattern": p,
                         "value": [v.real, v.imag], "stderr": e, "passed": ok}
                        for g, p, v, e, ok in rep.vector_pair],
        "linear_slot": [{"graph": g, "class": c, "passed": ok}
                        for g, c, ok in rep.linear_slot],
        "contour": [{"u": [u.real, u.imag], "v": [v.real, v.imag],
                     "value": [val.real, val.imag], "stderr": e, "passed": ok}
                    for u, v, val, e, ok in rep.contour],
        "passed": rep.passed,
    }
    _print_json(out)
    return 0 if rep.passed else CHECK_FAILURE


def cmd_counterterm(args) -> int:
    try:
        subset = [int(tok) for tok in args.subset.split(",")]
    except ValueError:
        raise ValueError(f"--subset {args.subset!r}: expected comma-separated indices") from None
    if len(set(subset)) < len(subset):
        raise ValueError(f"--subset {args.subset!r}: repeated index")
    rep = counterterm_probe(parse_graph(args.graph), subset, args.kind,
                            scales=tuple(args.scales), seed=args.seed)
    _print_json({
        "graph": rep.graph, "kind": rep.kind, "subset": list(rep.subset),
        "scales": list(rep.scales),
        "values": [[v.real, v.imag] for v in rep.values],
        "limit": [rep.limit.real, rep.limit.imag],
        "expected": [rep.expected.real, rep.expected.imag],
        "deviation": rep.deviation, "cauchy_decreasing": rep.cauchy_decreasing,
    })
    return 0


def cmd_suite(args) -> int:
    cfg = suite_mod.load_config(args.config) if args.config else suite_mod.SuiteConfig()
    if args.out:
        cfg = suite_mod.SuiteConfig(**{**cfg.__dict__, "out_dir": args.out})
    results = suite_mod.run_suite(cfg)
    failed = [r.name for r in results if not r.passed]
    print()
    if failed:
        print("FAILED checks:", ", ".join(failed))
        return CHECK_FAILURE
    print(f"all {len(results)} checks passed; reports in {cfg.out_dir}/")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line instead of the usage
    block; subcommand parsers inherit the class."""

    def error(self, message):
        sys.exit(_fail_usage(message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kwl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, kind=True, samples=True):
        if kind:
            sp.add_argument("--kind", choices=list(KINDS), default=LOG)
        sp.add_argument("--seed", type=int, default=0)
        if samples:
            sp.add_argument("--samples", type=int, default=200_000)

    sp = sub.add_parser("enumerate", help="list admissible graphs")
    sp.add_argument("n", type=int)
    sp.add_argument("m", type=int)
    sp.add_argument("e", type=int)
    sp.set_defaults(fn=cmd_enumerate)

    sp = sub.add_parser("weight", help="estimate a graph weight")
    sp.add_argument("--graph", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_weight)

    sp = sub.add_parser("vanish", help="measure a structurally vanishing weight")
    sp.add_argument("--graph", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_vanish)

    sp = sub.add_parser("verify-identity", help="sum the regularized boundary terms")
    sp.add_argument("--graph", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_verify_identity)

    sp = sub.add_parser("star", help="truncated star product on two polynomials")
    sp.add_argument("--poisson", required=True, help="bivector JSON or @file")
    sp.add_argument("--f", required=True, help="polynomial JSON or @file")
    sp.add_argument("--g", required=True, help="polynomial JSON or @file")
    sp.add_argument("--order", type=int, default=2)
    common(sp)
    sp.set_defaults(fn=cmd_star)

    sp = sub.add_parser("associativity", help="associativity residuals of the star product")
    sp.add_argument("--poisson", required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--g", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--order", type=int, default=2)
    common(sp)
    sp.set_defaults(fn=cmd_associativity)

    sp = sub.add_parser("globalization", help="vanishing checks for globalization of U^log")
    common(sp, kind=False)
    sp.set_defaults(fn=cmd_globalization)

    sp = sub.add_parser("counterterm", help="collapse-limit probe of the contracted form")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--subset", required=True, help="comma-separated aerial indices")
    sp.add_argument("--scales", type=float, nargs="+",
                    default=[1e-2, 1e-3, 1e-4, 1e-5])
    common(sp, samples=False)
    sp.set_defaults(fn=cmd_counterterm)

    sp = sub.add_parser("suite", help="run every acceptance check")
    sp.add_argument("--config", default=None, help="flat key = value file")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OverflowError, OSError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    sys.exit(main())
