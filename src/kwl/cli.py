"""Command-line interface.

Subcommands: enumerate, weight, vanish, verify-identity, star,
associativity, globalization, counterterm, suite.  Exit codes: 0 success,
1 check failure, 2 usage or parse error.  KWL_THREADS overrides the worker
count.
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


def _graph_arg(text: str):
    return parse_graph(text)


def _json_arg(text: str) -> dict:
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    return json.loads(text)


def cmd_enumerate(args) -> int:
    try:
        for g in enumerate_graphs(args.n, args.m, args.e):
            print(encode_graph(g))
    except ValueError as exc:
        return _fail_usage(str(exc))
    return 0


def cmd_weight(args) -> int:
    try:
        g = _graph_arg(args.graph)
    except ValueError as exc:
        return _fail_usage(f"bad graph encoding: {exc}")
    try:
        est = compute_weight(g, args.kind, args.samples, args.seed, args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    out = est.to_json_dict()
    if est.exact and len(g.edges) != 2 * g.n + g.m - 2:
        out["note"] = "edge count does not match the slice dimension; weight is exactly zero"
    print(json.dumps(out, sort_keys=True))
    return 0


def cmd_vanish(args) -> int:
    try:
        g = _graph_arg(args.graph)
    except ValueError as exc:
        return _fail_usage(f"bad graph encoding: {exc}")
    try:
        ok, est, pattern = vanishing_check(g, args.kind, args.samples, args.seed,
                                           tol=args.tol, threads=args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps({"graph": est.graph, "pattern": pattern,
                      "value": [est.value.real, est.value.imag],
                      "stderr": est.stderr, "passed": ok}, sort_keys=True))
    return 0 if ok else CHECK_FAILURE


def cmd_verify_identity(args) -> int:
    try:
        g = _graph_arg(args.graph)
    except ValueError as exc:
        return _fail_usage(f"bad graph encoding: {exc}")
    try:
        rep = verify_identity(g, args.kind, args.samples, args.seed,
                              tol=args.tol, threads=args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps(rep.to_json_dict(), sort_keys=True))
    return 0 if rep.passed else CHECK_FAILURE


def cmd_star(args) -> int:
    try:
        pi = bivector_from_json_dict(_json_arg(args.poisson))
        f = poly_from_json_list(pi.dim, _json_arg(args.f))
        g = poly_from_json_list(pi.dim, _json_arg(args.g))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad input: {exc}")
    try:
        series = star_product(pi, args.order, args.kind, args.samples, args.seed,
                              args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    orders = []
    for p in series.multiply(f, g):
        orders.append([{"monomial": list(mono),
                        "coeff": [complex(c).real, complex(c).imag]}
                       for mono, c in sorted(p.items())])
    print(json.dumps({"orders": orders}, sort_keys=True))
    return 0


def cmd_associativity(args) -> int:
    try:
        pi = bivector_from_json_dict(_json_arg(args.poisson))
        f = poly_from_json_list(pi.dim, _json_arg(args.f))
        g = poly_from_json_list(pi.dim, _json_arg(args.g))
        h = poly_from_json_list(pi.dim, _json_arg(args.h))
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return _fail_usage(f"bad input: {exc}")
    try:
        rep = check_associativity(pi, f, g, h, args.order, args.kind,
                                  args.samples, args.seed, threads=args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps({"orders": list(rep.orders), "residuals": list(rep.residuals),
                      "tolerances": list(rep.tolerances), "passed": rep.passed},
                     sort_keys=True))
    return 0 if rep.passed else CHECK_FAILURE


def cmd_globalization(args) -> int:
    try:
        rep = check_globalization(args.kind, args.samples, args.seed,
                                  threads=args.threads)
    except ValueError as exc:
        return _fail_usage(str(exc))
    out = {
        "kind": rep.kind,
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
    print(json.dumps(out, sort_keys=True))
    return 0 if rep.passed else CHECK_FAILURE


def cmd_counterterm(args) -> int:
    try:
        g = _graph_arg(args.graph)
        subset = [int(tok) for tok in args.subset.split(",")]
    except ValueError as exc:
        return _fail_usage(str(exc))
    try:
        rep = counterterm_probe(g, subset, args.kind,
                                scales=tuple(args.scales), seed=args.seed)
    except ValueError as exc:
        return _fail_usage(str(exc))
    print(json.dumps({
        "graph": rep.graph, "kind": rep.kind, "subset": list(rep.subset),
        "scales": list(rep.scales),
        "values": [[v.real, v.imag] for v in rep.values],
        "limit": [rep.limit.real, rep.limit.imag],
        "expected": [rep.expected.real, rep.expected.imag],
        "deviation": rep.deviation, "cauchy_decreasing": rep.cauchy_decreasing,
    }, sort_keys=True))
    return 0


def cmd_suite(args) -> int:
    try:
        cfg = suite_mod.load_config(args.config) if args.config else suite_mod.SuiteConfig()
    except (OSError, ValueError) as exc:
        return _fail_usage(f"bad config: {exc}")
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="kwl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, samples=200_000):
        sp.add_argument("--kind", choices=list(KINDS), default=LOG)
        sp.add_argument("--samples", type=int, default=samples)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--threads", type=int, default=None)

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
    sp.add_argument("--tol", type=float, default=5e-3)
    common(sp)
    sp.set_defaults(fn=cmd_vanish)

    sp = sub.add_parser("verify-identity", help="sum the regularized boundary terms")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--tol", type=float, default=1e-3)
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

    sp = sub.add_parser("globalization", help="vanishing checks for globalization")
    common(sp)
    sp.set_defaults(fn=cmd_globalization)

    sp = sub.add_parser("counterterm", help="collapse-limit probe of the contracted form")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--subset", required=True, help="comma-separated aerial indices")
    sp.add_argument("--scales", type=float, nargs="+",
                    default=[1e-2, 1e-3, 1e-4, 1e-5])
    common(sp)
    sp.set_defaults(fn=cmd_counterterm)

    sp = sub.add_parser("suite", help="run every acceptance check")
    sp.add_argument("--config", default=None, help="flat key = value file")
    sp.add_argument("--out", default=None, help="output directory override")
    sp.set_defaults(fn=cmd_suite)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
