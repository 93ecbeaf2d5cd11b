"""Command-line interface.

Commands emit JSON on stdout (JSONL for sweeps).  Exit codes: 0 success,
1 property failure, 2 input error, 3 enumeration bound exceeded.
``classify-sweep`` streams into ``--out``: a sweep that stops (exit 3, an
error, a kill) keeps the header and the records before the stop, and no
summary.  ``--resume`` re-uses them, or a finished run's records, when
the configuration hash matches; the span bound is in it, so after exit 3
the records are for inspection.  Without ``--resume``, ``--out`` is
truncated when the sweep starts.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import lcm

import numpy as np

from . import bounds
from .classify import (build_graph_cached, graph_to_dot, small_type)
from .errors import (BoundExceeded, DftError, NotTwoAdic, RelationFailed,
                     SymbolSyntaxError, ValidityError)
from .fqm import build_form
from .lifts import isotropic_indices, isotropic_subgroups, lift_span
from .ntheory import prime_power_factors
from .sweep import SweepConfig, run_sweep
from .symbols import parse_symbol
from .verify import _certified_lift_span, run_suite
from .weil import check_relations

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _fail(kind: str, message: str, code: int) -> int:
    _emit({"error": {"type": kind, "message": message}})
    return code


def cmd_info(args) -> int:
    sym = parse_symbol(args.symbol)
    form = build_form(sym)
    info = {
        "symbol": str(sym),
        "order": form.order,
        "level": form.level,
        "signature": form.signature,
        "prime_parts": {str(p): str(sym.prime_part(p)) for p in sym.primes},
        "generators": {
            "orders": list(form.orders),
            "q": [str(x) for x in form.qdiag],
            "gram": [[str(x) for x in row] for row in form.gram],
        },
        "isotropic_elements": len(isotropic_indices(form)),
    }
    if form.order <= bounds.max_enum_order():
        info["isotropic_subgroups"] = len(isotropic_subgroups(form))
    _emit(info)
    return EXIT_OK


def cmd_classify(args) -> int:
    sym = parse_symbol(args.symbol)
    verdict = small_type(sym)
    _emit({
        "symbol": str(sym),
        "small": verdict.small,
        "rule": verdict.rule,
        "per_prime": {str(p): {"small": ok, "rule": rule}
                      for p, (ok, rule) in verdict.per_prime.items()},
    })
    return EXIT_OK


def cmd_image(args) -> int:
    sym = parse_symbol(args.symbol)
    bounds.check_span_order(sym.order)      # before the O(|D|) form build
    form = build_form(sym)
    span = lift_span(form)
    out = {
        "symbol": str(sym),
        "dim": form.order,
        "rank": span.rank,
        "full_image": span.full,
        "primes_used": span.primes_used,
        "fallback_used": span.fallback_used,
        "blocks": span.blocks,
        "cholesky_blocks": span.cholesky_blocks,
        "guided_blocks": span.guided_blocks,
        "components": span.components,
        "distinct_components": span.distinct_components,
        "lone_columns": span.lone_columns,
        "pair_components": span.pair_components,
    }
    two_adic = all(p == 2 for p in prime_power_factors(form.level))
    if two_adic:
        # the graph reads its labelling off the span of a 2-adic form: it
        # is checked against the certified route instead
        out["graph_agrees"] = bool(np.array_equal(
            build_graph_cached(form).nonbipartite,
            _certified_lift_span(form).membership))
    if args.per_element:
        out["members"] = {str(e): bool(span.membership[i])
                          for i, e in enumerate(form.elements)}
    if args.witnesses:
        out["witnesses"] = [list(form.element(int(i)))
                            for i in np.nonzero(~span.membership)[0]]
    _emit(out)
    return EXIT_OK


def cmd_graph(args) -> int:
    sym = parse_symbol(args.symbol)
    # the checks of IsotropyGraph, in its order, before the form is built
    if any(p != 2 for p in sym.primes):
        raise NotTwoAdic(f"level {sym.level} is not a power of 2")
    bounds.check_span_order(sym.order)
    form = build_form(sym)
    graph = build_graph_cached(form)
    if args.dot:
        try:
            with open(args.dot, "w", encoding="utf-8") as fh:
                fh.write(graph_to_dot(graph) + "\n")
        except OSError as exc:
            return _fail("ConfigError",
                         f"cannot write {args.dot}: {exc.strerror}",
                         EXIT_INPUT)
    summary = {
        "symbol": str(sym),
        "vertices": form.order,
        "edges": len(graph.edges),
        "components": graph.n_components,
        "bipartite_components": sum(graph.bipartite),
        "nonbipartite_components": graph.n_components - sum(graph.bipartite),
    }
    if args.dot:
        summary["dot"] = args.dot
    _emit(summary)
    return EXIT_OK


def cmd_weil(args) -> int:
    sym = parse_symbol(args.symbol)
    form = build_form(sym)
    if not args.check:
        _emit({"symbol": str(sym), "conductor": lcm(8, form.level),
               "signature": form.signature})
        return EXIT_OK
    report = check_relations(form)
    _emit({"symbol": str(sym), "relations": report, "all_pass": True})
    return EXIT_OK


def cmd_sweep(args) -> int:
    try:
        primes = tuple(int(p) for p in args.primes.split(","))
    except ValueError:
        return _fail("ConfigError", "--primes takes integers", EXIT_INPUT)
    config = SweepConfig(max_order=args.max_order, primes=primes,
                         jobs=args.jobs, out=args.out, resume=args.resume)
    try:
        summary = run_sweep(config, log=lambda m: print(m, file=sys.stderr))
    except ValueError as exc:
        return _fail("ConfigError", str(exc), EXIT_INPUT)
    _emit(summary)
    return EXIT_OK if not summary["disagreements"] else EXIT_PROPERTY


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.suite, log=lambda m: print(m, file=sys.stderr))
    except ValueError as exc:
        return _fail("UnknownSuite", str(exc), EXIT_INPUT)
    _emit({"suite": args.suite,
           "results": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                       for r in results],
           "all_pass": all(r.passed for r in results)})
    return EXIT_OK if all(r.passed for r in results) else EXIT_PROPERTY


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dft",
        description="discriminant forms, isotropic lifts, Weil representation")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="order, level, signature, counts")
    p.add_argument("symbol")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("classify", help="small-type verdict")
    p.add_argument("symbol")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("image", help="rank of the span of isotropic lifts")
    p.add_argument("symbol")
    p.add_argument("--per-element", action="store_true")
    p.add_argument("--witnesses", action="store_true")
    p.set_defaults(fn=cmd_image)

    p = sub.add_parser("graph", help="order-2 isotropy graph")
    p.add_argument("symbol")
    p.add_argument("--dot", metavar="PATH")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("weil", help="Weil representation matrices")
    p.add_argument("symbol")
    p.add_argument("--check", action="store_true",
                   help="verify the exact matrix relations")
    p.set_defaults(fn=cmd_weil)

    p = sub.add_parser("classify-sweep",
                       help="verify classifier against the rank oracle")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--primes", required=True, help="comma-separated primes")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--resume", action="store_true", help="re-use the "
                   "records of a finished or stopped sweep in --out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("--suite", required=True,
                   choices=["relations", "lemmas", "constructions"])
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (SymbolSyntaxError, ValidityError) as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_INPUT)
    except BoundExceeded as exc:
        return _fail("BoundExceeded", str(exc), EXIT_BOUND)
    except RelationFailed as exc:
        return _fail("RelationFailed",
                     f"{exc} (entry {exc.entry})", EXIT_PROPERTY)
    except DftError as exc:
        return _fail(type(exc).__name__, str(exc), EXIT_PROPERTY)


if __name__ == "__main__":
    sys.exit(main())
