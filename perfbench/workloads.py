"""The two workloads, each built from the ``dft`` package's public calls.

Every item builds its form fresh: command-line users pay for the build
on every call, so ``verify.form_of``'s process-wide cache is never used.

Each workload has an untraced item function (the package's own entry
point, used for the end-to-end metrics) and a traced one that makes the
same public calls in the same order with a span around each call into a
layer.  Spans marked ``probe`` repeat a call the package makes inside
another one, so that its cost can be seen on its own; they add work to the
traced run only.

A workload's items are a fixed subset of its corpus, a pass over which
takes a few seconds, so that a run repeats every item many times.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from dft import verify
from dft.classify import build_graph_cached, small_type
from dft.exact import span_of_indicator_columns
from dft.fqm import build_form, quotient_form, subgroup_from_generators
from dft.lifts import (check_transitivity, isotropic_subgroups, lift_span,
                       prime_order_subgroups, span_columns,
                       spans_agree_with_all_subgroups)
from dft.sweep import MAX_WITNESSES, evaluate_symbol
from dft.symbols import enumerate_symbols, parse_symbol
from dft.weil import check_lift_equivariance, check_relations

from harness import Item, cost_subset
from tracer import Tracer

REFERENCE = Path(__file__).with_name("reference.json")

# the A1 corpus of the acceptance suite
SWEEP_CORPUS = (({3}, 729), ({5}, 625), ({2}, 256))
LEMMA_MAX_ORDER = 96
TRANSITIVITY_SYMBOL = "4_II^+4"
# the A4 corpus: 2-adic forms whose isotropy graph is checked
GRAPH_MAX_ORDER = 256
# Every STEP-th item of each corpus, in order of cost, is timed.
SWEEP_STEP = 15          # of the 2,259 A1 symbols
SPANS_STEP = 12          # of the 1,659 lemma symbols
TRANSITIVITY_STEP = 56   # of the 1,121 nested 4_II^+4 pairs
RELATIONS_STEP = 4       # of the 99 forms of the Weil corpus
EQUIVARIANCE_STEP = 2    # of the 52 equivariance pairs
GRAPH_STEP = 40          # of the 2,137 A4 forms
# the two pairs verify._check_equivariance adds to the weil corpus pairs
EQUIVARIANCE_NAMED = (("2_II^+4", ((1, 0, 0, 0), (0, 0, 1, 0))),
                      ("2_II^+2", ((1, 0),)))
EQUIVARIANCE_MAX_ORDER = 32
RELATIONS_REPORT = {"unitarity": True, "s-square": True, "braid": True,
                    "gauss-row": True}

DIGEST_FIELDS = ("order", "level", "signature", "small", "rule",
                 "image_rank", "full_image", "witness_count")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def record_digest(record: dict) -> str:
    """Digest of a sweep record's mathematical fields."""
    blob = json.dumps({f: record.get(f) for f in DIGEST_FIELDS},
                      sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _graph_agrees(graph, membership) -> bool:
    verdicts = np.array([not graph.bipartite[int(c)] for c in graph.component])
    return bool(np.array_equal(verdicts, membership))


def _span_traced(form, tr: Tracer):
    """``lift_span`` composed from the calls it makes, one span each."""
    with tr.span("lifts.prime_order_subgroups"):
        lines = prime_order_subgroups(form)
    with tr.span("lifts.span_columns"):
        cols = span_columns(form, lines)
    with tr.span("exact.span"):
        res = span_of_indicator_columns(form.order, cols)
    tr.count("exact.span_calls")
    tr.count("lifts.lines", len(lines))
    tr.count("lifts.columns", len(cols))
    tr.count("exact.columns", len(cols))
    tr.count("exact.rank", res.rank)
    tr.count("exact.deficient", int(not res.full))
    tr.count("exact.kernel_vectors", len(res.kernel))
    return res


@dataclass
class Workload:
    name: str
    setup: Callable[[Tracer | None], list[Item]]
    run: Callable[[Item], Any]
    traced: Callable[[Item, Tracer], Any]
    check: Callable[[Item, Any], bool]


def _setup_span(tr: Tracer | None, name: str):
    return tr.span(name) if tr is not None else nullcontext()


# ---------------------------------------------------------------------------
# sweep: sweep.evaluate_symbol over a subset of the A1 corpus
# ---------------------------------------------------------------------------


def sweep_setup(tr: Tracer | None = None) -> list[Item]:
    ref = load_reference()["sweep"]
    with _setup_span(tr, "symbols.enumerate"):
        syms = [s for primes, max_order in SWEEP_CORPUS
                for s in enumerate_symbols(max_order, primes)]
    items = [Item(str(s), (s.order,), (str(s),), ref[str(s)]) for s in syms]
    return cost_subset(items, SWEEP_STEP)


def sweep_run(item: Item) -> dict:
    return evaluate_symbol(item.args[0])


def sweep_traced(item: Item, tr: Tracer) -> dict:
    text = item.args[0]
    with tr.span("sweep.evaluate"):
        with tr.span("symbols.parse"):
            sym = parse_symbol(text)
        with tr.span("fqm.build_form"):
            form = build_form(sym)
        with tr.span("classify.small_type"):
            verdict = small_type(sym)
        span = _span_traced(form, tr)
        with tr.span("fqm.signature"):
            level, signature = form.level, form.signature
        record = {
            "kind": "record",
            "symbol": text,
            "order": form.order,
            "level": level,
            "signature": signature,
            "small": verdict.small,
            "rule": verdict.rule,
            "image_rank": span.rank,
            "full_image": span.full,
            "agreement": verdict.small == (not span.full),
        }
        if not span.full:
            missing = [int(i) for i in (~span.membership).nonzero()[0]]
            record["witness_count"] = len(missing)
            record["witnesses"] = [list(form.element(i))
                                   for i in missing[:MAX_WITNESSES]]
    return record


def sweep_check(item: Item, record: dict) -> bool:
    return bool(record["agreement"]) and record_digest(record) == item.expected


# ---------------------------------------------------------------------------
# checks: the lemma, Weil and graph checks of the acceptance suite
# ---------------------------------------------------------------------------


def _nested_pairs(form):
    subs = isotropic_subgroups(form)
    sets = [set(H.elements) for H in subs]
    return [(subs[i], subs[j]) for i in range(len(subs))
            for j in range(len(subs))
            if subs[j].order > subs[i].order and sets[i] <= sets[j]]


def _equivariance_pairs(corpus):
    """The (form, H) pairs ``verify._check_equivariance`` builds."""
    pairs = []
    for sym in corpus:
        form = build_form(sym)
        if form.order <= EQUIVARIANCE_MAX_ORDER:
            pairs += [(sym, H) for H in prime_order_subgroups(form)]
    for text, gens in EQUIVARIANCE_NAMED:
        sym = parse_symbol(text)
        pairs.append((sym, subgroup_from_generators(build_form(sym), gens)))
    return pairs


def checks_setup(tr: Tracer | None = None) -> list[Item]:
    with _setup_span(tr, "symbols.enumerate"):
        spans = enumerate_symbols(LEMMA_MAX_ORDER, {2, 3, 5})
        graphs = enumerate_symbols(GRAPH_MAX_ORDER, {2})
        weil = verify.weil_corpus()
    with _setup_span(tr, "setup.pairs"):
        sym = parse_symbol(TRANSITIVITY_SYMBOL)
        nested = _nested_pairs(build_form(sym))
        equivariance = _equivariance_pairs(weil)
    kinds = (
        (SPANS_STEP, [Item(f"spans:{s}", (s.order,), ("spans", s), True)
                      for s in spans]),
        (TRANSITIVITY_STEP,
         [Item(f"pair:{sym}#{k}", (H.order, K.order), ("pair", sym, H, K),
               True)
          for k, (H, K) in enumerate(nested)]),
        (RELATIONS_STEP, [Item(f"relations:{s}", (s.order,), ("relations", s),
                               RELATIONS_REPORT) for s in weil]),
        (EQUIVARIANCE_STEP,
         [Item(f"equivariance:{s}#{H.generators}", (s.order,),
               ("equivariance", s, H), True) for s, H in equivariance]),
        (GRAPH_STEP, [Item(f"graph:{s}", (s.order,), ("graph", s), True)
                      for s in graphs]),
    )
    return [it for step, items in kinds for it in cost_subset(items, step)]


def checks_run(item: Item):
    kind = item.args[0]
    form = build_form(item.args[1])
    if kind == "spans":
        return spans_agree_with_all_subgroups(form)
    if kind == "pair":
        return check_transitivity(form, *item.args[2:])
    if kind == "relations":
        return check_relations(form)
    if kind == "equivariance":
        return check_lift_equivariance(form, item.args[2])
    return _graph_agrees(build_graph_cached(form), lift_span(form).membership)


def checks_traced(item: Item, tr: Tracer):
    kind = item.args[0]
    with tr.span("fqm.build_form"):
        form = build_form(item.args[1])
    if kind == "spans":
        # one call, so spans_agree below finds the span cached on the form
        # as it does untraced; exact runs inside this span
        with tr.span("lifts.lift_span"):
            res = lift_span(form)
        tr.count("exact.span_calls")
        tr.count("exact.deficient", int(not res.full))
        tr.count("exact.kernel_vectors", len(res.kernel))
        with tr.span("lifts.spans_agree"):
            ok = spans_agree_with_all_subgroups(form)
        if not res.full:
            with tr.span("lifts.isotropic_subgroups", probe=True):
                tr.count("lifts.isotropic_subgroups",
                         len(isotropic_subgroups(form)))
        return ok
    if kind == "pair":
        H, K = item.args[2:]
        with tr.span("lifts.check_transitivity"):
            ok = check_transitivity(form, H, K)
        tr.count("lifts.transitivity_pairs")
        with tr.span("fqm.quotient_form", probe=True):
            quotient_form(form, H)
        return ok
    if kind == "relations":
        with tr.span("fqm.signature"):
            form.signature
        with tr.span("weil.check_relations"):
            report = check_relations(form)
        tr.count("weil.check_relations_calls")
        return report
    if kind == "equivariance":
        with tr.span("weil.equivariance"):
            ok = check_lift_equivariance(form, item.args[2])
        tr.count("weil.equivariance_pairs")
        return ok
    span = _span_traced(form, tr)
    with tr.span("classify.graph"):
        graph = build_graph_cached(form)
    tr.count("classify.graph_edges",
             sum(len(ns) for ns in graph.neighbors) // 2)
    return _graph_agrees(graph, span.membership)


def checks_check(item: Item, answer) -> bool:
    return answer == item.expected


# A run of either workload makes ten or more passes of 151 (sweep) or 265
# (checks) items, so its 1,500 or more item runs support p99.
TAIL_PCT = 99

WORKLOADS = {
    "sweep": Workload("sweep", sweep_setup, sweep_run, sweep_traced,
                      sweep_check),
    "checks": Workload("checks", checks_setup, checks_run, checks_traced,
                       checks_check),
}
