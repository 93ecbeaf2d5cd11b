"""Named invariant suites tying the modules together.

Three suites, each a list of named checks over documented corpora:

* ``relations``     -- exact Weil matrix identities and lift equivariance;
* ``lemmas``        -- structural equivalences (prime-order spans suffice,
                       membership criteria, graph vs. algebra, the
                       labelled 2-adic span vs. the certified one, duality,
                       catalogs vs. search, tail independence);
* ``constructions`` -- the explicit certificate constructions re-evaluate
                       exactly, plus adjointness and transitivity.

Every check is registered in ``CHECKS`` under the name its results carry,
and ``SUITES`` lists those names.  The tests run these same checks, the
acceptance tests A3 and A4 at a larger bound than the CLI suites use, and
every entry of ``CHECKS`` is run by at least one test.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable

import numpy as np

from .classify import (build_graph_cached, contains_isotropic_elementary,
                       max_isotropic_rank, no_cube_catalog_check, small_type)
from .errors import DftError, HypothesisFailed
from .exact import IndicatorColumns, _certified_span, annihilates
from .fqm import (DiscriminantForm, build_form, direct_sum, milgram_check,
                  subgroup_from_generators)
from .lifts import (check_transitivity, e_gamma_in_image,
                    isotropic_subgroups, kernel_vector, lift_matrix, lift_span,
                    odd_cycle_expression, perp_pair_table,
                    prime_order_columns, prime_order_subgroups,
                    rank5_expression, spans_agree_with_all_subgroups)
from .symbols import GenusSymbol, enumerate_symbols, parse_symbol
from .weil import check_lift_equivariance, check_relations


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


CHECKS: dict[str, Callable[..., CheckResult]] = {}


def _check(name: str):
    """Register a check returning (passed, detail) in ``CHECKS`` under the
    name its results carry.  A check run on its own keeps the forms it
    builds with ``form_of`` until it returns."""
    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> CheckResult:
            with _form_cache():
                return CheckResult(name, *fn(*args, **kwargs))
        CHECKS[name] = run
        return run
    return register


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

_NAMED_WEIL = (
    "1", "2_1^+1", "2_7^+1", "3^-1", "3^+1", "5^+1", "5^-1", "7^+1", "7^-1",
    "2_II^+2", "2_II^-2", "4_1^+1", "4_II^+2", "4_II^-2", "8_1^+1",
    "2_1^+1.3^-1", "2_II^-2.3^-1", "8_1^+1.2_1^+1", "2_1^+1.4_1^+1",
    "3^-2", "3^+2", "9^-1", "2_1^+1.5^+1", "4_5^-1.3^+1",
    "2_II^+2.3^-1.5^+1", "2_3^-3", "2_II^+4", "2_0^+4", "16_1^+1",
    "2_II^+6", "2_2^+6", "2_II^-6", "8_0^+2",
)


def weil_corpus() -> list[GenusSymbol]:
    syms = {str(s): s for s in enumerate_symbols(12, {2, 3})}
    for text in _NAMED_WEIL:
        sym = parse_symbol(text)
        if sym.order <= 64:
            syms[str(sym)] = sym
    return [syms[k] for k in sorted(syms, key=lambda t: (syms[t].order, t))]


def lemma_corpus(max_order: int = 128) -> list[GenusSymbol]:
    return enumerate_symbols(max_order, {2, 3, 5})


# the forms built by form_of in the open cache scope; None outside one
_forms: dict[str, DiscriminantForm] | None = None


@contextmanager
def _form_cache():
    """Keep the forms ``form_of`` builds, with their cached spans, graphs
    and quotients, until the outermost scope ends: one ``run_suite``
    call, or one check run on its own."""
    global _forms
    if _forms is not None:
        yield
        return
    _forms = {}
    try:
        yield
    finally:
        _forms = None


def form_of(sym: GenusSymbol) -> DiscriminantForm:
    """The form of ``sym``, built once per cache scope (``_form_cache``) so
    that its spans and graphs are computed once; outside a scope, built
    afresh."""
    if _forms is None:
        return build_form(sym)
    key = str(sym)
    if key not in _forms:
        _forms[key] = build_form(sym)
    return _forms[key]


def _is_prime_local(sym: GenusSymbol) -> bool:
    return len(sym.primes) == 1


# ---------------------------------------------------------------------------
# relations suite
# ---------------------------------------------------------------------------


@_check("weil-relations")
def _check_weil_relations() -> tuple[bool, str]:
    n = 0
    for sym in weil_corpus():
        check_relations(form_of(sym))
        n += 1
    return True, f"{n} forms, all exact"


@_check("conductor-independence")
def _check_conductor_independence() -> tuple[bool, str]:
    form = form_of(parse_symbol("2_1^+1.3^-1"))
    base = lcm(8, form.level)
    check_relations(form, conductor=2 * base)
    return True, f"relations reproduced at conductor {2 * base}"


@_check("lift-equivariance")
def _check_equivariance() -> tuple[bool, str]:
    pairs = 0
    for sym in weil_corpus():
        form = form_of(sym)
        if form.order > 32:
            continue
        for H in prime_order_subgroups(form):
            check_lift_equivariance(form, H)
            pairs += 1
    for text, gens in (("2_II^+4", [(1, 0, 0, 0), (0, 0, 1, 0)]),
                       ("2_II^+2", [(1, 0)])):
        form = form_of(parse_symbol(text))
        check_lift_equivariance(form, subgroup_from_generators(form, gens))
        pairs += 1
    return True, f"{pairs} (form, H) pairs"


@_check("milgram-certificate")
def _check_milgram() -> tuple[bool, str]:
    n = 0
    for sym in lemma_corpus(96):
        if not milgram_check(form_of(sym)):
            return False, str(sym)
        n += 1
    return True, f"{n} forms"


# ---------------------------------------------------------------------------
# lemmas suite
# ---------------------------------------------------------------------------


@_check("prime-order-spans-suffice")
def _check_prime_order_spans(max_order: int = 128) -> tuple[bool, str]:
    n = 0
    for sym in lemma_corpus(max_order):
        if not spans_agree_with_all_subgroups(form_of(sym)):
            return False, str(sym)
        n += 1
    return True, f"{n} forms"


def _line_counts(form: DiscriminantForm) -> np.ndarray:
    """Number of isotropic prime-order subgroups inside each gamma_perp."""
    gens = np.array([H.indices[1] for H in prime_order_subgroups(form)],
                    dtype=np.int64)
    return (form.b_row_num(gens) == 0).sum(axis=0)


@_check("membership-needs-two-lines")
def _check_two_lines_necessary(max_order: int = 128) -> tuple[bool, str]:
    checked = 0
    for sym in lemma_corpus(max_order):
        if not _is_prime_local(sym):
            continue
        form = form_of(sym)
        member = lift_span(form).membership
        counts = _line_counts(form)
        if np.any(member & (counts < 2)):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


@_check("orthogonal-pair-forces-membership")
def _check_pair_sufficient(max_order: int = 128) -> tuple[bool, str]:
    checked = 0
    for sym in lemma_corpus(max_order):
        if not _is_prime_local(sym):
            continue
        p = sym.primes[0]
        form = form_of(sym)
        member = lift_span(form).membership
        pair = perp_pair_table(form, p)
        if np.any(pair & ~member):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


def _odd_p_hypothesis_mask(form: DiscriminantForm, p: int) -> np.ndarray:
    """Elements of order <= p, or of higher order with p dividing the
    numerator of q against the denominator ord(gamma)."""
    qn, L, o = form.qnum_array(), form.level, form.order_array()
    g = np.gcd(qn, L)           # q = (qn / g) / (L / g) in lowest terms
    return (o <= p) | ((qn // g) * (o // (L // g)) % p == 0)


@_check("odd-p-membership-iff-pair")
def _check_odd_p_iff(max_order: int = 125) -> tuple[bool, str]:
    checked = 0
    for p in (3, 5):
        for sym in enumerate_symbols(max_order, {p}):
            form = form_of(sym)
            member = lift_span(form).membership
            pair = perp_pair_table(form, p)
            hyp = _odd_p_hypothesis_mask(form, p)
            if np.any(hyp & (member != pair)):
                return False, str(sym)
            checked += 1
    return True, f"{checked} forms"


def _certified_lift_span(form: DiscriminantForm):
    """The lift span of ``form`` by the certified route, which
    ``lift_span`` bypasses on 2-adic forms, on the columns the form keeps
    (``prime_order_columns``); the result is not kept.  A4 and ``dft
    image`` check the isotropy graph, which reads ``lift_span``'s
    labelling, against it."""
    return _certified_span(form.order, prime_order_columns(form))


@_check("graph-matches-algebra")
def _check_graph_matches_algebra(max_order: int = 128) -> tuple[bool, str]:
    """The graph's verdict against membership by linear algebra on the same
    columns: the graph reads the labelling that answers ``lift_span`` of
    a 2-adic form, so only the certified route tests the criterion."""
    checked = 0
    for sym in enumerate_symbols(max_order, {2}):
        form = form_of(sym)
        member = _certified_lift_span(form).membership
        if not np.array_equal(build_graph_cached(form).nonbipartite, member):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


@_check("pair-span-matches-certified")
def _check_pair_span(max_order: int = 128) -> tuple[bool, str]:
    """``lift_span`` of each 2-adic form, answered by one labelling of the
    isotropy graph, against the certified route entry for entry: rank,
    membership, kernel dtype, shape and bytes."""
    checked = 0
    for sym in enumerate_symbols(max_order, {2}):
        form = form_of(sym)
        got, want = lift_span(form), _certified_lift_span(form)
        if not (got.rank == want.rank
                and np.array_equal(got.membership, want.membership)
                and got.kernel.dtype == want.kernel.dtype
                and got.kernel.shape == want.kernel.shape
                and got.kernel.tobytes() == want.kernel.tobytes()):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


@_check("span-kernel-duality")
def _check_duality(max_order: int = 96) -> tuple[bool, str]:
    """The rank and the verified kernel of the lift span add up to |D|,
    and the kernel annihilates every column of every prime-order lift
    matrix.  Those columns are built through ``quotient_form`` and its
    projection, a route independent of the span's ``span_columns``; a
    full span has an empty kernel, which annihilates them all."""
    checked = 0
    for sym in lemma_corpus(max_order):
        form = form_of(sym)
        res = lift_span(form)
        if res.rank + len(res.kernel) != form.order:
            return False, str(sym)
        if len(res.kernel) and not annihilates(
                res.kernel, IndicatorColumns.from_blocks([
                    lift_matrix(form, H).columns
                    for H in prime_order_subgroups(form)])):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


@_check("catalog-matches-search")
def _check_catalog_vs_search(max_order: int = 128) -> tuple[bool, str]:
    checked = 0
    for sym in lemma_corpus(max_order):
        if not _is_prime_local(sym):
            continue
        p = sym.primes[0]
        predicted = no_cube_catalog_check(sym)
        found = contains_isotropic_elementary(form_of(sym), p, 3)
        if predicted != (not found):
            return False, str(sym)
        checked += 1
    return True, f"{checked} forms"


@_check("max-isotropic-rank")
def _check_max_rank_formula() -> tuple[bool, str]:
    cases = [(n, sign) for n in range(1, 7) for sign in (1, -1)]
    for n, sign in cases:
        sym = parse_symbol(f"3^{'+' if sign == 1 else '-'}{n}")
        form = form_of(sym)
        want = max_isotropic_rank(3, n, sign)
        if not contains_isotropic_elementary(form, 3, want) and want > 0:
            return False, f"{sym}: < {want}"
        if contains_isotropic_elementary(form, 3, want + 1):
            return False, f"{sym}: > {want}"
    return True, f"{len(cases)} level-3 forms"


_TAIL_SAMPLE = ("1", "2_1^+1", "2_7^+1", "2_II^+2", "2_II^-2", "4_1^+1",
                "4_3^-1", "2_2^+2", "2_1^+1.4_1^+1", "2_II^+2.4_1^+1",
                "2_3^-1", "2_0^+2")


@_check("tail-independence")
def _check_tail_independence() -> tuple[bool, str]:
    from .ntheory import kronecker2
    rows = 0
    for a_text in _TAIL_SAMPLE:
        base = parse_symbol(a_text)
        verdicts = set()
        for scale in (8, 16):
            for t in (1, 3, 5, 7):
                sign = "+" if kronecker2(t) == 1 else "-"
                tail = f"{scale}_{t}^{sign}1"
                text = tail if a_text == "1" else f"{a_text}.{tail}"
                form = form_of(parse_symbol(text))
                verdicts.add(lift_span(form).full)
                rows += 1
        if len(verdicts) != 1:
            return False, a_text
    return True, f"{rows} forms over {len(_TAIL_SAMPLE)} bases"


@_check("rank7-never-small")
def _check_rank_seven_not_small() -> tuple[bool, str]:
    # group rank = max over p of the p-rank
    checked = 0
    for sym in lemma_corpus(256):
        rank = max((sym.rank_of_prime(p) for p in sym.primes), default=0)
        if rank >= 7 and small_type(sym).small:
            return False, str(sym)
        if rank >= 6 and sym.level % 2 and small_type(sym).small:
            return False, f"{sym} (odd level, rank 6)"
        checked += 1
    return True, f"{checked} symbols"


# ---------------------------------------------------------------------------
# constructions suite
# ---------------------------------------------------------------------------


@_check("kernel-vector")
def _check_kernel_vectors() -> tuple[bool, str]:
    cases = 0
    form = form_of(parse_symbol("3^-1"))
    v = kernel_vector(form, (1,))
    if v != {(1,): Fraction(1)}:
        return False, "3^-1"
    cases += 1
    split = direct_sum(build_form(parse_symbol("3^-2")),
                       build_form(parse_symbol("3^+1")))
    v = kernel_vector(split, (0, 0, 1))
    if v[(0, 0, 1)] != 1 or sorted(v.values()).count(Fraction(-1, 2)) != 4:
        return False, "3^-2 + 3^+1"
    cases += 1
    for text, gamma in (("2_II^+2", (0, 0)), ("2_1^+1", (1,)),
                        ("9^-1", (1,)), ("5^+1", (2,)), ("4_1^+1", (2,))):
        form = form_of(parse_symbol(text))
        v = kernel_vector(form, gamma)   # self-verifying
        if v[gamma] != 1:
            return False, text
        cases += 1
    return True, f"{cases} cases"


@_check("odd-cycle-expression")
def _check_odd_cycles(max_order: int = 64) -> tuple[bool, str]:
    walks = 0
    for sym in enumerate_symbols(max_order, {2}):
        form = form_of(sym)
        graph = build_graph_cached(form)
        # the least element of each component, in the order of the components
        _, first = np.unique(graph.component, return_index=True)
        for i in first[~np.array(graph.bipartite, dtype=bool)].tolist():
            gamma = form.element(i)
            walk = graph.odd_walk_through(gamma)
            terms = odd_cycle_expression(form, walk)  # self-verifying
            if not terms or not e_gamma_in_image(form, gamma):
                return False, str(sym)
            walks += 1
    return True, f"{walks} closed walks"


@_check("rank5-expression")
def _check_rank5() -> tuple[bool, str]:
    built = 0
    for tail in ("9^+1", "9^-1"):
        form = direct_sum(build_form(parse_symbol("3^-4")),
                          build_form(parse_symbol(tail)))
        gamma = (0, 0, 0, 0, 1)
        rank5_expression(form, gamma)    # self-verifying
        if not e_gamma_in_image(form, gamma):
            return False, tail
        built += 1
    try:
        bad = direct_sum(build_form(parse_symbol("3^-4")),
                         build_form(parse_symbol("3^+1")))
        rank5_expression(bad, (0, 0, 0, 0, 1))
        return False, "level-p case must be rejected"
    except HypothesisFailed:
        pass
    return True, f"{built} expressions + hypothesis guard"


@_check("descent-is-transpose")
def _check_adjointness(max_order: int = 64) -> tuple[bool, str]:
    pairs = 0
    for sym in lemma_corpus(max_order):
        form = form_of(sym)
        for H in prime_order_subgroups(form):
            lm = lift_matrix(form, H)
            U = lm.matrix()
            if not np.array_equal(lm.descent(), U.T):
                return False, str(sym)
            if not np.all(U.sum(axis=0) == H.order):
                return False, f"{sym}: column sums"
            pairs += 1
    return True, f"{pairs} lift maps"


def _nested_pairs(form: DiscriminantForm):
    """The pairs (H, K) of isotropic subgroups with H properly inside K,
    in the order of ``isotropic_subgroups``, by H and then by K.

    H lies in K exactly when they share |H| elements; the shared counts
    of all pairs are one product of the subgroups' 0/1 membership table
    with its transpose, in float32: exact, since no count exceeds
    |D| <= ``bounds.MAX_FORM_ORDER`` = 2^20 < 2^24."""
    subs = isotropic_subgroups(form)
    sizes = np.array([H.order for H in subs], dtype=np.int64)
    member = np.zeros((len(subs), form.order), dtype=np.float32)
    member[np.repeat(np.arange(len(subs)), sizes),
           np.concatenate([H.indices for H in subs]
                          + [np.zeros(0, dtype=np.int64)])] = 1
    nested = ((member @ member.T == sizes[:, None])
              & (sizes[None, :] > sizes[:, None]))
    for h, k in zip(*np.nonzero(nested)):
        yield subs[h], subs[k]


@_check("lift-transitivity")
def _check_transitivity(max_order: int = 64) -> tuple[bool, str]:
    pairs = 0
    for sym in lemma_corpus(max_order):
        form = form_of(sym)
        for H, K in _nested_pairs(form):
            if not check_transitivity(form, H, K):
                return False, f"{sym}: {H.generators} in {K.generators}"
            pairs += 1
    return True, f"{pairs} nested pairs"


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES: dict[str, tuple[str, ...]] = {
    "relations": ("weil-relations", "conductor-independence",
                  "lift-equivariance", "milgram-certificate"),
    "lemmas": ("prime-order-spans-suffice", "membership-needs-two-lines",
               "orthogonal-pair-forces-membership", "odd-p-membership-iff-pair",
               "graph-matches-algebra", "pair-span-matches-certified",
               "span-kernel-duality",
               "catalog-matches-search", "max-isotropic-rank",
               "tail-independence", "rank7-never-small"),
    "constructions": ("kernel-vector", "odd-cycle-expression",
                      "rank5-expression", "descent-is-transpose",
                      "lift-transitivity"),
}


def run_suite(name: str, log=print) -> list[CheckResult]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}")
    results = []
    with _form_cache():
        for check in SUITES[name]:
            try:
                res = CHECKS[check]()
            except DftError as exc:
                res = CheckResult(check, False,
                                  f"{type(exc).__name__}: {exc}")
            results.append(res)
            if log:
                log(f"{'PASS' if res.passed else 'FAIL'} {res.name}: "
                    f"{res.detail}")
    return results
