import gc
import math
from fractions import Fraction

import numpy as np
import pytest

from dft.errors import (EvenLength, HypothesisFailed, NotACycle, NotIsotropic,
                        NotNested, ValidityError)
from dft import fqm, lifts
from dft.classify import contains_isotropic_elementary
from dft.exact import IndicatorColumns
from dft.fqm import (build_form, direct_sum, index_subgroup, perp_indices,
                     subgroup_from_generators)
from dft.lifts import (check_transitivity, descent_matrix,
                       e_gamma_in_image, isotropic_elements,
                       isotropic_indices, isotropic_subgroups,
                       kernel_vector, lift_matrix,
                       lift_span, odd_cycle_expression, perp_pair_table,
                       prime_order_subgroups, rank5_expression,
                       span_columns, spans_agree_with_all_subgroups)
from dft.ntheory import prime_power_factors
from dft.sweep import evaluate_symbol
from dft.symbols import enumerate_symbols, parse_symbol
from dft.verify import CHECKS, _nested_pairs, form_of, lemma_corpus


def build(text):
    return build_form(parse_symbol(text))


def test_isotropic_elements_anchors():
    assert isotropic_elements(build("2_II^+2")) == [(0, 1), (1, 0)]
    assert isotropic_elements(build("2_1^+1")) == []
    assert isotropic_elements(build("3^+2")) == []
    d = build("9^-1")
    assert isotropic_elements(d, order_filter=3) == [(3,), (6,)]


def test_isotropic_subgroups_anchors():
    d = build("2_II^+2")
    subs = isotropic_subgroups(d)
    assert [H.elements for H in subs] == [(((0, 0)), ((0, 1))),
                                          (((0, 0)), ((1, 0)))]
    assert isotropic_subgroups(build("3^-1")) == []
    for H in isotropic_subgroups(build("2_II^+4")):
        assert H.order > 1
        assert all(build("2_II^+4").q(h) == 0 for h in H.elements)


def _tuple_closure(d, gens):
    seen = {d.zero}
    frontier = [d.zero]
    while frontier:
        e = frontier.pop()
        for g in gens:
            s = d.add(e, g)
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return frozenset(seen)


def _rank(d, elements):
    """Largest p-rank, read from the number of elements of order p."""
    ranks = [0]
    for p in prime_power_factors(len(elements)):
        count = 1 + sum(d.element_order(e) == p for e in elements)
        ranks.append(round(math.log(count, p)))
    return max(ranks)


def test_isotropic_subgroups_match_brute_force_closures():
    # every subgroup of D is generated by at most rank(D) elements, and a
    # set whose closure is not isotropic has no isotropic superset closure
    for sym in enumerate_symbols(32, {2, 3, 5}):
        d = build_form(sym)
        iso = [e for e in d.elements if e != d.zero and d.q(e) == 0]
        rank = _rank(d, d.elements)
        want = set()

        def grow(gens, start):
            for a in range(start, len(iso)):
                H = _tuple_closure(d, gens + [iso[a]])
                if all(d.q(h) == 0 for h in H):
                    want.add(H)
                    if len(gens) + 1 < rank:
                        grow(gens + [iso[a]], a + 1)

        grow([], 0)
        subs = isotropic_subgroups(d)
        assert len(subs) == len(want), str(sym)
        assert {frozenset(H.elements) for H in subs} == want, str(sym)
        for H in subs:
            assert list(H.elements) == sorted(H.elements)
            assert H.indices.tolist() == [d.index(h) for h in H.elements]
            assert _tuple_closure(d, H.generators) == set(H.elements)
            assert len(H.generators) == _rank(d, H.elements), str(sym)


def test_prime_order_sublist():
    d = build("2_II^+4")
    all_subs = isotropic_subgroups(d)
    lines = prime_order_subgroups(d)
    assert {H.elements for H in lines} == \
        {H.elements for H in all_subs if H.order == 2}


def _subgroups_by_closure(form):
    """The breadth-first route: every subgroup found, from the cyclic ones
    up, extended by each isotropic element orthogonal to it and outside it,
    then sorted and given generators by ``index_subgroup``."""
    iso = isotropic_indices(form)
    apart = form.b_row_num(iso) != 0
    cyclic = [form.cyclic_indices(i) for i in iso]
    found = {S.tobytes(): S for S in cyclic}
    queue = list(found.values())
    while queue:
        S = queue.pop()
        outside = np.ones(form.order, dtype=bool)
        outside[S] = False
        for a in np.nonzero(~apart[:, S].any(axis=1) & outside[iso])[0]:
            bigger = form.sum_indices(S, cyclic[a])
            if bigger.tobytes() not in found:
                found[bigger.tobytes()] = bigger
                queue.append(bigger)
    subs = sorted(found.values(), key=lambda S: (len(S), S.tolist()))
    return [index_subgroup(form, S) for S in subs]


def test_isotropic_subgroups_match_the_closure_route():
    for sym in enumerate_symbols(128, {2, 3, 5}):
        form = form_of(sym)
        got, want = isotropic_subgroups(form), _subgroups_by_closure(form)
        assert ([(H.generators, H.indices.dtype, H.indices.tobytes())
                 for H in got]
                == [(H.generators, H.indices.dtype, H.indices.tobytes())
                    for H in want]), str(sym)


def _lines_by_index_subgroup(form):
    """The per-line route: the cyclic closure of each isotropic element of
    prime order not yet seen, through ``index_subgroup``."""
    iso = isotropic_indices(form)
    primes = np.array(prime_power_factors(form.order), dtype=np.int64)
    iso = iso[(form.order_array()[iso, None] == primes).any(axis=1)]
    seen = np.zeros(form.order, dtype=bool)
    lines = []
    for i in iso:
        if not seen[i]:
            members = form.cyclic_indices(i)
            seen[members] = True
            lines.append(index_subgroup(form, members))
    lines.sort(key=lambda H: (H.order, H.indices.tolist()))
    return lines


def test_prime_order_lines_match_the_per_line_search():
    # A1 and the {2, 3, 5} forms of A3: the forms the span is certified on
    syms = {}
    for primes, max_order in (({3}, 729), ({5}, 625), ({2}, 256),
                              ({2, 3, 5}, 256)):
        for sym in enumerate_symbols(max_order, primes):
            syms.setdefault(str(sym), sym)
    for text, sym in syms.items():
        form = form_of(sym)
        got, want = prime_order_subgroups(form), _lines_by_index_subgroup(form)
        assert list(got) == want, text
        assert ([(H.indices.dtype, H.indices.tobytes()) for H in got]
                == [(H.indices.dtype, H.indices.tobytes()) for H in want]), text


def test_lines_build_their_element_tuples_on_first_use():
    form = build("2_II^+2.3^-2")
    lines = prime_order_subgroups(form)
    assert {H.order for H in lines} == {2, 3}
    C = form.coeff_matrix()
    for H in lines:
        assert H.order == len(H.indices)
        assert "elements" not in vars(H)
        assert H.elements == tuple(map(tuple, C[H.indices].tolist()))
        eager = subgroup_from_generators(form, H.generators)
        assert eager.elements == H.elements
        assert eager == H and hash(eager) == hash(H)
        assert len({H, eager}) == 1
    assert lines[0] != lines[1]


def test_sweep_path_never_searches_for_generators(monkeypatch):
    def refuse(form, idx):
        raise AssertionError("generator search on the lift-span path")

    monkeypatch.setattr(fqm, "_minimal_generators", refuse)
    with pytest.raises(AssertionError):
        subgroup_from_generators(build("3^-1"), [(1,)])
    for text in ("3^+6", "3^-6", "5^-4", "25^+2", "2_2^-8",
                 "2_II^+4.4_II^-2"):
        assert evaluate_symbol(text)["agreement"], text
    res = lift_span(build("2_II^+2.3^-3.5^+2"))
    assert not res.full


def test_subgroup_walks_never_search_for_generators(monkeypatch):
    def refuse(form, idx):
        raise AssertionError("generator search inside a subgroup walk")

    monkeypatch.setattr(fqm, "_minimal_generators", refuse)
    assert len(isotropic_subgroups(build("2_II^+4"))) == 15
    deficient = build("3^-5")
    assert not lift_span(deficient).full
    assert spans_agree_with_all_subgroups(deficient)
    d = build("3^-6")
    assert contains_isotropic_elementary(d, 3, 3)
    assert not contains_isotropic_elementary(d, 3, 4)
    result = CHECKS["kernel-vector"]()
    assert result.passed, result.detail
    d = build("2_II^+4")
    pairs = list(_nested_pairs(d))
    assert pairs and all(check_transitivity(d, H, K) for H, K in pairs)


def test_descent_is_built_from_the_section():
    # descent() does not read the lift map's columns, so columns out of
    # order fail the comparison of descent-is-transpose
    d = build("2_1^+3")
    lm = lift_matrix(d, prime_order_subgroups(d)[0])
    assert lm.source.order == 2
    assert np.array_equal(lm.descent(), lm.matrix().T)
    lm.columns[[0, 1]] = lm.columns[[1, 0]]
    assert not np.array_equal(lm.descent(), lm.matrix().T)


def test_lift_matrix_anchors():
    d = build("2_II^+2")
    H = subgroup_from_generators(d, [(1, 0)])
    lm = lift_matrix(d, H)
    assert lm.source.order == 1
    U = lm.matrix()
    assert U.shape == (4, 1)
    assert sorted(np.nonzero(U[:, 0])[0].tolist()) == [0, 2]  # e^00 + e^10
    assert np.array_equal(descent_matrix(d, H), U.T)
    assert np.all(U.sum(axis=0) == H.order)
    with pytest.raises(ValidityError):
        lift_matrix(d, subgroup_from_generators(d, [(0, 0)]))
    with pytest.raises(NotIsotropic):
        lift_matrix(d, subgroup_from_generators(d, [(1, 1)]))


def test_lift_columns_are_the_span_columns():
    # the quotient's index maps against the independent coset route of
    # span_columns; the projection undoes the section on every quotient
    for sym in enumerate_symbols(64, {2, 3, 5}):
        form = build_form(sym)
        for H in isotropic_subgroups(form):
            lm = lift_matrix(form, H)
            assert ({tuple(sorted(c)) for c in lm.columns.tolist()}
                    == set(span_columns(form, [H]))), str(sym)
            quot = lifts._quotient(form, H)
            assert np.array_equal(quot.project.table[quot.section.table],
                                  np.arange(quot.form.order)), str(sym)


def test_image_rank_anchors():
    assert lift_span(build("2_1^+1")).rank == 0
    assert lift_span(build("2_II^+2")).rank == 2
    d = build("3^+6")
    assert lift_span(d).rank == 729 == d.order


def test_quotient_cache_makes_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        d = build("4_II^+4")
        subs = isotropic_subgroups(d)
        H = next(H for H in subs if H.order == 2)
        for K in subs:
            if K.order > 2 and np.isin(H.indices, K.indices,
                                       kind="table").all():
                assert check_transitivity(d, H, K)
        lift_matrix(d, H).matrix()
        assert d._quotients
        del d, subs, H, K
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_membership_anchors():
    d = build("2_II^+2")
    assert not e_gamma_in_image(d, (1, 1))
    assert not e_gamma_in_image(d, (0, 0))
    d = build("2_II^+6")
    assert all(e_gamma_in_image(d, e) for e in [d.zero, d.elements[17]])


def test_span_certificate_sides():
    # deficient span: verified kernel + independent columns certify rank
    d = build("3^-5")
    res = lift_span(d)
    assert res.rank + len(res.kernel) == d.order
    assert 0 < res.rank < d.order
    cols = span_columns(d, prime_order_subgroups(d))
    for row in res.kernel:
        for support in cols:
            assert sum(int(row[i]) for i in support) == 0


def test_span_kernel_duality_check():
    result = CHECKS["span-kernel-duality"](max_order=32)
    assert result.passed, result.detail


def _span_columns_by_subgroup(form, subgroups):
    """The coset columns one subgroup at a time: each member of H_perp is
    translated by every member of H through the coefficient rows."""
    C = form.coeff_matrix()
    blocks = []
    for H in subgroups:
        perp = perp_indices(form, H.generators)
        stacked = np.stack([form.indices(C[perp] + C[j]) for j in H.indices])
        is_rep = perp == stacked.min(axis=0)
        blocks.append(np.sort(stacked[:, is_rep].T, axis=1))
    return IndicatorColumns.from_blocks(blocks)


def _same_columns(form, subgroups):
    got = span_columns(form, subgroups)
    want = _span_columns_by_subgroup(form, subgroups)
    return (got.indices.tobytes() == want.indices.tobytes()
            and got.indptr.tobytes() == want.indptr.tobytes())


def _column_corpus():
    small = lemma_corpus(64)
    return small + [s for s in enumerate_symbols(128, {2}) if s.order > 64]


def test_span_columns_match_the_subgroup_loop():
    # every isotropic subgroup of every form, in the enumeration's order,
    # which mixes runs of every order and number of generators
    for sym in _column_corpus():
        form = build_form(sym)
        assert _same_columns(form, isotropic_subgroups(form)), str(sym)


def test_span_columns_split_runs_into_chunks(monkeypatch):
    form = build("2_0^+2.4_II^+2")
    subs = isotropic_subgroups(form)
    cyclic = [H for H in subs if H.order == 4 and len(H.generators) == 1]
    klein = [H for H in subs if H.order == 4 and len(H.generators) == 2]
    # runs of one subgroup each: the order of the columns is the list's
    mixed = [H for pair in zip(cyclic, klein) for H in pair]
    assert len(mixed) >= 6
    for chunk in (1, 20, 64, 1 << 15):
        # in |D| = 64 a chunk of 64 pairs takes two subgroups of order 2
        # or four of order 4, so longer runs split mid-run; 20 and 1 take
        # one subgroup a chunk
        monkeypatch.setattr(lifts, "_CHUNK", chunk)
        assert _same_columns(form, mixed)
        assert _same_columns(form, mixed[::-1])
        assert _same_columns(form, subs)
        assert _same_columns(form, prime_order_subgroups(form))
    assert _same_columns(form, [])


def test_spans_agree_with_all_subgroups_small():
    for text in ["2_II^+2", "2_1^+1", "3^-2", "4_1^+1.2_1^+1", "2_II^+4"]:
        assert spans_agree_with_all_subgroups(build(text))


def test_kernel_vector_cases():
    d = build("3^-1")
    assert kernel_vector(d, (1,)) == {(1,): Fraction(1)}
    split = direct_sum(build("3^-2"), build("3^+1"))
    half = Fraction(-1, 2)
    assert kernel_vector(split, (0, 0, 1)) == {
        (0, 0, 1): Fraction(1), (1, 1, 1): half, (1, 2, 1): half,
        (2, 1, 1): half, (2, 2, 1): half}
    d = build("2_II^+2")
    v = kernel_vector(d, (0, 0))
    assert v == {(0, 0): Fraction(1), (0, 1): Fraction(-1),
                 (1, 0): Fraction(-1)}
    for text, gamma in (("2_1^+1", (1,)), ("9^-1", (1,)), ("5^+1", (2,)),
                        ("4_1^+1", (2,))):
        assert kernel_vector(build(text), gamma) == {gamma: Fraction(1)}
    quarter = Fraction(-1, 4)
    assert kernel_vector(build("5^+2"), (0, 0)) == {
        (0, 0): Fraction(1), (1, 2): quarter, (1, 3): quarter,
        (2, 1): quarter, (2, 4): quarter, (3, 1): quarter, (3, 4): quarter,
        (4, 2): quarter, (4, 3): quarter}
    with pytest.raises(HypothesisFailed):
        kernel_vector(build("2_II^+6"), (0,) * 6)


def _tuple_expansion(form, terms):
    """sum coeff 1_{rep + H} over the terms, in element tuples and
    Fractions: an oracle independent of the constructions' index space."""
    total = {}
    for H, rep, coeff in terms:
        for h in H.elements:
            key = form.add(rep, h)
            total[key] = total.get(key, Fraction(0)) + coeff
    return {k: v for k, v in total.items() if v}


def test_odd_cycle_expression():
    d = build("2_II^+4")
    cycle = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0)]
    terms = odd_cycle_expression(d, cycle)
    assert len(terms) == 3
    assert _tuple_expansion(d, terms) == {(0, 0, 0, 0): Fraction(1)}
    with pytest.raises(EvenLength):
        odd_cycle_expression(d, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(NotACycle):
        odd_cycle_expression(d, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)])


def _pair_table_by_cyclic_closures(form, p):
    """``perp_pair_table`` with each line named by its cyclic closure."""
    cand = isotropic_indices(form, p)
    out = np.zeros(form.order, dtype=bool)
    if len(cand) < 2:
        return out
    B = form.b_row_num(cand)
    line = np.array([form.cyclic_indices(c)[1] for c in cand])
    pairok = (B[:, cand] == 0) & (line[:, None] != line[None, :])
    for g in range(form.order):
        mask = B[:, g] == 0
        out[g] = bool(pairok[np.ix_(mask, mask)].any())
    return out


def test_pair_table_matches_the_cyclic_closures():
    # the forms of orthogonal-pair-forces-membership and
    # odd-p-membership-iff-pair
    cases = [(s, s.primes[0]) for s in lemma_corpus(128) if len(s.primes) == 1]
    cases += [(s, p) for p in (3, 5) for s in enumerate_symbols(125, {p})]
    for sym, p in cases:
        form = form_of(sym)
        assert np.array_equal(perp_pair_table(form, p),
                              _pair_table_by_cyclic_closures(form, p)), str(sym)


def _perp_has_pair(form, p, g):
    """``perp_pair_table(form, p)[g]``, by a walk to depth 2 over the
    isotropic elements of order p in g_perp."""
    cand = isotropic_indices(form, p)
    walk = lifts._greedy_walk(form, cand[form.b_row_num(g)[cand] == 0], 2)
    return any(len(gens) == 2 for gens, _ in walk)


@pytest.mark.parametrize("text", ["3^-3", "3^+4", "3^-5", "9^+1.3^-1", "5^+2",
                                  "2_II^+4", "2_0^+4", "4_II^+2.2_II^+2"])
def test_single_element_pair_test_matches_the_table(text):
    d = build(text)
    p = prime_power_factors(d.order)[0]
    table = perp_pair_table(d, p)
    assert [_perp_has_pair(d, p, g) for g in range(d.order)] == table.tolist()


def test_rank5_expression():
    d = direct_sum(build("3^-4"), build("9^-1"))
    gamma = (0, 0, 0, 0, 1)
    terms = rank5_expression(d, gamma)
    assert terms  # construction self-verifies on return
    assert e_gamma_in_image(d, gamma)
    with pytest.raises(HypothesisFailed):
        rank5_expression(direct_sum(build("3^-4"), build("3^+1")),
                         (0, 0, 0, 0, 1))
    with pytest.raises(HypothesisFailed):
        rank5_expression(d, (1, 0, 0, 0, 0))  # gamma of order p


def test_rank5_expression_reads_only_the_block_of_gamma(monkeypatch):
    # the anisotropy of gamma_perp is tested on its own block, without the
    # pair table of the whole form
    def whole_table(form, p):
        raise AssertionError("perp_pair_table built")

    monkeypatch.setattr(lifts, "perp_pair_table", whole_table)
    gamma = (0, 0, 0, 0, 1)
    assert rank5_expression(build("5^-4.25^+1"), gamma)
    with pytest.raises(HypothesisFailed):
        rank5_expression(build("5^+4.25^-1"), gamma)


def test_rank5_on_shifted_generator():
    # any element with unit q-numerator and full order admits the expression
    d = direct_sum(build("3^-4"), build("9^+1"))
    gamma = (1, 0, 0, 0, 2)
    if d.q(gamma).denominator == 9:
        terms = rank5_expression(d, gamma)
        assert terms and e_gamma_in_image(d, gamma)


@pytest.mark.parametrize("tail, gamma", [("9^+1", (0, 0, 0, 0, 1)),
                                         ("9^-1", (0, 0, 0, 0, 1)),
                                         ("9^+1", (1, 0, 0, 0, 2))])
def test_rank5_terms_expand_to_the_unit_vector(tail, gamma):
    d = direct_sum(build("3^-4"), build(tail))
    assert d.q(gamma).denominator == 9
    terms = rank5_expression(d, gamma)
    for H, rep, _ in terms:
        # an isotropic line, with the coset representative in H_perp
        assert len(H.elements) == 3
        assert all(d.q(h) == 0 and d.b(rep, h) == 0 for h in H.elements)
    assert _tuple_expansion(d, terms) == {gamma: Fraction(1)}


def test_transitivity():
    d = build("2_II^+4")
    H = subgroup_from_generators(d, [(1, 0, 0, 0)])
    K = subgroup_from_generators(d, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert check_transitivity(d, H, K)
    assert check_transitivity(d, H, H)
    with pytest.raises(NotNested):
        check_transitivity(d, K, H)
    other = subgroup_from_generators(d, [(0, 0, 1, 0)])
    with pytest.raises(NotNested):
        check_transitivity(d, H, other)


def test_membership_vs_two_line_necessity():
    # membership forces at least two isotropic lines in gamma_perp
    for text in ["3^-3", "2_II^+4", "9^+1.3^-1", "2_0^+4"]:
        d = build(text)
        member = lift_span(d).membership
        lines = prime_order_subgroups(d)
        for i, e in enumerate(d.elements):
            if not member[i]:
                continue
            perp_lines = sum(
                1 for H in lines
                if all(d.b(g, e) == 0 for g in H.generators))
            assert perp_lines >= 2
