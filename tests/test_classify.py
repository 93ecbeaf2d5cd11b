import gc
import weakref
from collections import deque

import numpy as np
import pytest

from dft.classify import (build_graph_cached, build_isotropy_graph,
                          contains_isotropic_elementary,
                          gamma_in_image_by_graph, graph_to_dot,
                          max_isotropic_rank, no_cube_catalog_check,
                          small_type)
from dft.errors import NotTwoAdic, ValidityError
from dft.fqm import build_form
from dft.lifts import (e_gamma_in_image, isotropic_indices, lift_span,
                       prime_order_columns, prime_order_subgroups,
                       span_columns)
from dft.ntheory import prime_power_factors
from dft.symbols import enumerate_symbols, parse_symbol
from dft.verify import CHECKS, _certified_lift_span


def build(text):
    return build_form(parse_symbol(text))


@pytest.mark.parametrize("text,small", [
    ("3^-1", True),
    ("3^+6", False),
    ("3^-6", False),
    ("2_II^-6", False),
    ("2_2^+6", True),
    ("2_6^-6", True),
    ("8_1^+1.2_1^+1", True),
    ("2_1^+1.3^-1", True),
    ("3^-5", True),
    ("3^+5", True),
    ("3^-4.9^+1", False),     # rank 5 but level 9
    ("9^+1.3^+2", True),      # rank 3 with a level-3 component
    ("9^+3", False),          # rank 3, no level-3 component
    ("3^+2.9^+2", True),      # rank 4: anisotropic plane + two lines
    ("3^-2.9^+2", False),     # rank 4 with the split-off isotropic plane
    ("3^+3.27^-1", True),     # rank 4, one higher generator, any sign
    ("1", True),
    ("2_1^+1.4_1^+1.3^-1.5^+2", True),
    ("2_II^+2.4_II^+2", False),   # B-rank 2 and A = 2_II^+2 not in D1
    ("4_II^+2.8_1^+1", True),     # B-rank 3? no: B = 4_II (2) + 8 (1) -> not small
])
def test_small_type_table(text, small):
    sym = parse_symbol(text)
    verdict = small_type(sym)
    if text == "4_II^+2.8_1^+1":
        assert not verdict.small
        return
    assert verdict.small == small, verdict.rule


def test_small_type_rules_exposed():
    v = small_type(parse_symbol("2_2^+6"))
    assert v.small and v.rule.startswith("D3:")
    v = small_type(parse_symbol("2_1^+1.3^-1"))
    assert set(v.per_prime) == {2, 3} and v.small


def test_small_type_matches_oracle_spot():
    for text in ["3^+2.9^+2", "3^-2.9^+2", "9^+3", "3^+3.27^-1", "2_2^+6",
                 "2_II^-6", "4_1^+1.2_1^+1", "2_II^+2.4_II^+2"]:
        sym = parse_symbol(text)
        d = build_form(sym)
        assert small_type(sym).small == (lift_span(d).rank < d.order), text


def test_no_cube_catalog_anchors():
    assert no_cube_catalog_check(parse_symbol("3^-4.9^+1"))
    assert not no_cube_catalog_check(parse_symbol("3^+1.9^+3"))
    assert no_cube_catalog_check(parse_symbol("2_1^+1.4_1^+1"))
    assert no_cube_catalog_check(parse_symbol("3^+6"))      # p^{-eps 6}
    assert not no_cube_catalog_check(parse_symbol("3^-6"))
    assert no_cube_catalog_check(parse_symbol("2_II^-6"))
    assert not no_cube_catalog_check(parse_symbol("2_II^+6"))
    with pytest.raises(ValidityError):
        no_cube_catalog_check(parse_symbol("2_1^+1.3^-1"))


def test_catalog_matches_search_on_prime_power_symbols():
    res = CHECKS["catalog-matches-search"](64)
    assert res.passed, res.detail


def test_max_isotropic_rank_formula():
    assert max_isotropic_rank(3, 6, -1) == 3
    assert max_isotropic_rank(3, 5, 1) == max_isotropic_rank(3, 5, -1) == 2
    assert max_isotropic_rank(3, 6, 1) == 2
    assert max_isotropic_rank(5, 4, 1) == 2   # eps = (-1|5)^2 = +1
    assert max_isotropic_rank(5, 2, -1) == 0
    with pytest.raises(ValidityError):
        max_isotropic_rank(2, 4, 1)


def test_elementary_search_anchors():
    assert not contains_isotropic_elementary(build("3^+6"), 3, 3)
    assert contains_isotropic_elementary(build("3^-6"), 3, 3)
    assert contains_isotropic_elementary(build("2_II^+2"), 2, 1)


def _elementary_by_ordered_sequences(form, p, k):
    """The earlier search, over increasing sequences of order-p isotropic
    elements, each outside the span of those before it."""
    if k == 0:
        return True
    cand = isotropic_indices(form, p)
    if len(cand) < p ** k - 1:
        return False
    orth = form.b_row_num(cand)[:, cand] == 0
    lines = [form.cyclic_indices(c) for c in cand]

    def extend(depth, span, mask, start):
        if depth == k:
            return True
        for a in range(start, len(cand)):
            if mask[a] and cand[a] not in span:
                if extend(depth + 1, form.sum_indices(span, lines[a]),
                          mask & orth[a], a + 1):
                    return True
        return False

    return extend(0, np.zeros(1, dtype=np.int64),
                  np.ones(len(cand), dtype=bool), 0)


def test_elementary_search_matches_the_sequence_search():
    texts = [f"3^{s}{n}" for n in range(1, 7) for s in "+-"]
    texts += ["5^+4", "5^-4", "2_II^+6", "2_II^-6"]
    for text in texts:
        d = build(text)
        p = prime_power_factors(d.order)[0]
        for k in range(5):
            assert (contains_isotropic_elementary(d, p, k)
                    == _elementary_by_ordered_sequences(d, p, k)), (text, k)


def test_graph_anchors():
    d = build("2_II^+2")
    g = build_isotropy_graph(d)
    assert g.n_components == 2
    assert all(g.bipartite)
    comp_sizes = sorted((g.component == c).sum() for c in range(2))
    assert comp_sizes == [1, 3]  # isolated (1,1); path 0 - a, 0 - b
    assert not gamma_in_image_by_graph(d, (0, 0))

    d = build("2_1^+1")
    g = build_isotropy_graph(d)
    assert g.n_components == 2 and all(len(ns) == 0 for ns in g.neighbors)

    d = build("2_II^+6")
    g = build_isotropy_graph(d)
    assert not any(g.bipartite)
    assert gamma_in_image_by_graph(d, d.zero)


def test_cached_graph_and_span_do_not_keep_the_form_alive():
    d = build("2_II^+4")
    first = build_graph_cached(d)
    lift_span(d)
    again = build_graph_cached(d)
    assert again.form is d and again.bipartite == first.bipartite
    assert gamma_in_image_by_graph(d, d.zero) == e_gamma_in_image(d, d.zero)
    ref = weakref.ref(d)
    gc.disable()
    try:
        del d, first, again
        assert ref() is None   # freed by reference counting alone
    finally:
        gc.enable()


def test_graph_requires_two_adic():
    with pytest.raises(NotTwoAdic):
        build_isotropy_graph(build("3^-1"))
    build_isotropy_graph(build("1"))  # trivial level is fine


def test_graph_matches_algebra_sample():
    # against the certified route, as A4: lift_span of a 2-adic form is
    # the labelling the graph reads
    for text in ["2_II^+2", "2_II^-2", "4_1^+1", "2_2^+2", "2_0^+4",
                 "8_1^+1.2_1^+1", "2_II^+6", "2_2^+6", "4_II^-2.2_1^+1"]:
        d = build(text)
        assert np.array_equal(build_isotropy_graph(d).nonbipartite,
                              _certified_lift_span(d).membership), text


def test_graph_refuses_a_span_without_labels():
    d = build("2_II^+4")
    d._lift_span = _certified_lift_span(d)
    assert d._lift_span.labels is None
    with pytest.raises(ArithmeticError):
        build_isotropy_graph(d)


def test_odd_walk_through():
    d = build("2_II^+6")
    g = build_isotropy_graph(d)
    walk = g.odd_walk_through(d.elements[5])
    assert walk is not None and len(walk) % 2 == 1
    assert walk[0] == d.elements[5]
    d2 = build("2_II^+2")
    assert build_isotropy_graph(d2).odd_walk_through((0, 0)) is None


def _graph_by_bfs(form):
    """(component, bipartite, color, neighbors) from per-vertex neighbour
    lists and a breadth-first search from each component's least vertex."""
    n, C = form.order, form.coeff_matrix()
    neighbors = [[] for _ in range(n)]
    for mu in isotropic_indices(form, 2):
        perp = np.flatnonzero(form.b_row_num(mu) == 0)
        for i, j in zip(perp, form.indices(C[perp] + C[mu])):
            neighbors[int(i)].append(int(j))
    neighbors = [sorted(ns) for ns in neighbors]
    comp = np.full(n, -1)
    color = np.zeros(n, dtype=np.int64)
    bipartite = []
    for root in range(n):
        if comp[root] >= 0:
            continue
        comp[root] = len(bipartite)
        queue, ok = deque([root]), True
        while queue:
            u = queue.popleft()
            for w in neighbors[u]:
                if comp[w] < 0:
                    comp[w], color[w] = comp[root], color[u] ^ 1
                    queue.append(w)
                elif color[w] == color[u]:
                    ok = False
        bipartite.append(ok)
    return comp, bipartite, color, neighbors


def _two_adic_forms(max_order):
    return [build_form(s) for s in enumerate_symbols(max_order, {2})]


def test_graph_matches_the_breadth_first_search():
    for form in _two_adic_forms(128):
        g = build_isotropy_graph(form)
        comp, bipartite, color, neighbors = _graph_by_bfs(form)
        assert np.array_equal(g.component, comp)
        assert g.bipartite == bipartite and g.n_components == len(bipartite)
        on_bipartite = np.array(bipartite)[comp]
        assert np.array_equal(g.color[on_bipartite], color[on_bipartite])
        assert not g.color[~on_bipartite].any()
        assert g.neighbors == neighbors


def test_graph_edges_are_the_columns_of_the_lines():
    # the two-element coset columns of the order-2 lines are the edges,
    # found by an independent route
    for form in _two_adic_forms(128):
        g = build_isotropy_graph(form)
        cols = span_columns(form, prime_order_subgroups(form))
        pairs = cols.indices.reshape(-1, 2)[np.diff(cols.indptr) == 2] \
            if len(cols) else np.zeros((0, 2), dtype=np.int64)
        # the edges hold no array of their own: they are the kept columns
        assert not g.edges.size or np.shares_memory(
            g.edges, prime_order_columns(form).indices)
        assert (g.edges[:, 0] < g.edges[:, 1]).all()
        assert sorted(map(tuple, g.edges.tolist())) == \
            sorted(map(tuple, pairs.tolist()))


def test_odd_walks_close_along_edges():
    for text in ("2_II^+6", "2_2^+6"):
        d = build(text)
        g = build_isotropy_graph(d)
        edges = set(map(tuple, g.edges.tolist()))
        walks = 0
        for i, e in enumerate(d.elements):
            if g.bipartite[int(g.component[i])]:
                assert g.odd_walk_through(e) is None
                continue
            walk = [d.index(v) for v in g.odd_walk_through(e)]
            assert walk[0] == i and len(walk) % 2 == 1
            for u, v in zip(walk, walk[1:] + walk[:1]):
                assert (min(u, v), max(u, v)) in edges
            walks += 1
        assert walks


def test_dot_output():
    g = build_isotropy_graph(build("2_II^+2"))
    dot = graph_to_dot(g)
    assert dot.startswith("graph isotropy {") and dot.endswith("}")
    assert 'label="(1, 1) q=1/2"' in dot
    assert "v0 -- v1" in dot or "v0 -- v2" in dot
