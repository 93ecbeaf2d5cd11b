"""Isotropic subgroups, lift/descent matrices, and the lift span.

The central object is the rational span of all columns of all lift
matrices over prime-order isotropic subgroups.  Its rank equals |D|
exactly when every basis vector e^gamma is a combination of isotropic
lifts; per-element membership is decided against a verified exact basis
of the orthogonal complement (the common kernel of the descents).

Subgroups are sorted index arrays (see ``fqm``): the prime-order lines,
which the span is built from, from one array pass per prime
(``prime_order_subgroups``), and every other isotropic subgroup from one
greedy-basis walk (``_greedy_walk``) that keeps the generators it adds.

Also here: the explicit certificate constructions, on element indices.
The kernel vector (e^gamma misses the span when gamma_perp carries at
most one isotropic line) is an integer row, checked against every descent
inside gamma_perp by one ``annihilates`` call.  The odd-closed-walk
combination (2-power level) and the rank-5 expression (an anisotropic
rank-four block plus one higher-order generator) sum lifts along cached
lines and are checked by one exact expansion; element tuples and
``Fraction`` appear only in the terms they return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import bounds
from .errors import (BoundExceeded, EvenLength, HypothesisFailed, NotACycle,
                     NotIsotropic, NotNested, ValidityError)
from .exact import (IndicatorColumns, SpanResult, annihilates,
                    span_of_indicator_columns)
from .fqm import (DiscriminantForm, Element, QuotientResult, Subgroup,
                  is_isotropic, quotient_form)
from .ntheory import prime_power, prime_power_factors

# ---------------------------------------------------------------------------
# isotropic elements and subgroups
# ---------------------------------------------------------------------------


def isotropic_indices(form: DiscriminantForm, order=None) -> np.ndarray:
    """Ascending indices of the nonzero isotropic elements, all of them or
    those of one order."""
    iso = np.nonzero(form.qnum_array() == 0)[0][1:]
    if order is not None:
        iso = iso[form.order_array()[iso] == order]
    return iso


def isotropic_elements(form: DiscriminantForm, order_filter=None) -> list[Element]:
    """All nonzero gamma with q(gamma) = 0, optionally of a fixed order."""
    return [form.element(i) for i in isotropic_indices(form, order_filter)]


def _multiples(form: DiscriminantForm, x: np.ndarray, p: int) -> np.ndarray:
    """Indices of k element(x) for k = 1, ..., p - 1, one sorted row per
    index in x.  For x of order p the row is the line that x spans, less
    0, and its first entry is the line's least nonzero member."""
    k = np.arange(1, p, dtype=np.int64)
    return np.sort(form.indices(k[:, None, None] * form.coeff_matrix()[x]).T,
                   axis=1)


def prime_order_subgroups(form: DiscriminantForm) -> tuple[Subgroup, ...]:
    """The isotropic subgroups of prime order, sorted by (order, indices);
    enumerated once per form and kept on it, beside its lift span.

    One array pass per prime p over the isotropic elements x of order p:
    x heads its line exactly when it is the least of its multiples, and
    the line, generated by x as ``_minimal_generators`` would choose, is 0
    with those multiples, a set closed under addition by construction."""
    cached = getattr(form, "_prime_lines", None)
    if cached is not None:
        return cached
    C = form.coeff_matrix()
    lines = []
    for p in prime_power_factors(form.order):
        x = isotropic_indices(form, p)
        rows = _multiples(form, x, p)
        rows = rows[rows[:, 0] == x]
        members = np.concatenate(
            [np.zeros((len(rows), 1), dtype=np.int64), rows], axis=1)
        members.flags.writeable = False
        gens = C[members[:, 1]].tolist()
        lines += [Subgroup((tuple(g),), idx, coeffs)
                  for g, idx, coeffs in zip(gens, members, C[members])]
    form._prime_lines = tuple(lines)
    return form._prime_lines


def _greedy_walk(form: DiscriminantForm, x: np.ndarray, depth=None):
    """Every isotropic subgroup generated by the isotropic elements x, once
    each, as (generator indices, sorted member indices), up to ``depth``
    generators if given.

    Elements are ordered by the key (-order, index), as in
    ``fqm._minimal_generators``; the candidates are the g in x that come
    first among the generators of <g>.  From S_j = <g_1, ..., g_j> the walk
    tries each candidate g after g_j, orthogonal to every g_i and outside
    S_j, and keeps S_j + <g> (isotropic: q(s + i g) = q(s) + i^2 q(g)
    + i b(s, g)) only when g is first in (S_j + <g>) - S_j.

    Each W is reached along its greedy basis, w_{j+1} first in W - S_j,
    which passes every test (the generators of <w_{j+1}> lie in W - S_j,
    so w_{j+1} is a candidate).  A kept path that first leaves that basis at
    step j + 1 has some w in W - S_j before g_{j+1}; w is not in S_{j+1}
    by the test at j + 1, so it enters at a step m > j + 1, whose test
    gives g_m <= w < g_{j+1}, though g_m comes after g_{j+1}.  So each W
    is reached once, with the generators ``_minimal_generators`` picks.
    """
    if not len(x):
        return
    C, orders = form.coeff_matrix(), form.order_array()
    key = (orders.max() - orders) * form.order + np.arange(form.order)
    last = form.order * orders.max()         # above every key
    # rows[t, i] = i x[t], x sorted by key; x[t] is a candidate when it is
    # the least of the i x[t] with i prime to ord(x[t])
    x = x[np.lexsort((x, -orders[x]))]
    i = np.arange(orders[x].max())
    rows = form.indices(i[:, None, None] * C[x]).T
    unit = np.gcd(i, orders[x, None]) == 1
    rows = rows[np.where(unit, rows, form.order).min(axis=1) == x]
    cand = rows[:, 1]
    members = C[rows][:, None]
    orth = form.b_row_num(cand)[:, cand] == 0
    # depth first on a stack: a recursive closure would be a ref cycle
    stack = [((), np.zeros(1, dtype=np.int64), np.ones(len(cand), bool))]
    while stack:
        gens, S, allowed = stack.pop()
        # the keys, with S's members lifted above all others
        outside = key.copy()
        outside[S] = last
        a = np.flatnonzero(allowed & (outside[cand] < last))
        if not len(a):
            continue
        sums = form.indices(C[S][:, None] + members[a])
        kept = outside[sums].min(axis=(1, 2)) == key[cand[a]]
        children = []
        for g, T in zip(a[kept], sums[kept]):
            T = np.sort(T, axis=None)
            T = T[np.concatenate(([True], T[1:] != T[:-1]))]
            walk = gens + (int(cand[g]),)
            yield walk, T
            if depth is None or len(walk) < depth:
                after = allowed & orth[g]
                after[:g + 1] = False
                children.append((walk, T, after))
        stack += children[::-1]


def _subgroup(form: DiscriminantForm, gens, S: np.ndarray) -> Subgroup:
    C = form.coeff_matrix()
    return Subgroup(tuple(map(tuple, C[list(gens)].tolist())), S, C[S])


def isotropic_subgroups(form: DiscriminantForm) -> list[Subgroup]:
    """All non-trivial subgroups on which q vanishes identically, by
    (order, indices), from one greedy-basis walk; the prime-order sublist
    is exactly ``prime_order_subgroups``.  Bounded by the enumeration
    bound."""
    limit = bounds.max_enum_order()
    if form.order > limit:
        raise BoundExceeded(
            f"|D| = {form.order} exceeds the enumeration bound {limit}")
    found = _greedy_walk(form, isotropic_indices(form))
    return [_subgroup(form, gens, S) for gens, S in
            sorted(found, key=lambda w: (len(w[1]), w[1].tolist()))]


# ---------------------------------------------------------------------------
# lift and descent matrices
# ---------------------------------------------------------------------------


@dataclass
class LiftMap:
    """The 0/1 matrix of the isotropic lift from H_perp/H into D.

    Column j (one per coset, indexed by the source form's elements) has
    ones exactly at the rows of that coset's members; ``descent`` builds
    the transpose from its definition, not from the columns.
    """

    form: DiscriminantForm
    H: Subgroup
    source: DiscriminantForm           # the quotient form on H_perp/H
    columns: np.ndarray    # |source| x |H| row supports, one per source element

    def matrix(self) -> np.ndarray:
        U = np.zeros((self.form.order, self.source.order), dtype=np.int64)
        U[self.columns, np.arange(self.source.order)[:, None]] = 1
        return U

    def descent(self) -> np.ndarray:
        """e_gamma -> e_j for gamma in s(j) + H, s the quotient's section,
        and -> 0 for gamma outside H_perp."""
        s = _quotient(self.form, self.H).section.table
        D = np.zeros((self.source.order, self.form.order), dtype=np.int64)
        D[np.arange(self.source.order)[:, None],
          self.form.add_indices(s[:, None], self.H.indices)] = 1
        return D


def lift_matrix(form: DiscriminantForm, H: Subgroup) -> LiftMap:
    if H.order <= 1:
        raise ValidityError("lifts are taken along non-trivial subgroups")
    if not is_isotropic(form, H):
        raise NotIsotropic("q does not vanish on H")
    return _lift_map(form, H, _quotient(form, H))


def _quotient(form: DiscriminantForm, H: Subgroup) -> QuotientResult:
    """``quotient_form(form, H)``, built once per subgroup and kept on the
    form.  Its index maps hold generator orders and index tables, not
    forms, so the cache makes no reference cycle and dies with the form."""
    cache = form.__dict__.setdefault("_quotients", {})
    key = H.indices.tobytes()
    if key not in cache:
        cache[key] = quotient_form(form, H)
    return cache[key]


def _lift_map(form: DiscriminantForm, H: Subgroup,
              quot: QuotientResult) -> LiftMap:
    # column j is the coset projecting to quot.form.element(j): the H_perp
    # indices grouped by projected index, ascending within each group
    perp = np.flatnonzero(quot.project.table >= 0)
    groups = perp[np.argsort(quot.project.table[perp], kind="stable")]
    return LiftMap(form, H, quot.form,
                   groups.reshape(quot.form.order, H.order))


def descent_matrix(form: DiscriminantForm, H: Subgroup) -> np.ndarray:
    return lift_matrix(form, H).descent()


# ---------------------------------------------------------------------------
# the span of all lifts
# ---------------------------------------------------------------------------


# pairs (H, x in H_perp) per chunk of span_columns
_CHUNK = 1 << 15


def span_columns(form: DiscriminantForm, subgroups) -> IndicatorColumns:
    """All lift-matrix columns (coset supports) for the given subgroups,
    subgroup by subgroup, each subgroup's cosets in order of their least
    member.

    The subgroups are taken in runs of consecutive ones with the same
    order |H| and the same number of generators, and each run in chunks
    of at most max(1, _CHUNK |H| / |D|) subgroups: H_perp has |D| / |H|
    elements, so a chunk holds about _CHUNK pairs (H, x in H_perp) and no
    intermediate more than about _CHUNK |H| entries.  A chunk's H_perp
    rows come from one product of its generators' Gram rows, and every
    pair is translated by the nonzero members of its H at once
    (``add_indices``).  x is the least member of its coset x + H when
    every translate exceeds it; those pairs give the columns, x first,
    then the translates in increasing order.  The pairs come out by
    subgroup, then by x, so the order is the one above.
    """
    subgroups = list(subgroups)
    blocks = []
    start = 0
    while start < len(subgroups):
        h, g = subgroups[start].order, len(subgroups[start].generators)
        stop = start + 1
        while (stop < len(subgroups) and subgroups[stop].order == h
               and len(subgroups[stop].generators) == g):
            stop += 1
        step = max(1, _CHUNK * h // form.order)
        for a in range(start, stop, step):
            blocks.append(_coset_columns(form, subgroups[a:min(a + step,
                                                               stop)]))
        start = stop
    return IndicatorColumns.from_blocks(blocks)


def _coset_columns(form: DiscriminantForm, run) -> np.ndarray:
    """The sorted coset supports of subgroups of one order and one number
    of generators, subgroup by subgroup, by least member."""
    g = len(run[0].generators)
    gens = form.indices(np.array([H.generators for H in run], dtype=np.int64)
                        .reshape(len(run) * g, len(form.orders)))
    perp = (form.b_row_num(gens) == 0).reshape(len(run), g, form.order)
    # H_perp has |D| / |H| elements: one row of x per subgroup
    x = np.nonzero(perp.all(axis=1))[1].reshape(len(run), -1, 1)
    # the members but 0, which is H.indices[0]
    members = np.stack([H.indices[1:] for H in run])
    shifted = form.add_indices(x, members[:, None, :])
    keep = (shifted > x).all(axis=2)
    return np.concatenate([x[keep], np.sort(shifted[keep], axis=1)], axis=1)


def prime_order_columns(form: DiscriminantForm) -> IndicatorColumns:
    """The lift columns of the prime-order lines, ``span_columns`` of
    ``prime_order_subgroups``: built once per form and kept on it, beside
    the lines, for the lift span, the certified route and the isotropy
    graph."""
    cached = getattr(form, "_prime_columns", None)
    if cached is None:
        cached = form._prime_columns = span_columns(
            form, prime_order_subgroups(form))
    return cached


def lift_span(form: DiscriminantForm, max_order=None) -> SpanResult:
    """Certified span of all prime-order isotropic lifts (cached); the span
    bound is ``max_order`` if given, else the process-wide one."""
    cached = getattr(form, "_lift_span", None)
    if cached is None:
        bounds.check_span_order(form.order, max_order)
        cached = form._lift_span = span_of_indicator_columns(
            form.order, prime_order_columns(form))
    return cached


def e_gamma_in_image(form: DiscriminantForm, gamma: Element) -> bool:
    """Whether e^gamma lies in the span of all isotropic lifts."""
    return bool(lift_span(form).membership[form.index(gamma)])


def spans_agree_with_all_subgroups(form: DiscriminantForm) -> bool:
    """Span over prime-order subgroups = span over all isotropic subgroups.

    The prime-order span is contained in the full span by definition, so
    only the deficient case needs work: every coset column of every
    isotropic subgroup must be orthogonal to the verified kernel.
    """
    res = lift_span(form)
    if res.full:
        return True
    return annihilates(res.kernel,
                       span_columns(form, isotropic_subgroups(form)))


# ---------------------------------------------------------------------------
# explicit constructions
# ---------------------------------------------------------------------------


def perp_pair_table(form: DiscriminantForm, p: int) -> np.ndarray:
    """For every element index: does its orthogonal complement contain an
    isotropic subgroup isomorphic to (Z/pZ)^2?

    Element g qualifies when some pair (i, j) of candidates, orthogonal and
    on distinct lines (named by their least nonzero members), has both in
    g_perp: one boolean product over the whole form finds, for each
    (i, g), whether such a j exists."""
    cand = isotropic_indices(form, p)
    Z = form.b_row_num(cand) == 0                   # b(cand_i, -) = 0
    line = _multiples(form, cand, p)[:, 0]
    pair_ok = Z[:, cand] & (line[:, None] != line[None, :])
    return ((pair_ok @ Z) & Z).any(axis=0)


def kernel_vector(form: DiscriminantForm, gamma: Element) -> dict[Element, Fraction]:
    """The descent-annihilated vector pinned to e^gamma.

    Requires a prime-power order form whose gamma_perp contains no
    isotropic subgroup isomorphic to (Z/pZ)^2.  The returned coordinate
    vector v satisfies <v, e^gamma> = 1 and all descents along isotropic
    subgroups inside gamma_perp kill it (verified before returning).
    """
    pk = prime_power(form.order)
    if form.order > 1 and pk is None:
        raise HypothesisFailed("form must have prime-power order")
    g = form.index(gamma)
    if form.order == 1:
        return {form.element(g): Fraction(1)}
    p = pk[0]
    # the isotropic subgroups of gamma_perp are cyclic unless one is (Z/pZ)^2
    iso = isotropic_indices(form)
    walk = list(_greedy_walk(form, iso[form.b_row_num(g)[iso] == 0], 2))
    if any(len(gens) > 1 for gens, _ in walk):
        raise HypothesisFailed("gamma_perp contains an isotropic (Z/pZ)^2")
    subs = [_subgroup(form, gens, S) for gens, S in walk]
    # (p - 1) v = (p - 1) e^gamma - sum over the lines H in gamma_perp of
    # the e^(gamma + mu), mu in H - 0
    row = np.zeros(form.order, dtype=np.int64)
    row[g] = p - 1
    for H in subs:
        if H.order == p:
            row[form.add_indices(H.indices[1:], g)] -= 1
    # a descent kills v when v sums to zero over every coset column
    if not annihilates(row[None, :], span_columns(form, subs)):
        raise HypothesisFailed("a descent along a cyclic isotropic subgroup "
                               "of gamma_perp does not vanish")
    return {form.element(i): Fraction(int(row[i]), p - 1)
            for i in np.nonzero(row)[0]}


def _lines_of(form: DiscriminantForm, x: np.ndarray, p: int) -> list[Subgroup]:
    """The lines of ``prime_order_subgroups`` spanned by the elements x of
    order p, found by their least nonzero members."""
    lines = {int(H.indices[1]): H for H in prime_order_subgroups(form)
             if H.order == p}
    heads = _multiples(form, x, p)[:, 0].tolist()
    if not all(h in lines for h in heads):
        raise HypothesisFailed("a term's line is not an isotropic line")
    return [lines[h] for h in heads]


def _verified_terms(form: DiscriminantForm, lines, reps: np.ndarray, coeffs,
                    target: int, error) -> list:
    """The terms (H, rep, coeff) of sum_t coeffs[t] 1_{reps[t] + lines[t]},
    once each rep is found in H_perp and the sum equal to e^target; raises
    ``error`` otherwise.  The sum is taken by element index, numerators
    over one denominator, exactly: in int64 while their absolute values sum
    below 2^63, in Python integers otherwise."""
    members = np.stack([H.indices for H in lines])
    cosets = form.add_indices(reps[:, None], members)
    # b(rep, h) = q(rep + h) - q(rep) - q(h) at H's generator h
    qn = form.qnum_array()
    if ((qn[cosets[:, 1]] - qn[reps] - qn[members[:, 1]]) % form.level).any():
        raise error("coset representative misses H_perp")
    den = lcm(*{c.denominator for c in coeffs})
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    dtype = np.int64 if sum(map(abs, nums)) + den < 1 << 63 else object
    total = np.zeros(form.order, dtype=dtype)
    np.add.at(total, cosets, np.array(nums, dtype=dtype)[:, None])
    total[target] -= den
    if total.any():
        raise error("expansion is not the unit vector")
    return [(H, form.element(r), c)
            for H, r, c in zip(lines, reps.tolist(), coeffs)]


def odd_cycle_expression(form: DiscriminantForm, cycle):
    """Lift combination summing to e^{cycle[0]} along an odd closed walk.

    Each step difference must be an isotropic element of order two
    orthogonal to both endpoints.  Returns (subgroup, coset
    representative, coefficient) triples; their expansion is verified to
    equal the unit vector exactly.
    """
    cycle = list(cycle)
    if len(cycle) % 2 == 0:
        raise EvenLength(f"closed walk of even length {len(cycle)}")
    walk = np.array([form.index(g) for g in cycle], dtype=np.int64)
    ahead = np.roll(walk, -1)
    mu = form.add_indices(ahead, form.neg_index_vec(walk))
    # with q(mu) = 0, b(mu, walk) = q(ahead) - q(walk)
    qn = form.qnum_array()
    bad = ((form.order_array()[mu] != 2) | (qn[mu] != 0)
           | (qn[ahead] != qn[walk]))
    if bad.any():
        raise NotACycle(f"step {int(np.argmax(bad))} is not an edge of the "
                        "isotropy graph")
    # step i lifts the coset {walk[i], walk[i + 1]} with sign (-1)^i / 2,
    # and the signed sum telescopes to e^{walk[0]}
    return _verified_terms(form, _lines_of(form, mu, 2),
                           np.minimum(walk, ahead),
                           [Fraction((-1) ** i, 2) for i in range(len(walk))],
                           walk[0], NotACycle)


def rank5_expression(form: DiscriminantForm, gamma: Element):
    """e^gamma as a lift combination for forms splitting off one generator
    of order q > p over an anisotropic four-generator block of level p.

    The combination averages plain lifts of gamma over all isotropic
    lines, corrects with lifts along mixed lines through (q/p)*gamma, and
    rebalances with lifts of shifted cosets; the hypotheses and counts are
    read off the integer tables and the expansion is verified exactly.
    """
    g = form.index(gamma)
    n = int(form.order_array()[g])
    pk = prime_power(n)
    if pk is None or pk[0] == 2 or pk[1] < 2:
        raise HypothesisFailed("order of gamma must be p^k, p odd, k >= 2")
    p = pk[0]
    L, qnum, C = form.level, form.qnum_array(), form.coeff_matrix()
    d = gcd(int(qnum[g]), L)
    if L // d != n:
        raise HypothesisFailed("q(gamma) must have denominator ord(gamma)")
    j = int(qnum[g]) // d
    block = np.flatnonzero(form.b_row_num(g) == 0)
    if len(block) != p ** 4 or form.order != n * p ** 4:
        raise HypothesisFailed("gamma_perp is not a rank-four block of order p^4")
    if not np.isin(form.order_array()[block], (1, p)).all():
        raise HypothesisFailed("gamma_perp is not of level p")
    iso = block[qnum[block] == 0][1:]           # block[0] is 0
    # numerators over L: b(mu, -) for mu in iso; orthogonal mu on distinct
    # lines would span an isotropic (Z/pZ)^2 in gamma_perp
    B, line = form.b_row_num(iso), _multiples(form, iso, p)[:, 0]
    if not len(iso) or ((B[:, iso] == 0) & (line[:, None] != line)).any():
        raise HypothesisFailed("the block must be anisotropic of its rank")

    # the norms -2 l j / p mod 1 of the shifted classes (l = 1: the pairs)
    norm = [(-2 * el * j % p) * (L // p) for el in range(p)]
    pairs = B[:, iso] == norm[1]
    a0 = pairs.sum(axis=1)
    if np.ptp(a0) or not a0[0]:
        raise HypothesisFailed("pair count a0 is not constant and positive")
    a0, size = int(a0[0]), len(iso)
    mu, beta = np.nonzero(pairs)
    gens = [iso, form.add_indices(form.indices((n // p) * C[g]), iso[beta])]
    reps = [np.full(size, g), form.add_indices(g, iso[mu])]
    coeffs = ([Fraction(1, size)] * size
              + [Fraction(1 - p, a0 * size)] * len(mu))
    for el in range(1, p):
        alphas = block[qnum[block] == norm[el]]
        if not len(alphas):
            raise HypothesisFailed(
                f"no block elements of norm {-2 * el * j % p}/{p}")
        apart = B[:, alphas] == 0
        a_l, b_l = (B[:, alphas] == norm[el]).sum(axis=0), apart.sum(axis=0)
        if np.ptp(a_l) or np.ptp(b_l) or not a_l[0] or not b_l[0]:
            raise HypothesisFailed("occurrence counts are not constant and "
                                   "positive")
        mu, beta = np.nonzero(apart)
        shift = form.indices((1 + el * (n // p)) * C[g])
        gens.append(iso[mu])
        reps.append(form.add_indices(shift, alphas[beta]))
        coeffs += [Fraction((p - 1) * int(a_l[0]),
                            a0 * p * int(b_l[0]) * size)] * len(mu)

    return _verified_terms(form, _lines_of(form, np.concatenate(gens), p),
                           np.concatenate(reps), coeffs, g, HypothesisFailed)


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


def check_transitivity(form: DiscriminantForm, H: Subgroup, K: Subgroup) -> bool:
    """Exact identity: lifting along H then along K/H equals lifting along K
    (and dually for descents), through the quotient-form maps."""
    if not np.isin(H.indices, K.indices, kind="table").all():
        raise NotNested("H must be contained in K")
    for S in (H, K):
        if not is_isotropic(form, S):
            raise NotIsotropic("subgroups must be isotropic")
    if H.order == K.order:
        return True  # K/H trivial; the composition is the lift itself
    if H.order == 1:
        raise ValidityError("H must be non-trivial")
    QH, QK = _quotient(form, H), _quotient(form, K)
    # K/H is generated by the nonzero images of K's generators; the order
    # check of quotient_form, |Q| |K/H|^2 = |H_perp/H|, would catch a set
    # that falls short
    idx = np.flatnonzero(np.bincount(QH.project.table[K.indices],
                                     minlength=QH.form.order))
    gens = QH.project.table[form.indices(np.array(K.generators))]
    C = QH.form.coeff_matrix()
    KH = Subgroup(tuple(map(tuple, C[gens[gens > 0]].tolist())), idx, C[idx])
    QKH = _quotient(QH.form, KH)
    left = (_lift_map(form, H, QH).matrix()
            @ _lift_map(QH.form, KH, QKH).matrix())
    right = _lift_map(form, K, QK).matrix()
    # identify the two presentations of the double quotient: element j of
    # (K/H)_perp/(K/H) is project_K(section_H(section_{K/H}(j)))
    perm = QK.project.table[QH.section.table[QKH.section.table]]
    # the descent identity is the transpose of the same matrix equality
    return bool(np.array_equal(left, right[:, perm]))
