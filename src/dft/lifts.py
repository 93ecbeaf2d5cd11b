"""Isotropic subgroups, lift/descent matrices, and the lift span.

The central object is the rational span of all columns of all lift
matrices over prime-order isotropic subgroups.  Its rank equals |D|
exactly when every basis vector e^gamma is a combination of isotropic
lifts; per-element membership is decided against a verified exact basis
of the orthogonal complement (the common kernel of the descents).

Subgroups are enumerated as sorted index arrays (see ``fqm``), from the
isotropic element indices of ``isotropic_indices``.

Also here: the explicit certificate constructions -- the kernel vector
showing e^gamma misses the span when gamma_perp carries at most one
isotropic line, the signed odd-closed-walk combination equal to e^gamma
for 2-power level, and the five-generator expression for forms splitting
as an anisotropic rank-four block plus one higher-order generator.  The
kernel vector is an integer row over element indices, and its descent
test is the same exact ``annihilates`` check as the span's: a descent
along H kills a vector exactly when the vector sums to zero over every
coset column of H's lift, so one call covers all cyclic isotropic H
inside gamma_perp.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from .errors import (BoundExceeded, EvenLength, HypothesisFailed, NotACycle,
                     NotIsotropic, NotNested, ValidityError)
from .exact import (IndicatorColumns, SpanResult, annihilates,
                    span_of_indicator_columns)
from .fqm import (DiscriminantForm, Element, QuotientResult, Subgroup,
                  index_subgroup, is_isotropic, orthogonal_complement,
                  perp_indices, quotient_form, subgroup_from_generators)
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


def prime_order_subgroups(form: DiscriminantForm) -> tuple[Subgroup, ...]:
    """The isotropic subgroups of prime order, sorted deterministically;
    enumerated once per form and kept on it, beside its lift span."""
    cached = getattr(form, "_prime_lines", None)
    if cached is not None:
        return cached
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
    form._prime_lines = tuple(lines)
    return form._prime_lines


def isotropic_subgroups(form: DiscriminantForm) -> list[Subgroup]:
    """All non-trivial subgroups on which q vanishes identically.

    Every subgroup found, starting from the cyclic ones, is extended by each
    isotropic e orthogonal to it; S + <e> is again isotropic, since
    q(s + k e) = q(s) + k^2 q(e) + k b(s, e).  The prime-order sublist is
    exactly ``prime_order_subgroups``.  Bounded by the enumeration bound.
    """
    limit = bounds.max_enum_order()
    if form.order > limit:
        raise BoundExceeded(
            f"|D| = {form.order} exceeds the enumeration bound {limit}")
    iso = isotropic_indices(form)
    apart = form.b_row_num(iso) != 0        # |iso| x |D|
    cyclic = [form.cyclic_indices(i) for i in iso]
    found = {S.tobytes(): S for S in cyclic}
    queue = list(found.values())
    while queue:
        S = queue.pop()
        outside = np.ones(form.order, dtype=bool)
        outside[S] = False
        extends = ~apart[:, S].any(axis=1) & outside[iso]
        for a in np.nonzero(extends)[0]:
            bigger = form.sum_indices(S, cyclic[a])
            if bigger.tobytes() not in found:
                found[bigger.tobytes()] = bigger
                queue.append(bigger)
    subs = sorted(found.values(), key=lambda S: (len(S), S.tolist()))
    return [index_subgroup(form, S) for S in subs]


# ---------------------------------------------------------------------------
# lift and descent matrices
# ---------------------------------------------------------------------------


@dataclass
class LiftMap:
    """The 0/1 matrix of the isotropic lift from H_perp/H into D.

    Column j (one per coset, indexed by the source form's elements) has
    ones exactly at the rows of that coset's members; the descent matrix
    is the transpose.
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
        return self.matrix().T


def lift_matrix(form: DiscriminantForm, H: Subgroup) -> LiftMap:
    if H.order <= 1:
        raise ValidityError("lifts are taken along non-trivial subgroups")
    if not is_isotropic(form, H):
        raise NotIsotropic("q does not vanish on H")
    return _lift_map(form, H, _quotient(form, H))


def _quotient(form: DiscriminantForm, H: Subgroup) -> QuotientResult:
    """``quotient_form(form, H)``, built once per subgroup and kept on the
    form.  Its coordinate maps hold generator orders, not forms, so the
    cache makes no reference cycle and dies with the form."""
    cache = form.__dict__.setdefault("_quotients", {})
    key = H.indices.tobytes()
    if key not in cache:
        cache[key] = quotient_form(form, H)
    return cache[key]


def _lift_map(form: DiscriminantForm, H: Subgroup,
              quot: QuotientResult) -> LiftMap:
    # column j is the coset projecting to quot.form.element(j): the H_perp
    # indices grouped by projected index, ascending within each group
    perp = perp_indices(form, H.generators)
    target = quot.form.indices(quot.project.rows(form.coeff_matrix()[perp]))
    groups = perp[np.argsort(target, kind="stable")]
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


def lift_span(form: DiscriminantForm, max_order=None) -> SpanResult:
    """Certified span of all prime-order isotropic lifts (cached); the span
    bound is ``max_order`` if given, else the process-wide one."""
    cached = getattr(form, "_lift_span", None)
    if cached is None:
        bounds.check_span_order(form.order, max_order)
        cached = form._lift_span = span_of_indicator_columns(
            form.order, span_columns(form, prime_order_subgroups(form)))
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
    isotropic subgroup isomorphic to (Z/pZ)^2?  Vectorized over the form."""
    cand = isotropic_indices(form, p)
    n = form.order
    out = np.zeros(n, dtype=bool)
    if len(cand) < 2:
        return out
    B = form.b_row_num(cand)                              # b(cand_i, -)
    pairok = _pair_ok(form, cand, B)
    for g in range(n):
        mask = B[:, g] == 0
        if mask.sum() < 2:
            continue
        sub = pairok[np.ix_(mask, mask)]
        out[g] = bool(sub.any())
    return out


def _pair_ok(form: DiscriminantForm, cand: np.ndarray,
             B: np.ndarray) -> np.ndarray:
    """pairok[i, j]: the isotropic order-p elements cand[i] and cand[j] are
    orthogonal and span distinct lines; B holds their rows b(cand[i], -)."""
    line = np.array([form.cyclic_indices(c)[1] for c in cand])
    return (B[:, cand] == 0) & (line[:, None] != line[None, :])


def _perp_has_pair(form: DiscriminantForm, p: int, g: int) -> bool:
    """``perp_pair_table(form, p)[g]``, from the column of element g alone."""
    cand = isotropic_indices(form, p)
    cand = cand[form.b_row_num(g)[cand] == 0]
    return len(cand) >= 2 and bool(
        _pair_ok(form, cand, form.b_row_num(cand)).any())


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
    if _perp_has_pair(form, p, g):
        raise HypothesisFailed("gamma_perp contains an isotropic (Z/pZ)^2")
    in_perp = form.b_row_num(g) == 0
    # without an isotropic (Z/pZ)^2 every isotropic subgroup inside
    # gamma_perp is cyclic, so cyclic closures exhaust them
    iso = isotropic_indices(form)
    cyclic = {}
    for i in iso[in_perp[iso]]:
        S = form.cyclic_indices(i)
        cyclic.setdefault(S.tobytes(), S)
    # (p - 1) v = (p - 1) e^gamma - sum over the lines H in gamma_perp of
    # the e^(gamma + mu), mu in H - 0
    row = np.zeros(form.order, dtype=np.int64)
    row[g] = p - 1
    for S in cyclic.values():
        if len(S) == p:
            row[form.add_indices(S[1:], g)] -= 1
    # a descent kills v when v sums to zero over every coset column
    subs = [index_subgroup(form, S) for S in cyclic.values()]
    if not annihilates(row[None, :], span_columns(form, subs)):
        raise HypothesisFailed("a descent along a cyclic isotropic subgroup "
                               "of gamma_perp does not vanish")
    return {form.element(i): Fraction(int(row[i]), p - 1)
            for i in np.nonzero(row)[0]}


def odd_cycle_expression(form: DiscriminantForm, cycle):
    """Lift combination summing to e^{cycle[0]} along an odd closed walk.

    Each step difference must be an isotropic element of order two
    orthogonal to both endpoints.  Returns (subgroup, coset
    representative, coefficient) triples; their expansion is verified to
    equal the unit vector exactly.
    """
    walk = [tuple(g) for g in cycle]
    n = len(walk)
    if n % 2 == 0:
        raise EvenLength(f"closed walk of even length {n}")
    steps = []
    for i in range(n):
        mu = form.add(walk[(i + 1) % n], form.neg(walk[i]))
        if mu == form.zero or form.element_order(mu) != 2:
            raise NotACycle(f"step {i} is not an order-2 difference")
        if form.q(mu) != 0 or form.b(mu, walk[i]) != 0:
            raise NotACycle(f"step {i} is not an edge of the isotropy graph")
        steps.append(mu)
    terms = []
    total: dict[Element, Fraction] = {}
    for i, mu in enumerate(steps, start=1):
        H = subgroup_from_generators(form, [mu])
        coeff = Fraction(-1, 2) * (-1) ** i
        rep = min(walk[i - 1], form.add(walk[i - 1], mu))
        terms.append((H, rep, coeff))
        for h in H.elements:
            key = form.add(rep, h)
            total[key] = total.get(key, Fraction(0)) + coeff
    target = {walk[0]: Fraction(1)}
    if {k: v for k, v in total.items() if v} != target:
        raise NotACycle("expansion does not telescope to the unit vector")
    return terms


def rank5_expression(form: DiscriminantForm, gamma: Element):
    """e^gamma as a lift combination for forms splitting off one generator
    of order q > p over an anisotropic four-generator block of level p.

    The combination averages plain lifts of gamma over all isotropic
    lines, corrects with lifts along mixed lines through (q/p)*gamma, and
    rebalances with lifts of shifted cosets; the occurrence counts are
    obtained by enumeration and the final expansion is verified exactly.
    """
    gamma = tuple(gamma)
    n = form.element_order(gamma)
    pk = prime_power(n)
    if pk is None or pk[0] == 2:
        raise HypothesisFailed("order of gamma must be a power of an odd prime")
    p, k = pk
    if k < 2:
        raise HypothesisFailed("order of gamma must exceed p")
    qg = form.q(gamma)
    if qg.denominator != n:
        raise HypothesisFailed("q(gamma) must have denominator ord(gamma)")
    j = qg.numerator
    perp = orthogonal_complement(form, gamma)
    if perp.order != p ** 4 or form.order != n * p ** 4:
        raise HypothesisFailed("gamma_perp is not a rank-four block of order p^4")
    if not np.isin(form.order_array()[perp.indices], (1, p)).all():
        raise HypothesisFailed("gamma_perp is not of level p")
    block = list(perp.elements)
    iso = [form.element(i) for i in
           np.intersect1d(isotropic_indices(form), perp.indices)]
    if not iso or _perp_has_pair(form, p, form.index(gamma)):
        raise HypothesisFailed("the block must be anisotropic of its rank")

    # counts: a0 over pairs inside the isotropic set, a_l and b_l over
    # shifted norm classes; all must be positive and choice-independent
    target0 = Fraction(-2 * j, p) % 1
    a0_vals = {sum(1 for beta in iso if form.b(beta, mu) == target0)
               for mu in iso}
    if len(a0_vals) != 1 or 0 in a0_vals:
        raise HypothesisFailed("pair count a0 is not constant and positive")
    a0 = a0_vals.pop()
    a_l, b_l = {}, {}
    for el in range(1, p):
        norm = Fraction(-2 * el * j, p) % 1
        alphas = [e for e in block if e != form.zero and form.q(e) == norm]
        if not alphas:
            raise HypothesisFailed(f"no block elements of norm {norm}")
        counts_a = {sum(1 for mu in iso if form.b(alpha, mu) == norm)
                    for alpha in alphas}
        counts_b = {sum(1 for mu in iso if form.b(alpha, mu) == 0)
                    for alpha in alphas}
        if len(counts_a) != 1 or len(counts_b) != 1:
            raise HypothesisFailed("occurrence counts depend on the choice")
        a_l[el] = counts_a.pop()
        b_l[el] = counts_b.pop()
        if a_l[el] == 0 or b_l[el] == 0:
            raise HypothesisFailed("vanishing occurrence count")

    size = len(iso)
    terms = []
    for mu in iso:
        H = subgroup_from_generators(form, [mu])
        terms.append((H, gamma, Fraction(1, size)))
    g_over = form.smul(n // p, gamma)
    coeff_w = Fraction(-(p - 1), a0 * size)
    for mu in iso:
        for beta in iso:
            if form.b(mu, beta) != target0:
                continue
            H = subgroup_from_generators(form, [form.add(g_over, beta)])
            terms.append((H, form.add(gamma, mu), coeff_w))
    for el in range(1, p):
        norm = Fraction(-2 * el * j, p) % 1
        coeff_u = Fraction((p - 1) * a_l[el], a0 * p * b_l[el] * size)
        shift = form.smul(1 + el * (n // p), gamma)
        for mu in iso:
            for beta in block:
                if form.q(beta) != norm or form.b(mu, beta) != 0:
                    continue
                H = subgroup_from_generators(form, [mu])
                terms.append((H, form.add(shift, beta), coeff_u))

    total: dict[Element, Fraction] = {}
    for H, rep, coeff in terms:
        if any(form.b(rep, g) != 0 for g in H.generators):
            raise HypothesisFailed("coset representative misses H_perp")
        for h in H.elements:
            key = form.add(rep, h)
            total[key] = total.get(key, Fraction(0)) + coeff
    if {e: c for e, c in total.items() if c} != {gamma: Fraction(1)}:
        raise HypothesisFailed("expansion does not collapse to e^gamma")
    return terms


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
    KH = index_subgroup(QH.form, np.flatnonzero(np.bincount(
        QH.form.indices(QH.project.rows(form.coeff_matrix()[K.indices])),
        minlength=QH.form.order)))
    QKH = _quotient(QH.form, KH)
    left = (_lift_map(form, H, QH).matrix()
            @ _lift_map(QH.form, KH, QKH).matrix())
    right = _lift_map(form, K, QK).matrix()
    # identify the two presentations of the double quotient: element j of
    # (K/H)_perp/(K/H) is project_K(section_H(section_{K/H}(j)))
    reps = QH.section.rows(QKH.section.rows(QKH.form.coeff_matrix()))
    perm = QK.form.indices(QK.project.rows(reps))
    # the descent identity is the transpose of the same matrix equality
    return bool(np.array_equal(left, right[:, perm]))
