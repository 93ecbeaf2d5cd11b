import cmath
import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from dft import bounds
from dft.errors import (BoundExceeded, DegenerateForm, DimensionMismatch,
                        NotIsotropic, ValidityError)
from dft.fqm import (DiscriminantForm, build_form, direct_sum,
                     orthogonal_complement, p_part, perp_indices, q_value,
                     quotient_form, subgroup, subgroup_from_generators)
from dft.lifts import isotropic_subgroups, prime_order_subgroups
from dft.symbols import enumerate_symbols, parse_symbol


def build(text):
    return build_form(parse_symbol(text))


def test_build_anchors():
    d = build("3^-1")
    assert d.orders == (3,) and d.q((1,)) == Fraction(1, 3)
    d = build("2_II^-2")
    assert d.q((1, 0)) == d.q((0, 1)) == Fraction(1, 2)
    assert d.q((1, 1)) == Fraction(1, 2)  # (x^2+xy+y^2)/2 at (1,1)
    d = build("1")
    assert d.order == 1 and d.q(()) == 0


def test_q_value_anchors():
    assert q_value(build("2_1^+1"), (1,)) == Fraction(1, 4)
    d = build("3^-2")
    assert d.qdiag == (Fraction(1, 3), Fraction(2, 3))  # (x^2 + 2 y^2)/3
    assert d.q((1, 1)) == 0
    assert d.q((0, 0)) == 0 and d.b((0, 0), (1, 0)) == 0


def test_b_is_polarization_of_q():
    for text in ["2_1^+1.3^-1", "4_II^+2", "2_3^-1.9^+1", "5^+2"]:
        d = build(text)
        for a in d.elements:
            for b in d.elements:
                assert d.b(a, b) == (d.q(d.add(a, b)) - d.q(a) - d.q(b)) % 1


def test_dimension_mismatch():
    d = build("3^-1")
    with pytest.raises(DimensionMismatch):
        d.q((1, 0))


def test_signature_anchors():
    assert build("2_1^+1").signature == 1
    assert build("1").signature == 0
    assert build("2_II^-2").signature == 4
    assert build("3^-1").signature == 2
    assert build("2_II^+2").signature == 0


def test_signature_against_float_gauss_sum():
    # independent numeric oracle for the argument of the Gauss sum
    for text in ["3^-2", "9^+1", "2_1^+1.3^-1", "4_1^+1", "2_II^-2.5^-1"]:
        d = build(text)
        g = sum(cmath.exp(2j * cmath.pi * float(d.q(e))) for e in d.elements)
        want = round(cmath.phase(g) * 4 / cmath.pi) % 8
        assert d.signature == want
        assert abs(abs(g) - d.order ** 0.5) < 1e-9


def test_level_and_order_anchors():
    assert build("2_1^+1").level == 4
    d = build("3^-2")
    assert d.level == 3 and d.order == 9
    assert build("4_1^+1").element_order((1,)) == 4
    assert build("8_1^+1").level == 16


def test_signature_additivity_on_random_sums():
    rng = random.Random(71)
    pool = enumerate_symbols(64, {2, 3, 5})
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        da, db = build_form(a), build_form(b)
        assert direct_sum(da, db).signature == (da.signature + db.signature) % 8


def test_direct_sum_anchors():
    d = direct_sum(build("3^-1"), build("3^-1"))
    assert d.signature == 4
    t = direct_sum(build("2_1^+1"), build("1"))
    assert t.order == 2 and t.q((1,)) == Fraction(1, 4)
    a, b = build("2_1^+1"), build("3^-2.9^+1")
    assert direct_sum(a, b).level == 36  # lcm of 4 and 9


def test_p_part_splits_generators():
    d = build("2_1^+1.3^-1")
    part, embed = p_part(d, 3)
    assert part == build("3^-1")
    assert embed((1,)) == (0, 1)
    assert p_part(d, 5).form.order == 1
    two, _ = p_part(d, 2)
    assert two.order * part.order == d.order
    assert (two.signature + part.signature) % 8 == d.signature


def test_p_part_of_quotient_form():
    d = build("2_II^+2.3^-1")
    q, _, _ = quotient_form(d, subgroup_from_generators(d, [(1, 0, 0)]))
    part, embed = p_part(q, 3)
    assert part.order == 3 and part.signature == 2
    for e in part.elements:
        assert q.q(embed(e)) == part.q(e)
    assert {embed(e) for e in part.elements} == {
        e for e in q.elements if q.smul(3, e) == q.zero}


def test_orthogonal_complement():
    d = build("2_II^+2")
    perp = orthogonal_complement(d, (1, 0))
    assert perp.elements == ((0, 0), (1, 0))
    full = orthogonal_complement(d, subgroup_from_generators(d, [(0, 0)]))
    assert full.order == d.order
    # |H| * |H_perp| = |D| by non-degeneracy
    for gens in [[(1, 0)], [(0, 1)], [(1, 1)]]:
        H = subgroup_from_generators(d, gens)
        assert H.order * orthogonal_complement(d, H).order == d.order


def test_subgroup_rejects_sets_that_are_not_closed():
    d = build("2_II^+2")
    assert subgroup(d, [(1, 0)]).elements == ((0, 0), (1, 0))
    with pytest.raises(ValidityError):
        subgroup(d, [(1, 0), (0, 1)])
    with pytest.raises(ValidityError):
        subgroup(build("9^-1"), [(3,)])


def test_subgroup_equality_ignores_indices():
    d = build("2_II^+4")
    H = subgroup_from_generators(d, [(1, 0, 0, 0), (0, 0, 1, 0)])
    other = dataclasses.replace(H, indices=H.indices[::-1].copy())
    assert other == H and hash(other) == hash(H)
    assert len({H, other}) == 1


def test_quotient_anchors():
    d = build("2_II^+2")
    H = subgroup_from_generators(d, [(1, 0)])
    q, project, section = quotient_form(d, H)
    assert q.order == 1
    d4 = build("2_II^+4")
    H = subgroup_from_generators(d4, [(1, 0, 1, 0)])
    q, project, section = quotient_form(d4, H)
    assert q.order == d4.order // H.order ** 2 == 4
    assert q.signature == d4.signature
    for e in q.elements:
        assert project(section(e)) == e
    with pytest.raises(NotIsotropic):
        quotient_form(d4, subgroup_from_generators(d4, [(1, 1, 0, 0)]))


def test_quotient_signature_preserved_across_cases():
    cases = [("2_II^+4", (1, 0, 1, 0)), ("3^-2.9^+1", (1, 1, 0)),
             ("4_II^+2", (2, 0)), ("2_II^+6", (1, 0, 0, 0, 0, 0))]
    for text, gen in cases:
        d = build(text)
        H = subgroup_from_generators(d, [gen])
        q, _, _ = quotient_form(d, H)
        assert q.signature == d.signature
        assert q.order == d.order // H.order ** 2


def _check_quotient(d, H, rng):
    q, project, section = quotient_form(d, H)
    assert q.order * H.order ** 2 == d.order == math.prod(q.orders) * H.order ** 2
    assert q.signature == d.signature
    perp_idx = perp_indices(d, H.generators)
    perp = [d.element(i) for i in perp_idx]
    for h in H.elements:
        assert project(h) == q.zero
    for _ in range(12):
        a, b = rng.choice(perp), rng.choice(perp)
        assert project(d.add(a, b)) == q.add(project(a), project(b))
    # project maps H_perp onto Q with fibres of size |H|
    projected = project.rows(d.coeff_matrix()[perp_idx])
    images = q.indices(projected)
    assert np.all(np.bincount(images, minlength=q.order) == H.order)
    # one element at a time, in Python ints, agrees with the array form
    assert projected.tolist() == [list(project(e)) for e in perp]
    assert (section.rows(q.coeff_matrix()).tolist()
            == [list(section(c)) for c in q.elements])
    for c in q.elements:
        assert project(section(c)) == c
        assert q.q(c) == d.q(section(c))
    outside = next(e for e in d.elements if any(d.b(e, g) for g in H.generators))
    with pytest.raises(DimensionMismatch):
        project(outside)


def test_quotient_maps_on_prime_order_subgroups():
    rng = random.Random(5)
    pairs = 0
    for sym in enumerate_symbols(64, {2, 3, 5}):
        d = build_form(sym)
        for H in prime_order_subgroups(d):
            _check_quotient(d, H, rng)
            pairs += 1
    assert pairs > 500


def test_quotient_maps_on_non_cyclic_subgroups():
    rng = random.Random(6)
    for text in ["2_II^+4", "2_II^+6", "3^+4", "4_II^+2.2_II^+2", "4_II^+4"]:
        d = build(text)
        subs = [H for H in isotropic_subgroups(d) if len(H.generators) > 1]
        assert subs
        for H in subs[::max(1, len(subs) // 6)]:
            _check_quotient(d, H, rng)


def test_dot_mod_is_exact_past_int64():
    from dft.fqm import _dot_mod
    X = np.array([[2 ** 40, 3]], dtype=np.int64)
    A = np.array([[2 ** 40, 5], [1, 1]], dtype=np.int64)
    mod = np.array([1000003, 7], dtype=np.int64)
    want = [(2 ** 80 + 15) % 1000003, (2 ** 40 + 3) % 7]
    assert _dot_mod(X, A, mod).tolist() == [want]


def _dense_nondegenerate(d):
    """Reference: no nonzero element is orthogonal to every element, read
    off the dense |D| x |D| table of b."""
    C = d.coeff_matrix()
    B = (C @ d._gn @ C.T) % d.level
    return bool(np.all(B[1:].any(axis=1)))


def test_fraction_spellings_give_one_form():
    a = DiscriminantForm((4,), (Fraction(-3, 8),), ((Fraction(5, 4),),))
    b = DiscriminantForm((4,), (Fraction(5, 8),), ((Fraction(1, 4),),))
    assert a.level == b.level == 8
    assert a.qdiag == b.qdiag == (Fraction(5, 8),)
    assert a.gram == b.gram == ((Fraction(1, 4),),)
    assert a == b and hash(a) == hash(b)


def test_direct_sum_and_p_parts_of_a_mixed_form():
    d = direct_sum(build("2_1^+1"), build("3^-1"))
    assert d == build("2_1^+1.3^-1")
    assert p_part(d, 3).form == build("3^-1")
    assert p_part(d, 2).form == build("2_1^+1")


def test_quotient_level_is_reduced():
    # built over the parent's level 4, the quotient's tables reduce to level 2
    d = build("4_II^+2")
    Q = quotient_form(d, subgroup_from_generators(d, [(2, 0)])).form
    assert d.level == 4 and Q.level == 2


def test_nondegeneracy_of_built_forms():
    for sym in enumerate_symbols(32, {2, 3}):
        assert _dense_nondegenerate(build_form(sym))


@pytest.mark.parametrize("qdiag, gram, message", [
    ((0, 0), ((0, Fraction(1, 2)), (0, 0)), "symmetric"),
    ((Fraction(1, 4), 0), ((0, 0), (0, 0)), "diagonal"),
    ((Fraction(1, 8), 0), ((Fraction(1, 4), 0), (0, 0)), "incompatible with order"),
    ((0, 0), ((0, Fraction(1, 4)), (Fraction(1, 4), 0)), "b value"),
    ((Fraction(1, 2 ** 70), 0), ((0, 0), (0, 0)), "exceeds the int64 tables"),
])
def test_constructor_rejects_invalid_tables(qdiag, gram, message):
    with pytest.raises(ValidityError, match=message):
        DiscriminantForm((2, 2), qdiag, gram)


@pytest.mark.parametrize("orders, qdiag", [
    ((2,), (Fraction(1, 2),)),   # q = 1/2 on the radical: G = 0
    ((2,), (0,)),                # q = 0 on the radical: |G|^2 = 2 |D|
    ((2,) * 12, (0,) * 12),      # |D| = 4096
])
def test_constructor_rejects_degenerate_forms(orders, qdiag):
    m = len(orders)
    with pytest.raises(DegenerateForm):
        DiscriminantForm(orders, qdiag, [[0] * m for _ in range(m)])


def test_anisotropic_plane_anchors():
    # the sign convention pinned by behavior: for eps = (-1|p) the plane
    # p^{-eps*2} has no nonzero isotropic vector and p^{+eps*2} has one
    from dft.lifts import isotropic_elements
    assert isotropic_elements(build("3^+2")) == []          # eps(3) = -1
    assert isotropic_elements(build("3^-2")) != []
    assert isotropic_elements(build("5^-2")) == []          # eps(5) = +1
    assert isotropic_elements(build("5^+2")) != []
    # p^{-4} has isotropic elements but no isotropic (Z/pZ)^2; p^{+4} has one
    from dft.classify import contains_isotropic_elementary
    assert isotropic_elements(build("3^-4")) != []
    assert not contains_isotropic_elementary(build("3^-4"), 3, 2)
    assert contains_isotropic_elementary(build("3^+4"), 3, 2)


def test_build_form_checks_the_form_bound():
    bounds.check_form_order(bounds.MAX_FORM_ORDER)
    with pytest.raises(BoundExceeded):
        bounds.check_form_order(bounds.MAX_FORM_ORDER + 1)
    # above the default span bound and the largest reach row, 5^+6
    assert bounds.MAX_FORM_ORDER > max(bounds.DEFAULT_SPAN_ORDER, 5 ** 6)
    # 2^22 elements: refused before a table is built
    with pytest.raises(BoundExceeded):
        build("2_II^+22")
