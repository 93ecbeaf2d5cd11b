from fractions import Fraction

import numpy as np
import pytest

from dft.errors import (EvenLength, HypothesisFailed, NotACycle, NotIsotropic,
                        NotNested, ValidityError)
from dft.fqm import build_form, direct_sum, subgroup_from_generators
from dft.lifts import (check_transitivity, descent_matrix, e_gamma_in_image,
                       image_rank, isotropic_elements, isotropic_subgroups,
                       kernel_vector, lift_matrix, lift_span,
                       odd_cycle_expression, prime_order_subgroups,
                       rank5_expression, spans_agree_with_all_subgroups)
from dft.symbols import parse_symbol
from dft.verify import _check_duality


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


def test_prime_order_sublist():
    d = build("2_II^+4")
    all_subs = isotropic_subgroups(d)
    lines = prime_order_subgroups(d)
    assert {H.elements for H in lines} == \
        {H.elements for H in all_subs if H.order == 2}


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


def test_image_rank_anchors():
    assert image_rank(build("2_1^+1"))[0] == 0
    rank, basis = image_rank(build("2_II^+2"))
    assert rank == 2 and basis.rank == 2
    assert basis.dense().shape == (2, 4)
    d = build("3^+6")
    assert image_rank(d)[0] == 729 == d.order


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
    cols, _ = d._lift_span_data
    for row in res.kernel:
        for support in cols:
            assert sum(int(row[i]) for i in support) == 0


def test_span_kernel_duality_check():
    result = _check_duality(max_order=32)
    assert result.passed, result.detail


def test_spans_agree_with_all_subgroups_small():
    for text in ["2_II^+2", "2_1^+1", "3^-2", "4_1^+1.2_1^+1", "2_II^+4"]:
        assert spans_agree_with_all_subgroups(build(text))


def test_kernel_vector_cases():
    d = build("3^-1")
    assert kernel_vector(d, (1,)) == {(1,): Fraction(1)}
    split = direct_sum(build("3^-2"), build("3^+1"))
    v = kernel_vector(split, (0, 0, 1))
    assert v[(0, 0, 1)] == 1
    corrections = [x for x in v.values() if x != 1]
    assert sorted(corrections) == [Fraction(-1, 2)] * 4
    d = build("2_II^+2")
    v = kernel_vector(d, (0, 0))
    assert v == {(0, 0): Fraction(1), (0, 1): Fraction(-1),
                 (1, 0): Fraction(-1)}
    with pytest.raises(HypothesisFailed):
        kernel_vector(build("2_II^+6"), (0,) * 6)


def test_odd_cycle_expression():
    d = build("2_II^+4")
    cycle = [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 1, 0)]
    terms = odd_cycle_expression(d, cycle)
    assert len(terms) == 3
    total = {}
    for H, rep, coeff in terms:
        for h in H.elements:
            key = d.add(rep, h)
            total[key] = total.get(key, Fraction(0)) + coeff
    assert {k: v for k, v in total.items() if v} == {(0, 0, 0, 0): Fraction(1)}
    with pytest.raises(EvenLength):
        odd_cycle_expression(d, [(0, 0, 0, 0), (1, 0, 0, 0)])
    with pytest.raises(NotACycle):
        odd_cycle_expression(d, [(0, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0)])


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


def test_rank5_on_shifted_generator():
    # any element with unit q-numerator and full order admits the expression
    d = direct_sum(build("3^-4"), build("9^+1"))
    gamma = (1, 0, 0, 0, 2)
    if d.q(gamma).denominator == 9:
        terms = rank5_expression(d, gamma)
        assert terms and e_gamma_in_image(d, gamma)


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
