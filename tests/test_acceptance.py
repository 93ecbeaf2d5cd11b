"""Acceptance criteria, one test per criterion, each printing a PASS line.

Everything here is exact (tolerance zero): ranks and kernels are certified
over Q, matrix identities hold in cyclotomic integers, and the one numeric
step (choosing the signature between the two residues its certificate
leaves open) is re-certified exactly afterwards.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the full module takes under a minute.
"""

import random

import pytest

from dft.classify import contains_isotropic_elementary, small_type
from dft.errors import ValidityError
from dft.fqm import build_form, direct_sum
from dft.lifts import check_transitivity, lift_span, perp_pair_table
from dft.symbols import enumerate_symbols, format_symbol, parse_symbol
from dft.verify import (CHECKS, _form_cache, _nested_pairs, form_of,
                        weil_corpus)


@pytest.fixture(scope="module", autouse=True)
def _shared_forms():
    """One form cache for the module: criteria that revisit a corpus reuse
    its forms, with their spans, graphs and quotients."""
    with _form_cache():
        yield


def _ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def _run(name, *args):
    """Run the registry check ``name``; it must pass."""
    res = CHECKS[name](*args)
    assert res.passed, f"{res.name}: {res.detail}"
    return res


def _count(res):
    """The count a check's detail starts with."""
    return int(res.detail.split()[0])


def _assert_no_prime(span, sym):
    """The float64 certificates or the closed forms answered every group:
    no group of a routine lift span reaches the modular echelon."""
    assert span.primes_used == 0 and not span.fallback_used, str(sym)


# ---------------------------------------------------------------------------


def test_a1_classifier_matches_rank_oracle():
    jobs = (({3}, 729), ({5}, 625), ({2}, 256))
    total = 0
    for primes, max_order in jobs:
        for sym in enumerate_symbols(max_order, primes):
            form = form_of(sym)
            span = lift_span(form)
            assert small_type(sym).small == (span.rank < form.order), str(sym)
            _assert_no_prime(span, sym)
            total += 1
    _ok(f"A1 classifier == rank oracle on {total} symbols "
        "(3-adic <= 729, 5-adic <= 625, 2-adic <= 256)")


def test_a2_sharp_boundary_cases():
    d = form_of(parse_symbol("3^+6"))
    assert lift_span(d).rank == 729
    assert not contains_isotropic_elementary(d, 3, 3)
    d = form_of(parse_symbol("2_II^-6"))
    assert lift_span(d).rank == 64
    assert not contains_isotropic_elementary(d, 2, 3)
    d = form_of(parse_symbol("2_2^+6"))
    assert small_type(parse_symbol("2_2^+6")).small
    assert lift_span(d).rank <= d.order - 1
    for tail in ("3^+1", "3^-1"):
        split = direct_sum(build_form(parse_symbol("3^-4")),
                           build_form(parse_symbol(tail)))
        merged = "3^-5" if tail == "3^+1" else "3^+5"
        assert small_type(parse_symbol(merged)).small
        assert lift_span(split).rank <= split.order - 1
        assert lift_span(form_of(parse_symbol(merged))).rank <= 242
    _ok("A2 sharp boundaries: 3^+6 and 2_II^-6 full without an isotropic "
        "(Z/pZ)^3; 2_2^+6 and 3^-4 + 3^{+-1} small with rank deficiency")


def test_a3_prime_order_spans_suffice():
    res = _run("prime-order-spans-suffice", 256)
    # the spans the check has just cached with the module's forms
    for sym in enumerate_symbols(256, {2, 3, 5}):
        _assert_no_prime(lift_span(form_of(sym)), sym)
    _ok(f"A3 prime-order span == full isotropic span on {res.detail} "
        "with |D| <= 256")


def test_a4_graph_criterion_matches_algebra():
    res = _run("graph-matches-algebra", 256)
    _ok(f"A4 graph verdict == algebraic membership for every element of "
        f"{_count(res)} 2-adic forms with |D| <= 256")


def test_a5_odd_prime_membership_iff_orthogonal_pair():
    checked_forms = 0
    checked_elements = 0
    for p in (3, 5):
        for sym in enumerate_symbols(625, {p}):
            form = form_of(sym)
            member = lift_span(form).membership
            pair = perp_pair_table(form, p)
            for i in range(form.order):
                e = form.element(i)
                o = form.element_order(e)
                if o > p:
                    qv = form.q(e)
                    j = qv.numerator * (o // qv.denominator)
                    if j % p:
                        continue
                assert member[i] == pair[i], (str(sym), e)
                checked_elements += 1
            checked_forms += 1
    _ok(f"A5 odd-p membership iff isotropic (Z/pZ)^2 in gamma_perp: "
        f"{checked_elements} qualifying elements over {checked_forms} forms")


_A6_LARGE = ("4_II^+4", "16_II^+2", "8_II^+2.2_1^+1", "4_0^+2.16_1^+1")


def test_a6_lift_structure():
    lifts = _count(_run("descent-is-transpose", 48))
    pairs = _count(_run("lift-transitivity", 64))
    for text in _A6_LARGE:
        form = form_of(parse_symbol(text))
        for H, K in _nested_pairs(form):
            assert check_transitivity(form, H, K), \
                (text, H.generators, K.generators)
            pairs += 1
    _ok(f"A6 descent = transpose on {lifts} lift maps; transitivity exact "
        f"on {pairs} nested pairs (|D| <= 256)")


def test_a7_weil_relations_exact():
    _run("weil-relations")
    _run("lift-equivariance")
    n = len(weil_corpus())
    _ok(f"A7 Weil matrix relations and lift equivariance exact on {n} forms "
        "with |D| <= 64")


def test_a8_signature_engine():
    assert form_of(parse_symbol("2_1^+1")).signature == 1
    assert form_of(parse_symbol("2_II^-2")).signature == 4
    res = _run("milgram-certificate")
    pool = enumerate_symbols(64, {2, 3, 5})
    rng = random.Random(8128)
    for _ in range(200):
        a, b = rng.choice(pool), rng.choice(pool)
        da, db = form_of(a), form_of(b)
        assert direct_sum(da, db).signature == \
            (da.signature + db.signature) % 8, (str(a), str(b))
    _ok(f"A8 Gauss-sum certificate exact on {res.detail}; anchors "
        "sign(2_1^+1)=1, sign(2_II^-2)=4; additivity on 200 random sums")


def test_a9_maximal_isotropic_rank():
    res = _run("max-isotropic-rank")
    _ok(f"A9 maximal isotropic rank formula == exhaustive search "
        f"({res.detail} incl. 3^{{+-6}})")


def test_a10_explicit_constructions():
    for name in ("kernel-vector", "odd-cycle-expression", "rank5-expression"):
        _run(name)
    _ok("A10 kernel vectors, odd closed-walk combinations and the rank-5 "
        "expression re-evaluate exactly")


def test_a11_tail_independence():
    res = _run("tail-independence")
    _ok(f"A11 full-image verdict independent of the attached 8_t / 16_t "
        f"factor ({res.detail})")


_A12_CATALOG = [
    # p = 2 catalog entries (one valid oddity/sign instance per shape)
    "2_II^-2", "2_II^+2", "2_II^+4", "2_II^-4", "2_II^-6",
    "2_1^+1", "2_7^+1", "2_3^-1", "2_5^-1",
    "2_2^+2", "2_2^-2", "2_6^+2", "2_6^-2",
    "2_3^+3", "2_1^-3", "2_5^+3", "2_7^-3",
    "2_0^-4", "2_4^+4", "2_4^-4", "2_2^+4",
    "2_5^+5", "2_3^-5", "2_1^+5",
    "2_2^+6", "2_6^-6", "2_0^-6", "2_4^+6",
    "2_1^-7", "2_3^+7",
    "4_1^+1", "4_7^+1", "4_3^-1", "4_5^-1",
    "2_1^+1.4_1^+1", "2_3^-1.4_5^-1",
    "2_II^+2.4_1^+1", "2_II^-2.4_7^+1", "2_II^+4.4_1^+1",
    "4_2^+2", "4_6^-2", "2_1^+1.4_2^+2", "2_II^+2.4_2^+2",
    "4_1^+3", "4_3^+3", "2_1^+1.4_1^+3",
    "2_3^-3.4_1^+1", "2_5^+5.4_1^+1", "2_2^+2.4_1^+1",
    # odd-p clause shapes
    "3^-1", "3^+1", "3^+2", "3^-2", "9^+1", "9^-1",
    "3^-1.9^+1", "3^+2.9^-1", "3^+1.9^+1.27^-1",
    "3^+2.9^+2", "3^+2.9^-1.27^+1",
    "3^-5", "3^+5", "3^-4.9^+1", "3^-4.9^-1", "3^+6", "3^-6",
    "5^-2.25^+1", "5^+1.25^-1.125^+1", "5^-5", "5^+4.25^-1",
]

_A12_INVALID = [
    "2^+1", "2_2^+1", "2_1^+2", "2_II^+3", "2_0^-2", "6^+1", "3_1^+1",
    "3^-4.3^+1", "4_II^-2.4_1^+1", "1^+1", "2_1^-1", "2_3^+1",
]


def test_a12_parser_round_trip():
    good = 0
    for text in _A12_CATALOG:
        sym = parse_symbol(text)
        canon = format_symbol(sym)
        assert parse_symbol(canon) == sym
        assert format_symbol(parse_symbol(canon)) == canon
        good += 1
    for sym in enumerate_symbols(64, {2, 3, 5}):
        text = format_symbol(sym)
        assert parse_symbol(text) == sym
        good += 1
    rejected = 0
    for text in _A12_INVALID:
        with pytest.raises(ValidityError):
            parse_symbol(text)
        rejected += 1
    _ok(f"A12 parser round-trips on {good} symbols (theorem catalogs "
        f"included); {rejected} invalid spellings rejected")
