from fractions import Fraction
from math import prod

import numpy as np
import pytest

from dft.cyclo import Cyclotomic, cofactor_poly, cyclotomic_poly, vanishes
from dft.errors import BoundExceeded, RelationFailed
from dft.fqm import build_form, subgroup_from_generators
from dft.ntheory import is_prime
from dft.symbols import parse_symbol
from dft.verify import weil_corpus
from dft.weil import (_nonzero_mask, _split_primes, check_lift_equivariance,
                      check_relations, rho_S_scaled, rho_T)


def build(text):
    return build_form(parse_symbol(text))


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # (x^M - 1) = Phi_M * cofactor
    for M in (6, 8, 12, 24, 45):
        phi = np.array(cyclotomic_poly(M))
        psi = np.array(cofactor_poly(M))
        prod = np.convolve(phi, psi)
        want = np.zeros(M + 1, dtype=np.int64)
        want[0], want[M] = -1, 1
        assert np.array_equal(prod, want)


def test_vanishing_detector():
    # 1 + zeta_3 + zeta_3^2 = 0
    assert vanishes(3, [1, 1, 1])
    assert not vanishes(3, [1, 1, 0])
    assert vanishes(12, [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0])  # i + (-i)... no
    # zeta_12^2 + zeta_12^8 = zeta_12^2 (1 + zeta_2) = 0? zeta_12^6 = -1
    # 2 + 8 differ by 6: e(2/12) + e(8/12) = e(2/12)(1 + e(1/2)) = 0
    assert vanishes(4, [1, 0, 1, 0])


def test_cyclotomic_arithmetic():
    i = Cyclotomic.root(4, 1)
    assert i * i == Cyclotomic.rational(4, -1)
    z8 = Cyclotomic.root(8, 1)
    assert z8 * z8 == Cyclotomic.root(8, 2)
    assert (z8.conjugate() * z8) == 1
    x = Cyclotomic.root(3, 1)
    assert x + x.conjugate() == Fraction(-1)  # 2cos(2pi/3) = -1
    assert (x - x).is_zero()
    assert x.to(6).conductor == 6 and x.to(6) == x
    tot = Cyclotomic.rational(5, 0)
    for a in range(5):
        tot = tot + Cyclotomic.root(5, a)
    assert tot.is_zero()
    assert Cyclotomic.root(8, 3).power_basis() == (0, 0, 0, 1)


def test_rho_t_entries():
    d = build("2_1^+1")
    T = rho_T(d)
    assert T[0, 0] == Cyclotomic.rational(8, 1)
    assert T[1, 1] == Cyclotomic.root(8, 2)  # e(1/4)
    assert T[0, 1] == Cyclotomic.rational(8, 0)
    t = rho_T(build("1"))
    assert t.shape == (1, 1) and t[0, 0] == 1


def test_rho_s_scaled_entries():
    d = build("2_1^+1")
    W = rho_S_scaled(d)
    assert W.scale_exp == 1 and W.conductor == 8
    e8inv = Cyclotomic.root(8, -1)
    assert W.entry(0, 0) == e8inv and W.entry(0, 1) == e8inv
    assert W.entry(1, 0) == e8inv
    assert W.entry(1, 1) == e8inv * Cyclotomic.rational(8, -1)
    with pytest.raises(ValueError):
        W.operator_dense()  # odd scale exponent


def test_relations_on_sample():
    for text in ["1", "2_1^+1", "3^-1", "2_II^+2", "2_II^-2", "4_1^+1",
                 "2_1^+1.3^-1", "5^+1", "2_3^-1.4_1^+1"]:
        report = check_relations(build(text))
        assert report == {"unitarity": True, "s-square": True,
                          "braid": True, "gauss-row": True}


def test_relations_conductor_independent():
    d = build("2_1^+1")
    assert check_relations(d, conductor=16)["braid"]
    for conductor in (12, -8):
        with pytest.raises(ValueError):
            check_relations(d, conductor=conductor)


def test_relations_budget():
    d = build("3^+6")  # order 729 > default cyclotomic budget
    with pytest.raises(BoundExceeded):
        check_relations(d)


def test_ww_star_unitary_dense():
    # independent dense check of W W* = |D| I through Cyclotomic values
    d = build("3^-1")
    W = rho_S_scaled(d)
    n = d.order
    dense = W.dense()
    for i in range(n):
        for j in range(n):
            acc = Cyclotomic.rational(W.conductor, 0)
            for k in range(n):
                acc = acc + dense[i, k] * dense[j, k].conjugate()
            assert acc == Cyclotomic.rational(W.conductor, n if i == j else 0)


def test_lift_equivariance_cases():
    d = build("2_II^+2")
    assert check_lift_equivariance(d, subgroup_from_generators(d, [(1, 0)]))
    d4 = build("2_II^+4")
    K = subgroup_from_generators(d4, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert check_lift_equivariance(d4, K)
    d36 = build("2_II^+2.3^-2")
    H = subgroup_from_generators(d36, [(1, 0, 1, 1)])
    if all(d36.q(h) == 0 for h in H.elements):
        assert check_lift_equivariance(d36, H)


@pytest.mark.parametrize("M", [8, 16, 24, 40, 120, 512, 840])
def test_split_primes(M):
    for n in (64, 256):
        bound = 2 * n ** 5                  # the braid relation's bound
        primes = _split_primes(M, bound)
        assert prod(p for p, _ in primes) > bound
        assert prod(p for p, _ in primes[:-1]) <= bound
        for p, w in primes:
            assert is_prime(p) and p < 2 ** 20 and p % M == 1
            assert min(k for k in range(1, M + 1) if pow(w, k, p) == 1) == M


def test_entry_divisible_by_one_prime_is_reported():
    # p1 * zeta^3 vanishes mod p1 under every embedding; only a second
    # prime sees it, and the bound p1 on its coefficients forces one
    M = 8
    p1 = _split_primes(M, 1)[0][0]

    def residues(p, pw):
        x = np.zeros((2, 3), dtype=np.int64)
        x[1, 2] = p1 * pw[3] % p
        return x

    assert not residues(p1, np.arange(M)).any()
    mask = _nonzero_mask(M, p1, residues)
    assert np.argwhere(mask).tolist() == [[1, 2]]


def _shifted(text, k):
    form = build(text)
    form._signature = (form.signature + k) % 8
    return form


def test_shifted_signature_fails_on_the_corpus():
    # a shift by 4 negates W, which none of the identities can see
    for sym in weil_corpus():
        if sym.order == 1:
            continue
        for k in (1, 2):
            with pytest.raises(RelationFailed):
                check_relations(_shifted(str(sym), k))


def _first_failure(form):
    """(identity, entry) of the first failing identity, in the order
    check_relations tests them, from dense Cyclotomic products."""
    n, M = form.order, rho_S_scaled(form).conductor
    W = rho_S_scaled(form).dense()
    W_star = np.array([[c.conjugate() for c in row] for row in W.T])
    T = rho_T(form)
    P = np.zeros((n, n), dtype=object)
    P[:] = Cyclotomic.rational(M, 0)
    phase = Cyclotomic.root(M, -form.signature * M // 4)
    for i, e in enumerate(form.elements):
        P[i, form.index(form.neg(e))] = phase
    WT3 = np.linalg.matrix_power(W @ T, 3)
    W2 = W @ W
    for name, got, want in (
            ("unitarity", W @ W_star, np.identity(n, dtype=object)),
            ("s-square", W2, P),
            ("braid", WT3 @ WT3, W2 @ W2)):
        for i in range(n):
            for j in range(n):
                if not (got[i, j] - n * want[i, j]).is_zero():
                    return f"{name} failed", (form.element(i), form.element(j))
    return None


@pytest.mark.parametrize("text", ["3^-1", "2_1^+1", "2_II^+2"])
def test_failing_entry_matches_the_dense_oracle(text):
    form = _shifted(text, 1)
    with pytest.raises(RelationFailed) as info:
        check_relations(form)
    assert (str(info.value), info.value.entry) == _first_failure(form)


def test_lift_equivariance_fails_on_a_shifted_signature():
    d = _shifted("2_II^+2", 1)
    with pytest.raises(RelationFailed, match="W equivariance"):
        check_lift_equivariance(d, subgroup_from_generators(d, [(1, 0)]))
