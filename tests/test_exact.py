from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dft.exact import (PRIMES, IndicatorColumns, _exact_fallback,
                       _matmul_mod, _rational_reconstruct, annihilates,
                       span_of_indicator_columns)


def test_empty_column_set():
    res = span_of_indicator_columns(3, [])
    assert res.rank == 0 and not res.full
    assert len(res.kernel) == 3
    assert not res.membership.any()


def test_full_rank_case():
    cols = [(0,), (1,), (0, 2)]
    res = span_of_indicator_columns(3, cols)
    assert res.full and res.rank == 3
    assert res.membership.all() and res.kernel.shape == (0, 3)


def test_known_deficient_case():
    # e0+e2, e0+e1 in dimension 4: rank 2, kernel contains e3 and e0-e1-e2
    cols = [(0, 2), (0, 1)]
    res = span_of_indicator_columns(4, cols)
    assert res.rank == 2
    assert len(res.kernel) == 2
    assert list(res.membership) == [False, False, False, False]
    for row in res.kernel:
        for support in cols:
            assert sum(int(row[i]) for i in support) == 0


def test_rational_reconstruction():
    p = 1048573
    assert _rational_reconstruct(pow(2, -1, p), p) == Fraction(1, 2)
    assert _rational_reconstruct((3 * pow(7, -1, p)) % p, p) == Fraction(3, 7)
    assert _rational_reconstruct(5, p) == Fraction(5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_matches_exact_fallback(data):
    n = data.draw(st.integers(2, 10))
    ncols = data.draw(st.integers(0, 14))
    cols = []
    for _ in range(ncols):
        size = data.draw(st.integers(1, n))
        support = tuple(sorted(data.draw(
            st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
        cols.append(support)
    fast = span_of_indicator_columns(n, cols)
    slow = _exact_fallback(n, cols)
    assert fast.rank == slow.rank
    assert np.array_equal(fast.membership, slow.membership)
    # verified kernels annihilate every column on both routes
    for res in (fast, slow):
        for row in res.kernel:
            for support in cols:
                assert sum(int(row[i]) for i in support) == 0


def test_pivot_columns_are_a_basis():
    cols = [(0, 1), (1, 2), (0, 2), (3,), (0, 1)]
    res = span_of_indicator_columns(4, cols)
    assert res.rank == 4
    assert len(res.pivot_columns) == 4
    assert sorted(res.pivot_columns) == [0, 1, 2, 3]


@pytest.mark.parametrize("shift", [1, 2])
def test_matmul_mod_is_exact_past_one_float64_chunk(shift):
    # 9000 products near 2^40 sum past 2^53; one float64 product rounds
    # the odd residue p - 2 (36000 in place of 35992 mod p)
    p = PRIMES[0]
    r = p - shift
    a = np.full((1, 9000), r, dtype=np.int64)
    b = np.full((9000, 1), r, dtype=np.int64)
    assert _matmul_mod(a, b, p)[0, 0] == (9000 * r * r) % p


def test_indicator_columns_round_trip():
    supports = [(0, 2), (), (1,), (0, 1, 3)]
    cols = IndicatorColumns.from_supports(supports)
    assert len(cols) == 4 and list(cols) == supports
    assert cols[3] == (0, 1, 3) and cols[1] == ()
    assert cols.block(1, 4, 4).tolist() == [[0, 0, 0, 0], [0, 1, 0, 0],
                                            [1, 1, 0, 1]]
    blocks = IndicatorColumns.from_blocks([np.array([[0, 2], [1, 3]])])
    assert list(blocks) == [(0, 2), (1, 3)]


def test_annihilates():
    K = np.array([[1, -1, 0], [0, 0, 2]])
    assert annihilates(K, [(0, 1), (), (0, 1)])
    assert not annihilates(K, [(0, 1), (), (2,)])
    # an empty column between two others must not shift the sums
    assert not annihilates(np.array([[0, 5]]), [(0,), (), (1,)])
    # 8 * 2^61 = 2^64 wraps to 0 in int64; the check must not trust that
    assert not annihilates(np.full((1, 8), 2 ** 61), [tuple(range(8))])
    # many columns, checked in chunks: only the last one fails
    many = [(0, 1)] * 300000 + [(2,)]
    assert annihilates(K[:1], many[:-1])
    assert not annihilates(K, many)


def fibonacci_columns(n):
    """n - 1 columns in dimension n with a one-dimensional kernel whose
    entries grow like the Fibonacci numbers: column k covers k + 1 and
    every earlier index whose kernel entry has the dominant sign."""
    v = [1]
    cols = []
    for k in range(n - 1):
        pos = [i for i in range(k + 1) if v[i] > 0]
        neg = [i for i in range(k + 1) if v[i] < 0]
        side = pos if sum(v[i] for i in pos) >= -sum(v[i] for i in neg) else neg
        cols.append(tuple(side) + (k + 1,))
        v.append(-sum(v[i] for i in side))
    return cols


@pytest.mark.parametrize("n, primes, fallback", [
    (20, 2, False),                   # two primes and one CRT step
    (60, 5, False),                   # CRT modulus past 2^63: Python ints
    (160, len(PRIMES), True),         # every prime fails: Fraction RREF
])
def test_certificate_paths(n, primes, fallback):
    cols = fibonacci_columns(n)
    res = span_of_indicator_columns(n, cols)
    assert (res.primes_used, res.fallback_used) == (primes, fallback)
    slow = res if fallback else _exact_fallback(n, cols)
    assert res.rank == slow.rank == n - 1
    assert np.array_equal(res.membership, slow.membership)
    for row in res.kernel:
        for support in cols:
            assert sum(int(row[i]) for i in support) == 0
