import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dft.exact as exact
from dft.exact import (_PACK_ROWS, _PRIME_LIMIT, PRIME, IndicatorColumns,
                       _cholesky_certifies, _component_labels,
                       _exact_fallback, _gram, _rational_reconstruct,
                       _row_groups, _rref, _run_echelon, _submul_mod,
                       annihilates, span_of_indicator_columns)
from dft.fqm import build_form
from dft.lifts import prime_order_subgroups, span_columns
from dft.symbols import enumerate_symbols, parse_symbol


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
    # twice the columns: more column rows than n, same answer
    twice = span_of_indicator_columns(n, cols + cols)
    assert twice.rank == fast.rank
    assert np.array_equal(twice.kernel, fast.kernel)
    assert np.array_equal(twice.membership, fast.membership)
    # verified kernels annihilate every column on both routes
    for res in (fast, slow):
        for row in res.kernel:
            for support in cols:
                assert sum(int(row[i]) for i in support) == 0


def test_pivot_columns_are_a_basis():
    cols = [(0, 1), (1, 2), (0, 2), (3,), (0, 1)]
    res = span_of_indicator_columns(4, cols)
    assert res.rank == 4
    columns = IndicatorColumns.from_supports(cols)
    cols, R = _run_echelon(
        4, len(columns), lambda start, stop: columns.block(start, stop, 4),
        PRIME)
    assert cols == [0, 1, 2, 3]
    assert np.array_equal(R, np.eye(4, dtype=np.int64))


def _rref_one_by_one(M, p):
    """Reference: insert the rows one at a time, back-substituting each new
    pivot into every earlier row."""
    cols, rows = [], []
    for row in M:
        row = row % p
        for c, r in zip(cols, rows):
            row = (row - row[c] * r) % p
        nz = np.flatnonzero(row)
        if not len(nz):
            continue
        c = int(nz[0])
        row = (row * pow(int(row[c]), -1, p)) % p
        rows = [(r - r[c] * row) % p for r in rows] + [row]
        cols.append(c)
    return cols, np.array(rows, dtype=np.int64).reshape(len(rows), M.shape[1])


@pytest.mark.parametrize("seed", range(12))
def test_recursive_rref_matches_one_by_one(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    p = (PRIME, 7, 2)[seed % 3]
    n, rank = int(rng.integers(5, 70)), int(rng.integers(1, 40))
    m = int(rng.integers(40, 150))
    # rows drawn from a rank-limited space, then planted dependencies:
    # zero rows, repeats, multiples, sums and sparse 0/1 rows
    base = rng.integers(0, p, size=(rank, n)) * (rng.random((rank, n)) < 0.4)
    M = (rng.integers(0, p, size=(m, rank)) @ base) % p
    for _ in range(m // 8):
        i, j, k = rng.integers(0, m, size=3)
        M[i] = 0
        M[j] = (M[k] * int(rng.integers(1, p + 1))) % p
        M[k] = (M[i] + M[j]) % p
        M[int(rng.integers(0, m))] = rng.random(n) < 0.1
    cols, rows = _rref_one_by_one(M, p)
    got_cols, R = _rref(M, p)
    assert got_cols == cols and np.array_equal(R, rows)
    # the echelon over several blocks of rows gives the same pivots
    monkeypatch.setattr(exact, "_BLOCK", int(rng.integers(3, 40)))
    run_cols, R = _run_echelon(n, m, lambda start, stop: M[start:stop], p)
    assert run_cols == cols
    assert np.array_equal(R, rows)


@pytest.mark.parametrize("shift", [1, 2])
def test_matmul_mod_is_exact_past_one_float64_chunk(shift):
    # 9000 products near 2^40 sum past 2^53; one float64 product rounds
    # the odd residue p - 2 (36000 in place of 35992 mod p)
    p = PRIME
    r = p - shift
    a = np.full((1, 9000), r, dtype=np.int64)
    b = np.full((9000, 1), r, dtype=np.int64)
    x = np.zeros((1, 1), dtype=np.int64)
    assert _submul_mod(x, a, b, p)[0, 0] == (-9000 * r * r) % p


@pytest.mark.parametrize("p", [_PRIME_LIMIT, 1048583])
def test_matmul_mod_refuses_primes_past_the_float64_bound(p):
    # 1048583 is the least prime above 2^20: one residue product can reach
    # 2^40 and more, and 4096 of them no longer sum exactly in float64
    one = np.ones((1, 1), dtype=np.int64)
    with pytest.raises(ValueError):
        _submul_mod(one, one, one, p)


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


# (n, primes_used, fallback_used): the largest kernel entry exceeds the
# prime's reconstruction bound sqrt(p / 2) at n = 20, and 2^63 at n = 160,
# so the prime is refused and the exact fallback answers.  Each id is the
# name the case has had since the route tried up to ten primes, so that
# results stay comparable by name across versions.
_PATHS = [
    (20, 1, True, "20-2-False"),
    (60, 1, True, "60-5-False"),
    (160, 1, True, "160-10-True"),
]


# each column twice: more columns than n, all eliminated as 0/1 rows
_PATH_CASES = [
    pytest.param(n, primes, fallback, copies, id=name + suffix)
    for copies, suffix in ((1, ""), (2, "-gram"))
    for n, primes, fallback, name in _PATHS]


def _modular_only(monkeypatch):
    """Switch the guided kernel off: every deficient group goes to the
    modular echelon."""
    monkeypatch.setattr(exact, "_guided_kernel", lambda n, columns, G: None)


@pytest.mark.parametrize("n, primes, fallback, copies", _PATH_CASES)
def test_certificate_paths(n, primes, fallback, copies, monkeypatch):
    _modular_only(monkeypatch)
    cols = fibonacci_columns(n) * copies
    res = span_of_indicator_columns(n, cols)
    assert (res.primes_used, res.fallback_used) == (primes, fallback)
    slow = res if fallback else _exact_fallback(n, cols)
    assert res.rank == slow.rank == n - 1
    assert np.array_equal(res.membership, slow.membership)
    for row in res.kernel:
        for support in cols:
            assert sum(int(row[i]) for i in support) == 0


def _planted_refusal(kind, monkeypatch):
    """Columns and a patch that make the kernel modulo PRIME wrong or
    missing, of the kind named."""
    reconstruct = exact._reconstruct_kernel

    def changed(*args):
        K = reconstruct(*args).copy()
        K[0, 0] += 1
        return K

    if kind == "prime-2":
        # each column is the sum of the other two mod 2: rank 2 mod 2, 3
        # over Q, and the Cholesky test would certify it before the prime
        monkeypatch.setattr(exact, "PRIME", 2)
        monkeypatch.setattr(exact, "_cholesky_certifies", lambda G: False)
        return 3, IndicatorColumns.from_supports([(0, 1), (1, 2), (0, 2)])
    monkeypatch.setattr(exact, "_reconstruct_kernel", {
        "no-preimage": lambda *args: None, "changed-entry": changed}[kind])
    return len(_ONE_RELATION), _columns_of(_ONE_RELATION)


@pytest.mark.parametrize("kind", ["no-preimage", "changed-entry", "prime-2"])
def test_a_refused_prime_costs_time_never_an_answer(kind, monkeypatch):
    _modular_only(monkeypatch)
    n, columns = _planted_refusal(kind, monkeypatch)
    res = span_of_indicator_columns(n, columns)
    assert (res.primes_used, res.fallback_used) == (1, True)
    want = _exact_fallback(n, columns)
    _assert_same_span(res, want)
    assert want.rank == (3 if kind == "prime-2" else 4)


def test_gram_matrix_counts_shared_columns():
    rng = np.random.default_rng(3)
    n = 9
    supports = [tuple(sorted(rng.choice(n, size=int(k), replace=False)))
                for k in rng.integers(0, 5, size=40)]
    cols = IndicatorColumns.from_supports(supports)
    A = cols.block(0, len(cols), n).T
    assert np.array_equal(_gram(n, cols), A @ A.T)


def test_gram_of_no_columns_is_zero():
    assert not _gram(3, IndicatorColumns.from_supports([])).any()


def test_column_count_divisible_by_the_first_prime(monkeypatch):
    # PRIME copies of one column: G = [[PRIME]] is 0 mod the prime, but the
    # echelon sees the column rows, each 1 mod the prime
    p = PRIME
    cols = IndicatorColumns(np.zeros(p, dtype=np.int64),
                            np.arange(p + 1, dtype=np.int64))
    res = span_of_indicator_columns(1, cols)
    assert res.full and (res.primes_used, res.cholesky_blocks) == (0, 1)
    monkeypatch.setattr(exact, "_cholesky_certifies", lambda G: False)
    res = span_of_indicator_columns(1, cols)
    assert res.full and res.rank == 1
    assert (res.primes_used, res.fallback_used) == (1, False)
    assert res.cholesky_blocks == 0


def _singular_matrices(count, seed):
    """Random matrices A with 3 to 11 rows and 40 columns, 0/1 but for
    the last row, which repeats row 0 or is row 0 + row 1."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 12))
        A = rng.integers(0, 2, size=(n, 40))
        A[-1] = A[0] + (A[1] if rng.random() < 0.5 else 0)
        yield A


def _singular_grams(count, seed):
    """Gram matrices A A^T of ``_singular_matrices``."""
    return (A @ A.T for A in _singular_matrices(count, seed))


def test_cholesky_refuses_singular_grams():
    # a bare float64 Cholesky accepts some of these singular matrices;
    # the shifted test must refuse every one
    bare = 0
    for G in _singular_grams(2000, 11):
        assert not _cholesky_certifies(G)
        try:
            np.linalg.cholesky(G.astype(np.float64))
            bare += 1
        except np.linalg.LinAlgError:
            pass
    assert bare > 0


def test_cholesky_guards_exactness():
    # entries at 2^53 are not exact in float64: refused, whatever G is
    assert _cholesky_certifies(np.array([[2 ** 52]]))
    assert not _cholesky_certifies(np.array([[2 ** 53]]))
    assert not _cholesky_certifies(np.zeros((2, 2), dtype=np.int64))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cholesky_accepts_only_full_rank(data):
    # random 0/1 columns, some rows sums of two others: whenever the
    # certificate accepts, the exact RREF has full rank
    n = data.draw(st.integers(1, 10))
    ncols = data.draw(st.integers(n, 3 * n))
    A = np.array(data.draw(st.lists(st.lists(st.integers(0, 1), min_size=ncols,
                                             max_size=ncols),
                                    min_size=n, max_size=n)))
    for _ in range(data.draw(st.integers(0, 2))):
        i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        A[k] &= 1 - A[j]            # disjoint from row j: the sum is 0/1
        A[i] = A[j] + A[k]
    cols = IndicatorColumns.from_supports(
        [tuple(np.flatnonzero(A[:, j]).tolist()) for j in range(ncols)])
    if _cholesky_certifies(_gram(n, cols)):
        assert _exact_fallback(n, cols).rank == n


def _columns_of(A):
    """The columns of the 0/1 matrix A as ``IndicatorColumns``."""
    return IndicatorColumns.from_supports(
        [tuple(np.flatnonzero(A[:, j]).tolist()) for j in range(A.shape[1])])


def _peel_off(monkeypatch):
    """Switch the closed form off: every row goes to the certified route."""
    monkeypatch.setattr(exact, "_peel", lambda n, columns: (
        np.ones(n, dtype=bool), np.zeros(len(columns), dtype=bool)))


def _guided_always(monkeypatch):
    """Offer the guided kernel every deficient group, however few rows the
    modular echelon would eliminate."""
    monkeypatch.setattr(exact, "_offers_guided", lambda n, ncols: True)


def _routes(n, columns):
    """The span of one group of rows by ``_span_block`` with the guided
    kernel offered every group, and with it switched off."""
    with pytest.MonkeyPatch.context() as m:
        _guided_always(m)
        guided = exact._span_block(n, columns)
    with pytest.MonkeyPatch.context() as m:
        _modular_only(m)
        modular = exact._span_block(n, columns)
    return guided, modular


def _assert_guided_like_modular(guided, modular):
    _assert_same_span(guided, modular)
    assert (guided.guided_blocks, guided.primes_used) == (1, 0)
    assert modular.guided_blocks == 0 and modular.primes_used >= 1


def test_guided_kernel_matches_modular_on_singular_grams():
    # the 0/1 matrices among those of the singular Gram matrices
    checked = 0
    for A in _singular_matrices(400, 11):
        if A.max() <= 1:
            _assert_guided_like_modular(*_routes(len(A), _columns_of(A)))
            checked += 1
    assert checked > 150


@pytest.mark.parametrize("n, primes, fallback, copies", _PATH_CASES)
def test_guided_kernel_on_fibonacci_columns(n, primes, fallback, copies):
    # at n = 20 the guess is certified; at 60 and 160 G[P, P] is too
    # ill-conditioned for the Cholesky test, and the guided kernel refuses
    # without raising.  A refused group takes the modular route, whose
    # answers at 160 (the exact fallback) test_certificate_paths checks.
    columns = IndicatorColumns.from_supports(fibonacci_columns(n) * copies)
    G = _gram(n, columns).astype(np.float64)
    assert (exact._guided_kernel(n, columns, G) is None) == (n > 20)
    if n == 20:
        _assert_guided_like_modular(*_routes(n, columns))
    elif n == 60:
        guided, modular = _routes(n, columns)
        _assert_same_span(guided, modular)
        assert (guided.primes_used, guided.fallback_used,
                guided.guided_blocks) == (primes, fallback, 0)


def test_guided_kernel_matches_modular_on_deficient_groups():
    # every group of representatives with columns and a deficient span in
    # the lift spans of {2, 3, 5} <= 128, as span_of_indicator_columns
    # certifies it with the guided kernel offered every group, against the
    # modular route, both with the closed form (647 groups, 124 distinct)
    # and without it (2,053 groups, 216 distinct); each of the 258 distinct
    # groups is compared once
    groups = {}
    block = exact._span_block

    def record(n, columns):
        res = block(n, columns)
        if len(columns) and not res.full:
            key = (n, columns.indices.tobytes(), columns.indptr.tobytes())
            groups.setdefault(key, (n, columns, res))
        return res

    for peel in (True, False):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(exact, "_span_block", record)
            _guided_always(m)
            if not peel:
                _peel_off(m)
            for sym in enumerate_symbols(128, {2, 3, 5}):
                form = build_form(sym)
                span_of_indicator_columns(
                    form.order,
                    span_columns(form, prime_order_subgroups(form)))
    assert len(groups) > 250
    with pytest.MonkeyPatch.context() as m:
        _modular_only(m)
        for n, columns, res in groups.values():
            _assert_guided_like_modular(res, block(n, columns))


def test_guided_kernel_scales_a_fractional_row():
    # row 3 = (row 0 + row 1 + row 2) / 2, with fewer columns than rows
    A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]])
    guided, modular = _routes(4, _columns_of(A))
    _assert_guided_like_modular(guided, modular)
    assert guided.kernel.tolist() == [[-1, -1, -1, 2]]


# rows 0 to 3 are independent and row 4 = row 0 + row 1
_ONE_RELATION = np.array([[1, 1, 0, 0, 0, 0, 0],
                          [0, 0, 1, 1, 0, 0, 0],
                          [0, 0, 0, 0, 1, 1, 0],
                          [0, 1, 0, 0, 0, 1, 1],
                          [1, 1, 1, 1, 0, 0, 0]])
# rows 0 to 3 are independent, row 4 = row 0 + row 1, row 5 = row 2 + row 3
_TWO_RELATIONS = np.array([[1, 1, 0, 0, 0, 0, 0, 0],
                           [0, 0, 1, 1, 0, 0, 0, 0],
                           [0, 0, 0, 0, 1, 1, 0, 0],
                           [0, 0, 0, 0, 0, 0, 1, 1],
                           [1, 1, 1, 1, 0, 0, 0, 0],
                           [0, 0, 0, 0, 1, 1, 1, 1]])


def _min_norm_solve(a, b):
    """A solver that answers a singular but consistent system too."""
    return np.linalg.lstsq(a, b, rcond=None)[0]


def _planted(kind):
    """The matrix, and replacements for steps of the guided kernel that
    plant a wrong guess of the kind named; each is refused by one test."""
    scaled_rows = exact._scaled_rows

    def free_of(*rows):
        return lambda G: np.isin(np.arange(len(G)), rows)

    def plus(row, col, K):
        R = scaled_rows(K)
        R[row, col] += 1
        return R

    def first_plus_second(K):
        R = scaled_rows(K)
        R[0] += R[1]
        return R

    one, two = _ONE_RELATION, _TWO_RELATIONS
    return {
        # row 4 free and row 2 a pivot traded: the pivot rows are dependent
        "swapped": (one, [(exact, "_free_rows", free_of(2))]),
        # row 0 free, rows 1 to 4 pivots: a basis, but not the greedy one
        "non-greedy": (one, [(exact, "_free_rows", free_of(0))]),
        "gcd-2": (one, [(exact, "_scaled_rows",
                         lambda K: 2 * scaled_rows(K))]),
        "2^52": (one, [(exact, "_scaled_rows",
                        lambda K: scaled_rows(K) * 2.0 ** 52)]),
        "2^64": (one, [(exact, "_scaled_rows",
                        lambda K: scaled_rows(K) * 2.0 ** 64)]),
        # row 0 - row 1 + row 4 is not zero
        "not-annihilating": (one, [(exact, "_scaled_rows",
                                    lambda K: plus(0, 0, K))]),
        # the sum of both kernel rows: it annihilates, but is not 0 at the
        # other free row
        "off-diagonal": (two, [(exact, "_scaled_rows", first_plus_second)]),
        # only row 5 free: the pivot rows 0 to 4 are dependent, yet a
        # minimum-norm solve gives row 5's true kernel row
        "dependent-pivots": (two, [(exact, "_free_rows", free_of(5)),
                                   (np.linalg, "solve", _min_norm_solve)]),
    }[kind]


@pytest.mark.parametrize("kind", ["swapped", "non-greedy", "gcd-2", "2^52",
                                  "2^64", "not-annihilating", "off-diagonal",
                                  "dependent-pivots"])
def test_guided_kernel_refusals_fall_back(kind, monkeypatch):
    A, patches = _planted(kind)
    n, columns = len(A), _columns_of(A)
    guided, want = _routes(n, columns)
    _assert_guided_like_modular(guided, want)
    _guided_always(monkeypatch)
    for patch in patches:
        monkeypatch.setattr(*patch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no overflowing cast either
        G = _gram(n, columns).astype(np.float64)
        assert exact._guided_kernel(n, columns, G) is None
        res = exact._span_block(n, columns)
    _assert_same_span(res, want)
    assert (res.guided_blocks, res.primes_used) == (0, 1)


def test_guided_kernel_rows_of_planted_matrices():
    for A, want in ((_ONE_RELATION, [[-1, -1, 0, 0, 1]]),
                    (_TWO_RELATIONS, [[-1, -1, 0, 0, 1, 0],
                                      [0, 0, -1, -1, 0, 1]])):
        guided, _ = _routes(len(A), _columns_of(A))
        assert guided.kernel.tolist() == want


def _free_columns(kernel):
    """The free column of each kernel row: its last nonzero entry."""
    n = kernel.shape[1]
    return (n - 1 - np.argmax(kernel[:, ::-1] != 0, axis=1)).tolist()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_row_groups_match_block_by_block_fallback(data):
    # small blocks of columns on disjoint, shuffled index sets, with more
    # rows than one group holds; some blocks are exact copies of earlier
    # ones on other rows, their columns in another order
    n = data.draw(st.integers(_PACK_ROWS + 1, 2 * _PACK_ROWS + 40))
    perm = data.draw(st.permutations(range(n)))
    blocks, used = [], 0
    while used < n:
        size = min(data.draw(st.integers(1, 9)), n - used)
        # increasing, so that the local RREF is the global one
        rows = sorted(perm[used:used + size])
        used += size
        twins = [local for rows_, local in blocks if len(rows_) == size]
        if twins and data.draw(st.booleans()):
            local = data.draw(st.permutations(data.draw(
                st.sampled_from(twins))))
        else:
            local = []
            for _ in range(data.draw(st.integers(0, 2 * size))):
                local.append(tuple(sorted(data.draw(st.sets(
                    st.integers(0, size - 1), min_size=1, max_size=size)))))
        blocks.append((rows, local))
    cols = [tuple(sorted(rows[i] for i in c))
            for rows, local in blocks for c in local]
    cols = data.draw(st.permutations(cols))
    guided = data.draw(st.booleans())
    with pytest.MonkeyPatch.context() as m:
        if guided:
            _guided_always(m)
        else:
            _modular_only(m)
        res = span_of_indicator_columns(n, cols)

    rank, membership = 0, np.zeros(n, dtype=bool)
    kernels = [np.zeros((0, n), dtype=object)]
    for rows, local in blocks:
        slow = _exact_fallback(len(rows), local)
        rank += slow.rank
        membership[list(rows)] = slow.membership
        K = np.zeros((len(slow.kernel), n), dtype=object)
        K[:, list(rows)] = slow.kernel
        kernels.append(K)
    kernel = np.concatenate(kernels)
    kernel = kernel[np.argsort(_free_columns(kernel), kind="stable")]
    assert res.rank == rank and len(res.kernel) == n - rank
    assert np.array_equal(res.membership, membership)
    assert np.array_equal(res.kernel, kernel)
    free = _free_columns(res.kernel)
    assert free == sorted(set(free))
    assert annihilates(res.kernel, cols)
    # the Cholesky test certifies every full-rank group of representatives
    # (its blocks are small and well conditioned); the guided kernel
    # offered every group, or when it is off one prime, serves every other
    # such group with columns, and copies (group -1) run neither.  The
    # groups are those of the rows and columns the closed form leaves.
    columns = IndicatorColumns.from_supports(cols)
    rest, lone = exact._peel(n, columns)
    assert res.lone_columns == np.count_nonzero(lone)
    rows = np.flatnonzero(rest)
    local = np.empty(n, dtype=np.int64)
    local[rows] = np.arange(len(rows))
    left = IndicatorColumns.from_supports(
        [local[list(c)] for c, alone in zip(cols, lone) if not alone])
    lab = _component_labels(len(rows), left)
    group, src = _row_groups(lab, left)
    assert np.array_equal(group < 0, src != np.arange(len(rows)))
    with_cols = set(group[[c[0] for c in left]].tolist()) - {-1}
    full = {g for g in with_cols if membership[rows][group == g].all()}
    assert res.cholesky_blocks == len(full)
    deficient = len(with_cols - full)
    assert res.guided_blocks == (deficient if guided else 0)
    assert (res.primes_used, res.fallback_used) == (
        int(deficient > 0 and not guided), False)
    roots = np.flatnonzero(lab == np.arange(len(rows)))
    assert res.components == len(roots)
    assert res.distinct_components == np.count_nonzero(group[roots] >= 0)


def _spans_apart(n, columns):
    """The span with every component certified on its own."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(exact, "_representatives",
                  lambda comp, local, size, columns: np.arange(len(size)))
        return span_of_indicator_columns(n, columns)


def _assert_same_span(a, b):
    assert (a.rank, a.kernel.dtype) == (b.rank, b.kernel.dtype)
    assert np.array_equal(a.membership, b.membership)
    assert a.kernel.tobytes() == b.kernel.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_a_collision_of_keys_changes_no_answer(data):
    # every component gets the same key, so every one is compared exactly
    # with the first component; only true copies may take its answer.
    # Rows base..2 base-1 copy the columns of rows 0..base-1.
    n = data.draw(st.integers(_PACK_ROWS + 1, _PACK_ROWS + 60))
    base = n // 4

    def draw(low, high):
        return [tuple(sorted(data.draw(st.sets(st.integers(low, high - 1),
                                               min_size=1, max_size=3))))
                for _ in range(data.draw(st.integers(0, high - low)))]

    first = draw(0, base)
    cols = first + draw(2 * base, n) + [tuple(i + base for i in c)
                                        for c in first]
    columns = IndicatorColumns.from_supports(data.draw(st.permutations(cols)))
    with pytest.MonkeyPatch.context() as m:
        # with the closed form on, lone copies would never be compared
        _peel_off(m)
        want = _spans_apart(n, columns)
        m.setattr(exact, "_component_keys",
                  lambda size, *rest: np.zeros((1, len(size))))
        got = span_of_indicator_columns(n, columns)
    _assert_same_span(got, want)
    assert annihilates(got.kernel, columns)
    if cols:
        assert got.distinct_components < got.components


@pytest.mark.parametrize("collide", [False, True])
def test_long_columns_are_compared_without_overflow(collide):
    # three 100-row components on the rows 0, 1 and 2 mod 3: paths with one
    # column of 10 rows, at local rows 0..9 in the first two and 1..10 in
    # the third.  100^10 > 2^63: the codes are ranks of padded rows.
    local = [(i, i + 1) for i in range(99)]
    cols = []
    for r, long in enumerate((range(10), range(10), range(1, 11))):
        cols += [tuple(3 * i + r for i in c) for c in local + [tuple(long)]]
    columns = IndicatorColumns.from_supports(cols)
    with pytest.MonkeyPatch.context() as m:
        if collide:
            m.setattr(exact, "_component_keys",
                      lambda size, *rest: np.zeros((1, len(size))))
        got = span_of_indicator_columns(300, columns)
    assert (got.components, got.distinct_components) == (3, 2)
    _assert_same_span(got, _spans_apart(300, columns))


# the components of the rows left after the closed form
@pytest.mark.parametrize("symbol, components, distinct", [
    ("27^-2", 9, 1), ("25^+2", 1, 1), ("16_1^+1.9^+1", 4, 1),
    ("3^+6", 3, 3), ("9^+2.3^+3", 32, 4)])
def test_copies_match_every_component_apart(symbol, components, distinct):
    form = build_form(parse_symbol(symbol))
    columns = span_columns(form, prime_order_subgroups(form))
    got = span_of_indicator_columns(form.order, columns)
    assert (got.components, got.distinct_components) == (components,
                                                         distinct)
    want = _spans_apart(form.order, columns)
    assert want.distinct_components == components
    _assert_same_span(got, want)


@pytest.mark.parametrize("shuffle", [False, True])
def test_long_path_is_one_component(shuffle):
    # 300 rows joined in a path by columns (i, i + 1): the labels must
    # converge to the least row across the whole diameter
    n = 300
    order = (np.random.default_rng(5).permutation(n) if shuffle
             else np.arange(n))
    cols = [tuple(sorted((int(order[i]), int(order[i + 1]))))
            for i in range(n - 1)]
    assert not _component_labels(n, IndicatorColumns.from_supports(cols)).any()
    res = span_of_indicator_columns(n, cols)
    assert (res.rank, res.blocks) == (n - 1, 1)
    # the kernel alternates in sign along the path
    assert len(res.kernel) == 1 and not res.membership.any()
    along = res.kernel[0][order]
    assert np.array_equal(np.abs(along), np.ones(n, dtype=np.int64))
    assert (along[1:] == -along[:-1]).all()


def _aggregated_certificates(guided):
    """fibonacci_columns(20), which needs the guided kernel or the exact
    fallback after the prime, and a connected full-rank block of 150 rows,
    which the Cholesky test certifies, on interleaved rows: two groups."""
    fib, size = 20, 150
    n = fib + size
    mine = np.zeros(n, dtype=bool)
    mine[np.random.default_rng(7).choice(n, fib, replace=False)] = True
    perm = np.concatenate([np.flatnonzero(mine), np.flatnonzero(~mine)])
    local = (fibonacci_columns(fib)
             + [(fib + i,) for i in range(size)]
             + [(fib + i, fib + i + 1) for i in range(size - 1)])
    cols = [tuple(sorted(int(perm[i]) for i in c)) for c in local]
    with pytest.MonkeyPatch.context() as m:
        if not guided:
            _modular_only(m)
        res = span_of_indicator_columns(n, cols)
    assert (res.primes_used, res.fallback_used, res.blocks) == (
        (0, False, 2) if guided else (1, True, 2))
    assert (res.cholesky_blocks, res.guided_blocks) == (1, int(guided))
    assert res.rank == n - 1
    slow = _exact_fallback(fib, fibonacci_columns(fib))
    want = np.zeros((1, n), dtype=object)
    want[:, perm[:fib]] = slow.kernel
    assert np.array_equal(res.kernel, want)
    assert np.array_equal(res.membership, ~(want != 0).any(axis=0))


def test_groups_aggregate_their_certificates():
    _aggregated_certificates(guided=True)


def test_groups_aggregate_their_modular_certificates():
    _aggregated_certificates(guided=False)


def test_a_column_across_two_groups_is_refused(monkeypatch):
    n = _PACK_ROWS + 2
    cols = [(0, n - 1)]
    # a lone column: the closed form would answer it before any group
    _peel_off(monkeypatch)
    monkeypatch.setattr(exact, "_row_groups",
                        lambda lab, columns: (
                            (np.arange(len(lab)) >= _PACK_ROWS).astype(
                                np.int64), np.arange(len(lab))))
    with pytest.raises(ArithmeticError):
        span_of_indicator_columns(n, cols)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closed_form_matches_the_certified_route(data):
    # lone columns (length 1 included, rows in any order), untouched rows,
    # repeated columns and connected blocks on shuffled rows, on either
    # side of _PACK_ROWS: the same answers as with the closed form off
    n = data.draw(st.integers(1, 2 * _PACK_ROWS + 40))
    perm = data.draw(st.permutations(range(n)))
    cols, used = [], 0
    while used < n:
        size = min(data.draw(st.integers(1, 6)), n - used)
        rows = perm[used:used + size]
        used += size
        kind = data.draw(st.sampled_from(["lone", "untouched", "repeated",
                                          "block"]))
        if kind == "lone":
            cols.append(tuple(rows))
        elif kind == "repeated":
            cols += [tuple(sorted(rows))] * data.draw(st.integers(2, 3))
        elif kind == "block":
            for _ in range(data.draw(st.integers(1, 2 * size))):
                cols.append(tuple(sorted(data.draw(st.sets(
                    st.sampled_from(rows), min_size=1, max_size=size)))))
    columns = IndicatorColumns.from_supports(data.draw(st.permutations(cols)))
    got = span_of_indicator_columns(n, columns)
    with pytest.MonkeyPatch.context() as m:
        _peel_off(m)
        want = span_of_indicator_columns(n, columns)
    _assert_same_span(got, want)
    assert annihilates(got.kernel, columns)
    assert want.lone_columns == 0


@pytest.mark.parametrize("symbol, lone", [
    ("27^-2", 216), ("25^+2", 120), ("16_6^-2", 96), ("2_0^+2.32_7^+1", 48)])
def test_closed_form_on_forms_with_lone_columns(symbol, lone):
    form = build_form(parse_symbol(symbol))
    lines = prime_order_subgroups(form)
    columns = span_columns(form, lines)
    # the columns on row gamma are the isotropic lines in gamma_perp
    gens = np.array([H.indices[1] for H in lines])
    assert np.array_equal(np.bincount(columns.indices, minlength=form.order),
                          (form.b_row_num(gens) == 0).sum(axis=0))
    got = span_of_indicator_columns(form.order, columns)
    assert got.lone_columns == lone
    with pytest.MonkeyPatch.context() as m:
        _peel_off(m)
        want = span_of_indicator_columns(form.order, columns)
    _assert_same_span(got, want)
    assert annihilates(got.kernel, columns)
