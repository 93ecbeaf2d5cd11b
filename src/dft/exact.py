"""Certified rank and kernel for collections of 0/1 indicator columns.

The columns to be spanned are supports in Z^n, held as CSR index arrays
(``IndicatorColumns``); A is the n x ncols 0/1 matrix they form.  Full
rank is first tried by a float64 Cholesky certificate, and a deficient
span by a kernel guessed in float64 and certified exactly (both below);
otherwise rank is computed by row reduction, modulo a word-size prime, of
the columns themselves, one 0/1 row each (the rows of A^T).

Two rows are linked when some column holds both, so up to a permutation
of its rows A is block-diagonal over the connected components of the
rows.  A block's rows, kept in increasing order, have as RREF the
restriction of the RREF of all of A, so rank, membership and kernel rows
can be read off each block alone.

Two kinds of block are answered in closed form, before any certificate
(``_peel``, one ``bincount`` of the columns on each row).  A row that no
column holds is a zero row of A: it is free, its kernel row is e_i, and
e_i is not in the span.  A lone column, one with at least one row and
whose rows S no other column holds, is a component of its own: the span
of its rows is the line through 1_S, whose RREF is the one row 1_S, with
rank 1 and its pivot at s = min S.  For every other f in S the kernel row
x = e_f - e_s has x . 1_S = 0, vanishes on every other column (none
holds a row of S), and has x_f = 1 and x_g = 0 at every other free
column g, so it is the RREF kernel row; it has gcd 1 and a positive
entry at f, so it is entry for entry what the modular route returns.  No
row of S is a member, unless S is one row {s}: then e_s = 1_S is.

For lift columns these are the rows the hypothesis of
``lifts.kernel_vector`` settles.  The column x + H (x in H_perp) holds
gamma exactly when gamma is in x + H; for each isotropic line H with
gamma in H_perp, that is with H inside gamma_perp, exactly one coset of H
holds gamma.  So the number of columns on row gamma is the number of
isotropic lines in gamma_perp: an untouched row has none, and every row
of a lone column gamma + H has H as the one isotropic line in its
gamma_perp.  On ``27^-2`` 216 of the 225 components are lone columns,
and 81 of 729 rows are left.

The rows left go to the route below: as one block when the whole input
has at most ``_PACK_ROWS`` rows, else split into components even when
few rows are left, since the split is what finds the copies.  At most
``_PACK_ROWS`` rows without a lone column are one block either way, and
are certified as they come, untouched rows and all.  Above
``_PACK_ROWS`` rows the components, or only their
representatives when some are copies of others (below), are packed in
the order of their least rows into groups of at most ``_PACK_ROWS`` rows
(a larger component is a group of its own), and each group's columns are
certified on their own by everything below.  The rank of A is the sum
of the groups' and the closed form's ranks, ker A^T is the direct sum of
their kernels, and a group's verified kernel vanishes on every other
group's columns, so the assembled answer is exact.  A group keeps its
rows in increasing order, so its kernel rows are the same as without the
split.  For lift columns q is constant on every component
(q(gamma + h) = q(gamma) for h in H, gamma in H_perp), so the components
refine the split by the value of q; on ``27^-2`` the 81 rows left form 9
components of 9 rows.

Most components are copies of a few.  Number a component's rows 0, 1, ...
in increasing order; its local columns are its columns in those numbers.
The RREF of the span of a set of vectors is unique whatever order the
vectors come in, and rank, membership and kernel rows are read off it.
So they depend only on the set of local columns, and two components
with equal local columns have the same local kernel, entry for entry.
Only one representative of each such class is certified; every copy
takes membership and kernel rows from it by local index.  A copy needs no
certificate of its own: its local columns are, entry for entry, those of
its representative, so whatever certified the representative (a kernel
checked by ``annihilates``, the Cholesky test, a full modular rank or the
exact fallback) certifies the copy.  Classes are found by cheap
order-free keys and confirmed by an exact comparison of the sorted local
columns; two unequal components that share a key each keep their own
echelon, so a collision of keys can cost time, never an answer.  On
``27^-2`` the 9 components left are copies of 1.

A group with at least as many columns as rows is first offered to a
floating-point certificate of full rank.  G = A A^T is an integer PSD
matrix, and A has full rank exactly when G is positive definite.  Let
u = 2^-53, gamma_k = k u / (1 - k u) and

    c > gamma_{n+1} / (1 - gamma_{n+1}) * tr G + 4 (2(n + 1) + max G_ii) 2^-1022,

a power of two, so that every G_ii - c is exact in float64 (guarded in
code, with every entry of G below 2^53).  If LAPACK's Cholesky of G - cI
completes with finite output, the computed factor satisfies
R^T R = G - cI + dG with ||dG||_2 <= gamma_{n+1} / (1 - gamma_{n+1}) tr G
plus the underflow term, for any order of summation, so
lambda_min(G) >= c - ||dG||_2 > 0 and G is positive definite (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., Thm. 10.3;
Rump, "Verification of positive definiteness", BIT 46 (2006) 433-452).
A certified group needs no prime at all; a refused one, which may still
have full rank, goes to the guided kernel next.

The guided kernel (``_guided_kernel``) takes a group the full-rank test
refuses, or one with fewer columns than rows, when it is large enough to
gain (``_offers_guided``), and returns exactly the kernel the modular
route below would.  Write a_i for row i of A.  The
RREF of the span of the columns (the row space of A^T) has a pivot at c
exactly when a_c is not in the span of a_0, ..., a_{c-1}, since its
projection onto the coordinates 0..c has dimension rank A[:c+1].  Its
kernel row for a free column f is the one x with x^T A = 0, x_f = 1 and
x_g = 0 at every other free g; the modular route scales it by the lcm of
its denominators, which makes it the integer vector of gcd 1 with a
positive entry at f.  A float64 Cholesky of G + eps I (eps = 2^-30 max
G_ii, shifted in place) guesses the free rows F: those whose squared
pivot, the squared distance of a_i from the rows before it plus about
eps, falls below 2^-20 max G_ii; the others are P.  Solving
G[P, P] X = G[P, F] in float64 and rounding (scaling a row that is not
integral by the lcm of its entries' denominators) gives an integer
k x n matrix K, accepted only when

* every |entry| is below 2^52, so the float64 rounding is exact;
* the Cholesky test above certifies G[P, P]: the rows a_P are
  independent, and rank A >= |P|;
* K annihilates every column exactly and K[:, F] is a positive diagonal:
  |F| independent vectors of ker A^T, so rank A <= n - |F| = |P|;
* K[j, p] = 0 at every p in P after F[j]: each free row is a combination
  of the pivot rows before it.  So every row before a pivot row p lies in
  the span of the pivot rows before p, and a_p, independent of them, is
  not in it: P is the greedy pivot set and F the free columns;
* each row of K has gcd 1.  Divided by its entry at F[j], row j is in
  ker A^T, 1 at F[j] and 0 at the other free columns: the RREF kernel
  row.  With gcd 1 and a positive entry at F[j] it is that row times the
  lcm of its denominators, entry for entry the modular route's answer.

Rank is then certified from both sides, as below.  A wrong guess can only
make a test refuse, and a refused group goes to the modular echelon, so
the guess costs time, never an answer.

The modular route eliminates the columns modulo one prime, ``PRIME``.  A
full modular rank certifies full rational rank.  Otherwise the kernel of
the modular RREF (free columns set to 1, one at a time) is rebuilt by
rational reconstruction and scaled to integers, and the k x n integer
matrix K is *verified exactly* against every column, which certifies the
rank from both sides:

    rank_mod_p <= rank_Q <= n - #(rows of the verified K).

Verification is the only gate.  A prime that divides a minor that
matters, or a kernel entry beyond the reconstruction bound, makes a test
refuse, and the exact fraction-free RREF (``_exact_fallback``) answers: a
wrong prime costs time, never correctness, though much time (52 s against
0.21 s for the prime on the largest group of ``5^+5``, 650 x 4,680, on a
2-vCPU x86-64 VM).  The check's column sums run in int64 while max|K|
times the longest column stays below 2^63, in Python integers otherwise.

Rows enter the echelon in blocks of ``_BLOCK``.  A block is reduced by the
stored pivots in one matrix product and then put into RREF recursively:
the second half is reduced by the first half's new pivots, the first half
is back-substituted by the second half's, rows that reduce to zero are
dropped, and only bases of at most ``_BASE_ROWS`` rows are eliminated a
row at a time.  The stored rows are back-substituted once per block.  The
pivot of each row is the first nonzero column of the row reduced by all
rows before it, as if the rows were inserted one by one; with the pivot
columns fixed the RREF is unique, so the order of elimination does not
change the pivots or the rows.

Matrix products run in float64.  With 20-bit primes one residue product is
below 2^40, so a sum of at most 4096 of them stays below 2^52 and is
exact; longer contractions are cut into chunks of 4096 terms with a
reduction mod p between chunks (``_submul_mod``).

Pivot choices are deterministic, so bases and membership vectors are
reproducible.  References: for modular rank and rational
reconstruction, von zur Gathen & Gerhard, *Modern Computer Algebra*,
ch. 5; for recursive block elimination over word-size primes, Dumas,
Giorgi & Pernet, *Dense linear algebra over word-size prime fields: the
FFLAS and FFPACK packages*, ACM TOMS 2008.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from itertools import chain
from math import gcd, isqrt, lcm

import numpy as np

# the largest prime below _PRIME_LIMIT
PRIME = 1048573

_BLOCK = 512
# rows per group of connected components, certified on its own
_PACK_ROWS = 128
# rows of the recursive RREF's base case, eliminated one by one
_BASE_ROWS = 16
# terms per float64 contraction: 4096 * (2^20)^2 = 2^52 < 2^53
_TERMS = 4096
# _submul_mod is exact only for primes below this
_PRIME_LIMIT = 1 << 20
# entries gathered per step of the bulk annihilation check
_CHECK_ENTRIES = 1 << 16
# residues and kernel entries stay int64 below this; Python ints above
_INT64_SAFE = 1 << 62
# the guided kernel's shift of G, and the squared pivot below which it
# guesses a row free, both as shares of max G_ii
_GUIDE_SHIFT = 2.0 ** -30
_GUIDE_FREE = 2.0 ** -20
# a guided kernel row within 1/_GUIDE_DEN of integers is rounded as it
# is; any other is scaled by its entries' denominators up to _GUIDE_DEN
_GUIDE_DEN = 1 << 20
# guided kernel entries are exact integers in float64 below this
_GUIDE_MAX = 2.0 ** 52


@dataclass(frozen=True)
class IndicatorColumns:
    """0/1 columns in CSR form: column j has ones at
    ``indices[indptr[j]:indptr[j + 1]]``."""

    indices: np.ndarray   # int64
    indptr: np.ndarray    # int64, one more entry than there are columns

    @classmethod
    def from_supports(cls, supports) -> IndicatorColumns:
        supports = [tuple(s) for s in supports]
        indptr = np.zeros(len(supports) + 1, dtype=np.int64)
        np.cumsum([len(s) for s in supports], out=indptr[1:])
        indices = np.fromiter(chain.from_iterable(supports), dtype=np.int64,
                              count=int(indptr[-1]))
        return cls(indices, indptr)

    @classmethod
    def from_blocks(cls, blocks) -> IndicatorColumns:
        """One column per row of each 2-D integer block, in order."""
        widths = np.array([b.shape[1] for b in blocks], dtype=np.int64)
        indptr = np.zeros(sum(len(b) for b in blocks) + 1, dtype=np.int64)
        np.cumsum(np.repeat(widths, [len(b) for b in blocks]), out=indptr[1:])
        indices = np.concatenate([b.ravel() for b in blocks]
                                 + [np.zeros(0, dtype=np.int64)])
        return cls(indices.astype(np.int64, copy=False), indptr)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        return (self[j] for j in range(len(self)))

    def __getitem__(self, j: int) -> tuple[int, ...]:
        """The support of column j as a tuple of row indices."""
        return tuple(self.indices[self.indptr[j]:self.indptr[j + 1]].tolist())

    def block(self, start: int, stop: int, n: int) -> np.ndarray:
        """Columns start..stop-1 as dense 0/1 rows of length n."""
        lengths = np.diff(self.indptr[start:stop + 1])
        out = np.zeros((stop - start, n), dtype=np.int64)
        out[np.repeat(np.arange(stop - start), lengths),
            self.indices[self.indptr[start]:self.indptr[stop]]] = 1
        return out


def _as_columns(columns) -> IndicatorColumns:
    if isinstance(columns, IndicatorColumns):
        return columns
    return IndicatorColumns.from_supports(columns)


@dataclass
class SpanResult:
    dim: int
    rank: int
    kernel: np.ndarray               # k x dim integers, verified kernel basis
    membership: np.ndarray           # bool[n]; e_i in the span
    # primes_used, blocks, cholesky_blocks and guided_blocks count the
    # groups of the representatives only: a copy of a component runs no
    # certificate of its own (see span_of_indicator_columns)
    primes_used: int = 0             # 1 when some group's echelon mod PRIME ran
    fallback_used: bool = False      # the prime was refused: _exact_fallback ran
    blocks: int = 1                  # groups of rows certified one by one
    cholesky_blocks: int = 0         # groups certified by _cholesky_certifies
    # connected components of the rows left after the closed form, and how
    # many of them were certified rather than copied; 1 and 1 when those
    # rows are certified as one block (the whole input has at most
    # _PACK_ROWS rows), 0 and 0 (and 0 blocks) when none is left
    components: int = 1
    distinct_components: int = 1
    guided_blocks: int = 0           # groups certified by _guided_kernel
    # columns whose rows no other column holds, each a component of its
    # own answered in closed form; the untouched rows are not counted
    lone_columns: int = 0

    @property
    def full(self) -> bool:
        return self.rank == self.dim


def _submul_mod(x: np.ndarray, a: np.ndarray, b: np.ndarray,
                p: int) -> np.ndarray:
    """(x - a @ b) mod p for residue matrices, exact for primes below
    ``_PRIME_LIMIT``; a larger p raises ``ValueError``.

    Products over strips of ``_BLOCK`` terms are summed in float64, so no
    float64 copy of all of b is made, and x is reduced once per
    ``_TERMS`` terms.
    """
    if p >= _PRIME_LIMIT:
        raise ValueError(f"p = {p}: float64 products are exact only for "
                         f"p < {_PRIME_LIMIT}")
    k = a.shape[1]
    for s in range(0, k, _TERMS):
        acc = None
        for t in range(s, min(s + _TERMS, k), _BLOCK):
            part = (a[:, t:t + _BLOCK].astype(np.float64)
                    @ b[t:t + _BLOCK].astype(np.float64))
            if acc is None:
                acc = part
            else:
                acc += part
        x = (x - acc.astype(np.int64)) % p
    return x


def _eliminate(x: np.ndarray, cols: list[int], R: np.ndarray,
               p: int) -> np.ndarray:
    """(x - x[:, cols] @ R) mod p for residue rows x: clears the columns of
    the unit-pivot rows R.  Rows that are zero at every column in cols are
    left untouched."""
    a = x[:, cols]
    hit = np.flatnonzero(a.any(axis=1))
    if len(hit) == len(x):
        return _submul_mod(x, a, R, p)
    if len(hit):
        x = x.copy()
        x[hit] = _submul_mod(x[hit], a[hit], R, p)
    return x


def _rref_rows(block: np.ndarray, p: int):
    """``_rref`` one row at a time: the base case of the recursion.

    Rows are reduced mod p only when they become pivots: with at most
    ``_BASE_ROWS`` updates below p^2 = 2^40 each, entries stay far inside
    int64."""
    B = block.copy()
    pos: list[int] = []
    cols: list[int] = []
    for i in range(len(B)):
        row = B[i] % p
        nz = row.nonzero()[0]
        if not len(nz):
            continue
        c = int(nz[0])
        if row[c] != 1:
            row = (row * pow(int(row[c]), -1, p)) % p
        B[i] = row
        hit = B[:, c].nonzero()[0]
        hit = hit[hit != i]
        if len(hit):
            B[hit] -= np.outer(B[hit, c] % p, row)
        pos.append(i)
        cols.append(c)
    return cols, B[pos] % p


def _rref(block: np.ndarray, p: int):
    """Reduced row echelon form of the residue rows of ``block``.

    Returns (cols, R): the pivot columns and the rows of R, one per pivot
    with a 1 at its own pivot column and 0 at the others.  Pivot
    ``cols[k]`` is the first nonzero column of the k-th row that is
    independent of the rows before it, reduced by those rows, exactly as
    when the rows are inserted one by one.  Halves are eliminated
    recursively: the second half is reduced by the first half's pivots in
    one product, and the first half is back-substituted by the second
    half's in another.
    """
    nonzero = block.any(axis=1)
    if not nonzero.all():
        block = block[nonzero]
    if len(block) <= _BASE_ROWS:
        return _rref_rows(block, p)
    half = len(block) // 2
    cols, R = _rref(block[:half], p)
    low = block[half:]
    if cols:
        low = _eliminate(low, cols, R, p)
    cols2, R2 = _rref(low, p)
    if cols2:
        if cols:
            R = _eliminate(R, cols2, R2, p)
        cols = cols + cols2
        R = np.vstack([R, R2])
    return cols, R


def _rational_reconstruct(x: int, m: int):
    """n/d with n/d = x mod m and |n|, d <= sqrt(m/2), or None."""
    bound = isqrt(m // 2)
    a0, a1 = m, x % m
    b0, b1 = 0, 1
    while a1 > bound:
        q = a0 // a1
        a0, a1 = a1, a0 - q * a1
        b0, b1 = b1, b0 - q * b1
    if b1 == 0 or abs(b1) > bound or gcd(a1, b1) > 1:
        return None
    if b1 < 0:
        a1, b1 = -a1, -b1
    return Fraction(a1, b1)


def _int_matrix(K: np.ndarray) -> np.ndarray:
    """K as int64 when its entries allow, else as Python integers."""
    if K.dtype == object and (not K.size or np.abs(K).max() < _INT64_SAFE):
        return K.astype(np.int64)
    return K


def _reconstruct_kernel(n, cols, R, p):
    """The integer kernel rows of the RREF (cols, R) modulo p, or None if
    an entry has no rational preimage within the reconstruction bound.

    Row j is 1 at the free column free[j] and -R[r, free[j]] at cols[r],
    scaled by the lcm of its denominators, so its entry at free[j] is that
    lcm.  Entries within +-sqrt(p/2) are their own preimages; only the
    rest go through ``_rational_reconstruct``.
    """
    free = np.setdiff1d(np.arange(n), cols)
    residues = (-R[:, free].T) % p
    bound = isqrt(p // 2)
    high = residues >= p - bound
    num = np.where(high, residues - p, residues)
    hard = np.argwhere(~(high | (residues <= bound)))
    scale = np.ones(len(free), dtype=np.int64)
    if len(hard):
        vals = {}
        lcms: dict[int, int] = {}
        for i, j in hard.tolist():
            val = _rational_reconstruct(int(residues[i, j]), p)
            if val is None:
                return None
            vals[i, j] = val
            lcms[i] = lcm(lcms.get(i, 1), val.denominator)
        if max(lcms.values()) * bound >= _INT64_SAFE:
            num, scale = num.astype(object), scale.astype(object)
        for i, mult in lcms.items():
            num[i] *= mult
            scale[i] = mult
        for (i, j), val in vals.items():
            num[i, j] = val.numerator * (lcms[i] // val.denominator)
    K = np.zeros((len(free), n), dtype=num.dtype)
    K[:, cols] = num
    K[np.arange(len(free)), free] = scale
    return _int_matrix(K)


def annihilates(K: np.ndarray, columns) -> bool:
    """Whether every row of the integer matrix K sums to zero over every
    column, exactly.

    Sums run in int64 while max|K| times the longest column is below 2^63,
    in Python integers otherwise.  Columns are taken in chunks so that at
    most about 2^16 entries of K are gathered at a time.
    """
    columns = _as_columns(columns)
    k, ncols = len(K), len(columns)
    if not k or not ncols:
        return True
    indptr = columns.indptr
    lengths = np.diff(indptr)
    if K.dtype != object and (int(np.abs(K).max()) * int(lengths.max())
                              >= 1 << 63):
        K = K.astype(object)
    step = max(1, _CHECK_ENTRIES // k)
    start = 0
    while start < ncols:
        stop = int(np.searchsorted(indptr, indptr[start] + step,
                                   side="right")) - 1
        stop = min(max(stop, start + 1), ncols)
        a, b = indptr[start], indptr[stop]
        if b > a:
            # reduceat misreads empty segments: give it only non-empty ones
            starts = indptr[start:stop][lengths[start:stop] > 0] - a
            sums = np.add.reduceat(K[:, columns.indices[a:b]], starts, axis=1)
            if sums.any():
                return False
        start = stop
    return True


def _gram(n: int, columns: IndicatorColumns) -> np.ndarray:
    """G = A A^T for the n x ncols 0/1 matrix A of the columns: G[i, j]
    counts the columns that contain both i and j."""
    lengths = np.diff(columns.indptr)
    keys = [np.zeros(0, dtype=np.int64)]
    for size in np.flatnonzero(np.bincount(lengths)):
        starts = columns.indptr[:-1][lengths == size]
        support = columns.indices[starts[:, None] + np.arange(size)]
        keys.append((support[:, :, None] * n + support[:, None, :]).ravel())
    return np.bincount(np.concatenate(keys), minlength=n * n).reshape(n, n)


def _cholesky_certifies(G: np.ndarray) -> bool:
    """Whether one float64 Cholesky of G - cI proves the integer PSD matrix
    G positive definite (see the module docstring).  False when it fails,
    or when G or the shift cannot be held exactly in float64.

    A float64 G is shifted in place and restored exactly: G_ii - c is
    exact, and so is adding c back to it.
    """
    G = np.asarray(G, dtype=np.float64)
    n = len(G)
    if G.max() >= 2.0 ** 53:          # the entries of G, exact in float64
        return False
    diag = np.diagonal(G).astype(np.int64)
    top = int(diag.max())
    bound = (Fraction(n + 1, (1 << 53) - 2 * (n + 1)) * sum(diag.tolist())
             + Fraction(4 * (2 * (n + 1) + top), 1 << 1022))
    # c = 2^e > bound; G_ii - c is exact when G_ii 2^-e < 2^53 and c < 2^53
    e = bound.numerator.bit_length() - bound.denominator.bit_length() + 1
    if e > 52 or top << max(-e, 0) >= 1 << 53:
        return False
    on_diag = np.diag_indices(n)
    G[on_diag] -= 2.0 ** e
    try:
        return bool(np.isfinite(np.linalg.cholesky(G)).all())
    except np.linalg.LinAlgError:
        return False
    finally:
        G[on_diag] += 2.0 ** e


def _free_rows(G: np.ndarray) -> np.ndarray | None:
    """The rows of the float64 Gram matrix G guessed dependent on the rows
    before them, as a boolean mask: those whose squared pivot in a Cholesky
    of G + eps I, eps = 2^-30 max G_ii, lies below 2^-20 max G_ii.  None
    when the factorisation fails.

    G is shifted in place and its diagonal restored from a copy."""
    diag = np.diagonal(G).copy()
    top = float(diag.max())
    if not top > 0:
        return None
    on_diag = np.diag_indices(len(G))
    G[on_diag] += _GUIDE_SHIFT * top
    try:
        pivots = np.square(np.diagonal(np.linalg.cholesky(G)))
    except np.linalg.LinAlgError:
        return None
    finally:
        G[on_diag] = diag
    if not np.isfinite(pivots).all():
        return None
    return pivots < _GUIDE_FREE * top


def _scaled_rows(K: np.ndarray) -> np.ndarray:
    """The float64 rows of K rounded to integers, each first multiplied by
    the lcm of its entries' denominators.

    A row more than 1/``_GUIDE_DEN`` away from integers is multiplied by
    the denominator of its entry farthest from an integer (the least up to
    ``_GUIDE_DEN`` that fits it), until it is near integers.  That entry's
    denominator divides the lcm, and the entry is integral afterwards, so
    the multipliers make up exactly the lcm.  Each multiplier is at least
    2 (by Dirichlet's theorem some a/b with b <= _GUIDE_DEN lies nearer
    than 1/_GUIDE_DEN, so nearer than any integer), so the entry 1 at the
    row's free column doubles at least; scaling stops once an entry
    reaches 2^52, or at once if one is not finite: the caller refuses
    both.
    """
    K = K.copy()
    while np.abs(K).max() < _GUIDE_MAX:
        R = np.rint(K)
        off = np.abs(K - R)
        rows = np.flatnonzero(off.max(axis=1) > 1 / _GUIDE_DEN)
        if not len(rows):
            return R
        worst = K[rows, off[rows].argmax(axis=1)].tolist()
        K[rows] *= np.array([Fraction(x).limit_denominator(_GUIDE_DEN)
                             .denominator for x in worst])[:, None]
    return np.rint(K)


def _offers_guided(n: int, ncols: int) -> bool:
    """Whether a group of n rows and ncols columns that the full-rank test
    does not certify goes to ``_guided_kernel`` before the modular echelon.

    It does when the echelon could find more than ``_BASE_ROWS`` pivots
    (min(n, ncols) at most), since a few pivots cost less than the guided
    kernel's fixed overhead, and when there are at least
    n / 3 columns: a few rows of a wide matrix eliminate faster than the
    n x n Gram matrix factors.  Both limits were measured on the groups of
    the lift spans of {2, 3, 5} forms.
    """
    return min(n, ncols) > _BASE_ROWS and 3 * ncols >= n


def _guided_kernel(n: int, columns: IndicatorColumns,
                   G: np.ndarray) -> np.ndarray | None:
    """The kernel the modular route returns, found in float64 and certified
    exactly (see the module docstring), or None when a test refuses it.

    The free rows F come from ``_free_rows``, the rest are the pivot rows
    P.  Rank >= |P| is certified by ``_cholesky_certifies(G[P, P])``; the
    kernel row of f in F is e_f - x with G[P, P] x = G[P, f], solved in
    float64 and made integral by ``_scaled_rows``.  The integer rows are
    accepted only if every entry is below 2^52, K[:, F] is a positive
    diagonal, each row has gcd 1, no row has a nonzero entry at a pivot
    after its free row, and ``annihilates`` holds exactly.
    """
    free = _free_rows(G)
    if free is None or not free.any():
        return None
    F, P = np.flatnonzero(free), np.flatnonzero(~free)
    K = np.zeros((len(F), n))
    K[np.arange(len(F)), F] = 1.0
    if len(P):
        GPP = G[np.ix_(P, P)]
        if not _cholesky_certifies(GPP):
            return None
        try:
            K[:, P] = -np.linalg.solve(GPP, G[np.ix_(P, F)]).T
        except np.linalg.LinAlgError:
            return None
    K = _scaled_rows(K)
    if not np.abs(K).max() < _GUIDE_MAX:      # also refuses NaN and inf
        return None
    K = K.astype(np.int64)
    on_free = K[:, F]
    if (np.count_nonzero(on_free) != len(F)
            or not (np.diagonal(on_free) > 0).all()):
        return None
    if K[:, P][P > F[:, None]].any():
        return None
    if (np.gcd.reduce(K, axis=1) != 1).any():
        return None
    return K if annihilates(K, columns) else None


def _run_echelon(n, count, block, p):
    """RREF modulo p of the ``count`` rows that ``block(start, stop)``
    gives, inserted ``_BLOCK`` at a time: (cols, R) as for ``_rref``.

    Each block is reduced by the stored pivots in one product and put into
    RREF, and the stored rows are back-substituted by its new pivots."""
    # rows of a fresh zero array take memory only once written to
    store = np.zeros((n, n), dtype=np.int64)
    cols: list[int] = []
    for start in range(0, count, _BLOCK):
        x = block(start, min(start + _BLOCK, count))
        rank = len(cols)
        S = store[:rank]
        new, R = _rref(_eliminate(x, cols, S, p) if rank else x, p)
        if not new:
            continue
        for s in range(0, rank, _BLOCK):
            S[s:s + _BLOCK] = _eliminate(S[s:s + _BLOCK], new, R, p)
        store[rank:rank + len(R)] = R
        cols += new
    return cols, store[:len(cols)]


def _full(n, **counts) -> SpanResult:
    return SpanResult(n, n, np.zeros((0, n), dtype=np.int64),
                      np.ones(n, dtype=bool), **counts)


def _span_block(n: int, columns: IndicatorColumns) -> SpanResult:
    """Certified span data for the columns of one group of rows.

    With at least n columns the Gram matrix G is built and offered to
    ``_cholesky_certifies``.  Otherwise, or if it refuses, G is offered to
    ``_guided_kernel`` when ``_offers_guided`` says so.  If that refuses
    too, or does not run, the columns, one 0/1 row each, are eliminated
    modulo ``PRIME``, and ``_exact_fallback`` answers when the prime's
    kernel is refused.
    """
    if not len(columns):
        return SpanResult(n, 0, np.eye(n, dtype=np.int64),
                          np.zeros(n, dtype=bool))

    guided = _offers_guided(n, len(columns))
    if len(columns) >= n or guided:
        # one float64 copy only: each entry counts columns, so it is far
        # below 2^53 and exact
        G = _gram(n, columns).astype(np.float64)
    if len(columns) >= n and _cholesky_certifies(G):
        return _full(n, cholesky_blocks=1)
    kernel = _guided_kernel(n, columns, G) if guided else None
    if kernel is not None:
        return SpanResult(n, n - len(kernel), kernel,
                          ~(kernel != 0).any(axis=0), guided_blocks=1)

    cols, R = _run_echelon(n, len(columns), partial(columns.block, n=n),
                           PRIME)
    if len(cols) == n:
        return _full(n, primes_used=1)
    kernel = _reconstruct_kernel(n, cols, R, PRIME)
    if kernel is not None and annihilates(kernel, columns):
        return SpanResult(n, n - len(kernel), kernel,
                          ~(kernel != 0).any(axis=0), 1)
    return replace(_exact_fallback(n, columns), primes_used=1)


def component_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least vertex of every vertex's connected component, in the graph
    on range(n) with the edges a[k] -- b[k].

    Min-label propagation with pointer jumping (Shiloach and Vishkin,
    J. Algorithms 3 (1982) 57-67).  Each round lowers the label of both
    ends of every edge to the lesser of their labels, then replaces every
    label by the label of its label until that is a fixed point.  A label
    only falls and always names a vertex of the same component, so the
    least vertex keeps its own label; the rounds stop when no label falls,
    that is when the ends of every edge carry the same label, which then
    labels itself: the least vertex of the component.
    """
    lab = np.arange(n, dtype=np.result_type(a, b))
    while len(a):
        low = np.minimum(lab[a], lab[b])
        new = lab.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        while not np.array_equal(new[new], new):
            new = new[new]
        if np.array_equal(new, lab):
            break
        lab = new
    return lab


def _component_labels(n: int, columns: IndicatorColumns) -> np.ndarray:
    """The least row of every row's connected component, two rows being
    linked when a column holds both: each column links its first row to
    every one of its rows."""
    first = columns.indices[np.repeat(columns.indptr[:-1],
                                      np.diff(columns.indptr))]
    return component_labels(n, first, columns.indices)


def _component_keys(size, col_comp, lengths, rows, starts) -> np.ndarray:
    """Order-free invariants of each component, one column per component:
    its rows, columns and entries, and over its columns the sums of s and
    of s^2, s being a column's sum of local index + 1.  Equal components
    have equal keys; unequal ones may share them."""
    count = len(size)
    sums = (np.add.reduceat(rows + 1, starts).astype(np.float64)
            if len(starts) else np.zeros(0))
    return np.stack([size, np.bincount(col_comp, minlength=count),
                     np.bincount(col_comp, lengths, count),
                     np.bincount(col_comp, sums, count),
                     np.bincount(col_comp, sums * sums, count)])


def _representatives(comp: np.ndarray, local: np.ndarray, size: np.ndarray,
                     columns: IndicatorColumns) -> np.ndarray:
    """For every component, the component that is certified in its place:
    the first component of its class when their local columns are equal,
    entry for entry, else itself.

    ``comp`` and ``local`` give each row's component and its index among
    that component's rows in increasing order; ``size`` counts the rows
    of each component.  A component that shares its key
    (``_component_keys``) with no other one is its own.  The others
    compare their sorted column codes exactly with the first member of
    their class.  A column's code is its length and its local rows in
    base B, or, when that could overflow int64, the rank of its padded
    local rows.
    """
    count = len(size)
    lengths = np.diff(columns.indptr)
    starts = columns.indptr[:-1][lengths > 0]
    lengths = lengths[lengths > 0]
    rows = local[columns.indices]
    col_comp = comp[columns.indices[starts]]
    keys = _component_keys(size, col_comp, lengths, rows, starts)
    order = np.lexsort(keys)
    keys = keys[:, order]
    head = np.ones(count, dtype=bool)
    head[1:] = (keys[:, 1:] != keys[:, :-1]).any(axis=0)
    cls = np.empty(count, dtype=np.int64)
    cls[order] = np.cumsum(head) - 1
    # lexsort is stable: a class's first member heads its run
    first = order[head]
    cand = np.flatnonzero(np.bincount(cls)[cls] > 1)
    rep = np.arange(count)
    if not len(cand):
        return rep
    # the candidates' columns, by candidate, then by code
    slot = np.full(count, -1)
    slot[cand] = np.arange(len(cand))
    mine = slot[col_comp] >= 0
    rows = rows[np.repeat(mine, lengths)]
    lengths = lengths[mine]
    width = int(lengths.max(initial=0))
    base = int(size[cand].max())
    span = base ** width * (width + 1)
    begin = np.cumsum(lengths) - lengths
    digit = np.arange(len(rows)) - np.repeat(begin, lengths)
    if span * len(cand) < 1 << 63:
        code = lengths * base ** width
        if len(rows):
            code += np.add.reduceat(rows * base ** digit, begin)
    else:
        padded = np.full((len(lengths), width + 1), -1)
        padded[:, 0] = lengths
        padded[np.repeat(np.arange(len(lengths)), lengths), digit + 1] = rows
        code = np.unique(padded, axis=0, return_inverse=True)[1].ravel()
        span = len(lengths)
    owner = slot[col_comp[mine]]
    code = np.sort(owner * span + code) - np.sort(owner) * span
    # against the first member of the class: the same rows and columns,
    # then position by position; nothing is taken from the keys
    ncols = np.bincount(owner, minlength=len(cand))
    head = slot[first[cls[cand]]]
    same = (size[cand] == size[cand[head]]) & (ncols == ncols[head])
    at = np.cumsum(ncols) - ncols
    pos = np.flatnonzero(np.repeat(same, ncols))
    who = np.repeat(np.arange(len(cand)), ncols)[pos]
    twin = at[head[who]] + pos - at[who]
    same[who[code[pos] != code[twin]]] = False
    rep[cand[same]] = first[cls[cand[same]]]
    return rep


def _row_groups(lab: np.ndarray, columns: IndicatorColumns):
    """(group, src): the group of every row, and the row whose part it
    plays in its component's representative.

    ``lab`` holds the least row of each row's component
    (``_component_labels``).  A component whose local columns are equal
    to those of an earlier one (``_representatives``) is a copy: row i of
    it plays the part of row ``src[i]`` of the representative at the same
    local index, and its group is -1.  On representatives ``src[i] == i``.
    The representatives, in label order, are packed greedily into groups
    of at most ``_PACK_ROWS`` rows; a larger one is a group of its own.
    """
    n = len(lab)
    is_root = lab == np.arange(n)
    comp = (np.cumsum(is_root) - 1)[lab]
    size = np.bincount(comp)
    order = np.argsort(comp, kind="stable")
    start = np.cumsum(size) - size
    local = np.empty(n, dtype=np.int64)
    local[order] = np.arange(n) - np.repeat(start, size)
    rep = _representatives(comp, local, size, columns)
    src = order[start[rep[comp]] + local]
    group = np.full(len(size), -1)
    g, fill = -1, _PACK_ROWS
    reps = np.flatnonzero(rep == np.arange(len(size)))
    for c, rows in zip(reps.tolist(), size[reps].tolist()):
        if fill + rows > _PACK_ROWS:
            g, fill = g + 1, 0
        fill += rows
        group[c] = g
    return group[comp], src


def _peel(n: int, columns: IndicatorColumns):
    """(rest, lone): the rows left after the closed form, as a mask over
    the rows, and the lone columns, as a mask over the columns.

    One ``bincount`` counts the columns on each row.  A column is lone
    when it holds a row and each of its rows has count 1; a row is left
    when some column that is not lone holds it."""
    lengths = np.diff(columns.indptr)
    hits = np.bincount(columns.indices, minlength=n)
    rest = hits > 0
    lone = np.zeros(len(lengths), dtype=bool)
    if (hits == 1).any():
        # the entries on rows of count 1, and their columns
        at = np.flatnonzero(hits[columns.indices] == 1)
        col = np.searchsorted(columns.indptr, at, side="right") - 1
        lone = (np.bincount(col, minlength=len(lengths)) == lengths) & (
            lengths > 0)
        rest[columns.indices[at[lone[col]]]] = False
    return rest, lone


def _certify_components(n: int, columns: IndicatorColumns):
    """The span of the columns, split into the connected components of
    the rows: (blocks, lab, src, components, distinct).

    ``blocks`` holds the rows and the ``_span_block`` result of each group
    of ``_row_groups``; ``lab`` the labels of ``_component_labels``;
    ``src`` the row each row copies (itself on the representatives); the
    counts are those of the components and of their representatives."""
    lab = _component_labels(n, columns)
    group, src = _row_groups(lab, columns)
    roots = np.flatnonzero(lab == np.arange(n))
    lengths = np.diff(columns.indptr)
    lengths = lengths[lengths > 0]
    entry_group = group[columns.indices]
    col_group = entry_group[np.cumsum(lengths) - lengths]
    if not np.array_equal(entry_group, np.repeat(col_group, lengths)):
        raise ArithmeticError("a column meets two row groups")
    blocks = []
    local = np.empty(n, dtype=np.int64)
    for g in range(int(group.max()) + 1):
        # the group's rows in increasing order, its columns in given order
        rows = np.flatnonzero(group == g)
        local[rows] = np.arange(len(rows))
        blocks.append((rows, _span_block(len(rows), IndicatorColumns(
            local[columns.indices[entry_group == g]],
            np.append(0, np.cumsum(lengths[col_group == g]))))))
    return (blocks, lab, src, len(roots),
            int(np.count_nonzero(src[roots] == roots)))


def span_of_indicator_columns(n: int, columns) -> SpanResult:
    """Certified span data for 0/1 columns, given as ``IndicatorColumns``
    or as a list of index tuples.

    The rows that no column holds and the lone columns (``_peel``) are
    answered in closed form (see the module docstring).  The rows left
    are certified as one block when the whole input has at most
    ``_PACK_ROWS`` rows; otherwise they are split into connected
    components, and only one representative of each class of equal
    components is certified, in the groups of ``_row_groups``.  A is
    block-diagonal over the components, so the results add up, and each
    copy takes its representative's membership and kernel by local index.
    """
    columns = _as_columns(columns)
    split = n > _PACK_ROWS
    rest, lone = _peel(n, columns)
    if not split and not lone.any():
        # one block either way: untouched rows cost it nothing
        return _span_block(n, columns)
    # the rows left, numbered 0, 1, ... in increasing order, and their
    # columns; the lone columns are read from ``given``
    given, rows = columns, np.flatnonzero(rest)
    m = len(rows)
    lengths = np.diff(given.indptr)
    if m < n:
        local = np.empty(n, dtype=np.int64)
        local[rows] = np.arange(m)
        indptr = np.zeros(len(lengths) - np.count_nonzero(lone) + 1,
                          dtype=np.int64)
        np.cumsum(lengths[~lone], out=indptr[1:])
        columns = IndicatorColumns(
            local[given.indices[np.repeat(~lone, lengths)]], indptr)
    src = None
    if split and len(columns.indices):
        blocks, lab, src, components, distinct = _certify_components(
            m, columns)
    else:
        # one block of every row left, or none
        blocks = [(np.arange(m), _span_block(m, columns))] if m else []
        components = distinct = len(blocks)

    used, fallback, chol, guided = 0, False, 0, 0
    membership = np.zeros(n, dtype=bool)
    free = np.zeros(n, dtype=bool)
    parts = []
    for mine, res in blocks:
        used = max(used, res.primes_used)
        fallback |= res.fallback_used
        chol += res.cholesky_blocks
        guided += res.guided_blocks
        mine = rows[mine]
        membership[mine] = res.membership
        if len(res.kernel):
            # a kernel row's free column is its last nonzero entry
            last = len(mine) - 1 - np.argmax(res.kernel[:, ::-1] != 0, axis=1)
            parts.append((mine, res.kernel, mine[last]))
            free[mine[last]] = True
    if src is not None:
        # a copy's row is what its representative's row is
        copied = np.arange(n)
        copied[rows] = rows[src]
        membership, free = membership[copied], free[copied]
    # the closed form: every untouched row is free, and so is every row of
    # a lone column but its least, the pivot; the one row of a column of
    # length 1 is a member
    free[~rest] = True
    if lone.any():
        held = given.indices[np.repeat(lone, lengths)]
        lengths = lengths[lone]
        pivots = np.minimum.reduceat(held, np.cumsum(lengths) - lengths)
        free[pivots] = False
        membership[pivots[lengths == 1]] = True
        pivots = np.repeat(pivots, lengths)
        below = held != pivots
    # the kernel rows in order of their free columns, each group's written
    # once into one array, then each copy's read from its representative's
    dest = np.cumsum(free) - 1
    dtype = object if any(K.dtype == object for _, K, _ in parts) else np.int64
    kernel = np.zeros((int(dest[-1]) + 1, n), dtype=dtype)
    for mine, K, frees in parts:
        kernel[np.ix_(dest[frees], mine)] = K
    # e_f, and e_f - e_pivot on the rows f of a lone column
    closed = np.flatnonzero(free & ~rest)
    kernel[dest[closed], closed] = 1
    if lone.any():
        kernel[dest[held[below]], pivots[below]] = -1
    copy = np.flatnonzero(src != np.arange(m)) if src is not None else []
    if len(copy) and len(kernel):
        # a kernel row lies on its free column's component: pair each free
        # row of a copy with every row of its component
        copy = copy[np.argsort(lab[copy], kind="stable")]
        f = copy[free[rows[copy]]]
        lo = np.searchsorted(lab[copy], lab[f])
        width = np.searchsorted(lab[copy], lab[f], side="right") - lo
        fr = np.repeat(f, width)
        step = np.arange(len(fr)) - np.repeat(np.cumsum(width) - width, width)
        at = copy[np.repeat(lo, width) + step]
        kernel[dest[rows[fr]], rows[at]] = kernel[dest[rows[src[fr]]],
                                                  rows[src[at]]]
    return SpanResult(n, n - len(kernel), _int_matrix(kernel), membership,
                      used, fallback, len(blocks), chol, components, distinct,
                      guided, int(np.count_nonzero(lone)))


def _integer_rref(n: int, columns):
    """RREF over Q of the columns as rows, inserted one by one, by
    fraction-free (Bareiss) Gauss-Jordan elimination: (M, d, pivot
    columns), the RREF being M / d.

    Every pivot entry of M is the common denominator d.  A new row v is
    reduced to v' = d v - sum_i v[c_i] M_i, which is d times v reduced
    over Q; its first nonzero entry a becomes the new denominator, and
    each stored row becomes (a M_i - M_i[c] v') / d, an exact division:
    its entries are minors of the rows inserted so far.
    """
    M = np.zeros((0, n), dtype=object)
    d = 1
    pivcols: list[int] = []
    for support in columns:
        v = np.zeros(n, dtype=object)
        v[list(support)] = 1
        if pivcols:
            v = d * v - v[pivcols] @ M
        nz = np.flatnonzero(v)
        if not len(nz):
            continue
        c = int(nz[0])
        a = v[c]
        M = np.vstack([(a * M - np.outer(M[:, c], v)) // d, v])
        d = a
        pivcols.append(c)
    return M, d, pivcols


def _exact_fallback(n: int, columns) -> SpanResult:
    """Span data from the exact integer RREF; only reached when the
    kernel modulo ``PRIME`` is refused.  The RREF of a row space is
    canonical, so each distinct support goes in once."""
    M, d, pivcols = _integer_rref(n, dict.fromkeys(_as_columns(columns)))
    free = np.setdiff1d(np.arange(n), pivcols)
    kernel = np.zeros((len(free), n), dtype=object)
    for j, f in enumerate(free.tolist()):
        # the RREF entries M[:, f] / d over their least common denominator
        den = abs(d) // gcd(d, *M[:, f].tolist())
        kernel[j, f] = den
        kernel[j, pivcols] = -(M[:, f] * den) // d
    kernel = _int_matrix(kernel)
    return SpanResult(n, len(pivcols), kernel, ~(kernel != 0).any(axis=0),
                      fallback_used=True)
