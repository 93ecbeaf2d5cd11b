"""Discriminant forms (finite quadratic modules) in exact arithmetic.

Every form has one presentation: generators g_1, ..., g_m of orders
o_1, ..., o_m and two integer tables over the level L, the numerators of
q(g_i) and of the Gram table b(g_i, g_j).  An element is its coefficient
tuple (x_1, ..., x_m) with 0 <= x_i < o_i; its index is the mixed-radix
number with those digits, the last generator varying fastest, and the
vectorized methods work on arrays of indices.  ``add_indices`` is the one
translate kernel: it adds index arrays digit by digit, without division.

Forms built from a genus symbol use the Jordan block models below.  A
quotient H_perp/H gets generators of its own, of prime-power order, from
two diagonalisations of integer relation matrices: its elements are
coordinates in the quotient, not representatives in the parent, and
``project`` / ``section`` are integer coordinate maps between the two.
p-parts keep and direct sums concatenate generators.

Inside the package a subgroup is the sorted array of its element indices.
Four primitives build subgroups: ``order_array`` (the element orders),
``cyclic_indices`` (one cyclic subgroup), ``sum_indices`` (the sum S + T
of two subgroups) and ``_minimal_generators`` (generators of an index
set, and the check that it is closed).  The lines of prime order, the
subgroups the lift span is built from, do not go through them: one
array pass of ``lifts.isotropic_lines`` gives all the lines of one
prime, each with its least nonzero member as generator, which is the
one ``_minimal_generators`` would pick.  ``Subgroup`` carries the index
array beside the members' coefficient rows and the generators; its
sorted element tuples, the form subgroups take at the API, are built on
first use.

``Fraction`` appears only at the API boundary: the public constructor
takes the values on the generators as rationals, and ``q`` / ``b`` and
``qdiag`` / ``gram`` return values in Q/Z normalized to [0, 1).  The
builders in this module fill the integer tables directly and go through
``DiscriminantForm._of_tables``.  The signature is extracted from the
Gauss sum with an exact cyclotomic certificate G^2 = |D| e(s/4); floating
point only picks between the two residues mod 8 the certificate leaves
open.

Every form but a quotient is certified non-degenerate when built (see
``DiscriminantForm``).  H_perp/H of a non-degenerate form along an
isotropic H is non-degenerate by theory, and its tables are read off the
parent's, so ``quotient_form`` checks only its order |D| / |H|^2.

Jordan block models (odd p, scale q = p^k): Z/q with q(x) = a x^2 / q,
one generator per unit a; all a = 1 except the last, which is the
smallest unit making the product of (2a|p) equal the component sign.
For p = 2, odd components use q(x) = a x^2 / 2q with the units from the
oddity decomposition search, and even components are sums of the plane
q(x,y) = xy/q (sign +1) and q(x,y) = (x^2+xy+y^2)/q (sign -1), the sign
carrier last.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import mul
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from . import cyclo
from .errors import (DegenerateForm, DimensionMismatch, NotIsotropic,
                     ValidityError)
from .ntheory import legendre, prime_power, prime_power_factors
from .symbols import ODD, GenusSymbol, unit_decomposition

Element = tuple[int, ...]


def _reduce_mod(orders: Sequence[int], a) -> Element:
    """The coefficient tuple a, each entry taken mod its generator order."""
    if len(a) != len(orders):
        raise DimensionMismatch(
            f"element of length {len(a)} in a rank-{len(orders)} form")
    return tuple(int(x) % o for x, o in zip(a, orders))


class DiscriminantForm:
    """A finite quadratic module given by generator orders and the integer
    numerators, over its level L, of q on the generators (``_qn``) and of
    the Gram table of b between them (``_gn``): read-only int64 arrays
    with entries in [0, L) whose gcd with L is 1, so that L is the least
    common denominator of all values.

    Unless built by ``quotient_form``, a form is certified: building it
    raises ``ValidityError`` unless the Gram table is symmetric, has 2q on
    its diagonal and is compatible with the generator orders, and
    ``DegenerateForm`` unless the signature certificate
    G^2 = |D| e(s/4) holds for the Gauss sum G = sum_x e(q(x)).  That
    certificate proves non-degeneracy at every order:
    G conj(G) = sum_{y,z} e(q(y + z) - q(y)) = |D| sum_{z in rad} e(q(z)),
    since sum_y e(b(y, z)) is |D| on the radical and 0 off it; q is a
    character on the radical, so |G|^2 is 0 or |D| |rad|, and the
    certified |G|^2 = |D| leaves |rad| = 1.
    """

    def __init__(self, orders: Sequence[int], qdiag: Sequence[Fraction],
                 gram: Sequence[Sequence[Fraction]]):
        """The form with q(g_i) = qdiag[i] and b(g_i, g_j) = gram[i][j] mod 1."""
        qdiag = [Fraction(x) for x in qdiag]
        gram = [[Fraction(x) for x in row] for row in gram]
        m = len(orders)
        if len(qdiag) != m or len(gram) != m or any(len(r) != m for r in gram):
            raise ValidityError("generator data of inconsistent shape")
        L = lcm(*(x.denominator for x in qdiag),
                *(x.denominator for row in gram for x in row))
        if L > 2 ** 62:
            raise ValidityError(f"level {L} exceeds the int64 tables")
        self._set_tables(orders, L, [int(x * L) % L for x in qdiag],
                         [[int(x * L) % L for x in row] for row in gram])
        self._check_consistency()

    @classmethod
    def _of_tables(cls, orders: Sequence[int], L: int, qn, gn,
                   check: bool = True) -> "DiscriminantForm":
        """The form whose q and Gram values are qn / L and gn / L."""
        form = cls.__new__(cls)
        form._set_tables(orders, L, qn, gn)
        if check:
            form._check_consistency()
        return form

    def _set_tables(self, orders, L: int, qn, gn):
        self.orders = tuple(int(o) for o in orders)
        m = len(self.orders)
        qn = np.asarray(qn, dtype=np.int64).reshape(m) % L
        gn = np.asarray(gn, dtype=np.int64).reshape(m, m) % L
        g = gcd(L, *qn.tolist(), *gn.ravel().tolist())
        self.level = L // g
        self._qn, self._gn = qn // g, gn // g
        self._qn.flags.writeable = self._gn.flags.writeable = False
        self._n = prod(self.orders, start=1)
        self._places = tuple(prod(self.orders[i + 1:], start=1) for i in range(m))
        self._radix = (np.array(self.orders, dtype=np.int64),
                       np.array(self._places, dtype=np.int64))
        self._coeffs: Optional[np.ndarray] = None
        self._elements: Optional[tuple[Element, ...]] = None
        self._signature: Optional[int] = None
        self._qnum: Optional[np.ndarray] = None
        self._element_orders: Optional[np.ndarray] = None

    def _check_consistency(self):
        L, qn, gn = self.level, self._qn.tolist(), self._gn.tolist()
        for i, o in enumerate(self.orders):
            if (2 * qn[i] - gn[i][i]) % L:
                raise ValidityError("Gram diagonal must equal 2q")
            if o * o * qn[i] % L:
                raise ValidityError(f"q(g_{i}) incompatible with order {o}")
            for j, x in enumerate(gn[i]):
                if x != gn[j][i]:
                    raise ValidityError("Gram table must be symmetric")
                if o * x % L:
                    raise ValidityError("b value incompatible with generator order")
        # raises DegenerateForm unless the certificate holds
        self._signature = self._compute_signature()

    # -- structure -------------------------------------------------------------

    @property
    def order(self) -> int:
        return self._n

    @property
    def elements(self) -> tuple[Element, ...]:
        if self._elements is None:
            self._elements = tuple(map(tuple, self.coeff_matrix().tolist()))
        return self._elements

    @property
    def zero(self) -> Element:
        return (0,) * len(self.orders)

    def coeff_matrix(self) -> np.ndarray:
        """Coefficient rows of all elements, in index order."""
        if self._coeffs is None:
            idx = np.arange(self._n, dtype=np.int64)
            cols = [(idx // p) % o for p, o in zip(self._places, self.orders)]
            self._coeffs = (np.stack(cols, axis=1) if cols else
                            np.zeros((self._n, 0), dtype=np.int64))
        return self._coeffs

    def indices(self, coeffs: np.ndarray) -> np.ndarray:
        """Element indices of coefficient rows (along the last axis),
        entries taken mod the orders."""
        orders, places = self._radix
        return (np.asarray(coeffs, dtype=np.int64) % orders) @ places

    def _reduce(self, a) -> Element:
        return _reduce_mod(self.orders, a)

    def index(self, a: Element) -> int:
        a = self._reduce(a)
        return sum(x * p for x, p in zip(a, self._places))

    def element(self, i: int) -> Element:
        i = int(i)
        return tuple((i // p) % o for p, o in zip(self._places, self.orders))

    def add(self, a: Element, b: Element) -> Element:
        a, b = self._reduce(a), self._reduce(b)
        return tuple((x + y) % o for x, y, o in zip(a, b, self.orders))

    def neg(self, a: Element) -> Element:
        a = self._reduce(a)
        return tuple((-x) % o for x, o in zip(a, self.orders))

    def smul(self, k: int, a: Element) -> Element:
        a = self._reduce(a)
        return tuple((k * x) % o for x, o in zip(a, self.orders))

    def element_order(self, a: Element) -> int:
        a = self._reduce(a)
        return lcm(*(o // gcd(o, x) for x, o in zip(a, self.orders))) if a else 1

    # -- exact values ------------------------------------------------------------

    def q(self, a: Element) -> Fraction:
        a = self._reduce(a)
        qn, gn = self._qn.tolist(), self._gn.tolist()
        total = 0
        for i, x in enumerate(a):
            total += x * (x * qn[i] + sum(map(mul, a[i + 1:], gn[i][i + 1:])))
        return Fraction(total % self.level, self.level)

    def b(self, a: Element, c: Element) -> Fraction:
        a, c = self._reduce(a), self._reduce(c)
        gn = self._gn.tolist()
        total = sum(x * sum(map(mul, gn[i], c)) for i, x in enumerate(a) if x)
        return Fraction(total % self.level, self.level)

    @property
    def qdiag(self) -> tuple[Fraction, ...]:
        """q on the generators."""
        return tuple(Fraction(x, self.level) for x in self._qn.tolist())

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        """The Gram table of b on the generators."""
        return tuple(tuple(Fraction(x, self.level) for x in row)
                     for row in self._gn.tolist())

    # -- vectorized views (index space) ---------------------------------------

    def qnum_array(self) -> np.ndarray:
        """q numerators over the common denominator level(D)."""
        if self._qnum is None:
            L, qn, gn = self.level, self._qn, self._gn
            C = self.coeff_matrix()
            total = (C * C) @ qn
            for i in range(len(self.orders)):
                for j in range(i + 1, len(self.orders)):
                    if gn[i][j]:
                        total = total + C[:, i] * C[:, j] * gn[i][j]
            self._qnum = total % L
        return self._qnum

    def order_array(self) -> np.ndarray:
        """Element orders, in index order; computed once, read-only."""
        if self._element_orders is None:
            C = self.coeff_matrix()
            out = np.ones(self._n, dtype=np.int64)
            for i, o in enumerate(self.orders):
                out = np.lcm(out, o // np.gcd(C[:, i], o))
            out.flags.writeable = False
            self._element_orders = out
        return self._element_orders

    def b_row_num(self, i) -> np.ndarray:
        """Numerators of b(element(i), -) over the denominator level(D);
        one row per index when i is an array of indices."""
        C = self.coeff_matrix()
        return (C[i] @ self._gn @ C.T) % self.level

    def cyclic_indices(self, i: int) -> np.ndarray:
        """Sorted indices of the cyclic subgroup generated by element(i)."""
        k = np.arange(self.order_array()[i], dtype=np.int64)
        return np.sort(self.indices(k[:, None] * self.coeff_matrix()[i]))

    def sum_indices(self, S: np.ndarray, T: np.ndarray) -> np.ndarray:
        """Sorted indices of all s + t with s in S and t in T: the subgroup
        S + T when S and T are subgroups."""
        C = self.coeff_matrix()
        s = np.sort(self.indices(C[S][:, None, :] + C[T][None, :, :]),
                    axis=None)
        return s[np.concatenate(([True], s[1:] != s[:-1]))]

    def add_indices(self, x, y) -> np.ndarray:
        """Indices of element(x) + element(y), elementwise over the
        broadcast index arrays x and y.

        Digit by digit from the columns of ``coeff_matrix``, with no
        division: 0 <= x_i + y_i < 2 o_i, so the digit carries exactly when
        x_i + y_i >= o_i, and
        idx(x + y) = x + y - sum_i o_i place_i [x_i + y_i >= o_i].
        """
        C = self.coeff_matrix()
        out = np.add(x, y, dtype=np.int64)
        for i, (o, place) in enumerate(zip(self.orders, self._places)):
            out -= (C[x, i] + C[y, i] >= o) * (o * place)
        return out

    def neg_index_vec(self, indices: np.ndarray) -> np.ndarray:
        return self.indices(-self.coeff_matrix()[indices])

    # -- invariants ------------------------------------------------------------

    @property
    def signature(self) -> int:
        if self._signature is None:
            self._signature = self._compute_signature()
        return self._signature

    def gauss_counts(self, M: Optional[int] = None) -> np.ndarray:
        """Multiplicities of e(q(gamma)) as powers of e(1/M)."""
        L = self.level
        M = M or L
        if M % L:
            raise ValueError("conductor must be a multiple of the level")
        counts = np.zeros(M, dtype=np.int64)
        np.add.at(counts, (self.qnum_array() * (M // L)) % M, 1)
        return counts

    def _compute_signature(self) -> int:
        n = self.order
        if n == 1:
            return 0
        N = self.level
        counts = self.gauss_counts()
        roots = np.exp(2j * np.pi * np.arange(N) / N)
        g = complex(np.dot(counts.astype(np.float64), roots))
        # arg G to the nearest multiple of pi/4; the certificate decides, and
        # it fails for every degenerate form, G = 0 included
        s = round(cmath.phase(g) * 4.0 / cmath.pi) % 8
        if not milgram_vector_vanishes(N, counts, n, s):
            raise DegenerateForm(f"signature certificate failed for s={s}")
        return s

    def __eq__(self, other):
        return (isinstance(other, DiscriminantForm)
                and self.orders == other.orders
                and self.level == other.level
                and np.array_equal(self._qn, other._qn)
                and np.array_equal(self._gn, other._gn))

    def __hash__(self):
        return hash((self.orders, self.level, self._qn.tobytes()))

    def __repr__(self):
        return f"<{type(self).__name__} of order {self.order}>"


def milgram_vector_vanishes(N: int, counts: np.ndarray, n: int, s: int) -> bool:
    """Exact check of G^2 = n e(s/4) for G = sum counts[a] e(a/N)."""
    sq = np.convolve(counts, counts)
    vec = np.zeros(N, dtype=np.int64)
    np.add.at(vec, np.arange(len(sq)) % N, sq)
    if s % 2 == 0:
        vec[0] -= n if s % 4 == 0 else -n
    else:
        if N % 4:
            return False  # e(s/4) = +-i does not live in Q(zeta_N)
        vec[(s * (N // 4)) % N] -= n
    return cyclo.vanishes(N, vec)


def milgram_check(form: DiscriminantForm) -> bool:
    """Re-run the exact Gauss-sum certificate for the cached signature."""
    if form.order == 1:
        return form.signature == 0
    return milgram_vector_vanishes(form.level, form.gauss_counts(),
                                   form.order, form.signature)


# ---------------------------------------------------------------------------
# subgroups
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup of a form: its generators, the sorted indices of its
    members and the members' coefficient rows, in the same order.

    The element tuples, the form a subgroup takes at the API, are built
    from the rows on first access to ``elements`` and kept; code inside
    the package reads ``indices`` and ``order`` and never builds them.
    Equality and hash compare (elements, generators), not the arrays.
    """

    generators: tuple[Element, ...]
    indices: np.ndarray = field(repr=False)   # sorted
    coeffs: np.ndarray = field(repr=False)    # |H| x rank, rows of indices

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """The members' coefficient tuples, sorted."""
        return tuple(map(tuple, self.coeffs.tolist()))

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, e) -> bool:
        return tuple(e) in set(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Subgroup):
            return NotImplemented
        return (self.elements, self.generators) == (other.elements,
                                                    other.generators)

    def __hash__(self):
        return hash((self.elements, self.generators))


def _minimal_generators(form: DiscriminantForm,
                        idx: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Greedy generators of the index set idx, by decreasing element order
    and then by index, which is the lexicographic order of the elements;
    minimal for finite abelian groups.  Returned with the subgroup they
    generate, which equals the sorted idx exactly when idx is a subgroup."""
    cand = idx[np.lexsort((idx, -form.order_array()[idx]))]
    gens: list[int] = []
    span = np.zeros(1, dtype=np.int64)
    in_span = np.zeros(form.order, dtype=bool)
    while True:
        in_span[span] = True
        cand = cand[~in_span[cand]]
        if not len(cand):
            return gens, span
        gens.append(int(cand[0]))
        span = form.sum_indices(span, form.cyclic_indices(gens[-1]))


def index_subgroup(form: DiscriminantForm, idx: np.ndarray) -> Subgroup:
    """The subgroup whose elements have the sorted indices idx."""
    gens, span = _minimal_generators(form, idx)
    if not np.array_equal(span, idx):
        raise ValidityError("element set is not closed under addition")
    C = form.coeff_matrix()
    return Subgroup(tuple(map(tuple, C[gens].tolist())), idx, C[idx])


def subgroup(form: DiscriminantForm, elements: Iterable[Element]) -> Subgroup:
    return index_subgroup(
        form, np.unique([0] + [form.index(e) for e in elements]))


def subgroup_from_generators(form: DiscriminantForm,
                             gens: Iterable[Element]) -> Subgroup:
    span = np.zeros(1, dtype=np.int64)
    for g in gens:
        span = form.sum_indices(span, form.cyclic_indices(form.index(g)))
    return index_subgroup(form, span)


def is_isotropic(form: DiscriminantForm, H: Subgroup) -> bool:
    return not form.qnum_array()[H.indices].any()


def perp_indices(form: DiscriminantForm, gens: Iterable[Element]) -> np.ndarray:
    """Ascending indices of the elements orthogonal to every element of gens."""
    mask = np.ones(form.order, dtype=bool)
    for g in gens:
        mask &= form.b_row_num(form.index(g)) == 0
    return np.nonzero(mask)[0]


def orthogonal_complement(form: DiscriminantForm, S) -> Subgroup:
    """All elements orthogonal to S (a Subgroup, one element, or a list)."""
    if isinstance(S, Subgroup):
        gens = S.generators
    elif S and isinstance(S[0], int):
        gens = [tuple(S)]
    else:
        gens = [tuple(e) for e in S]
    return index_subgroup(form, perp_indices(form, gens))


# ---------------------------------------------------------------------------
# quotients, p-parts, direct sums
# ---------------------------------------------------------------------------

def _diagonalize(A: Sequence[Sequence[int]]):
    """(d, P, P^-1) with P A Q = diag(d) for unimodular integer P and Q.

    Smith's elimination (Cohen, A Course in Computational Algebraic Number
    Theory, 2.4) without the divisibility chain, which no caller needs.
    Only the row transform is returned.  Python ints, so entry growth
    cannot overflow.
    """
    a = [[int(x) for x in row] for row in A]
    n = len(a)
    m = len(a[0]) if n else 0
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        P[i], P[j] = P[j], P[i]
        for row in Pinv:
            row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    d = []
    for t in range(min(n, m)):
        nonzero = [(abs(a[i][j]), i, j) for i in range(t, n)
                   for j in range(t, m) if a[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        swap_rows(t, i)
        swap_cols(t, j)
        while True:
            for i in range(t + 1, n):
                c = a[i][t] // a[t][t]
                if c:
                    a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                    P[i] = [x - c * y for x, y in zip(P[i], P[t])]
                    for row in Pinv:
                        row[t] += c * row[i]
            for j in range(t + 1, m):
                c = a[t][j] // a[t][t]
                if c:
                    for row in a:
                        row[j] -= c * row[t]
            # a remainder smaller than the pivot becomes the next pivot
            rest = [(abs(a[i][t]), i, t) for i in range(t + 1, n) if a[i][t]]
            rest += [(abs(a[t][j]), t, j) for j in range(t + 1, m) if a[t][j]]
            if not rest:
                break
            _, i, j = min(rest)
            swap_rows(t, i)
            swap_cols(t, j)
        d.append(a[t][t])
    return d, P, Pinv


def _dot_mod(X: np.ndarray, A: np.ndarray, mod) -> np.ndarray:
    """(X @ A.T) % mod, exact: int64 while no sum of products can reach
    2^62, Python ints past that."""
    bound = (int(np.abs(X).max(initial=0)) * int(np.abs(A).max(initial=0))
             * A.shape[1])
    dtype = np.int64 if bound < 2 ** 62 else object
    out = np.asarray(X).astype(dtype) @ A.astype(dtype).T
    return (out % mod).astype(np.int64)


def _reduced(rows, moduli, width: int) -> np.ndarray:
    """The integer rows, row i taken mod moduli[i]; int64 when every
    modulus is at most 2^62, Python ints otherwise."""
    out = np.array([[x % mod for x in row] for row, mod in zip(rows, moduli)],
                   dtype=object).reshape(len(moduli), width)
    return out.astype(np.int64) if max(moduli, default=1) <= 2 ** 62 else out


@dataclass(frozen=True, eq=False)
class CoordinateMap:
    """The homomorphism x -> outer @ (inner @ x / divisors) mod
    target_orders from coefficient vectors of a source form to those of a
    target form, given by their generator orders.

    Its domain is the set of x with inner @ x divisible by the divisors;
    only a projection has divisors above 1, and its domain is H_perp.
    Row j of ``inner`` is stored mod divisors[j] times the exponent of the
    target and ``outer`` mod that exponent, and ``_dot_mod`` checks the
    int64 bound on every product.  The map holds no form, so a quotient
    kept on its parent form makes no reference cycle.
    """

    source_orders: tuple[int, ...]
    target_orders: tuple[int, ...]
    inner: np.ndarray      # k x rank(source)
    divisors: np.ndarray   # k
    outer: np.ndarray      # rank(target) x k

    @classmethod
    def of(cls, source, target, inner, divisors, outer) -> "CoordinateMap":
        """The map between two forms from integer matrices given as lists
        of rows."""
        exponent = lcm(*target.orders)
        return cls(source.orders, target.orders,
                   _reduced(inner, [d * exponent for d in divisors],
                            len(source.orders)),
                   np.array(divisors, dtype=np.int64),
                   _reduced(outer, [exponent] * len(target.orders),
                            len(divisors)))

    def rows(self, coeffs: np.ndarray) -> np.ndarray:
        """Images of source coefficient rows, as target coefficient rows."""
        exponent = lcm(*self.target_orders)
        W = _dot_mod(coeffs, self.inner, self.divisors * exponent)
        if np.any(W % self.divisors):
            raise DimensionMismatch("element is not orthogonal to H")
        return _dot_mod(W // self.divisors, self.outer,
                        np.array(self.target_orders, dtype=np.int64))

    def __call__(self, e: Element) -> Element:
        """The image of one element, in Python integers."""
        x = _reduce_mod(self.source_orders, e)
        exponent = lcm(*self.target_orders)
        w = []
        for row, d in zip(self.inner.tolist(), self.divisors.tolist()):
            v = sum(map(mul, row, x)) % (d * exponent)
            if v % d:
                raise DimensionMismatch("element is not orthogonal to H")
            w.append(v // d)
        return tuple(sum(map(mul, row, w)) % o
                     for row, o in zip(self.outer.tolist(), self.target_orders))


class QuotientResult(NamedTuple):
    form: DiscriminantForm
    project: CoordinateMap   # H_perp -> H_perp/H
    section: CoordinateMap   # H_perp/H -> a representative in H_perp


def quotient_form(form: DiscriminantForm, H: Subgroup) -> QuotientResult:
    """The form on H_perp/H for isotropic H, with projection and section.

    With G the Gram numerators over L = level(D) and h_1, ..., h_r the
    generators of H, the preimage of H_perp in Z^m is the kernel of
    x -> (h_k G x)_k mod L.  Diagonalising its transpose, P1 (h G)^T Q1 =
    diag(d), gives that lattice the basis V diag(s) with V = P1^T and
    s_j = L / gcd(d_j, L).  In this basis the preimage of H (the h_k and
    the relations o_i e_i) is a full-rank relation matrix R, and
    P2 R Q2 = diag(s') gives H_perp/H as the sum of the Z/s'_i, each split
    into cyclic factors of prime-power order.

    The quotient's tables are the parent's numerators of q and b at the new
    generators, over L; ``_of_tables`` reduces them to the quotient's own
    level.  They skip the form check: for isotropic H in a non-degenerate
    D, H_perp/H is non-degenerate with |H_perp| = |D| / |H|.  Only its
    order is checked, |Q| |H|^2 = |D|, and ``ArithmeticError`` raised
    otherwise.
    """
    if not is_isotropic(form, H):
        raise NotIsotropic("q does not vanish on H")
    m = len(form.orders)
    L, G = form.level, form._gn.tolist()
    hs = [form._reduce(h) for h in H.generators]
    hG = [[sum(h[k] * G[k][j] for k in range(m)) for j in range(m)] for h in hs]
    d, P1, P1inv = _diagonalize([[row[j] for row in hG] for j in range(m)])
    s = [L // gcd(d[j], L) if j < len(d) else 1 for j in range(m)]
    # coordinates in the basis V diag(s): y = diag(s)^-1 V^-1 x
    Vinv = [[P1inv[k][j] for k in range(m)] for j in range(m)]
    relations = hs + [tuple(o * (i == k) for k in range(m))
                      for i, o in enumerate(form.orders)]
    R = [[sum(Vinv[j][k] * v[k] for k in range(m)) // s[j] for v in relations]
         for j in range(m)]
    d2, P2, P2inv = _diagonalize(R)
    factors = []                      # (prime, order, row of P2, generator)
    for i, si in enumerate(abs(x) for x in d2):
        y = [row[i] for row in P2inv]
        g = [sum(P1[k][j] * s[k] * y[k] for k in range(m)) for j in range(m)]
        for p in prime_power_factors(si):
            pa = p
            while si % (pa * p) == 0:
                pa *= p
            rest = si // pa
            unit = rest * pow(rest, -1, pa)   # 1 mod pa, 0 mod si / pa
            factors.append((p, pa, P2[i], [unit * x for x in g]))
    factors.sort(key=lambda f: f[0])
    gens = [form._reduce(f[3]) for f in factors]
    gi = form.indices(np.array(gens, dtype=np.int64).reshape(len(gens), m))
    quotient = DiscriminantForm._of_tables(
        [f[1] for f in factors], L, form.qnum_array()[gi],
        form.b_row_num(gi)[:, gi], check=False)
    if quotient.order * H.order ** 2 != form.order:
        raise ArithmeticError("|H_perp/H| |H|^2 differs from |D|")
    project = CoordinateMap.of(form, quotient, Vinv, s, [f[2] for f in factors])
    k = len(gens)
    section = CoordinateMap.of(quotient, form, np.eye(k, dtype=int).tolist(),
                               [1] * k, [[g[j] for g in gens] for j in range(m)])
    return QuotientResult(quotient, project, section)


class PPartResult(NamedTuple):
    form: DiscriminantForm
    embed: Callable[[Element], Element]


def p_part(form: DiscriminantForm, p: int) -> PPartResult:
    """The p-part of the form together with its injection into the form.

    The p-part is spanned by the generators of p-power order, so every
    generator order divisible by p must be a power of p, as it is for
    built forms, quotients, p-parts and their direct sums."""
    keep = [i for i, o in enumerate(form.orders) if o % p == 0]
    if any(prime_power(form.orders[i])[0] != p for i in keep):
        raise ValidityError("p-part needs generators of prime-power order")
    sub = DiscriminantForm._of_tables([form.orders[i] for i in keep],
                                      form.level, form._qn[keep],
                                      form._gn[np.ix_(keep, keep)])
    m = len(form.orders)

    def embed(e: Element) -> Element:
        out = [0] * m
        for pos, x in zip(keep, e):
            out[pos] = x
        return tuple(out)

    return PPartResult(sub, embed)


def direct_sum(d1: DiscriminantForm, d2: DiscriminantForm) -> DiscriminantForm:
    L = lcm(d1.level, d2.level)
    s1, s2 = L // d1.level, L // d2.level
    zeros = np.zeros((len(d1.orders), len(d2.orders)), dtype=np.int64)
    return DiscriminantForm._of_tables(
        d1.orders + d2.orders, L, np.concatenate([s1 * d1._qn, s2 * d2._qn]),
        np.block([[s1 * d1._gn, zeros], [zeros.T, s2 * d2._gn]]))


# ---------------------------------------------------------------------------
# building from symbols
# ---------------------------------------------------------------------------

def _odd_prime_units(p: int, rank: int, sign: int) -> list[int]:
    base = legendre(2, p)
    units = [1] * rank
    target = sign * base ** (rank - 1)
    a = 1
    while legendre(2 * a, p) != target:
        a += 1
        if a % p == 0:
            a += 1
    units[-1] = a
    return units


def build_form(sym: GenusSymbol) -> DiscriminantForm:
    """Realize a genus symbol by explicit Jordan block models."""
    L = 2 * lcm(*(comp.scale for comp in sym.components))
    orders: list[int] = []
    qn: list[int] = []                      # numerators over L
    planes: list[tuple[int, int]] = []      # (first generator, b numerator)
    for comp in sym.components:
        scale = comp.scale
        u = L // scale                       # numerator of 1/scale
        if comp.prime != 2:
            for a in _odd_prime_units(comp.prime, comp.rank, comp.sign):
                orders.append(scale)
                qn.append(a * u)
        elif comp.parity == ODD:
            units = unit_decomposition(comp.rank, comp.oddity, comp.sign)
            for a in units:
                orders.append(scale)
                qn.append(a * u // 2)
        else:
            half = comp.rank // 2
            for i in range(half):
                minus = (comp.sign == -1 and i == half - 1)
                planes.append((len(orders), u))
                orders.extend([scale, scale])
                d = u if minus else 0
                qn.extend([d, d])
    gn = np.diag(2 * np.array(qn, dtype=np.int64))      # b(g, g) = 2 q(g)
    for k, b in planes:
        gn[k, k + 1] = gn[k + 1, k] = b
    return DiscriminantForm._of_tables(orders, L, qn, gn)


# functional aliases matching the operation names

def q_value(form: DiscriminantForm, gamma: Element) -> Fraction:
    return form.q(gamma)


def b_value(form: DiscriminantForm, gamma: Element, beta: Element) -> Fraction:
    return form.b(gamma, beta)


def signature(form: DiscriminantForm) -> int:
    return form.signature


def level(form: DiscriminantForm) -> int:
    return form.level


def order(form: DiscriminantForm) -> int:
    return form.order


def element_order(form: DiscriminantForm, gamma: Element) -> int:
    return form.element_order(gamma)
