"""Discriminant forms (finite quadratic modules) in exact arithmetic.

Every form has one presentation: generators g_1, ..., g_m of orders
o_1, ..., o_m and two integer tables over the level L, the numerators of
q(g_i) and of the Gram table b(g_i, g_j).  An element is its coefficient
tuple (x_1, ..., x_m) with 0 <= x_i < o_i; its index is the mixed-radix
number with those digits, the last generator varying fastest, and the
vectorized methods work on arrays of indices.  ``add_indices`` is the one
translate kernel: it adds index arrays digit by digit, without division.

Forms built from a genus symbol use the Jordan block models below.  A
quotient H_perp/H is built in index space: one coset table sends each
element of H_perp to the least member of its coset, and a greedy basis of
the cosets, prime by prime, gives the quotient generators of prime-power
order.  Its elements are coordinates in the quotient, not representatives
in the parent, and ``project`` / ``section`` are ``IndexMap`` tables
between the two index spaces.  p-parts keep and direct sums concatenate
generators.

Inside the package a subgroup is the sorted array of its element indices,
built from generators already known: ``lifts.prime_order_subgroups``
gives the isotropic lines, one array pass per prime, each generated by
its least nonzero member, and the greedy-basis walk ``lifts._greedy_walk``
every other isotropic subgroup, with the generators ``_minimal_generators``
would pick.  That search (greedy generators by decreasing order, then
index, on ``cyclic_indices`` and ``sum_indices``, and the check that the
set is closed) serves only subgroups handed in at the API: ``subgroup``,
``subgroup_from_generators`` and ``orthogonal_complement``;
``lifts.check_transitivity`` gives K/H the images of K's generators.
``Subgroup`` carries the index array beside the members' coefficient
rows and the generators; its sorted element tuples, the form subgroups
take at the API, are built on first use.

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
parent's, so ``quotient_form`` checks only its order |D| / |H|^2 and that
its generators reach every coset once.

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
from .bounds import check_form_order
from .errors import (BoundExceeded, DegenerateForm, DimensionMismatch,
                     NotIsotropic, ValidityError)
from .ntheory import legendre, prime_power, prime_power_factors
from .symbols import ODD, GenusSymbol, unit_decomposition

Element = tuple[int, ...]


def _places(orders: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix place values of the digits, the last varying fastest."""
    return tuple(prod(orders[i + 1:], start=1) for i in range(len(orders)))


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
        if any(int(o) < 1 for o in orders):
            raise ValidityError("generator orders must be at least 1")
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
        self._places = _places(self.orders)
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

@dataclass(frozen=True, eq=False)
class IndexMap:
    """A homomorphism between two forms, given by their generator orders
    and ``table``, the index of the image of each source index, with -1 at
    the indices off the map's domain; only a projection has such indices,
    and its domain is H_perp.  The table is read-only int64.  The map holds
    no form, so a quotient kept on its parent form makes no reference
    cycle.
    """

    source_orders: tuple[int, ...]
    target_orders: tuple[int, ...]
    table: np.ndarray

    def rows(self, coeffs: np.ndarray) -> np.ndarray:
        """Images of source coefficient rows (along the last axis), as
        target coefficient rows."""
        coeffs = np.asarray(coeffs, dtype=np.int64) % np.array(
            self.source_orders, dtype=np.int64)
        image = self.table[coeffs @ np.array(_places(self.source_orders),
                                             dtype=np.int64)]
        if np.any(image < 0):
            raise DimensionMismatch("element is outside the map's domain")
        return (image[..., None] // np.array(_places(self.target_orders),
                                             dtype=np.int64)
                % np.array(self.target_orders, dtype=np.int64))

    def __call__(self, e: Element) -> Element:
        """The image of one element, in Python integers."""
        x = np.array(_reduce_mod(self.source_orders, e), dtype=np.int64)
        return tuple(self.rows(x).tolist())


class QuotientResult(NamedTuple):
    form: DiscriminantForm
    project: IndexMap   # H_perp -> H_perp/H
    section: IndexMap   # H_perp/H -> the least member of the coset


def quotient_form(form: DiscriminantForm, H: Subgroup) -> QuotientResult:
    """The form on H_perp/H for isotropic H, with projection and section.

    ``coset`` sends each x in H_perp to the least member of x + H, and a
    coset stands for itself by that index.  For each prime p, P is the
    group of cosets of p-power order, the least p^e with p^e x in H.  Its
    cosets g are taken by decreasing order and then least member, and g is
    kept exactly when its order-p point (ord g / p) g is not in the span S
    of those kept before it.  Every nonzero subgroup of <g> holds that
    point, so S + <g> = S (+) <g>, and the kept g are independent.

    They span P.  Say S is a direct summand, P = S (+) C, when g comes up.
    A nonzero c in C of order above ord g came up before g: it was kept,
    so c is in S, or its order-p point, a nonzero element of C, was in S
    already.  Both contradict S /\\ C = 0, so no element of C has order
    above ord g.
    If g is kept, its component g' in C has the order of g (k g in S only
    for k g = 0), the largest in C, and a cyclic subgroup of maximal order
    in a finite abelian p-group is a direct summand: C = <g'> (+) C', and
    S (+) <g> = S (+) <g'> has the complement C'.  So S stays a direct
    summand, and at the end the same argument with every c in C come up
    leaves C = 0.

    Element j of the quotient is sum_i j_i g_i, with j_i its digits; the
    section sends it to the least member of that coset, and the projection
    is its inverse on the cosets.  The quotient's tables are the parent's
    numerators of q and b at the generators, over L; ``_of_tables`` reduces
    them to the quotient's own level.  They skip the form check: for
    isotropic H in a non-degenerate D, H_perp/H is non-degenerate with
    |H_perp| = |D| / |H|.  ``ArithmeticError`` is raised unless
    |Q| |H|^2 = |D| and the generators' combinations hit every coset once;
    ``BoundExceeded`` if a multiple k g, k below the exponent of D, could
    leave int64.
    """
    if not is_isotropic(form, H):
        raise NotIsotropic("q does not vanish on H")
    n, C, E = form.order, form.coeff_matrix(), lcm(*form.orders)
    if E * max(form.orders, default=1) >= 2 ** 62:
        raise BoundExceeded("multiples of elements would leave int64")
    perp = perp_indices(form, H.generators)
    coset = np.full(n, -1, dtype=np.int64)
    coset[perp] = form.indices(C[perp][:, None] + C[H.indices]).min(axis=1)
    reps = perp[coset[perp] == perp]
    gens: list[tuple[int, int]] = []                   # (index, order in Q)
    # the span of the generators kept so far, in the quotient's index order;
    # an element of p-power order lies in it exactly when it lies in the
    # span of the p-power ones
    section = np.zeros(1, dtype=np.int64)
    in_span = np.zeros(n, dtype=bool)
    for p in prime_power_factors(len(reps)):
        order = np.zeros(len(reps), dtype=np.int64)
        y, pe = reps, 1
        while E % pe == 0:
            order[(order == 0) & (coset[y] == 0)] = pe
            y, pe = form.indices(p * C[y]), pe * p
        cand = np.flatnonzero(order > 1)
        cand = cand[np.argsort(-order[cand], kind="stable")]
        g, o = reps[cand], order[cand]
        point = coset[form.indices((o // p)[:, None] * C[g])]
        size = len(section) * np.count_nonzero(order)
        while len(section) < size:
            in_span[section] = True
            keep = ~in_span[point]
            g, o, point = g[keep], o[keep], point[keep]
            gens.append((int(g[0]), int(o[0])))
            k = np.arange(o[0], dtype=np.int64)[:, None]
            section = coset[form.indices(
                C[section][:, None] + k * C[g[0]])].ravel()
    gi = np.array([g for g, _ in gens], dtype=np.int64)
    quotient = DiscriminantForm._of_tables(
        [o for _, o in gens], form.level, form.qnum_array()[gi],
        form.b_row_num(gi)[:, gi], check=False)
    if quotient.order * H.order ** 2 != form.order:
        raise ArithmeticError("|H_perp/H| |H|^2 differs from |D|")
    if not np.array_equal(np.sort(section), reps):
        raise ArithmeticError("the generators' combinations miss a coset")
    inverse = np.zeros(n, dtype=np.int64)
    inverse[section] = np.arange(len(section))
    project = np.full(n, -1, dtype=np.int64)
    project[perp] = inverse[coset[perp]]
    project.flags.writeable = section.flags.writeable = False
    return QuotientResult(quotient,
                          IndexMap(form.orders, quotient.orders, project),
                          IndexMap(quotient.orders, form.orders, section))


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
    """Realize a genus symbol by explicit Jordan block models; its order
    is checked against ``bounds.MAX_FORM_ORDER`` first."""
    check_form_order(sym.order)
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
