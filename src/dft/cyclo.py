"""Exact arithmetic in cyclotomic fields.

Elements of Q(zeta_M) are carried as rational coefficient vectors over
the group ring Q[Z/M] (one slot per M-th root of unity).  That makes
roots of unity, conjugation and cyclic convolution trivial; equality is
decided exactly by the divisibility test below.

Zero test: u(zeta_M) = 0 iff Phi_M divides u, iff u * Psi_M = 0 in
Q[x]/(x^M - 1), where Psi_M = (x^M - 1)/Phi_M.  ``vanishes`` serves the
Milgram certificate and the gauss-row check of :mod:`dft.weil`.  The
Weil matrix identities themselves are checked modulo split primes in
:mod:`dft.weil`; ``Cyclotomic`` is the dense oracle the tests compare
them against.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import numpy as np


def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials (den monic)."""
    num = list(num)
    d = len(den) - 1
    q = [0] * (len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q[i - d] = c
        for j, dj in enumerate(den):
            num[i - d + j] -= c * dj
    if any(num[:d]) or any(num[d:]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_squarefree(n: int) -> tuple[int, ...]:
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, list(_cyclotomic_squarefree(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def cyclotomic_poly(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, low degree first."""
    rad = 1
    n = M
    for p in range(2, M + 1):
        if n % p == 0:
            rad *= p
            while n % p == 0:
                n //= p
        if n == 1:
            break
    base = _cyclotomic_squarefree(rad) if M > 1 else (-1, 1)
    if rad == M:
        return base
    s = M // rad
    out = [0] * ((len(base) - 1) * s + 1)
    for i, c in enumerate(base):
        out[i * s] = c
    return tuple(out)


@lru_cache(maxsize=None)
def cofactor_poly(M: int) -> tuple[int, ...]:
    """(x^M - 1) / Phi_M, low degree first."""
    num = [-1] + [0] * (M - 1) + [1]
    return tuple(_poly_div_exact(num, list(cyclotomic_poly(M))))


@lru_cache(maxsize=None)
def _cofactor_terms(M: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, c) for j, c in enumerate(cofactor_poly(M)) if c != 0)


def vanishes(M: int, coeffs) -> bool:
    """Exact zero test for sum_a coeffs[a] * zeta_M^a (integer coeffs)."""
    u = np.asarray(coeffs, dtype=object)
    acc = np.zeros(M, dtype=object)
    for j, c in _cofactor_terms(M):
        acc += c * np.roll(u, j)
    return not acc.any()


def _phi(M: int) -> int:
    return len(cyclotomic_poly(M)) - 1


class Cyclotomic:
    """An exact element of Q(zeta_M), stored over the group ring basis.

    coeffs[a] multiplies e(a/M).  The representation is not unique;
    equality and zero tests go through the Phi_M divisibility criterion,
    and ``power_basis()`` gives the unique reduced coordinates.
    """

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs):
        self.conductor = conductor
        cs = [Fraction(c) for c in coeffs]
        if len(cs) != conductor:
            raise ValueError("coefficient vector must have length M")
        self.coeffs = tuple(cs)

    @classmethod
    def root(cls, M: int, a: int) -> "Cyclotomic":
        v = [Fraction(0)] * M
        v[a % M] = Fraction(1)
        return cls(M, v)

    @classmethod
    def rational(cls, M: int, value) -> "Cyclotomic":
        v = [Fraction(0)] * M
        v[0] = Fraction(value)
        return cls(M, v)

    def to(self, M: int) -> "Cyclotomic":
        """Re-embed into conductor M (the current conductor must divide M)."""
        if M == self.conductor:
            return self
        if M % self.conductor:
            raise ValueError("conductor must grow by an integer factor")
        s = M // self.conductor
        v = [Fraction(0)] * M
        for a, c in enumerate(self.coeffs):
            v[a * s] = c
        return Cyclotomic(M, v)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.rational(self.conductor, other)
        M = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.to(M), other.to(M), M

    def __add__(self, other):
        a, b, M = self._pair(other)
        return Cyclotomic(M, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic)
                       else Cyclotomic.rational(self.conductor, -Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Cyclotomic):
            f = Fraction(other)
            return Cyclotomic(self.conductor, [c * f for c in self.coeffs])
        a, b, M = self._pair(other)
        out = [Fraction(0)] * M
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(b.coeffs):
                if cj:
                    out[(i + j) % M] += ci * cj
        return Cyclotomic(M, out)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        M = self.conductor
        return Cyclotomic(M, [self.coeffs[(-a) % M] for a in range(M)])

    def is_zero(self) -> bool:
        den = lcm(*(c.denominator for c in self.coeffs))
        return vanishes(self.conductor, [int(c * den) for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        diff = self - (other if isinstance(other, Cyclotomic)
                       else Cyclotomic.rational(self.conductor, other))
        return diff.is_zero()

    def __hash__(self):
        return hash((self.conductor, self.power_basis()))

    def power_basis(self) -> tuple[Fraction, ...]:
        """Unique coordinates over 1, zeta, ..., zeta^(phi(M)-1)."""
        M = self.conductor
        phi = _phi(M)
        rem = list(self.coeffs)
        den = cyclotomic_poly(M)
        d = len(den) - 1
        for i in range(M - 1, d - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            rem[i] = Fraction(0)
            for j, dj in enumerate(den[:-1]):
                rem[i - d + j] -= c * dj
        return tuple(rem[:phi])

    def __complex__(self):
        M = self.conductor
        return sum(complex(c) * cmath.exp(2j * cmath.pi * a / M)
                   for a, c in enumerate(self.coeffs) if c)

    def __repr__(self):
        terms = [f"{c}*e({a}/{self.conductor})"
                 for a, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"
