"""Genus symbols for discriminant forms.

A symbol is a dot-separated list of Jordan components in the usual
prime-power notation, e.g. ``"2_1^+1.4_II^-2.3^-1"``.  Components of an
odd prime carry no subscript; 2-adic components are even (subscript
``II``, or no subscript at all) or odd (subscript = oddity t mod 8).
The trivial form is spelled ``"1"``.

Odd 2-adic validity is decided constructively: a component ``q_t^{en}``
exists iff t is a sum of n units from {1,3,5,7} mod 8 whose product is
+-1 mod 8 exactly when e = +1.  The witnessing unit list doubles as the
build recipe for the explicit form models.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm, prod
from typing import Iterable, Optional

from .errors import SymbolSyntaxError, ValidityError
from .ntheory import is_prime, prime_power

EVEN = "even"
ODD = "odd"

_COMPONENT_RE = re.compile(r"^(\d+)(?:_(II|\d+))?\^([+-])(\d+)$")


@dataclass(frozen=True, order=True)
class JordanComponent:
    prime: int
    scale_exp: int          # the component lives at q = prime**scale_exp
    rank: int
    sign: int               # +1 or -1
    parity: str = ODD       # only meaningful for prime 2
    oddity: Optional[int] = None  # t mod 8, present iff prime 2 and odd parity

    @property
    def scale(self) -> int:
        return self.prime ** self.scale_exp

    @property
    def order(self) -> int:
        return self.scale ** self.rank

    @property
    def level(self) -> int:
        if self.prime == 2 and self.parity == ODD:
            return 2 * self.scale
        return self.scale

    def __str__(self) -> str:
        sign = "+" if self.sign == 1 else "-"
        if self.prime == 2 and self.parity == EVEN:
            return f"{self.scale}_II^{sign}{self.rank}"
        if self.prime == 2:
            return f"{self.scale}_{self.oddity}^{sign}{self.rank}"
        return f"{self.scale}^{sign}{self.rank}"


@dataclass(frozen=True)
class GenusSymbol:
    components: tuple[JordanComponent, ...]

    @property
    def order(self) -> int:
        return prod((c.order for c in self.components), start=1)

    @property
    def level(self) -> int:
        return lcm(*(c.level for c in self.components)) if self.components else 1

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({c.prime for c in self.components}))

    def prime_part(self, p: int) -> "GenusSymbol":
        return GenusSymbol(tuple(c for c in self.components if c.prime == p))

    def rank_of_prime(self, p: int) -> int:
        return sum(c.rank for c in self.components if c.prime == p)

    def __str__(self) -> str:
        return format_symbol(self)


def unit_decomposition(rank: int, oddity: int, sign: int):
    """A list of units a_i in {1,3,5,7} with sum = oddity mod 8 and product
    +-1 mod 8 iff sign = +1, or None if no such list exists."""
    oddity %= 8
    for c3 in range(rank + 1):
        for c5 in range(rank + 1 - c3):
            for c7 in range(rank + 1 - c3 - c5):
                c1 = rank - c3 - c5 - c7
                if (c1 + 3 * c3 + 5 * c5 + 7 * c7) % 8 != oddity:
                    continue
                product = pow(3, c3, 8) * pow(5, c5, 8) * pow(7, c7, 8) % 8
                if (product in (1, 7)) != (sign == 1):
                    continue
                return (1,) * c1 + (3,) * c3 + (5,) * c5 + (7,) * c7
    return None


def _validate_component(comp: JordanComponent) -> JordanComponent:
    if comp.rank <= 0:
        raise ValidityError(f"component {comp} has rank {comp.rank}")
    if comp.sign not in (1, -1):
        raise ValidityError(f"component {comp} has sign {comp.sign}")
    if comp.scale_exp < 1:
        raise ValidityError(f"component {comp} has scale exponent {comp.scale_exp}")
    if comp.prime != 2:
        if comp.parity != ODD or comp.oddity is not None:
            raise ValidityError(f"odd-prime component {comp} cannot carry 2-adic data")
        return comp
    if comp.parity == EVEN:
        if comp.oddity is not None:
            raise ValidityError(f"even 2-adic component {comp} cannot carry an oddity")
        if comp.rank % 2 != 0:
            raise ValidityError(f"even 2-adic component of odd rank {comp.rank}")
        return comp
    if comp.oddity is None:
        raise ValidityError(f"odd 2-adic component {comp} needs an oddity")
    if comp.oddity % 2 != comp.rank % 2:
        raise ValidityError(
            f"oddity {comp.oddity} does not match rank {comp.rank} mod 2")
    if unit_decomposition(comp.rank, comp.oddity, comp.sign) is None:
        raise ValidityError(
            f"no unit decomposition for rank {comp.rank}, oddity {comp.oddity}, "
            f"sign {comp.sign:+d}")
    return comp


def make_symbol(components: Iterable[JordanComponent]) -> GenusSymbol:
    """Validate, sort and assemble components into a genus symbol."""
    comps = sorted(components, key=lambda c: (c.prime, c.scale_exp))
    seen = set()
    for comp in comps:
        _validate_component(comp)
        key = (comp.prime, comp.scale_exp)
        if key in seen:
            raise ValidityError(f"duplicate component at prime {comp.prime}, "
                                f"scale {comp.scale}")
        seen.add(key)
    return GenusSymbol(tuple(comps))


def parse_symbol(text: str) -> GenusSymbol:
    """Parse a symbol string, e.g. "2_II^-2.3^-1"."""
    text = text.strip()
    if not text:
        raise SymbolSyntaxError("empty symbol string")
    if text == "1":
        return GenusSymbol(())
    comps = []
    for part in text.split("."):
        m = _COMPONENT_RE.match(part)
        if m is None:
            raise SymbolSyntaxError(f"malformed component {part!r}")
        scale, subscript, sign_ch, rank = m.groups()
        pk = prime_power(int(scale))
        if pk is None:
            raise ValidityError(f"scale {scale} is not a prime power > 1")
        p, k = pk
        sign = 1 if sign_ch == "+" else -1
        if p != 2:
            if subscript is not None:
                raise ValidityError(f"odd-prime component {part!r} cannot "
                                    "carry a subscript")
            comps.append(JordanComponent(p, k, int(rank), sign))
        elif subscript is None or subscript == "II":
            comps.append(JordanComponent(2, k, int(rank), sign, EVEN))
        else:
            comps.append(JordanComponent(2, k, int(rank), sign, ODD,
                                         int(subscript) % 8))
    return make_symbol(comps)


def format_symbol(sym: GenusSymbol) -> str:
    """Canonical text; round-trips through parse_symbol."""
    if not sym.components:
        return "1"
    return ".".join(str(c) for c in sym.components)


def normalize_oddity(sym: GenusSymbol) -> GenusSymbol:
    """Rewrite rank-1 odd components at scale 2 so their sign is +1.

    Uses the equivalence t -> t+4 with flipped sign, under which the
    invariants sign*e(t/8) and sign*(t|2) and the built form itself are
    unchanged.
    """
    comps = []
    for c in sym.components:
        if (c.prime == 2 and c.scale_exp == 1 and c.parity == ODD
                and c.rank == 1 and c.sign == -1):
            comps.append(JordanComponent(2, 1, 1, 1, ODD, (c.oddity + 4) % 8))
        else:
            comps.append(c)
    return GenusSymbol(tuple(comps))


def _component_decorations(p: int, rank: int):
    """All valid (sign, parity, oddity) decorations for a component."""
    if p != 2:
        return [(s, ODD, None) for s in (1, -1)]
    out = []
    if rank % 2 == 0:
        out.extend((s, EVEN, None) for s in (1, -1))
    for t in range(8):
        if t % 2 != rank % 2:
            continue
        for s in (1, -1):
            if unit_decomposition(rank, t, s) is not None:
                out.append((s, ODD, t))
    return out


def _local_symbols(p: int, max_order: int):
    """All component tuples supported at p with order <= max_order."""
    results = [()]
    stack = [((), 1, 1)]  # (components so far, next scale_exp, order so far)
    while stack:
        comps, k, order = stack.pop()
        scale = p ** k
        if order * scale > max_order:
            continue
        # skip this scale entirely
        stack.append((comps, k + 1, order))
        n = 1
        while order * scale ** n <= max_order:
            for sign, parity, oddity in _component_decorations(p, n):
                new = comps + (JordanComponent(p, k, n, sign, parity, oddity),)
                results.append(new)
                stack.append((new, k + 1, order * scale ** n))
            n += 1
    return results


def enumerate_symbols(max_order: int, primes: Iterable[int]) -> list[GenusSymbol]:
    """All valid genus symbols supported on the given primes with group
    order <= max_order, in a fixed deterministic order."""
    plist = sorted(set(primes))
    if max_order < 1 or not all(map(is_prime, plist)):
        raise ValueError(f"max_order = {max_order} must be >= 1 and the "
                         f"primes {plist} prime")
    combos = [()]
    for p in plist:
        locals_p = _local_symbols(p, max_order)
        new_combos = []
        for base in combos:
            base_order = prod((c.order for c in base), start=1)
            for local in locals_p:
                local_order = prod((c.order for c in local), start=1)
                if base_order * local_order <= max_order:
                    new_combos.append(base + local)
        combos = new_combos
    symbols = [GenusSymbol(tuple(sorted(c, key=lambda j: (j.prime, j.scale_exp))))
               for c in combos]
    symbols.sort(key=lambda s: (s.order, str(s)))
    return symbols
