"""Small number-theoretic helpers."""

from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


def prime_power(q: int):
    """Return (p, k) with q = p**k, or None if q is not a prime power > 1."""
    if q < 2:
        return None
    for p in range(2, isqrt(q) + 1):
        if q % p == 0:
            k = 0
            while q % p == 0:
                q //= p
                k += 1
            return (p, k) if q == 1 else None
    return (q, 1)


def prime_power_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def kronecker2(t: int) -> int:
    """Kronecker symbol (t|2): 0 for even t, +1 for t = +-1, -1 for t = +-3 mod 8."""
    if t % 2 == 0:
        return 0
    return 1 if t % 8 in (1, 7) else -1
