"""Small number-theoretic helpers used throughout the package."""

from functools import lru_cache
from math import gcd, isqrt

cache = lru_cache(maxsize=None)


@cache
def factorize(n):
    """Prime factorization of n >= 1 as a tuple of (p, e) pairs."""
    assert n >= 1
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@cache
def divisors(n):
    """Sorted tuple of positive divisors."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return tuple(sorted(ds))


def sigma0(n):
    """Number of divisors."""
    out = 1
    for _, e in factorize(n):
        out *= e + 1
    return out


def is_prime(n):
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


def is_rational_square(fr):
    """True if the Fraction (or int) fr is a square in Q."""
    from fractions import Fraction

    fr = Fraction(fr)
    if fr < 0:
        return False
    a, b = fr.numerator, fr.denominator
    return isqrt(a) ** 2 == a and isqrt(b) ** 2 == b


def primitive_root(p):
    """Smallest primitive root mod prime p."""
    assert is_prime(p)
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1
