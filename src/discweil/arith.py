"""Small number-theoretic helpers used throughout the package."""

from functools import lru_cache
from math import isqrt

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


# Miller-Rabin with the first thirteen prime bases decides every n below this
# bound, the least strong pseudoprime to all of them (Sorenson and Webster
# 2015); above it is_prime falls back to trial division, so no probabilistic
# answer ever decides anything.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n):
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_BOUND:
        return all(n % d for d in range(43, isqrt(n) + 1, 2))
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
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
    """Smallest primitive root mod p; p must be prime and is not tested again."""
    if p == 2:
        return 1
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1
