from fractions import Fraction as F
from math import isqrt

from discweil.arith import (
    divisors,
    factorize,
    is_prime,
    is_rational_square,
    primitive_root,
    sigma0,
)
from discweil.linalg import _prime


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_against_trial_division():
    for n in range(1, 400):
        prod = 1
        for p, e in factorize(n):
            assert is_prime(p)
            assert n % p**e == 0 and n % p ** (e + 1) != 0
            prod *= p**e
        assert prod == n


def test_divisors_and_sigma0():
    for n in range(1, 300):
        want = naive_divisors(n)
        assert list(divisors(n)) == want
        assert sigma0(n) == len(want)


def test_is_prime_small():
    sieve = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in sieve)
    assert is_prime(7919)
    assert not is_prime(7917)


def trial_division_is_prime(n):
    """Primality by trial division up to the square root (oracle)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(200_000) if is_prime(n)] == [
        n for n in range(200_000) if trial_division_is_prime(n)
    ]


def test_is_prime_on_certificate_primes_and_pseudoprimes():
    for step in (1, 4, 12, 60):
        for i in range(4):
            q = _prime(i, step)
            assert trial_division_is_prime(q) and is_prime(q)
    for n in range(2**31 - 401, 2**31, 2):
        assert is_prime(n) == trial_division_is_prime(n)
    # strong pseudoprimes to base 2, and to bases 2, 3, 5, 7
    for n in (2047, 3215031751):
        assert not trial_division_is_prime(n) and not is_prime(n)
    # the least strong pseudoprime to the twelve prime bases 2, ..., 37
    assert not is_prime(399165290221 * 798330580441)


def test_is_rational_square():
    assert is_rational_square(F(4, 9))
    assert is_rational_square(F(0))
    assert is_rational_square(36)
    assert not is_rational_square(F(2))
    assert not is_rational_square(F(-4, 9))
    assert not is_rational_square(F(4, 8))


def test_primitive_root_has_full_order():
    for p in (3, 5, 7, 11, 13, 101):
        g = primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        assert len(seen) == p - 1
