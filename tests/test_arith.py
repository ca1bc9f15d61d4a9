from fractions import Fraction as F

from discweil.arith import (
    divisors,
    factorize,
    is_prime,
    is_rational_square,
    primitive_root,
    sigma0,
)


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
