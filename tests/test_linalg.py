from fractions import Fraction as F

from discweil.arith import prime_one_mod
from discweil.linalg import (
    modq_rank,
    primitive_integer_vector,
    rational_kernel,
    rational_rank,
    rational_rref,
    same_rational_span,
)


def test_rref_and_rank():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    red, pivots = rational_rref(rows)
    assert rational_rank(rows) == 2
    assert pivots == [0, 1]
    # rref is a fixed point
    red2, _ = rational_rref(red)
    assert red2 == red


def test_kernel_annihilates():
    rows = [[1, 2, 3, 4], [0, 1, 1, 1], [1, 3, 4, 5]]
    ker = rational_kernel(rows, ncols=4)
    assert len(ker) == 2
    for v in ker:
        for r in rows:
            assert sum(F(a) * b for a, b in zip(r, v)) == 0


def test_kernel_of_full_rank_is_empty():
    assert rational_kernel([[1, 0], [0, 1]], ncols=2) == []


def test_primitive_integer_vector():
    v = primitive_integer_vector([F(2, 3), F(-4, 3), F(2)])
    assert v == [1, -2, 3]
    from math import gcd

    assert gcd(gcd(v[0], v[1]), v[2]) == 1


def test_span_predicates():
    basis = [[1, 0, 1], [0, 1, 1]]
    assert same_rational_span(basis, [[1, 1, 2], [1, -1, 0]])
    assert not same_rational_span(basis, [[1, 0, 0], [0, 1, 0]])


def test_modq_rank_matches_rational_rank():
    import numpy as np

    q = prime_one_mod(1)
    mats = [
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
    ]
    for m in mats:
        assert modq_rank(np.array(m) % q, q) == rational_rank(m)
