from fractions import Fraction as F
from math import lcm

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from discweil.arith import is_prime
from discweil.borcherds import InputForm, catalog_for, decompose
from discweil.fqmod import hyperbolic_pair
from discweil.linalg import (
    _certified_rows,
    _integer_row,
    _prime,
    _rref_mod,
    primitive_integer_vector,
    rational_rank,
    rational_rref,
)

# ------------------------------------------------------------ Fraction oracle
# Gauss-Jordan elimination over Q in Fractions: the reference for the
# certified modular route of the library.


def fraction_rref(rows):
    """Reduced row echelon form over Q.  Returns (rref rows, pivot columns)."""
    mat = [[F(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def fraction_kernel(rows, ncols):
    """The standard kernel vectors of the oracle's RREF, one per free column, primitive."""
    rref, pivots = fraction_rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(primitive_integer_vector(v))
    return basis


def kernel(rows, ncols):
    """The certified kernel basis: primitive integer vectors, one per free column."""
    return _certified_rows(rows, ncols)[2]


def assert_matches_oracle(rows, ncols):
    rref, pivots = fraction_rref(rows)
    assert rational_rref(rows) == (rref, pivots)
    assert rational_rank(rows) == len(pivots)
    assert kernel(rows, ncols) == fraction_kernel(rows, ncols)


# ------------------------------------------------------------------ tests


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
    ker = kernel(rows, 4)
    assert len(ker) == 2
    for v in ker:
        for r in rows:
            assert sum(F(a) * b for a, b in zip(r, v)) == 0


def test_kernel_of_full_rank_is_empty():
    assert kernel([[1, 0], [0, 1]], 2) == []


def test_primitive_integer_vector():
    v = primitive_integer_vector([F(2, 3), F(-4, 3), F(2)])
    assert v == [1, -2, 3]
    from math import gcd

    assert gcd(gcd(v[0], v[1]), v[2]) == 1


def test_span_predicates():
    basis = [[1, 0, 1], [0, 1, 1]]
    same = [[1, 1, 2], [1, -1, 0]]
    other = [[1, 0, 0], [0, 1, 0]]
    assert rational_rank(basis) == rational_rank(same) == rational_rank(basis + same) == 2
    assert rational_rank(other) == 2 and rational_rank(basis + other) == 3


def test_modq_rank_matches_rational_rank():
    q = _prime(0)
    mats = [
        [[1, 2], [2, 4]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        [[3, 1, 4], [1, 5, 9], [2, 6, 5]],
    ]
    for m in mats:
        assert len(_rref_mod(np.array(m, dtype=np.int64) % q, q)) == rational_rank(m)


def test_primes_are_one_mod_step():
    # step 1 is every prime below 2^31, from the largest; any step counts
    # down through the primes q = 1 (mod step) only
    assert [_prime(i) for i in range(3)] == [2**31 - 1, 2**31 - 19, 2**31 - 61]
    for step in (1, 2, 24, 30, 360):
        qs = [_prime(i, step) for i in range(4)]
        assert qs == sorted(qs, reverse=True) and qs[0] < 2**31
        assert all(is_prime(q) and q % step == 1 % step for q in qs)
        s = lcm(2, step)
        assert not any(is_prime(q) for q in range(qs[0] + s, 2**31, s))


def entries():
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-(10**40), 10**40),
        st.fractions(max_denominator=10**6).filter(lambda x: abs(x.numerator) < 10**40),
    )


@st.composite
def low_rank_matrices(draw):
    """Products of an (nrows x r) and an (r x ncols) matrix, up to 8 x 8.

    The left factor has small entries, so zero and repeated rows are common;
    r = 0 gives all-zero matrices.
    """
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    r = draw(st.integers(0, min(nrows, ncols)))
    left = [[draw(st.integers(-3, 3)) for _ in range(r)] for _ in range(nrows)]
    right = [[draw(entries()) for _ in range(ncols)] for _ in range(r)]
    rows = [[sum((row[k] * right[k][j] for k in range(r)), 0) for j in range(ncols)] for row in left]
    if draw(st.booleans()):
        # a row of Fractions, scaled by a rational
        s = draw(st.fractions(max_denominator=100).filter(bool))
        rows = [[F(x) * s for x in row] if i == 0 else row for i, row in enumerate(rows)]
    return rows, ncols


@given(low_rank_matrices())
def test_certified_route_matches_fraction_oracle(case):
    rows, ncols = case
    assert_matches_oracle(rows, ncols)


def test_certified_route_fixed_cases():
    q = _prime(0)
    # the first prime divides a pivot: mod q the pivots are [1], over Q [0]
    assert_matches_oracle([[q, 1], [0, 1]], 2)
    assert_matches_oracle([[q, q + 1], [2 * q, 3]], 2)
    assert_matches_oracle([[q]], 1)
    # one RREF entry of height 10^30 needs several primes
    assert_matches_oracle([[1, 10**30]], 2)
    assert kernel([[3, 10**30]], 2) == [[10**30, -3]]
    assert_matches_oracle([[F(1, 3), F(10**30, 7)], [1, 0]], 2)
    # wide matrices, ranked on their transpose: the last column carries rank
    assert_matches_oracle([[1, 0, 0, 0], [0, 0, 0, 1]], 4)
    assert_matches_oracle([[F(1, 2), 0, 1], [1, 0, F(1, 3)]], 3)
    # empty and zero matrices
    assert_matches_oracle([[], []], 0)
    assert_matches_oracle([[0, 0, 0], [0, 0, 0]], 3)
    assert rational_rref([]) == ([], [])
    assert kernel([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_decompose_keeps_coefficients_beyond_int64():
    m = hyperbolic_pair(6, 1)
    members = catalog_for(6, 1)
    want = [2**70, -3, 0, 1]
    got = decompose(InputForm.from_combination(m, list(zip(want, members))))
    assert [(c, s) for c, s, _ in got] == [(c, s) for c, s in zip(want, members) if c]


def test_integer_row_scales_only_rows_with_fractions():
    ints = [0, 1, 0, 3]
    assert _integer_row(ints) is ints  # no copy, no scaling
    assert _integer_row([F(1, 2), 3, F(-1, 3), F(4)]) == [3, 18, -2, 24]
    assert _integer_row([F(2), 5]) == [2, 5]
