from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discweil.arith import divisors, factorize, primitive_root
from discweil.cyclo import (
    CycNumber,
    cyclotomic_poly,
    exp_frac,
    one,
    root_of_unity,
    zero,
)
from discweil.linalg import _prime


def test_cyclotomic_poly_known_values():
    # classical tables
    assert tuple(cyclotomic_poly(1)) == (-1, 1)
    assert tuple(cyclotomic_poly(2)) == (1, 1)
    assert tuple(cyclotomic_poly(3)) == (1, 1, 1)
    assert tuple(cyclotomic_poly(4)) == (1, 0, 1)
    assert tuple(cyclotomic_poly(6)) == (1, -1, 1)
    assert tuple(cyclotomic_poly(12)) == (1, 0, -1, 0, 1)
    assert cyclotomic_poly(105)[7] == -2  # first coefficient outside {0,+-1}


def test_roots_of_unity_multiply():
    z8 = root_of_unity(1, 8)
    assert z8**8 == 1
    assert z8**2 == root_of_unity(1, 4)
    assert z8 * root_of_unity(7, 8) == 1
    assert root_of_unity(3, 8) == z8**3


def test_geometric_sums_vanish():
    for M in (2, 3, 4, 6, 9, 12):
        s = zero()
        for a in range(M):
            s = s + root_of_unity(a, M)
        assert s.is_zero()


def test_exp_frac():
    assert exp_frac(F(1, 2)) == -1
    assert exp_frac(F(-1, 4)) == root_of_unity(3, 4)
    assert exp_frac(F(5, 1)) == 1
    x = exp_frac(F(1, 48))
    assert (x**48).is_rational() and x**48 == 1


def test_rational_detection():
    z6 = root_of_unity(1, 6)
    v = z6 + z6**5
    assert v.is_rational() and v.rational_value() == 1
    w = z6 - z6
    assert w.is_zero()
    assert (z6 * 0 + F(3, 7)).rational_value() == F(3, 7)


def test_inverse_and_conjugate():
    z = exp_frac(F(2, 9))
    assert z.inv() * z == 1
    assert z.conjugate() == z.inv()  # roots of unity are unitary
    y = one() + z
    assert y.inv() * y == 1
    with pytest.raises(ZeroDivisionError):
        zero().inv()


def test_division_and_powers():
    z5 = root_of_unity(1, 5)
    assert (z5 / z5) == 1
    assert z5**-2 == root_of_unity(3, 5)
    q = (one() + z5) / (one() + z5)
    assert q.is_rational() and q.rational_value() == 1


def test_mod_prime_is_multiplicative():
    # map zeta_M -> t (an element of order M mod q), check on products
    M = 12
    q = _prime(0, M)
    t = pow(primitive_root(q), (q - 1) // M, q)
    a = exp_frac(F(1, 12)) + 3
    b = exp_frac(F(5, 12)) * F(2, 5)
    ab = a * b
    am = a.mod_prime(q, t)
    bm = b.mod_prime(q, t)
    assert ab.mod_prime(q, t) == am * bm % q


def test_equality_against_rationals():
    assert one() == 1
    assert zero() == 0
    assert exp_frac(F(1, 3)) != 1
    assert CycNumber(3, {0: F(1, 2)}) == F(1, 2)


def test_to_json_shape():
    z = exp_frac(F(1, 8)) * F(3, 2)
    obj = z.to_json()
    assert set(obj) == {"conductor", "terms"}
    assert obj["terms"] == [[1, "3/2"]]


# ------------------------------------------------- properties of the canonical form


def _t(M):
    """(q, t): a prime q = 1 mod M and an element t of order M mod q."""
    q = _prime(0, M)
    return q, pow(primitive_root(q), (q - 1) // M, q)


term_maps = st.dictionaries(
    st.integers(-200, 200),
    st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
    max_size=5,
)


@st.composite
def numbers(draw, top=None):
    """An element of Q(zeta_M) for a random M dividing 48 or 168."""
    top = top or draw(st.sampled_from([48, 168]))
    return CycNumber(draw(st.sampled_from(divisors(top))), draw(term_maps))


def _rewritten(x, terms, M, c):
    """x, given by its term map, written at a multiple M of its conductor
    with c times a vanishing sum of roots of unity added."""
    k = M // x.conductor
    out = {k * e: v for e, v in terms.items()}
    if M > 1:
        p = factorize(M)[-1][0]  # sum_j zeta_p^j = 0
        for e in range(0, M, M // p):
            out[e] = out.get(e, 0) + c
    return CycNumber(M, out)


@st.composite
def pairs(draw):
    """(a, b, same) at conductors dividing one of 48, 168; b == a when same,
    reached by a rewritten term map or by arithmetic that cancels."""
    top = draw(st.sampled_from([48, 168]))
    M1 = draw(st.sampled_from(divisors(top)))
    M2 = draw(st.sampled_from(divisors(top)))
    terms = draw(term_maps)
    a = CycNumber(M1, terms)
    d = CycNumber(M2, draw(term_maps))
    how = draw(st.sampled_from(["other", "rewritten", "arithmetic"]))
    if how == "rewritten":
        return a, _rewritten(a, terms, lcm(M1, M2), draw(st.integers(-3, 3))), True
    if how == "arithmetic":
        r = draw(st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6)))
        return a, (a * r + d) / r - d / r, True
    return a, d, False


@settings(max_examples=150)
@given(pairs())
def test_equality_is_equality_of_fields(abs_):
    a, b, same = abs_
    M = lcm(a.conductor, b.conductor)
    pa, pb = a.promote(M), b.promote(M)
    fields_agree = pa.coords == pb.coords and pa.den == pb.den
    assert (a == b) == fields_agree == (b == a) == (a - b).is_zero()
    if same:
        assert a == b
    if a == b:
        q, t = _t(M)
        assert pa.mod_prime(q, t) == pb.mod_prime(q, t)


@settings(max_examples=100)
@given(numbers(), st.sampled_from([1, 2, 3, 5, 7]))
def test_promote_keeps_the_value(x, k):
    M = x.conductor * k
    y = x.promote(M)
    assert y == x and y.conductor == M
    q, t = _t(M)
    assert y.mod_prime(q, t) == x.mod_prime(q, pow(t, k, q))


@settings(max_examples=100)
@given(st.sampled_from([48, 168]).flatmap(lambda top: st.tuples(numbers(top), numbers(top))))
def test_mod_prime_is_a_ring_map(ab):
    a, b = ab
    M = lcm(a.conductor, b.conductor)
    q, t = _t(M)

    def image(x):
        return x.mod_prime(q, pow(t, M // x.conductor, q))

    assert image(a + b) == (image(a) + image(b)) % q
    assert image(a * b) == image(a) * image(b) % q
    assert image(-a) == -image(a) % q


@settings(max_examples=100)
@given(numbers())
def test_inverse(x):
    if not x:
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    assert x.inv() * x == 1
    assert (x / x).is_rational() and x / x == 1


def _parse(text, M):
    """The value of a printed number: a sum of terms r or r*zM^e."""
    total = zero(M)
    for bit in text.split(" + "):
        r, _, power = bit.partition("*z%d^" % M)
        total = total + F(r) * root_of_unity(int(power or 0), M)
    return total


@settings(max_examples=150)
@given(numbers(), st.integers(-3, 3), st.data())
def test_text_depends_only_on_the_value(x, c, data):
    terms = {e: F(v, x.den) for e, v in enumerate(x.coords)}
    y = _rewritten(x, terms, x.conductor, c)
    assert y == x and str(y) == str(x) == repr(x)
    assert _parse(str(x), x.conductor) == x
    # a rational multiple of one root of unity prints as that monomial
    r = data.draw(st.builds(F, st.integers(-5, 5).filter(bool), st.integers(1, 6)))
    e = data.draw(st.integers(0, x.conductor - 1))
    m = root_of_unity(e, x.conductor) * r
    text = str(m)
    assert _parse(text, x.conductor) == m
    assert m.is_rational() or text.count("*z") == 1


def test_text_of_monomials():
    assert str(root_of_unity(47, 48)) == "1*z48^47"
    assert str(-root_of_unity(23, 48)) == "1*z48^47"
    assert str(root_of_unity(23, 48) * F(-1, 2)) == "1/2*z48^47"
    assert str(root_of_unity(24, 48) * 3) == "-3"
    assert str(root_of_unity(5, 15)) == "1*z15^5"
    assert str(-root_of_unity(5, 15)) == "-1*z15^5"  # -zeta_15^5 is no power of zeta_15
    assert str(root_of_unity(1, 12) + 1) == "1 + 1*z12^1"
    assert str(zero(12)) == "0"
