import json
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discweil.arith import divisors, factorize, primitive_root
from discweil.cyclo import (
    CycNumber,
    coordinates,
    cyclotomic_poly,
    degree,
    exp_frac,
    exp_frac_product,
    from_coordinates,
    from_powers,
    root_of_unity,
)
from discweil.linalg import _prime

# The rule under test: a rational value is always a Fraction, and a CycNumber
# is always irrational.


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
    assert z8**8 == 1 and type(z8**8) is F
    assert z8**2 == root_of_unity(1, 4)
    assert z8 * root_of_unity(7, 8) == 1
    assert root_of_unity(3, 8) == z8**3
    assert root_of_unity(4, 8) == -1 and type(root_of_unity(4, 8)) is F


def test_geometric_sums_vanish():
    for M in (2, 3, 4, 6, 9, 12):
        s = F(0)
        for a in range(M):
            s = s + root_of_unity(a, M)
        assert type(s) is F and s == 0


def test_exp_frac():
    assert exp_frac(F(1, 2)) == -1
    assert exp_frac(F(-1, 4)) == root_of_unity(3, 4)
    assert exp_frac(F(5, 1)) == 1 and type(exp_frac(5)) is F
    x = exp_frac(F(1, 48))
    assert type(x**48) is F and x**48 == 1


def test_rational_detection():
    z6 = root_of_unity(1, 6)
    assert z6 + z6**5 == F(1) and type(z6 + z6**5) is F
    assert type(z6 - z6) is F and z6 - z6 == 0
    assert z6 * 0 + F(3, 7) == F(3, 7) and type(z6 * 0 + F(3, 7)) is F
    assert from_coordinates(12, [5, 0, 0, 0]) == 5 and type(from_coordinates(12, [5, 0, 0, 0])) is F
    assert type(from_powers(6, {1: 1, 5: 1})) is F


def test_inverse_and_conjugate():
    z = exp_frac(F(2, 9))
    assert z.inv() * z == 1
    assert z.conjugate() == z.inv()  # roots of unity are unitary
    y = 1 + z
    assert y.inv() * y == 1
    with pytest.raises(ZeroDivisionError):
        z / (z - z)


def test_division_and_powers():
    z5 = root_of_unity(1, 5)
    assert (z5 / z5) == 1
    assert z5**-2 == root_of_unity(3, 5)
    q = (1 + z5) / (1 + z5)
    assert type(q) is F and q == 1


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
    # an irrational number is never equal to a rational one, either way round
    assert exp_frac(F(1, 3)) != 1 and 1 != exp_frac(F(1, 3))
    assert not exp_frac(F(1, 4)) == F(1, 2)
    assert from_powers(3, {0: F(1, 2)}) == F(1, 2)
    assert type(from_powers(3, {0: F(1, 2)})) is F


def test_to_json_shape():
    z = exp_frac(F(1, 8)) * F(3, 2)
    obj = z.to_json()
    assert set(obj) == {"conductor", "terms"}
    assert obj["terms"] == [[1, "3/2"]]


def test_coordinates_of_either_kind():
    assert coordinates(4, F(3)) == [3, 0]
    assert coordinates(12, root_of_unity(1, 4)) == [0, 0, 0, 1]
    assert coordinates(12, root_of_unity(1, 12) * 2 - 1) == [-1, 2, 0, 0]
    with pytest.raises(ValueError):
        coordinates(4, F(1, 2))
    with pytest.raises(ValueError):
        coordinates(8, root_of_unity(1, 8) / 3)


# ------------------------------------------------- properties of the canonical form


def _t(M):
    """(q, t): a prime q = 1 mod M and an element t of order M mod q."""
    q = _prime(0, M)
    return q, pow(primitive_root(q), (q - 1) // M, q)


def _image(x, M, q, t):
    """x in F_q after zeta_M -> t, for a value of conductor dividing M."""
    if isinstance(x, CycNumber):
        return x.mod_prime(q, pow(t, M // x.conductor, q))
    return F(x).numerator * pow(F(x).denominator, -1, q) % q


def _galois_fixed(x, M):
    """Whether x, of conductor dividing M, has one image mod q under every
    zeta_M -> t^k, k prime to M: the Galois-invariant values, the rationals."""
    q, t = _t(M)
    return len({_image(x, M, q, pow(t, k, q)) for k in range(1, M + 1) if gcd(k, M) == 1}) == 1


term_maps = st.dictionaries(
    st.integers(-200, 200),
    st.builds(F, st.integers(-5, 5), st.integers(1, 6)),
    max_size=5,
)


@st.composite
def numbers(draw, top=None):
    """An element of Q(zeta_M) for a random M dividing top (48 or 168 if not given)."""
    top = top or draw(st.sampled_from([48, 168]))
    return from_powers(draw(st.sampled_from(divisors(top))), draw(term_maps))


def irrationals(top=None):
    return numbers(top).filter(lambda x: isinstance(x, CycNumber))


@st.composite
def results(draw):
    """(value, M): a result of one of the operations that hand out numbers,
    at a conductor dividing M.  Operands are often chosen so that the result
    is rational: cancelling pairs, Galois conjugates, powers of roots."""
    top = draw(st.sampled_from([12, 48]))
    a = draw(numbers(top))
    b = draw(st.one_of(numbers(top), st.builds(F, st.integers(-4, 4), st.integers(1, 3))))
    r = draw(st.builds(F, st.integers(-4, 4), st.integers(1, 3)))
    b = draw(st.sampled_from([b, a, -a + r, a * r]))
    if isinstance(a, CycNumber) and draw(st.booleans()):
        b = a.conjugate()
    op = draw(st.sampled_from(["+", "-", "*", "/", "**", "root", "exp", "powers", "coords"]))
    if op == "+":
        return a + b, top
    if op == "-":
        return a - b, top
    if op == "*":
        return a * b, top
    if op == "/":
        assume(b != 0)
        return a / b, top
    if op == "**":
        base = draw(st.sampled_from([a, root_of_unity(draw(st.integers(0, top - 1)), top)]))
        n = draw(st.integers(-4, 12))
        assume(n >= 0 or base != 0)
        return base**n, top
    if op == "root":
        return root_of_unity(draw(st.integers(-top, 2 * top)), top), top
    if op == "exp":
        return exp_frac(F(draw(st.integers(-2 * top, 2 * top)), top)), top
    if op == "powers":
        return from_powers(top, draw(term_maps)), top
    coords = [draw(st.integers(-3, 3)) for _ in range(degree(top))]
    if draw(st.booleans()):
        coords[1:] = [0] * (len(coords) - 1)
    return from_coordinates(top, coords), top


@settings(max_examples=400)
@given(results())
def test_every_rational_result_is_a_fraction(xM):
    x, M = xM
    assert isinstance(x, (F, CycNumber))
    assert isinstance(x, F) == _galois_fixed(x, M)


@st.composite
def pairs(draw):
    """(a, b, same): a irrational, b any value at a conductor dividing one of
    48, 168; b == a when same, reached by a rewritten term map or by
    arithmetic that cancels."""
    top = draw(st.sampled_from([48, 168]))
    M1 = draw(st.sampled_from(divisors(top)))
    M2 = draw(st.sampled_from(divisors(top)))
    terms = draw(term_maps)
    a = from_powers(M1, terms)
    assume(isinstance(a, CycNumber))
    d = from_powers(M2, draw(term_maps))
    how = draw(st.sampled_from(["other", "rewritten", "arithmetic"]))
    if how == "rewritten":
        return a, _rewritten(a, terms, lcm(M1, M2), draw(st.integers(-3, 3))), True
    if how == "arithmetic":
        r = draw(st.builds(F, st.integers(-6, 6).filter(bool), st.integers(1, 6)))
        return a, (a * r + d) / r - d / r, True
    return a, d, False


def _rewritten(x, terms, M, c):
    """x, given by its term map, written at a multiple M of its conductor
    with c times a vanishing sum of roots of unity added."""
    k = M // x.conductor
    out = {k * e: v for e, v in terms.items()}
    if M > 1:
        p = factorize(M)[-1][0]  # sum_j zeta_p^j = 0
        for e in range(0, M, M // p):
            out[e] = out.get(e, 0) + c
    return from_powers(M, out)


@settings(max_examples=150)
@given(pairs())
def test_equality_is_equality_of_fields(abs_):
    a, b, same = abs_
    fields_agree = False
    if isinstance(b, CycNumber):
        M = lcm(a.conductor, b.conductor)
        pa, pb = a.promote(M), b.promote(M)
        fields_agree = pa.coords == pb.coords and pa.den == pb.den
    assert (a == b) == fields_agree == (b == a) == (a - b == 0)
    if same:
        assert a == b
    if a == b:
        M = lcm(a.conductor, b.conductor)
        q, t = _t(M)
        assert _image(a, M, q, t) == _image(b, M, q, t)


@settings(max_examples=100)
@given(irrationals(), st.sampled_from([1, 2, 3, 5, 7]))
def test_promote_keeps_the_value(x, k):
    M = x.conductor * k
    y = x.promote(M)
    assert y == x and y.conductor == M
    q, t = _t(M)
    assert y.mod_prime(q, t) == x.mod_prime(q, pow(t, k, q))


@settings(max_examples=100)
@given(st.sampled_from([48, 168]).flatmap(lambda top: st.tuples(irrationals(top), irrationals(top))))
def test_mod_prime_is_a_ring_map(ab):
    a, b = ab
    M = lcm(a.conductor, b.conductor)
    q, t = _t(M)

    def image(x):
        return _image(x, M, q, t)

    assert image(a + b) == (image(a) + image(b)) % q
    assert image(a * b) == image(a) * image(b) % q
    assert image(-a) == -image(a) % q


@settings(max_examples=100)
@given(irrationals())
def test_inverse(x):
    assert x.inv() * x == 1 and type(x.inv() * x) is F
    assert isinstance(x.inv(), CycNumber)
    assert type(x / x) is F and x / x == 1


def _parse(text, M):
    """The value of a printed number: a sum of terms r or r*zM^e."""
    total = F(0)
    for bit in text.split(" + "):
        r, _, power = bit.partition("*z%d^" % M)
        total = total + F(r) * root_of_unity(int(power or 0), M)
    return total


@settings(max_examples=150)
@given(irrationals(), st.integers(-3, 3), st.data())
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
    assert isinstance(m, F) or text.count("*z") == 1


def test_text_of_monomials():
    assert str(root_of_unity(47, 48)) == "1*z48^47"
    assert str(-root_of_unity(23, 48)) == "1*z48^47"
    assert str(root_of_unity(23, 48) * F(-1, 2)) == "1/2*z48^47"
    assert str(root_of_unity(24, 48) * 3) == "-3"
    assert str(root_of_unity(5, 15)) == "1*z15^5"
    assert str(-root_of_unity(5, 15)) == "-1*z15^5"  # -zeta_15^5 is no power of zeta_15
    assert str(root_of_unity(1, 12) + 1) == "1 + 1*z12^1"
    assert str(root_of_unity(1, 12) - root_of_unity(1, 12)) == "0"


def test_text_of_every_power_and_its_negative():
    # the text form finds a power by the sparse row of its primitive part:
    # -zeta^e is the power zeta^(e + M/2) at even M and no power at odd M
    for M in range(1, 49):
        for e in range(M):
            z = root_of_unity(e, M)
            if 2 * e % M == 0:  # +-1, a Fraction
                sign = 1 if e == 0 else -1
                assert type(z) is F and str(z) == str(F(sign)) and str(-z) == str(F(-sign))
                continue
            assert str(z) == "1*z%d^%d" % (M, e)
            if M % 2 == 0:
                assert str(-z) == "1*z%d^%d" % (M, (e + M // 2) % M)
            else:
                assert str(-z) == "-1*z%d^%d" % (M, e)


def test_text_depends_on_the_conductor():
    # equal values print at the conductor each computation reached
    a, b = root_of_unity(3, 72), root_of_unity(1, 24)
    assert a == b and (str(a), str(b)) == ("1*z72^3", "1*z24^1")
    assert a.to_json() != b.to_json()
    assert str(exp_frac(F(3, 72))) == "1*z24^1"  # exp_frac reduces s first


# ----------------------------------------- products of e(s)^c as one root


def running_product(pairs):
    """prod exp_frac(s) ** c, one CycNumber power and product a pair (oracle)."""
    out = F(1)
    for s, c in pairs:
        out = out * exp_frac(s) ** c
    return out


def _printed(x):
    return (type(x), repr(x), json.dumps(x.to_json() if isinstance(x, CycNumber) else str(x)))


phase_pairs = st.lists(
    st.tuples(
        st.builds(F, st.integers(-60, 60), st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24, 72])),
        st.integers(-4, 4),
    ),
    max_size=6,
)


@settings(max_examples=300)
@given(phase_pairs, phase_pairs, st.sampled_from([None, F(0), F(1, 2)]))
def test_exp_frac_product_is_the_running_product(head, tail, back):
    # with back, head's inverse follows it, and then e(back): the partial
    # product returns to 1 or -1 before tail runs
    pairs = list(head)
    if back is not None:
        pairs += [(s, -c) for s, c in reversed(head)] + [(back, 1)]
    pairs += tail
    assert _printed(exp_frac_product(pairs)) == _printed(running_product(pairs))


@pytest.mark.parametrize(
    "pairs,text",
    [
        ([], "1"),
        ([(F(1, 2), 3)], "-1"),
        ([(F(1, 4), 2), (F(1, 2), 1)], "1"),
        ([(F(1, 3), 1), (F(1, 2), 1)], "-1*z3^1"),  # odd conductor: keeps its sign
        ([(F(1, 8), 1), (F(1, 3), 2), (F(-1, 3), 2)], "1*z24^3"),  # the lcm, not 8
        ([(F(1, 8), 4), (F(1, 6), 1)], "1*z6^4"),  # e(1/8)^4 = -1 adds no conductor
        ([(F(1, 24), 5), (F(-5, 24), 1), (F(1, 12), 1)], "1*z12^1"),  # restarted at 1
    ],
)
def test_exp_frac_product_pins(pairs, text):
    assert str(exp_frac_product(pairs)) == text
    assert _printed(exp_frac_product(pairs)) == _printed(running_product(pairs))
