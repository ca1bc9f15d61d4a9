import cmath
import itertools
import random
import tracemalloc
from fractions import Fraction as F
from functools import reduce
from math import gcd, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discweil import cyclo, subgroups
from discweil.cyclo import exp_frac
from discweil.fqmod import (
    DegenerateFormError,
    FqModule,
    direct_sum,
    hyperbolic,
    hyperbolic_pair,
    p_primary_decomposition,
)
from discweil.subgroups import EnumerationBoundError, _byte_check


def element_list(m):
    """All elements of m as coordinate tuples, in index order (lexicographic)."""
    return tuple(itertools.product(*[range(d) for d in m.orders]))


def matmul_mod(A, B, L):
    """A @ B mod L for non-negative int64 arrays, reduced after every product.

    The oracle for the module's tables, which take plain int64 products and
    reduce once, under the module's range rule.
    """
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    t = np.empty_like(out)
    for j in range(A.shape[1]):
        np.multiply(A[:, j, None], B[None, j], out=t)
        t %= L
        out += t
        out %= L
    return out


def smul(m, k, x):
    """k x, coordinates reduced."""
    return tuple((k * a) % d for a, d in zip(x, m.orders))


def test_hyperbolic_values():
    m = hyperbolic(6)
    assert m.orders == (6, 6)
    assert m.size == 36
    assert m.level == 6
    assert m.q_value((1, 1)) == F(1, 6)
    assert m.q_value((2, 3)) == 0  # 6/6 = 1 = 0 mod 1
    assert m.b_value((1, 0), (0, 1)) == F(1, 6)
    assert m.b_value((1, 0), (1, 0)) == 0


def test_bilinearity_and_polarization():
    m = hyperbolic_pair(4, 2)
    els = element_list(m)
    for x in els[:12]:
        for y in els[:12]:
            bx = (m.q_value(m.add(x, y)) - m.q_value(x) - m.q_value(y)) % 1
            assert bx == m.b_value(x, y)


@pytest.mark.parametrize("m", [hyperbolic_pair(4, 2), direct_sum(hyperbolic(3), FqModule((4,), [F(3, 8)], [[F(3, 4)]]))])
def test_pairing_table_is_b_on_generators(m):
    # one cached read-only r x |D| table: L*B(g_j, x), also read by b_ints
    els = element_list(m)
    gens = [tuple(int(i == j) for i in range(len(m.orders))) for j in range(len(m.orders))]
    assert m.pairing is m.pairing and not m.pairing.flags.writeable
    assert m.pairing.tolist() == [[m.b_int(g, x) for x in els] for g in gens]
    for x in els[::5]:
        assert m.b_ints(x).tolist() == [m.b_int(x, y) for y in els]


def test_index_round_trip():
    m = hyperbolic_pair(3, 3)
    for i in range(m.size):
        assert m.index(m.element_at(i)) == i
    # index reduces coordinates
    assert m.index((4, -2, 3, 5)) == m.index((1, 1, 0, 2))


def test_isotropic_count_brute_force():
    for N, Np in [(2, 1), (3, 1), (4, 2), (6, 1)]:
        m = hyperbolic_pair(N, Np)
        want = {i for i in range(m.size) if m.q_value(m.element_at(i)) == 0}
        assert set(m.isotropic_indices) == want


def test_gauss_sum_against_direct_exponential_sum():
    for mod in [hyperbolic(5), hyperbolic_pair(2, 2), FqModule((3,), [F(1, 3)], [[F(2, 3)]])]:
        s = F(0)
        for x in element_list(mod):
            s = s + exp_frac(mod.q_value(x))
        assert s == mod.gauss_sum()


def test_signatures():
    assert hyperbolic_pair(6, 1).signature_mod8() == 0
    assert hyperbolic_pair(6, 3).signature_mod8() == 0
    # Z/2 with Q(x) = x^2/4 has signature 1; Z/3 with Q(x) = x^2/3 has 2
    a1 = FqModule((2,), [F(1, 4)], [[F(1, 2)]])
    a2 = FqModule((3,), [F(1, 3)], [[F(2, 3)]])
    assert a1.signature_mod8() == 1
    assert a2.signature_mod8() == 2


def _cyclic(d, q):
    """Z/d with Q(x) = q x^2, so B(x, y) = 2 q x y."""
    return FqModule((d,), [q], [[2 * q]])


# Z/p with Q = a x^2/p (a a residue or a non-residue), Z/2 with Q = +-x^2/4,
# Z/4 with Q = u x^2/8 (u odd)
COMPONENTS = (
    [_cyclic(p, F(a, p)) for p, n in ((3, 2), (5, 2), (7, 3)) for a in (1, n)]
    + [_cyclic(2, F(a, 4)) for a in (1, 3)]
    + [_cyclic(4, F(u, 8)) for u in (1, 3, 5, 7)]
)


def negated(m):
    """D(-1): the same group with Q and B negated."""
    return FqModule(m.orders, [-q for q in m.qs], [[-b for b in row] for row in m.bs])


def _float_signature(m):
    """Test oracle: the angle of sum e(Q(x)), in eighths of a turn, by floats."""
    g = sum(cmath.exp(2j * cmath.pi * float(m.q_value(x))) for x in element_list(m))
    assert abs(abs(g) ** 2 - m.size) < 1e-6
    return round(cmath.phase(g) / (cmath.pi / 4)) % 8


@settings(max_examples=60)
@given(st.lists(st.sampled_from(range(len(COMPONENTS))), min_size=1, max_size=3))
@example([0])  # Z/3: |D| = 3
@example([6, 0, 2])  # Z/2 + Z/3 + Z/5: |D| = 30
@example([8, 9])  # Z/4 + Z/4: |D| = 16
def test_signature_against_float_oracle(picks):
    parts = [COMPONENTS[i] for i in picks]
    m = reduce(direct_sum, parts)
    s = m.signature_mod8()
    assert s == _float_signature(m)
    assert s == sum(p.signature_mod8() for p in parts) % 8


def test_direct_sum_block_structure():
    a = hyperbolic(2)
    b = hyperbolic(3)
    m = direct_sum(a, b)
    assert m.orders == (2, 2, 3, 3)
    assert m.q_value((1, 1, 1, 1)) == (F(1, 2) + F(1, 3)) % 1
    assert m.b_value((1, 0, 0, 0), (0, 0, 1, 0)) == 0  # blocks orthogonal


def test_json_round_trip():
    m = hyperbolic_pair(4, 2)
    m2 = FqModule.from_json(m.to_json())
    assert m2 == m
    assert m2.q_value((1, 1, 1, 1)) == m.q_value((1, 1, 1, 1))


def test_p_primary_decomposition():
    m = hyperbolic_pair(30, 6)
    parts = p_primary_decomposition(m)
    assert [p for p, _, _ in parts] == [2, 3, 5]
    sizes = 1
    for p, comp, emb in parts:
        sizes *= comp.size
        # embeddings carry the component form back into m
        for j, g in enumerate(emb):
            assert m.q_value(g) == comp.q_value(
                tuple(1 if k == j else 0 for k in range(len(comp.orders)))
            )
    assert sizes == m.size


def test_trivial_module():
    m = hyperbolic(1)
    assert m.size == 1
    assert m.gauss_sum() == 1


def test_degenerate_forms_are_refused():
    # Z/4 with Q = x^2/4: B(x, y) = xy/2 vanishes on the radical {0, 2}
    with pytest.raises(DegenerateFormError):
        FqModule((4,), [F(1, 4)], [[F(1, 2)]])
    # (Z/2)^2 with Q = B = 0: everything is radical
    with pytest.raises(DegenerateFormError):
        FqModule((2, 2), [0, 0], [[0, 0], [0, 0]])


def test_from_json_names_a_missing_or_malformed_field():
    good = hyperbolic(2).to_json()
    for key in good:
        bad = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=key):
            FqModule.from_json(bad)
        with pytest.raises(ValueError, match=key):
            FqModule.from_json(dict(good, **{key: [[None]]}))
    with pytest.raises(ValueError):
        FqModule.from_json([1])
    assert FqModule.from_json(good) == hyperbolic(2)


def test_element_table_has_no_overflow():
    # Z/d with Q = (d-2) x^2 / d and d = 3000017: L*Q(x) = (d-2) x^2 mod d
    # overflows int64 unless it is reduced between the two products
    d = 3000017
    m = FqModule((d,), [F(d - 2, d)], [[F(2 * (d - 2), d)]])
    assert m.level == d
    assert m.radical_size() == 1
    rng = random.Random(1)
    for i in [rng.randrange(d) for _ in range(2000)]:
        assert int(m.q_ints[i]) == m.q_int((i,)) == (d - 2) * i * i % d


def test_module_refuses_exponents_beyond_int64():
    # the range rule of the element tables, checked before the byte budget
    # and before any table is built
    p = 2**31 - 1
    # (L - 1) sum_j (d_j - 1) = 4 (p - 1)^2 >= 2^63, at a level below 2^31
    diag = [[F(2, p) if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(EnumerationBoundError, match="int64"):
        FqModule((p,) * 4, [F(1, p)] * 4, diag)
    # a level above 2^31, whose exponents do not fit int32
    d = 2**31 + 1
    with pytest.raises(EnumerationBoundError, match="int64"):
        _cyclic(d, F(1, d))
    # inside the range, its 2^31 - 1 elements are over the byte budget
    with pytest.raises(EnumerationBoundError, match="element tables"):
        _cyclic(p, F(1, p))


def test_element_tables_are_charged_before_they_are_built(monkeypatch):
    # (Z/300)^2 with Q = xy/300: 90,000 elements, charged 8 (3r + 1) = 56
    # bytes each for coords, pairing, q_ints and the product q_ints is
    # summed from.  One byte under the charge, construction is refused with
    # nothing built; at the charge, construction and q_ints stay within it.
    n, charge = 300**2, 56 * 300**2
    for budget in (charge - 1, charge):
        monkeypatch.setattr(subgroups, "BYTE_BUDGET", budget)
        tracemalloc.start()
        try:
            if budget < charge:
                with pytest.raises(EnumerationBoundError, match="element tables"):
                    hyperbolic(300)
            else:
                m = hyperbolic(300)
                assert m.size == n and m.q_ints.shape == (n,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (2**16 if budget < charge else charge + 2**15)


def test_signature_holds_no_table_of_powers():
    # the table of the powers of zeta_1009 holds 2 * 1008 entries, not a dense
    # 1009 x 1008 table of Python ints (8 MiB)
    m = FqModule((1009,), [F(1, 1009)], [[F(2, 1009)]])
    m.q_ints
    for f in vars(cyclo).values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert m.signature_mod8() == 0
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 2**20


# ------------------------------------- presentation checks against Fractions


def mod1_by_fraction(fr):
    fr = F(fr)
    return fr - (fr.numerator // fr.denominator)


def module_by_fractions(orders, qs, bs):
    """The module of a presentation, checked by the Fraction loop over the
    values in Q/Z that preceded the integer tables (test oracle)."""
    m = object.__new__(FqModule)
    m.orders = tuple(int(d) for d in orders)
    m.qs = tuple(mod1_by_fraction(q) for q in qs)
    m.bs = tuple(tuple(mod1_by_fraction(b) for b in row) for row in bs)
    k = len(m.orders)
    if any(d < 1 for d in m.orders):
        raise ValueError("generator orders must be positive")
    if len(m.qs) != k or len(m.bs) != k or any(len(r) != k for r in m.bs):
        raise ValueError("presentation size mismatch")
    for i in range(k):
        for j in range(k):
            if m.bs[i][j] != m.bs[j][i]:
                raise ValueError("bilinear values not symmetric")
            if mod1_by_fraction(m.orders[i] * m.bs[i][j]) != 0:
                raise ValueError("bilinear value incompatible with order")
        if m.bs[i][i] != mod1_by_fraction(2 * m.qs[i]):
            raise ValueError("B(g,g) must equal 2 Q(g)")
        if mod1_by_fraction(m.orders[i] ** 2 * m.qs[i]) != 0:
            raise ValueError("Q value incompatible with order")
    L = m.level
    if L > 2**31 or (L - 1) * sum(d - 1 for d in m.orders) >= 2**63:
        raise EnumerationBoundError("level %d: exponents overflow int64 products or int32" % L)
    _byte_check(m.size, 8 * (3 * k + 1), "the element tables")
    if m.radical_size() != 1:
        raise DegenerateFormError("bilinear form is degenerate")
    return m


FLAWS = ["none", "asymmetric", "order", "diagonal", "q", "noise", "nonpositive", "size"]


@st.composite
def presentations(draw):
    """A small presentation, valid by construction, then given one flaw.

    B(g_i, g_j) is drawn from (1/gcd(d_i, d_j))Z and Q(g_i) from (1/2d_i)Z
    with an even numerator at odd d_i; each value may sit outside [0, 1).
    """
    k = draw(st.integers(1, 3))
    orders = [draw(st.integers(1, 8)) for _ in range(k)]
    shift = st.integers(-2, 2)
    qs = []
    bs = [[F(0)] * k for _ in range(k)]
    for i, d in enumerate(orders):
        s = draw(st.integers(0, 2 * d - 1))
        q = F(s - s % 2 if d % 2 else s, 2 * d)
        qs.append(q + draw(shift))
        bs[i][i] = 2 * q + draw(shift)
        for j in range(i + 1, k):
            g = gcd(d, orders[j])
            b = F(draw(st.integers(0, g - 1)), g)
            bs[i][j], bs[j][i] = b + draw(shift), b + draw(shift)
    flaw = draw(st.sampled_from(FLAWS))
    i = draw(st.integers(0, k - 1))
    j = draw(st.integers(0, k - 1))
    if flaw == "asymmetric" and i != j:
        bs[i][j] += F(1, draw(st.integers(2, 16)))
    elif flaw == "order":
        bs[i][j] = bs[j][i] = F(1, 2 * lcm(orders[i], orders[j]))
    elif flaw == "diagonal":
        bs[i][i] += F(1, orders[i])
    elif flaw == "q":
        qs[i] += F(1, 2)
    elif flaw == "noise":
        bs[i][j] = F(draw(st.integers(-20, 20)), draw(st.integers(1, 20)))
    elif flaw == "nonpositive":
        orders[i] = draw(st.integers(-1, 0))
    elif flaw == "size":
        bs = bs[:-1]
    return orders, qs, bs


def _outcome(build):
    try:
        return build()
    except (ValueError, EnumerationBoundError) as e:
        return type(e), str(e)


@settings(max_examples=400)
@given(presentations())
def test_integer_checks_match_the_fraction_loop(pres):
    got = _outcome(lambda: FqModule(*pres))
    want = _outcome(lambda: module_by_fractions(*pres))
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, FqModule)
        assert got == want and hash(got) == hash(want)
        assert got.to_json() == want.to_json()


def test_module_refuses_non_integer_orders_and_non_rational_values():
    q, b = (F(1, 8),), ((F(1, 4),),)
    assert FqModule((4,), q, b).orders == (4,)
    for orders in [(4.9,), ("4",), (F(4),)]:
        with pytest.raises(TypeError, match="orders must be integers"):
            FqModule(orders, q, b)
    with pytest.raises(TypeError, match="rational"):
        FqModule((4,), (0.125,), b)
    with pytest.raises(TypeError, match="rational"):
        FqModule((4,), q, ((0.25,),))
    with pytest.raises(TypeError, match="rational"):
        FqModule((4,), ("1/8",), b)
    # an integer type other than int is read by its value
    m = FqModule((np.int64(4),), q, b)
    assert m == FqModule((4,), q, b) and type(m.orders[0]) is int


@pytest.mark.parametrize("N", range(1, 13))
def test_hyperbolic_pair_is_the_direct_sum(monkeypatch, N):
    built = []
    init = FqModule.__init__

    def counting_init(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(FqModule, "__init__", counting_init)
    for Np in [d for d in range(1, N + 1) if N % d == 0]:
        hyperbolic_pair.cache_clear()
        built.clear()
        m = hyperbolic_pair(N, Np)
        assert built == [(N, N, Np, Np)]
        assert hyperbolic_pair(N, Np) is m and len(built) == 1
        want = direct_sum(hyperbolic(N), hyperbolic(Np))
        assert m == want and hash(m) == hash(want)
        assert m.to_json() == want.to_json()
    hyperbolic_pair.cache_clear()
