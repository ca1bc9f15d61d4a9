import json
from fractions import Fraction as F
from math import ceil, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discweil.borcherds import InputForm, eta_identify, lift
import discweil.qseries as qseries
from discweil.cyclo import CycNumber, exp_frac, from_powers
from discweil.fqmod import hyperbolic_pair
from discweil.lnn_catalog import assemble, relations_Np, selfdual_list_Np
from discweil.qseries import (
    EtaFactor,
    EtaQuotient,
    FracQSeries,
    assert_identity,
    equals_to_precision,
    eta_series,
    eta_series_naive,
    first_mismatch,
    product_terms,
)


def test_pentagonal_equals_naive_product():
    a = eta_series(1, 0, 150)
    b = eta_series_naive(1, 0, 150)
    assert equals_to_precision(a, b)


@pytest.mark.parametrize(
    "d,r",
    [(2, 0), (F(1, 2), 0), (1, F(1, 2)), (3, F(2, 3)), (F(3, 4), F(1, 6))],
)
def test_scaled_shifted_oracle(d, r):
    assert equals_to_precision(eta_series(d, r, 40), eta_series_naive(d, r, 40))


def test_leading_data():
    e1 = eta_series(1, F(1, 2), 10)
    assert e1.lead() == F(1, 24)
    assert e1.coefficient(e1.lead()) == exp_frac(F(1, 48))


def test_integer_shift_law():
    # eta(d tau + 1) = e(1/24) eta(d tau)
    z24 = exp_frac(F(1, 24))
    assert equals_to_precision(eta_series(2, 1, 30), eta_series(2, 0, 30).scale(z24))


def test_substitution_law():
    # eta(5 tau) is eta(tau) with q -> q^5
    e5 = eta_series(5, 0, 50)
    e1 = eta_series(1, 0, 10)
    sub = FracQSeries(e1.exp_den, {k * 5: v for k, v in e1.terms.items()}, 50)
    assert equals_to_precision(e5, sub)


def test_series_arithmetic():
    x = eta_series(1, 0, 25)
    y = eta_series(2, 0, 25)
    assert (x * y).lead() == F(1, 8)
    square = EtaQuotient([EtaFactor(1, 0, 2)]).expand(25)
    assert equals_to_precision(x * x, square)


def test_expand_truncation_bookkeeping():
    # a quotient is known to the relative precision of its shallowest factor,
    # as a quotient of eta series each truncated at the requested order
    inv4 = EtaQuotient([EtaFactor(4, 0, -1)])
    assert inv4.expand(10).trunc == 10 - 2 * F(4, 24) == 10 - inv4.loss()
    rhs7 = EtaQuotient(
        [EtaFactor(7, 0, 8), EtaFactor(1, 0, -1), EtaFactor(49, 0, -1)],
        exp_frac(F(6, 48)),
    )
    assert rhs7.loss() == F(49, 24) - F(7 * 8 - 1 - 49, 24)
    assert rhs7.expand(40).trunc == 40 - rhs7.loss()


def test_coefficient_access_guard():
    x = eta_series(1, 0, 5)
    assert x.coefficient(F(1, 24)) == 1
    assert x.coefficient(F(1, 2)) == 0
    with pytest.raises(ValueError):
        x.coefficient(F(7))


def test_empty_series_guard():
    with pytest.raises(ValueError):
        eta_series(1, 0, F(1, 24))
    with pytest.raises(ValueError):
        EtaQuotient([EtaFactor(1, 0, 2), EtaFactor(3, 0, -1)]).expand(F(1, 8))


def test_monomial():
    m = FracQSeries.monomial(F(1, 3), F(2), 6)
    assert m.lead() == F(1, 3) and m.coefficient(m.lead()) == 2


def test_prime_shift_identity_small():
    # the p = 2 identity at modest depth, and the constant is forced
    lhs = EtaQuotient([EtaFactor(1, F(1, 2), 1)])
    rhs = EtaQuotient(
        [EtaFactor(2, 0, 3), EtaFactor(1, 0, -1), EtaFactor(4, 0, -1)],
        exp_frac(F(1, 48)),
    )
    rep = assert_identity(lhs, rhs, 80)
    assert rep["equal"] and F(rep["checked_to"]) >= 80
    bad = EtaQuotient(rhs.factors, exp_frac(F(1, 5)))
    rep2 = assert_identity(lhs, bad, 30)
    assert not rep2["equal"]
    assert rep2["first_mismatch"] is not None


def test_identity_reflexive_with_inner_cancellation():
    q = EtaQuotient([EtaFactor(2, F(1, 2), 3), EtaFactor(3, 0, -2)], exp_frac(F(1, 7)))
    rep = assert_identity(q, q, 120)
    assert rep["equal"]


def test_quotient_lead_and_expand_agree():
    q = EtaQuotient([EtaFactor(2, 0, 3), EtaFactor(1, 0, -1)])
    assert q.lead() == F(2 * 3 - 1, 24)
    assert q.expand(20).lead() == q.lead()


def test_text_and_json_round_shape():
    q = EtaQuotient([EtaFactor(2, F(1, 2), 3), EtaFactor(3, 0, -2)], exp_frac(F(1, 7)))
    txt = q.text()
    assert "eta(" in txt and "^3" in txt and "^-2" in txt
    s = eta_series(F(1, 2), F(1, 3), 2)
    obj = s.to_json()
    assert set(obj) == {"exp_den", "terms", "trunc"}
    json.dumps(obj)  # must already be plain data
    assert eta_series(1, 0, 3).text().startswith("q^(1/24)")


# ------------------------------------------- the engine against the oracles


def pentagonal_sides(quotient, trunc):
    """(numerator, denominator) products of pentagonal eta series.

    The prefactor rides with the numerator; only FracQSeries multiplication
    is used, so this route shares nothing with product_terms.
    """
    num = FracQSeries.monomial(0, quotient.prefactor, trunc)
    den = FracQSeries.monomial(0, F(1), trunc)
    for f in quotient.factors:
        e = eta_series(f.scale, f.shift, trunc)
        for _ in range(abs(f.exponent)):
            if f.exponent > 0:
                num = num * e
            else:
                den = den * e
    return num, den


def assert_matches_pentagonal(series, quotient, trunc):
    num, den = pentagonal_sides(quotient, trunc)
    prod = series * den
    assert min(prod.trunc, num.trunc) > num.lead()  # a nonempty comparison
    assert equals_to_precision(prod, num)


eta_factors = st.builds(
    EtaFactor,
    st.sampled_from([F(1, 2), F(1), F(2), F(3)]),
    st.sampled_from([F(0), F(1, 2), F(1, 3)]),
    st.integers(-2, 2),
)


@settings(max_examples=40)
@given(st.lists(eta_factors, min_size=1, max_size=4), st.integers(1, 12))
def test_expand_matches_pentagonal_products(factors, trunc):
    q = EtaQuotient(factors)
    assert_matches_pentagonal(q.expand(trunc), q, trunc)


def test_mixed_sign_lift_matches_pentagonal_products():
    # psi1 of +v^H - v^H' + v^H'' on D_{6,3}: its quotient has a shifted
    # factor, a denominator and a root-of-unity prefactor
    cat = selfdual_list_Np(6, 3)
    f = InputForm.from_combination(
        hyperbolic_pair(6, 3), [(1, cat[3]), (-1, cat[7]), (1, cat[11])]
    )
    res = lift(f, 30)
    assert any(g.shift for g in res.eta1.factors)
    assert any(g.exponent < 0 for g in res.eta1.factors)
    assert_matches_pentagonal(res.psi1, res.eta1, 30)


# ------------------------------- the integer engine against the Fraction one


def fraction_product_terms(factors, M, bound):
    """The Euler-transform recurrence n b_n = sum s_k b_(n-k) in Fractions
    and CycNumbers, each step a sum of products and one division (oracle)."""
    hist = [{} for _ in range(bound)]
    for s, a, c in factors:
        for j in range(1, (bound - 1) // s + 1):
            h = hist[j * s]
            e = a * j % M
            h[e] = h.get(e, 0) - s * c
    sums = []
    for k in range(1, bound):
        v = from_powers(M, hist[k])
        if v:
            sums.append((k, v))
    b = [F(1)] if bound > 0 else []
    for n in range(1, bound):
        acc = F(0)
        for k, v in sums:
            if k > n:
                break
            w = b[n - k]
            if w:
                acc = acc + v * w
        b.append(acc / n)
    return b


def assert_same_terms(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w
        assert isinstance(g, F) == isinstance(w, F)
        assert isinstance(g, (F, CycNumber))


@st.composite
def engine_inputs(draw):
    M = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 12]))
    triple = st.tuples(st.integers(1, 6), st.integers(0, M - 1), st.integers(-30, 30))
    return draw(st.lists(triple, max_size=4)), M, draw(st.integers(0, 80))


@settings(max_examples=60, deadline=None)
@given(engine_inputs())
def test_integer_engine_matches_fraction_engine(case):
    factors, M, bound = case
    assert_same_terms(product_terms(factors, M, bound), fraction_product_terms(factors, M, bound))


def test_engine_past_int64():
    # eta(tau)^-24 = q^-1 times 1/prod(1 - q^n)^24, the reciprocal of Delta
    factors = [(n, 0, -24) for n in range(1, 80)]
    got = product_terms(factors, 1, 80)
    assert got[:6] == [1, 24, 324, 3200, 25650, 176256]
    assert max(got) > 2**63
    assert_same_terms(got, fraction_product_terms(factors, 1, 80))


def test_engine_refuses_a_fraction_exponent():
    with pytest.raises(ValueError):
        product_terms([(1, 0, 1), (2, 1, F(1, 2))], 3, 10)


def test_engine_division_check_catches_a_wrong_reduction(monkeypatch):
    # prod (1 - zeta_3 t) = 1 - zeta_3 t; without the reduction of zeta_3^2,
    # 2 b_2 reads 1 + zeta_3, which 2 does not divide
    assert product_terms([(1, 1, 1)], 3, 3) == [1, -exp_frac(F(1, 3)), 0]
    monkeypatch.setattr(qseries, "fold", lambda M, full: full[: (len(full) + 1) // 2])
    with pytest.raises(ArithmeticError):
        product_terms([(1, 1, 1)], 3, 3)


# ------------------------------- the closed form against the per-n triples


def eta_triples(quotient, bound):
    """The product part of an eta quotient as one engine triple
    (n step, n a mod M, e) per n, over the lcm D of the scale denominators
    and the lcm M of the shift denominators (oracle for the closed form)."""
    live = [f for f in quotient.factors if f.exponent]
    D = lcm(*(f.scale.denominator for f in live))
    M = lcm(*(f.shift.denominator for f in live))
    triples = []
    for f in live:
        step = int(f.scale * D)
        a = int(f.shift * M)
        triples += [(n * step, n * a % M, f.exponent) for n in range(1, (bound - 1) // step + 1)]
    return triples


def engine_outputs(monkeypatch, quotient, trunc):
    """expand(trunc) with the (M, bound, coefficients) of each _euler call."""
    calls = []
    euler = qseries._euler

    def spy(hist, M, bound):
        out = euler(hist, M, bound)
        calls.append((M, bound, out))
        return out

    monkeypatch.setattr(qseries, "_euler", spy)
    series = quotient.expand(trunc)
    monkeypatch.setattr(qseries, "_euler", euler)
    return series, calls


@settings(max_examples=40, deadline=None)
@given(st.lists(eta_factors, min_size=1, max_size=4), st.integers(1, 12))
def test_closed_form_matches_triples(factors, trunc):
    q = EtaQuotient(factors)
    with pytest.MonkeyPatch.context() as mp:
        _, calls = engine_outputs(mp, q, trunc)
    (M, bound, got), = calls
    assert M == lcm(*(f.shift.denominator for f in factors if f.exponent))
    assert_same_terms(got, product_terms(eta_triples(q, bound), M, bound))


def test_expand_never_calls_product_terms(monkeypatch):
    def no_triples(*_):
        raise AssertionError("expand built per-n triples")

    monkeypatch.setattr(qseries, "product_terms", no_triples)
    q = EtaQuotient([EtaFactor(F(1, 2), F(1, 3), -2), EtaFactor(3, F(1, 2), 1)], exp_frac(F(1, 7)))
    assert_matches_pentagonal(q.expand(10), q, 10)


def test_expand_refuses_a_fraction_exponent():
    with pytest.raises(ValueError):
        EtaQuotient([EtaFactor(1, 0, F(1, 2))]).expand(5)


def relation_quotient(N, p):
    """The tau1 quotient of the first (N, p) catalog relation: a constant."""
    rel = relations_Np(N, p)[0]
    dec = [(c, assemble(s)) for c, s in zip(rel, selfdual_list_Np(N, p)) if c]
    return eta_identify(dec)[0]


@pytest.mark.parametrize(
    "quotient",
    [
        EtaQuotient([EtaFactor(1, 0, 1), EtaFactor(2, 0, -1), EtaFactor(2, 0, 1), EtaFactor(1, 0, -1)]),
        relation_quotient(3, 3),
    ],
    ids=["cancelling", "relation(3,3)"],
)
def test_constant_quotient_skips_every_fold(monkeypatch, quotient):
    folds = []
    fold = qseries.fold
    monkeypatch.setattr(qseries, "fold", lambda M, full: folds.append(M) or fold(M, full))
    series, ((_, bound, got),) = engine_outputs(monkeypatch, quotient, 30)
    assert bound > 20 and folds == []
    assert got[0] == 1 and all(type(x) is F and x == 0 for x in got[1:])
    assert series.lead() == 0 and list(series.terms) == [0]


# --------------------------- integer bookkeeping against the Fraction route


def expand_by_fractions(quotient, trunc):
    """EtaQuotient.expand with Fraction bookkeeping (test oracle).

    The coefficients come from the per-n triples; the series is built at the
    scale denominator D, moved by q^lead() through a rescale to
    lcm(D, lead denominator), then scaled by prefactor * e(phase), each step
    a FracQSeries of its own, and every exponent a Fraction.
    """
    trunc = F(trunc)
    live = [f for f in quotient.factors if f.exponent]
    top = max((f.scale for f in live), default=F(0))
    if live and trunc <= top / 24:
        raise ValueError("truncation under the leading exponent gives an empty series")
    D = lcm(*(f.scale.denominator for f in live))
    M = lcm(*(f.shift.denominator for f in live))
    rel = trunc - top / 24
    bound = ceil(rel * D)
    if any(f.exponent != int(f.exponent) for f in live):
        raise ValueError("product exponents must be integers")
    out = FracQSeries(D, dict(enumerate(product_terms(eta_triples(quotient, bound), M, bound))), rel)
    lead = quotient.lead()
    m = lcm(D, lead.denominator)
    d = lead.numerator * (m // lead.denominator)
    out = FracQSeries(m, {k * (m // D) + d: v for k, v in out.terms.items()}, rel + lead)
    phase = sum((f.shift * f.exponent for f in live), F(0)) / 24
    front = quotient.prefactor * exp_frac(phase)
    return out.scale(front) if front != 1 else out


def expanded(route, quotient, trunc):
    """The JSON text of route(quotient, trunc), or its ValueError's message."""
    try:
        return json.dumps(route(quotient, trunc).to_json())
    except ValueError as e:
        return "ValueError: %s" % e


prefactors = st.sampled_from([F(1), F(-2, 3), F(0), exp_frac(F(1, 8)), exp_frac(F(1, 3)) * F(5, 2)])
any_eta_factors = st.builds(
    EtaFactor,
    st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 4, 6])),
    st.builds(F, st.integers(-7, 7), st.sampled_from([1, 2, 3, 4, 5, 12])),
    st.one_of(st.integers(-3, 3), st.integers(-3, 3), st.just(F(1, 2))),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(any_eta_factors, max_size=4),
    prefactors,
    st.builds(F, st.integers(-4, 40), st.sampled_from([1, 2, 3, 5])),
)
def test_expand_matches_the_fraction_route(factors, prefactor, trunc):
    # random scales, negative shifts, zero and Fraction exponents, prefactors
    # and truncations under the lead: the same JSON, or the same error first
    q = EtaQuotient(factors, prefactor)
    assert expanded(EtaQuotient.expand, q, trunc) == expanded(expand_by_fractions, q, trunc)


def test_expand_errors_keep_their_order():
    under = [EtaFactor(6, 0, 1), EtaFactor(1, 0, F(1, 2))]
    for factors, trunc, message in [
        (under, F(1, 4), "truncation under the leading exponent gives an empty series"),
        (under, 1, "product exponents must be integers"),
    ]:
        q = EtaQuotient(factors)
        assert expanded(EtaQuotient.expand, q, trunc) == "ValueError: " + message
        assert expanded(expand_by_fractions, q, trunc) == "ValueError: " + message


def test_expand_builds_one_series(monkeypatch):
    made = []
    init = FracQSeries.__init__

    def counted(self, *args):
        made.append(args[0])
        init(self, *args)

    monkeypatch.setattr(FracQSeries, "__init__", counted)
    q = EtaQuotient([EtaFactor(F(1, 2), F(-1, 3), -2), EtaFactor(3, F(1, 2), 1)], exp_frac(F(1, 7)))
    series = q.expand(10)
    assert made == [series.exp_den] == [12]  # lcm(2, lead denominator 12)
    monkeypatch.undo()
    assert json.dumps(series.to_json()) == expanded(expand_by_fractions, q, 10)


@pytest.mark.parametrize("trunc", [F(7, 3), F(-7, 3), F(5), F(0)])
def test_truncation_bound_is_an_integer_ceiling(trunc):
    # keys k/m < trunc, compared as k < ceil(trunc m)
    s = FracQSeries(3, {k: F(1) for k in range(-12, 12)}, trunc)
    assert sorted(s.terms) == [k for k in range(-12, 12) if F(k, 3) < trunc]


def mul_by_fraction_bound(a, b):
    """FracQSeries.__mul__ with the keys compared to the Fraction trunc * m (test oracle)."""
    m = lcm(a.exp_den, b.exp_den)
    a, b = a._rescaled(m), b._rescaled(m)
    trunc = min(a.trunc + b._lead_or_trunc(), b.trunc + a._lead_or_trunc())
    out = {}
    for ka, va in a.terms.items():
        for kb in sorted(b.terms):
            if ka + kb >= trunc * m:
                break
            out[ka + kb] = out.get(ka + kb, 0) + va * b.terms[kb]
    return FracQSeries(m, out, trunc)


def first_mismatch_by_fraction_bound(a, b):
    """first_mismatch with the keys compared to the Fraction bound (test oracle)."""
    m = lcm(a.exp_den, b.exp_den)
    a, b = a._rescaled(m), b._rescaled(m)
    for k in sorted(set(a.terms) | set(b.terms)):
        if k >= min(a.trunc, b.trunc) * m:
            break
        if a.terms.get(k, 0) != b.terms.get(k, 0):
            return F(k, m)
    return None


SMALL_SERIES = st.builds(
    FracQSeries,
    st.integers(1, 4),
    st.dictionaries(st.integers(-6, 10), st.integers(-2, 2), max_size=6),
    st.builds(F, st.integers(-8, 20), st.integers(1, 6)),
)


@settings(max_examples=200)
@given(SMALL_SERIES, SMALL_SERIES)
def test_product_and_mismatch_bounds_match_the_fraction_bound(a, b):
    assert (a * b).to_json() == mul_by_fraction_bound(a, b).to_json()
    assert first_mismatch(a, b) == first_mismatch_by_fraction_bound(a, b)
    # a's terms at twice the denominator: equal below both truncations
    same = FracQSeries(2 * a.exp_den, {2 * k: v for k, v in a.terms.items()}, b.trunc)
    assert first_mismatch(a, same) is None is first_mismatch_by_fraction_bound(a, same)
