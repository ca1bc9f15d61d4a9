import json
import re
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_weilrep import dense_S, mat_apply

import discweil.borcherds as B
from discweil.arith import divisors, is_prime
from discweil.borcherds import (
    InputForm,
    catalog_for,
    character_trivial_check,
    decompose,
    eta_identify,
    lift,
    relation_to_eta_identity,
    verify_eta_prime,
    weyl_vector,
)
from discweil.cyclo import exp_frac
from discweil.fqmod import FqModule, hyperbolic_pair
from discweil.lnn_catalog import (
    SelfDualSpec,
    assemble,
    family_exy_y,
    relations_Np,
    selfdual_list_Np,
)
from discweil.qseries import equals_to_precision, eta_series, first_mismatch
from discweil.subgroups import Subgroup
from discweil.weilrep import invariant_space

M6 = hyperbolic_pair(6, 1)


def diag_spec(N, d):
    return SelfDualSpec(N, 1, (d, 0, N // d), (1, 0, 1), (0, 0), (0, 0))


def test_weyl_vector_counting():
    f = InputForm.from_combination(M6, [(1, diag_spec(6, 2))])
    w = weyl_vector(f)
    assert w.rho_kappa_prime == F(1, 12)
    assert w.rho_kappa == F(1, 12)
    f16 = InputForm.from_combination(M6, [(1, diag_spec(6, 1))])
    assert weyl_vector(f16).rho_kappa_prime == F(1, 24)
    fsum = InputForm.from_combination(M6, [(1, s) for s in catalog_for(6, 1)])
    assert weyl_vector(fsum).rho_kappa_prime == F(1, 2)


def test_input_invariance_guards():
    with pytest.raises(ValueError):
        InputForm(M6, {(1, 0, 0, 0): 1})  # non-isotropic support
    with pytest.raises(ValueError):
        InputForm(M6, {(0, 0, 0, 0): 1})  # not S-invariant


def test_input_keys_need_one_entry_per_generator():
    # FqModule.index zips a key with the generator orders, so a longer key
    # would be cut to its first four entries and a shorter one padded
    m = hyperbolic_pair(2, 1)
    for coeffs in ({(0, 0, 0, 0, 7): 1, (0, 1, 0, 0, 9): 1}, {(0, 0, 0): 1}):
        with pytest.raises(ValueError, match="one entry per generator"):
            InputForm(m, coeffs)
    assert InputForm(m, {(0, 0, 0, 0): 1, (0, 1, 0, 0): 1}).dense[:2] == [1, 1]


def test_input_keys_need_entries_in_range():
    # each entry must lie in [0, d) for its generator of order d: reduced mod
    # 2, these keys would name (0,1,0,0) on D_{2,1}
    m = hyperbolic_pair(2, 1)
    for key in ((0, 3, 0, 0), (0, -1, 0, 0), (0, 0, 0, 1)):
        with pytest.raises(ValueError, match="outside"):
            InputForm(m, {(0, 0, 0, 0): 1, key: 1})


def _assemble_refused(spec):
    raise AssertionError("assembled a member of another module")


@pytest.mark.parametrize(
    "module,member,message",
    [
        (
            hyperbolic_pair(6, 1),
            catalog_for(3, 1)[1],
            "member of FqModule(orders=(3, 3, 1, 1)) given for FqModule(orders=(6, 6, 1, 1))",
        ),
        (
            hyperbolic_pair(4, 2),
            assemble(selfdual_list_Np(2, 2)[0]),
            "member of FqModule(orders=(2, 2, 2, 2)) given for FqModule(orders=(4, 4, 2, 2))",
        ),
    ],
    ids=["spec", "subgroup"],
)
def test_combination_refuses_a_member_of_another_module(monkeypatch, module, member, message):
    # refused before it is assembled, naming both modules, where the S check
    # used to fail late with "not invariant under the S generator"
    monkeypatch.setattr(B, "assemble", _assemble_refused)
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        InputForm.from_combination(module, [(1, member)])


def test_lift_constant_is_a_fraction_when_rational():
    # the two members' prefactors multiply to the rational 1, which the lift
    # prints as the Fraction "1", not as a cyclotomic number of conductor 72
    m = hyperbolic_pair(3, 3)
    cat = selfdual_list_Np(3, 3)
    f = InputForm.from_combination(m, [(1, cat[4]), (-1, cat[7])])
    res = lift(f, 6)
    assert type(res.constant_note) is F
    assert res.to_json()["constant"] == "1"


SMALL_PAIRS = [hyperbolic_pair(N, Np) for N, Np in ((2, 1), (3, 1), (2, 2), (4, 1))]
DENSE_S = {m: dense_S(m) for m in SMALL_PAIRS}


@settings(max_examples=60)
@given(st.sampled_from(SMALL_PAIRS), st.data())
def test_input_form_raises_exactly_when_S_moves_the_vector(m, data):
    # an integer combination of the invariants, perturbed on a few isotropic
    # elements (so rho(T) fixes it): InputForm accepts it exactly when the
    # dense rho(S) fixes it
    iso = m.isotropic_indices
    dense = [0] * m.size
    for vec in invariant_space(m):
        c = data.draw(st.integers(-3, 3))
        for i, v in enumerate(vec):
            dense[i] += c * v
    bumps = data.draw(st.dictionaries(st.sampled_from(iso), st.integers(-2, 2), max_size=2))
    for i, v in bumps.items():
        dense[i] += v
    fixed = mat_apply(DENSE_S[m], dense) == dense
    coeffs = {m.element_at(i): v for i, v in enumerate(dense) if v}
    if fixed:
        InputForm(m, coeffs)
    else:
        with pytest.raises(ValueError, match="not invariant under the S generator"):
            InputForm(m, coeffs)


def test_lift_of_diagonal_subgroups_is_eta():
    for N in (1, 2, 4, 6):
        m = hyperbolic_pair(N, 1)
        for d in divisors(N):
            f = InputForm.from_combination(m, [(1, diag_spec(N, d))])
            res = lift(f, 60)
            assert res.weight == F(1, 2)
            ref = eta_series(d, 0, 60)
            assert equals_to_precision(res.psi1, ref), (N, d)
            assert equals_to_precision(res.psi2, ref), (N, d)
            (f1,), (f2,) = res.eta1.factors, res.eta2.factors
            assert f1.scale == d and f1.shift == 0 and f1.exponent == 1
            assert f2.scale == d and f2.shift == 0 and f2.exponent == 1


def test_lift_is_multiplicative():
    m = hyperbolic_pair(4, 1)
    c = catalog_for(4, 1)
    fa = InputForm.from_combination(m, [(1, c[0]), (1, c[1])])
    fb = InputForm.from_combination(m, [(2, c[2])])
    fab = InputForm.from_combination(m, [(1, c[0]), (1, c[1]), (2, c[2])])
    ra, rb, rab = lift(fa, 40), lift(fb, 40), lift(fab, 40)
    assert rab.weight == ra.weight + rb.weight == F(2)
    assert equals_to_precision(rab.psi1, ra.psi1 * rb.psi1)
    assert equals_to_precision(rab.psi2, ra.psi2 * rb.psi2)


def test_zero_input_lifts_to_one():
    res = lift(InputForm(hyperbolic_pair(4, 1), {}), 30)
    assert res.weight == 0
    assert res.psi1.lead() == 0 and len(res.psi1.terms) == 1


@pytest.mark.parametrize("N,p", [(2, 2), (6, 2), (6, 3)])
def test_catalog_members_identify_exactly(N, p):
    m = hyperbolic_pair(N, p)
    for spec in selfdual_list_Np(N, p):
        f = InputForm.from_combination(m, [(1, spec)])
        res = lift(f, 25)
        assert res.eta1 is not None, spec
        assert first_mismatch(res.psi1, res.eta1.expand(25)) is None, spec
        assert first_mismatch(res.psi2, res.eta2.expand(25)) is None, spec


def test_twisted_member_on_the_square_pair():
    m = hyperbolic_pair(4, 4)
    sy = family_exy_y(4, (1, 1, 2), 1)
    f = InputForm.from_combination(m, [(1, sy)])
    e1, e2, _ = eta_identify([(1, assemble(sy))])
    (f1,), (f2,) = e1.factors, e2.factors
    assert f1.scale == 2 and f1.shift == F(1, 2)
    assert f2.scale == F(1, 2) and f2.shift == F(1, 2)
    res = lift(f, 12)
    assert first_mismatch(res.psi1, e1.expand(12)) is None
    assert first_mismatch(res.psi2, e2.expand(12)) is None


@pytest.mark.parametrize("N,p", [(2, 2), (3, 3), (6, 2)])
def test_relations_become_eta_identities(N, p):
    for rel in relations_Np(N, p):
        rep = relation_to_eta_identity(N, p, rel, 60)
        assert rep["verified"], rep


def test_relation_identity_full_depth_spot_check():
    rep = relation_to_eta_identity(4, 2, relations_Np(4, 2)[0], 200)
    assert rep["verified"]


def test_non_relation_vector_is_rejected():
    rels = relations_Np(2, 2)
    bad = list(rels[0])
    bad[0] += 1
    with pytest.raises(ValueError, match="^vector is not a relation of the catalog$"):
        relation_to_eta_identity(2, 2, bad, 30)
    with pytest.raises(ValueError, match="^relation length does not match the catalog$"):
        relation_to_eta_identity(2, 2, [1, 2], 30)  # wrong length


@pytest.mark.parametrize("p", [2, 3])
def test_prime_eta_identity(p):
    rep = verify_eta_prime(p, 80)
    assert rep["verified"]
    assert rep["direct"]["equal"] and rep["relation"]["verified"]


def test_character_criteria():
    f_pass = InputForm.from_combination(M6, [(2, s) for s in catalog_for(6, 1)])
    rep = character_trivial_check(f_pass)
    assert rep["trivial"]
    assert rep["weight"] == "4"
    alphas = {1: 1, 2: -1, 3: -1, 6: 1}
    f_fail = InputForm.from_combination(
        M6, [(alphas[s.first[0]], s) for s in catalog_for(6, 1)]
    )
    rep2 = character_trivial_check(f_fail)
    assert not rep2["weyl_integral_1"]
    assert not rep2["trivial"]
    with pytest.raises(ValueError):
        character_trivial_check(InputForm(hyperbolic_pair(2, 2), {}))


def test_decompose_errors():
    with pytest.raises(ValueError):
        decompose(InputForm(hyperbolic_pair(8, 4), {}))  # N' neither 1 nor prime
    m = hyperbolic_pair(2, 1)
    # half a catalog vector is not an integer combination; it is not
    # invariant either, so a stand-in carries it past InputForm's check
    f = InputForm.from_combination(m, [(1, diag_spec(2, 1))])
    halved = [v if sum(m.element_at(i)) == 0 else 0 for i, v in enumerate(f.dense)]
    with pytest.raises(ValueError):
        decompose(SimpleNamespace(N=2, Nprime=1, module=m, dense=halved))


def test_decompose_recovers_coefficients():
    m = hyperbolic_pair(6, 1)
    combo = [(2, diag_spec(6, 1)), (-1, diag_spec(6, 3)), (3, diag_spec(6, 6))]
    f = InputForm.from_combination(m, combo)
    triples = decompose(f)
    by_first = {s.first[0]: c for c, s, _ in triples}
    assert by_first == {1: 2, 3: -1, 6: 3}
    # each coordinate carries its member's assembled subgroup
    assert all(h == assemble(s) for _, s, h in triples)


# ---------------------------- the prefactors against the running product


def member_sides_by_tuples(h):
    """(scale, shift, phase) of the two sides of a self-dual isotropic h in
    D_{N,N'}, read off h's element tuples (test oracle for _member_sides)."""
    N, Np = h.parent.orders[0], h.parent.orders[2]
    elems = h.element_tuples()
    S1 = {(x2, x4) for (x1, x2, x3, x4) in elems if x1 == 0 and x3 == 0}
    S2 = {(x2, x3) for (x1, x2, x3, x4) in elems if x1 == 0 and x4 == 0}
    c1, g1, w1 = B._collapse(S1, Np)
    c2, g2, w2 = B._collapse(S2, Np)
    if c1 * g1 != len(S2) or c2 * g2 != len(S1):
        raise ValueError("side data violates the self-duality cross counts")
    return (
        (F(c1 * g1), F(w1, N), F(-w1, 24 * N)),
        (F(c2 * g2, Np), F(w2, N), F(-w2, 24 * N)),
    )


def _member_factors(h):
    """Exact eta data of the two sides of a self-dual isotropic h in D_{N,N'}:
    each side's (scale, shift) and its root of unity e(-w/24N) (test oracle).
    """
    (s1, sh1, ph1), (s2, sh2, ph2) = member_sides_by_tuples(h)
    return (s1, sh1), exp_frac(ph1), (s2, sh2), exp_frac(ph2)


def eta_identify_by_running_product(decomposition):
    """eta_identify with one CycNumber power and product per member and side."""
    factors1, factors2 = [], []
    pref1 = pref2 = F(1)
    for c, h in decomposition:
        (s1, sh1), p1, (s2, sh2), p2 = _member_factors(h)
        factors1.append(B.EtaFactor(s1, sh1, c))
        factors2.append(B.EtaFactor(s2, sh2, c))
        pref1 = pref1 * p1**c
        pref2 = pref2 * p2**c
    return B.EtaQuotient(tuple(factors1), pref1), B.EtaQuotient(tuple(factors2), pref2), pref1 * pref2


PRIME_PAIRS = [(N, p) for N in range(2, 13) for p in range(2, N + 1) if N % p == 0 and is_prime(p)]


@pytest.mark.parametrize("N,p", PRIME_PAIRS, ids=["%d-%d" % pair for pair in PRIME_PAIRS])
def test_relation_identity_matches_the_running_product(monkeypatch, N, p):
    # every relations_Np vector: the same JSON when the prefactors are
    # multiplied out one member at a time
    rels = relations_Np(N, p)
    want = []
    with monkeypatch.context() as mp:
        mp.setattr(B, "eta_identify", eta_identify_by_running_product)
        for rel in rels:
            want.append(json.dumps(relation_to_eta_identity(N, p, rel, 6), sort_keys=True))
    got = [json.dumps(relation_to_eta_identity(N, p, rel, 6), sort_keys=True) for rel in rels]
    assert got == want


def test_mixed_lift_matches_the_running_product(monkeypatch):
    cat = selfdual_list_Np(6, 3)
    f = InputForm.from_combination(hyperbolic_pair(6, 3), [(1, cat[3]), (-2, cat[7]), (1, cat[11])])
    got = json.dumps(lift(f, 8).to_json(), sort_keys=True)
    monkeypatch.setattr(B, "eta_identify", eta_identify_by_running_product)
    assert got == json.dumps(lift(f, 8).to_json(), sort_keys=True)


# ------------------------------------------ the relation path on index sets


@pytest.mark.parametrize("N,p", PRIME_PAIRS, ids=["%d-%d" % pair for pair in PRIME_PAIRS])
def test_member_sides_match_the_element_tuples(N, p):
    for spec in selfdual_list_Np(N, p):
        h = assemble(spec)
        assert B._member_sides(h) == member_sides_by_tuples(h), spec


def _sides_or_error(sides, h):
    try:
        return sides(h)
    except ValueError as e:
        return str(e)


def test_member_sides_match_off_the_catalog():
    # a twisted member of a square pair, and subgroups that are not self-dual,
    # whose cross counts may fail: the same sides or the same message
    m = hyperbolic_pair(6, 3)
    groups = [assemble(family_exy_y(4, (1, 1, 2), 1)), Subgroup(m, {0}), Subgroup(m, range(m.size))]
    groups += [Subgroup.from_gens(m, [g]) for g in [(0, 2, 0, 1), (1, 0, 0, 0), (0, 3, 1, 1), (2, 0, 0, 2)]]
    outcomes = [_sides_or_error(B._member_sides, h) for h in groups]
    assert outcomes == [_sides_or_error(member_sides_by_tuples, h) for h in groups]
    assert "side data violates the self-duality cross counts" in outcomes


def test_side_table_holds_the_module_indices():
    # every N' | N <= 12: the columns are FqModule.index of (0,x,0,l) and
    # (0,x,l,0), each side's cells invert its columns, and an input's sides
    # are its dense entries there
    for N in range(1, 13):
        for Np in divisors(N):
            m = hyperbolic_pair(N, Np)
            columns, cells = B._side_table(N, Np)
            plain = [[m.index((0, x, 0, l)) for x in range(N)] for l in range(Np)]
            prime = [[m.index((0, x, l, 0)) for x in range(N)] for l in range(Np)]
            assert columns == [plain, prime], (N, Np)
            for grid, cell in zip(columns, cells):
                assert len(cell) == N * Np
                assert all(cell[i] == (x, l) for l, row in enumerate(grid) for x, i in enumerate(row))
    cat = selfdual_list_Np(6, 3)
    f = InputForm.from_combination(hyperbolic_pair(6, 3), [(1, cat[3]), (-2, cat[7]), (1, cat[11])])
    m = f.module
    assert f.sides == (
        [[f.dense[m.index((0, x, 0, l))] for x in range(6)] for l in range(3)],
        [[f.dense[m.index((0, x, l, 0))] for x in range(6)] for l in range(3)],
    )


def _element_at_refused(self, i):
    raise AssertionError("element_at called")


def test_relation_lift_reads_no_element_tuples(monkeypatch):
    want = [relation_to_eta_identity(6, 3, rel, 8) for rel in relations_Np(6, 3)]
    monkeypatch.setattr(FqModule, "element_at", _element_at_refused)
    got = [relation_to_eta_identity(6, 3, rel, 8) for rel in relations_Np(6, 3)]
    assert got == want and all(rep["verified"] for rep in got)
    assert verify_eta_prime(3, 20)["verified"]


def is_relation_by_tuples(N, p, vec):
    """Whether sum c 1_H vanishes, summed over the members' element tuples (test oracle)."""
    total = {}
    for c, spec in zip(vec, selfdual_list_Np(N, p)):
        for x in assemble(spec).element_tuples() if c else ():
            total[x] = total.get(x, 0) + c
    return not any(total.values())


@settings(max_examples=60)
@given(st.sampled_from([(2, 2), (3, 3), (4, 2), (6, 3)]), st.data())
def test_relation_check_matches_the_element_tuples(pair, data):
    # a combination of the relation basis, perhaps moved off the span
    N, p = pair
    rels = relations_Np(N, p)
    coef = data.draw(st.lists(st.integers(-2, 2), min_size=len(rels), max_size=len(rels)))
    vec = [sum(c * r[i] for c, r in zip(coef, rels)) for i in range(len(rels[0]))]
    for i, d in data.draw(st.lists(st.tuples(st.integers(0, len(vec) - 1), st.integers(-1, 1)), max_size=2)):
        vec[i] += d
    if is_relation_by_tuples(N, p, vec):
        assert relation_to_eta_identity(N, p, vec, 4)["verified"]
    else:
        with pytest.raises(ValueError, match="^vector is not a relation of the catalog$"):
            relation_to_eta_identity(N, p, vec, 4)
