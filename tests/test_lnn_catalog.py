from itertools import product

import pytest
from test_subgroups import characteristic_vector

from discweil.arith import divisors, factorize, is_prime, sigma0
from discweil.fqmod import FqModule, hyperbolic, hyperbolic_pair
from discweil.linalg import rational_rank
from discweil.lnn_catalog import (
    HxyzParams,
    SelfDualSpec,
    _min_params,
    assemble,
    canonical_params,
    catalog_for,
    classify_params,
    condsum_check,
    dimension_formula,
    family_exNy0,
    family_exy_y,
    hxyz_complement,
    hxyz_subgroup,
    reconstruct_spec,
    relations_Np,
    selfdual_list_Np,
)
from discweil.subgroups import (
    EnumerationBoundError,
    Subgroup,
    classify,
    complement,
    enumerate_self_dual_isotropic,
    enumerate_subgroups,
)
from discweil.weilrep import verify_selfdual_span

PRIME_PAIRS = [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)]


def test_closed_forms_against_brute_force():
    for N in range(1, 13):
        m = hyperbolic(N)
        for h in enumerate_subgroups(m):
            p = canonical_params(h)
            assert hxyz_subgroup(p) == h, (N, p)
            c_true = complement(h)
            assert hxyz_subgroup(hxyz_complement(p)) == c_true, (N, p)
            assert canonical_params(c_true) == hxyz_complement(p)
            assert classify_params(p) == classify(h), (N, p)


def test_complement_examples():
    assert hxyz_complement(HxyzParams(6, 2, 0, 3)).as_tuple() == (2, 0, 3)
    assert hxyz_complement(HxyzParams(4, 2, 1, 2)).as_tuple() == (2, 1, 2)
    assert hxyz_complement(HxyzParams(5, 5, 0, 5)).as_tuple() == (1, 0, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        HxyzParams(6, 4, 0, 3)  # x does not divide N
    with pytest.raises(ValueError):
        HxyzParams(6, 2, 3, 3)  # y out of range
    with pytest.raises(ValueError):
        HxyzParams(6, 2, 1, 2)  # (N/x) y not divisible by z


def test_glue_membership_closed_form_against_the_subgroup():
    # every normalized (x', y', z') with N' <= 12 and every point of
    # (Z/N')^2, also through representatives outside [0, N'): the spec is
    # refused exactly when the point lies outside H_{x',y',z'}
    for Np in range(1, 13):
        divs = divisors(Np)
        for xp, zp in product(divs, divs):
            for second in [(xp, yp, zp) for yp in range(zp) if (Np // xp * yp) % zp == 0]:
                h = hxyz_subgroup(HxyzParams(Np, *second))
                for a, b, k in product(range(Np), range(Np), (0, 1)):
                    pt = (a - k * Np, b + 2 * k * Np)
                    for glue in ((pt, (0, 0)), ((0, 0), pt)):
                        try:
                            SelfDualSpec(Np, Np, second, second, *glue)
                            inside = True
                        except ValueError as exc:
                            assert "outside the second block" in str(exc)
                            inside = False
                        assert inside == ((a, b) in h), (Np, second, glue)


def test_catalog_specs_build_no_module(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("FqModule built for a catalog spec")

    monkeypatch.setattr(FqModule, "__init__", refuse)
    assert len(selfdual_list_Np(12, 2)) == 2 * (len(divisors(12)) + len(divisors(6)))


@pytest.mark.parametrize("N", range(2, 7))
def test_catalog_equals_enumeration(N):
    for p in [q for q in (2, 3, 5) if N % q == 0]:
        cat = selfdual_list_Np(N, p)
        assert len(cat) == 2 * sigma0(N) + 2 * (p - 1) * sigma0(N // p)
        truth = set(enumerate_self_dual_isotropic(hyperbolic_pair(N, p)))
        assert {assemble(s) for s in cat} == truth
        assert all(condsum_check(s) for s in cat)


@pytest.mark.parametrize("N,p", PRIME_PAIRS + [(5, 5), (12, 2)])
def test_relations_kill_the_family(N, p):
    cat = selfdual_list_Np(N, p)
    rels = relations_Np(N, p)
    vecs = [characteristic_vector(assemble(s)) for s in cat]
    for r in rels:
        total = [sum(c * v[i] for c, v in zip(r, vecs)) for i in range(len(vecs[0]))]
        assert any(r) and not any(total), (N, p, r)
    rel_rank = rational_rank([list(r) for r in rels])
    assert rel_rank == sigma0(N // p) == len(rels)
    fam_rank = rational_rank(vecs)
    assert fam_rank == len(cat) - rel_rank
    assert fam_rank == dimension_formula(N, p)


def test_dimension_formula_values():
    assert [dimension_formula(N, 1) for N in (1, 2, 6, 12, 30)] == [1, 2, 4, 6, 8]
    assert dimension_formula(2, 2) == 5
    assert dimension_formula(3, 3) == 7
    assert dimension_formula(4, 2) == 8
    assert dimension_formula(6, 2) == 10
    assert dimension_formula(6, 3) == 14
    assert dimension_formula(12, 2) == 16
    assert dimension_formula(30, 6) == 70
    assert dimension_formula(6, 6) == 35
    with pytest.raises(ValueError):
        dimension_formula(8, 4)  # N' must be square-free


# ------------------------------------------- the keyed catalog, by hand


def selfdual_list_by_hand(N, p):
    """The (N, p) catalog in order, each family written out (test oracle for
    the keyed selfdual_list_Np)."""
    out = []
    for d in divisors(N):
        out.append(SelfDualSpec(N, p, (d, 0, N // d), (1, 0, p), (0, 0), (0, 0)))
    for d in divisors(N):
        out.append(SelfDualSpec(N, p, (d, 0, N // d), (p, 0, 1), (0, 0), (0, 0)))
    glued = []
    for dp in divisors(N // p):
        for a in range(1, p):
            ainv = pow(a, -1, p)
            glued.append((dp, a, ainv))
    for dp, a, ainv in glued:
        out.append(
            SelfDualSpec(N, p, (dp, 0, N // (p * dp)), (1, 0, 1), (a, 0), (0, (-ainv) % p))
        )
    for dp, a, ainv in glued:
        out.append(
            SelfDualSpec(N, p, (dp, 0, N // (p * dp)), (1, 0, 1), (0, (-ainv) % p), (a, 0))
        )
    return out


def relations_by_hand(N, p):
    """The relation vectors with every catalog position counted by hand (test
    oracle for the keyed relations_Np)."""
    divs = divisors(N)
    divs_q = divisors(N // p)
    nd = len(divs)
    nq = len(divs_q)
    t1 = {d: i for i, d in enumerate(divs)}
    t2 = {d: nd + i for i, d in enumerate(divs)}
    base5 = 2 * nd
    base6 = 2 * nd + nq * (p - 1)
    pos5 = {}
    pos6 = {}
    k = 0
    for dp in divs_q:
        for a in range(1, p):
            pos5[(dp, a)] = base5 + k
            pos6[(dp, a)] = base6 + k
            k += 1
    total = base6 + nq * (p - 1)
    rels = []
    for dp in divs_q:
        v = [0] * total
        v[t1[dp]] += 1
        v[t2[dp]] -= 1
        v[t1[p * dp]] -= 1
        v[t2[p * dp]] += 1
        for a in range(1, p):
            v[pos5[(dp, a)]] -= 1
            v[pos6[(dp, a)]] += 1
        rels.append(v)
    return rels


PRIME_PAIRS_TO_60 = [(N, p) for N in range(2, 61) for p in divisors(N) if is_prime(p)]


def test_keyed_catalog_matches_the_hand_indexed_one():
    assert len(PRIME_PAIRS_TO_60) == 96
    for N, p in PRIME_PAIRS_TO_60:
        cat = selfdual_list_Np(N, p)
        assert cat == selfdual_list_by_hand(N, p) == catalog_for(N, p), (N, p)
        assert relations_Np(N, p) == relations_by_hand(N, p), (N, p)


def test_rank_one_catalog_is_the_diagonal_family():
    for N in range(1, 31):
        assert catalog_for(N, 1) == family_exNy0(N, 1), N


@pytest.mark.parametrize("N,Np", [(4, 4), (6, 6), (8, 4), (9, 2)])
def test_catalog_refuses_other_pairs(N, Np):
    with pytest.raises(ValueError, match="^identification needs N' = 1 or a prime divisor of N$"):
        catalog_for(N, Np)
    for listing in (selfdual_list_Np, relations_Np):
        with pytest.raises(ValueError, match="^p must be a prime divisor of N$"):
            listing(N, Np)


def test_dimension_formula_matches_the_certified_span():
    # every square-free N' | N with N <= 24: the formula is the certified
    # dimension, and the catalog spans it; seven pairs lie past the bound
    checked, refused = [], []
    for N in range(1, 25):
        for Np in divisors(N):
            if any(e > 1 for _, e in factorize(Np)):
                continue
            try:
                rep = verify_selfdual_span(hyperbolic_pair(N, Np))
            except EnumerationBoundError:
                refused.append((N, Np))
                continue
            assert rep["span_equal"] and rep["dimension"] == dimension_formula(N, Np), (N, Np)
            checked.append((N, Np))
    assert len(checked) == 60
    assert refused == [(11, 11), (13, 13), (17, 17), (19, 19), (22, 11), (22, 22), (23, 23)]


def test_diagonal_family_sizes():
    assert len(family_exNy0(2, 2)) == 6
    for N in (2, 3, 4, 6):
        fam = family_exNy0(N, 1)
        assert len(fam) == sigma0(N)
        got = {
            canonical_params(
                Subgroup.from_gens(
                    hyperbolic(N), [e[:2] for e in assemble(s).element_tuples()]
                )
            ).as_tuple()
            for s in fam
        }
        assert got == {(d, 0, N // d) for d in divisors(N)}


@pytest.mark.parametrize("N,p", PRIME_PAIRS[:1] + PRIME_PAIRS[2:])
def test_catalog_members_lie_in_the_diagonal_family(N, p):
    fam = {frozenset(assemble(s).indices) for s in family_exNy0(N, p)}
    cat = {frozenset(assemble(s).indices) for s in selfdual_list_Np(N, p)}
    assert cat == fam


@pytest.mark.parametrize("N,Np", [(2, 2), (4, 2), (6, 2), (8, 2), (4, 4), (8, 4)])
def test_diagonal_family_covers_y0_groups(N, Np):
    # every self-dual isotropic whose first projection has y = 0 is listed
    m = hyperbolic_pair(N, Np)
    fam = {frozenset(assemble(s).indices) for s in family_exNy0(N, Np)}
    for h in enumerate_self_dual_isotropic(m):
        proj1 = {(g[0], g[1]) for g in h.element_tuples()}
        _, y, _ = _min_params(N, proj1)
        if y == 0:
            assert frozenset(h.indices) in fam


def test_twisted_family():
    s = family_exy_y(4, (1, 1, 2), 1)
    assert condsum_check(s)
    cl = classify(assemble(s))
    assert cl.is_self_dual and cl.is_isotropic
    # u = 3: (u - 1/u) y = 0 mod z as well
    assert condsum_check(family_exy_y(4, (1, 1, 2), 3))
    # y = 0 degenerates into the diagonal family
    s0 = family_exy_y(6, (1, 0, 1), 5)
    fam66 = {frozenset(assemble(t).indices) for t in family_exNy0(6, 6)}
    assert frozenset(assemble(s0).indices) in fam66


def test_twisted_family_rejects_non_coisotropic_block():
    # all three congruences hold here, yet the first block is not
    # co-isotropic and the assembled group is not isotropic
    with pytest.raises(ValueError):
        family_exy_y(4, (2, 1, 2), 1)


@pytest.mark.parametrize("N,Np", [(2, 2), (4, 2), (3, 3)])
def test_reconstruct_round_trip(N, Np):
    for h in enumerate_self_dual_isotropic(hyperbolic_pair(N, Np)):
        sp = reconstruct_spec(h)
        assert assemble(sp) == h


def test_reconstruct_glue_normal_form():
    # first-ordering members reconstruct with b = c = 0, swapped with a = d = 0
    for s in family_exNy0(4, 2) + family_exNy0(6, 2) + family_exNy0(6, 3):
        sp = reconstruct_spec(assemble(s))
        if s.ab[1] == 0 and s.cd[0] == 0:
            assert sp.ab[1] == 0 and sp.cd[0] == 0
        else:
            assert sp.ab[0] == 0 and sp.cd[1] == 0


def test_perturbed_glue_is_detected():
    flipped = 0
    for s in family_exNy0(2, 2):
        try:
            bad = SelfDualSpec(s.N, s.Nprime, s.first, s.second, s.ab, (1, 1))
        except ValueError:
            continue
        if not condsum_check(bad):
            cl = classify(assemble(bad))
            assert not (cl.is_self_dual and cl.is_isotropic)
            flipped += 1
    assert flipped > 0
