from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fqmod import COMPONENTS, element_list, negated, smul

from discweil import subgroups
from discweil.fqmod import FqModule, direct_sum, hyperbolic, hyperbolic_pair
from discweil.subgroups import (
    EnumerationBoundError,
    Subgroup,
    _array,
    _steps,
    _sumset,
    classify,
    complement,
    enumerate_isotropic_subgroups,
    enumerate_self_dual_isotropic,
    enumerate_subgroups,
)


def characteristic_vector(h):
    """The 0/1 vector over D, in element-index order, supported exactly on H."""
    return [1 if i in h.indices else 0 for i in range(h.parent.size)]


def closure(m, gens):
    """Test oracle: the index set of <gens>, closed by tuple additions."""
    zero = tuple(0 for _ in m.orders)
    seen = {zero}
    todo = [zero]
    while todo:
        x = todo.pop()
        for g in gens:
            y = m.add(x, g)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return frozenset(m.index(x) for x in seen)


def join_every_member(m, members):
    """Test oracle: all subgroup index sets inside ``members``, by joining each
    found H with every remaining member x, <H, x> = H + {0, x, ..., (r-1)x}
    with r least such that r*x is in H.

    A member joins H only when g + x stays a member for every generator g of
    H, which keeps the joins of isotropic members isotropic.
    """
    inside = np.zeros(m.size, dtype=bool)
    inside[_array(members)] = True
    X = m.coords
    zero = frozenset({0})
    seen = {zero}
    queue = [(zero, np.flatnonzero(inside))]
    while queue:
        h, cand = queue.pop()
        ha = _array(h)
        for i in cand.tolist():
            if i in h:
                continue
            hx = _sumset(m, ha, _steps(m, ha, X[i]))
            if hx not in seen:
                seen.add(hx)
                queue.append((hx, cand[inside[m.indices_of(X[cand] + X[i])]]))
    return seen


ENUMERATIONS = (
    enumerate_subgroups,
    enumerate_isotropic_subgroups,
    enumerate_self_dual_isotropic,
)


def brute_subgroup_sets(m):
    """All subgroups as index sets, by closing every generating pair."""
    return {closure(m, [a, b]) for a, b in product(element_list(m), repeat=2)}


def test_enumeration_matches_pair_closure():
    # every subgroup of (Z/N)^2 is generated by at most two elements
    for N in (2, 3, 4, 6):
        m = hyperbolic(N)
        got = {h.indices for h in enumerate_subgroups(m)}
        assert got == brute_subgroup_sets(m)


def test_subgroup_counts_prime_square():
    # (Z/p)^2 has p + 3 subgroups: 0, p+1 lines, everything
    for p in (2, 3, 5, 7):
        assert len(enumerate_subgroups(hyperbolic(p))) == p + 3


def test_complement_is_orthogonal_complement():
    m = hyperbolic_pair(4, 2)
    for h in enumerate_subgroups(m):
        c = complement(h)
        want = {
            i
            for i, x in enumerate(element_list(m))
            if all(m.b_value(x, g) == 0 for g in h.element_tuples())
        }
        assert c.indices == want
        assert h.order * c.order == m.size


def test_classify_brute_force():
    m = hyperbolic_pair(2, 2)
    for h in enumerate_subgroups(m):
        cl = classify(h)
        iso = all(m.q_value(x) == 0 for x in h.element_tuples())
        self_orth = h.indices <= complement(h).indices
        assert cl.is_isotropic == iso
        assert cl.is_self_orthogonal == self_orth
        # self-dual is a bilinear-form notion: H equals its complement
        assert cl.is_self_dual == (h.indices == complement(h).indices)
        assert cl.is_coisotropic == classify(complement(h)).is_isotropic


def test_characteristic_vector():
    m = hyperbolic(2)
    h = enumerate_subgroups(m)[-1]
    v = characteristic_vector(h)
    assert len(v) == m.size and set(v) <= {0, 1}
    assert [i for i, c in enumerate(v) if c] == sorted(h.indices)


def test_enumeration_bound():
    m = hyperbolic_pair(30, 30)
    with pytest.raises(EnumerationBoundError):
        enumerate_subgroups(m)


def test_env_var_overrides_bound(monkeypatch):
    monkeypatch.setenv("WEILREP_MAX_D", "8")
    with pytest.raises(EnumerationBoundError):
        enumerate_subgroups(hyperbolic(6))
    monkeypatch.setenv("WEILREP_MAX_D", "40")
    assert enumerate_subgroups(hyperbolic(6))


def test_subgroup_json():
    m = hyperbolic(2)
    h = Subgroup.from_gens(m, [(1, 1)])
    obj = h.to_json()
    assert obj["order"] == 2
    assert obj["elements"] == [[0, 0], [1, 1]]


def _change_basis(m, ops):
    """(Z/N)^2 presented on a new basis: e1, e2 under the elementary column
    operations e2 += t e1 (upper) or e1 += t e2 listed in ops."""
    e1, e2 = smul(m, 1, (1, 0)), smul(m, 1, (0, 1))  # reduced, also for N = 1
    for upper, t in ops:
        if upper:
            e2 = m.add(e2, smul(m, t, e1))
        else:
            e1 = m.add(e1, smul(m, t, e2))
    gens = (e1, e2)
    return FqModule(
        m.orders,
        [m.q_value(g) for g in gens],
        [[m.b_value(g, h) for h in gens] for g in gens],
    )


OPS = st.lists(st.tuples(st.booleans(), st.integers(1, 11)), max_size=4)
DIRECT_SUMS = st.lists(st.sampled_from(COMPONENTS), min_size=1, max_size=3).map(
    lambda parts: reduce(direct_sum, parts)
)
CHANGED_PAIRS = st.builds(
    lambda n, n2, a, b: direct_sum(
        _change_basis(hyperbolic(n), a), _change_basis(hyperbolic(n2), b)
    ),
    st.integers(1, 6),
    st.integers(1, 4),
    OPS,
    OPS,
)


@settings(max_examples=40)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS), st.data())
def test_element_table_against_tuple_loops(m, data):
    els = element_list(m)
    assert [tuple(r) for r in m.coords.tolist()] == list(els)
    assert m.indices_of(m.coords).tolist() == list(range(m.size))
    assert m.q_ints.tolist() == [m.q_int(x) for x in els]
    assert m.isotropic_indices == tuple(i for i, x in enumerate(els) if m.q_int(x) == 0)
    k = len(m.orders)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    assert sum(all(m.b_int(x, u) == 0 for u in units) for x in els) == m.radical_size() == 1

    gens = data.draw(st.lists(st.sampled_from(els), max_size=2))
    h = Subgroup.from_gens(m, gens)
    assert h.indices == closure(m, gens)
    want = {i for i, x in enumerate(els) if all(m.b_int(x, g) == 0 for g in h.element_tuples())}
    assert complement(h).indices == want


@settings(max_examples=30, deadline=None)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS).filter(lambda m: m.size <= 144))
@example(hyperbolic_pair(6, 1))
@example(direct_sum(COMPONENTS[4], negated(COMPONENTS[4])))  # Z/7 + Z/7(-1)
def test_isotropic_enumerations_are_filters(m):
    all_subs = enumerate_subgroups(m)
    flags = {h.indices: classify(h) for h in all_subs}
    iso = {h.indices for h in enumerate_isotropic_subgroups(m)}
    assert iso == {s for s, c in flags.items() if c.is_isotropic}
    sd = {h.indices for h in enumerate_self_dual_isotropic(m)}
    assert sd == {s for s, c in flags.items() if c.is_self_dual and c.is_isotropic}
    if m == hyperbolic_pair(6, 1):
        assert len(sd) == 4  # sigma0(6)


@settings(max_examples=30, deadline=None)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS).filter(lambda m: m.size <= 144))
@example(hyperbolic_pair(4, 2))
@example(hyperbolic_pair(3, 3))
def test_index_p_walk_matches_join_every_member(m):
    got = [[h.indices for h in enum(m)] for enum in ENUMERATIONS]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            subgroups,
            "_subgroup_sets_of_subset",
            lambda m, members, p: join_every_member(m, members),
        )
        want = [[h.indices for h in enum(m)] for enum in ENUMERATIONS]
    assert got == want


@pytest.mark.parametrize(
    "m, count",
    [
        # (Z/p)^4 has sum_k [4 choose k]_p subgroups (Gaussian binomials)
        (hyperbolic_pair(2, 2), 1 + 15 + 35 + 15 + 1),
        (hyperbolic_pair(3, 3), 1 + 40 + 130 + 40 + 1),
        (hyperbolic_pair(4, 2), 249),
        (hyperbolic_pair(6, 2), 402),
        (hyperbolic_pair(8, 2), 671),
        (hyperbolic_pair(9, 3), 1066),
        (hyperbolic_pair(12, 2), 1494),
    ],
    ids=["(2,2)", "(3,3)", "(4,2)", "(6,2)", "(8,2)", "(9,3)", "(12,2)"],
)
def test_subgroup_counts(m, count):
    subs = enumerate_subgroups(m)
    assert len(subs) == count
    assert len({h.indices for h in subs}) == count
