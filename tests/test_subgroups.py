import tracemalloc
from fractions import Fraction as F
from functools import reduce
from itertools import product
from math import gcd, lcm

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
    _greedy_gens,
    _pack,
    _unpack,
    classify,
    complement,
    enumerate_isotropic_subgroups,
    enumerate_self_dual_isotropic,
    enumerate_subgroups,
    span_indices,
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


def _array(s):
    """An index collection (a set or a sequence) as an int64 array."""
    return np.fromiter(s, np.int64, len(s))


def _sumset(m, a, b):
    """Test oracle: the index set {x + y : x in A, y in B} for index arrays A and B."""
    X = m.coords
    return frozenset(m.indices_of(X[a][:, None] + X[b]).ravel().tolist())


def _steps(m, h, x):
    """Indices of 0, x, ..., (r-1)x, r > 0 least with rx in the index array H.

    These are coset representatives of H in <H, x>: <H, x> is the sumset of
    H and the steps, with no sum repeated.
    """
    order = lcm(*[d // gcd(d, int(c)) for c, d in zip(x, m.orders)])
    mult = m.indices_of(np.arange(order + 1)[:, None] * np.asarray(x))
    in_h = np.zeros(m.size, dtype=bool)
    in_h[h] = True
    return mult[: 1 + int(np.argmax(in_h[mult[1:]]))]


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


# Z/12 + Z/6 with Q = x^2/24 + y^2/12: its 2-part Z/4 + Z/2 mixes exponents
MIXED = direct_sum(FqModule((12,), [F(1, 24)], [[F(1, 12)]]), FqModule((6,), [F(1, 12)], [[F(1, 6)]]))


@settings(max_examples=40)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS), st.integers(0, 2**16))
@example(hyperbolic_pair(6, 1), 0)
@example(MIXED, 0)
def test_translate_matches_indices_of(m, seed):
    # orders 6 and 12 are no prime powers: the rotations of one digit then
    # move whole blocks of the digits after it
    rng = np.random.default_rng(seed)
    flags = rng.random(m.size) < 0.5
    x = m.coords[rng.integers(m.size)]
    want = np.zeros(m.size, dtype=bool)
    want[m.indices_of(m.coords[flags] + x)] = True
    assert (_unpack(m, m.translate(_pack(flags), x.tolist())) == want).all()


@settings(max_examples=40)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS), st.integers(0, 2**16))
@example(direct_sum(COMPONENTS[4], negated(COMPONENTS[4])), 0)
@example(MIXED, 0)
def test_span_indices_matches_closure(m, seed):
    rng = np.random.default_rng(seed)
    gens = [m.element_at(int(i)) for i in rng.integers(m.size, size=rng.integers(4))]
    h = span_indices(m, gens)
    assert h == closure(m, gens)
    # the greedy generators span the same set, and each one is needed
    greedy = _greedy_gens(m, h)
    assert span_indices(m, greedy) == h
    assert all(span_indices(m, greedy[:k]) != h for k in range(len(greedy)))


@settings(max_examples=30, deadline=None)
@given(st.one_of(DIRECT_SUMS, CHANGED_PAIRS).filter(lambda m: m.size <= 144))
@example(hyperbolic_pair(4, 2))
@example(hyperbolic_pair(3, 3))
@example(direct_sum(COMPONENTS[4], negated(COMPONENTS[4])))  # p = 7: doubling past 2^2
@example(MIXED)
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


def test_rotation_masks_are_charged_before_they_are_built(monkeypatch):
    # (Z/97)^2: per digit a repunit and 96 masks of up to |D| = 9409 bits,
    # charged 4 bytes per 30 bits and 64 for the int's header and its slot.
    # One byte under the charge the walk is refused with no mask built; at
    # the charge it runs, and every mask the module can need stays within it.
    charge = 2 * 97 * (4 * (97**2 // 30) + 64)
    m, fresh, full = hyperbolic(97), hyperbolic(97), (1 << 97**2) - 1
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", charge - 1)
    with pytest.raises(EnumerationBoundError, match="rotation masks"):
        enumerate_subgroups(m)
    assert "_rotations" not in m.__dict__
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", charge)
    assert len(enumerate_subgroups(m)) == 97 + 3
    tracemalloc.start()
    try:
        for j, t in product(range(2), range(1, 97)):
            fresh.translate(full, (t, 0) if j == 0 else (0, t))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= charge
