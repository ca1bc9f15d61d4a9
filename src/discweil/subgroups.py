"""Subgroup enumeration and classification for finite quadratic modules.

Subgroups are stored by their full element-index set; equality and hashing
use that canonical set, so no normal-form theory is needed at these sizes.
Enumeration splits into p-primary parts first (the subgroup lattice of a
finite abelian group is the product of its p-primary lattices), which keeps
the breadth-first closure tiny even for |D| in the thousands.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .arith import factorize
from .groupring import GroupRingVector

DEFAULT_BOUND = 10**4


class EnumerationBoundError(RuntimeError):
    """|D| exceeds the configured enumeration bound."""


@dataclass(frozen=True)
class SubgroupClass:
    is_isotropic: bool
    is_self_orthogonal: bool
    is_self_dual: bool
    is_coisotropic: bool

    def to_json(self):
        return {
            "isotropic": self.is_isotropic,
            "self_orthogonal": self.is_self_orthogonal,
            "self_dual": self.is_self_dual,
            "coisotropic": self.is_coisotropic,
        }


class Subgroup:
    """A subgroup of an FqModule, identified by its element-index set."""

    def __init__(self, parent, indices, gens=()):
        self.parent = parent
        self.indices = frozenset(indices)
        self.gens = tuple(gens)

    @classmethod
    def from_gens(cls, parent, gen_tuples):
        idx = span_indices(parent, gen_tuples)
        return cls(parent, idx, tuple(parent.index(g) for g in gen_tuples))

    @classmethod
    def trivial(cls, parent):
        zero = parent.index(tuple(0 for _ in parent.orders))
        return cls(parent, {zero})

    @property
    def order(self):
        return len(self.indices)

    def element_tuples(self):
        at = self.parent.element_at
        return [at(i) for i in sorted(self.indices)]

    def gen_tuples(self):
        at = self.parent.element_at
        if self.gens:
            return [at(i) for i in self.gens]
        return _greedy_gens(self.parent, self.indices)

    def __contains__(self, x):
        if isinstance(x, tuple):
            x = self.parent.index(x)
        return x in self.indices

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.indices == other.indices
        )

    def __hash__(self):
        return hash((self.parent, self.indices))

    def __le__(self, other):
        return self.indices <= other.indices

    def to_json(self):
        return {
            "order": self.order,
            "gens": [list(g) for g in self.gen_tuples()],
            "elements": [list(x) for x in self.element_tuples()],
        }

    def __repr__(self):
        return "Subgroup(order=%d, gens=%r)" % (self.order, self.gen_tuples())


def element_order(m, x):
    return lcm(*[d // gcd(d, c) for c, d in zip(x, m.orders)]) if x else 1


def span_indices(m, gen_tuples):
    """Index set of the subgroup generated by the given element tuples."""
    zero = tuple(0 for _ in m.orders)
    cur = {zero}
    for g in gen_tuples:
        n = element_order(m, g)
        new = set()
        shift = zero
        for _ in range(n):
            for h in cur:
                new.add(m.add(h, shift))
            shift = m.add(shift, g)
        cur = new
    return frozenset(m.index(x) for x in cur)


def _greedy_gens(m, indices):
    """A short generating list for an index set, smallest indices first."""
    zero_idx = m.index(tuple(0 for _ in m.orders))
    have = frozenset({zero_idx})
    gens = []
    for i in sorted(indices):
        if i in have:
            continue
        gens.append(m.element_at(i))
        have = span_indices(m, gens)
        if have == indices:
            break
    return gens


def _join(m, h_indices, x):
    """Index set of <H, x> for a subgroup index set H and element tuple x."""
    at = m.element_at
    base = [at(i) for i in h_indices]
    n = element_order(m, x)
    new = set()
    shift = tuple(0 for _ in m.orders)
    for _ in range(n):
        for h in base:
            new.add(m.index(m.add(h, shift)))
        shift = m.add(shift, x)
    return frozenset(new)


def _bound_check(m, bound):
    if bound is None:
        env = os.environ.get("WEILREP_MAX_D")
        bound = int(env) if env else DEFAULT_BOUND
    if m.size > bound:
        raise EnumerationBoundError(
            "|D| = %d exceeds enumeration bound %d" % (m.size, bound)
        )


def _subgroup_sets_of_subset(m, subset):
    """All subgroup index sets contained in a given subgroup index set."""
    zero = m.index(tuple(0 for _ in m.orders))
    seen = {frozenset({zero})}
    queue = [frozenset({zero})]
    members = sorted(subset)
    while queue:
        h = queue.pop()
        for i in members:
            if i in h:
                continue
            hx = _join(m, h, m.element_at(i))
            if hx not in seen:
                seen.add(hx)
                queue.append(hx)
    return seen


def _p_primary_index_sets(m):
    """Index sets of the p-primary parts of D, keyed by prime."""
    orders = [element_order(m, x) for x in m.element_list]
    primes = sorted({p for d in m.orders for p, _ in factorize(d)})
    return {
        p: frozenset(i for i, n in enumerate(orders) if _is_ppower(n, p))
        for p in primes
    }


def _is_ppower(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def enumerate_subgroups(m, bound=None):
    """Every subgroup of D exactly once, canonically ordered.

    Works p-primary part by p-primary part and then takes sums, since any
    subgroup splits uniquely over the primes.
    """
    _bound_check(m, bound)
    parts = _p_primary_index_sets(m)
    zero = m.index(tuple(0 for _ in m.orders))
    combined = [frozenset({zero})]
    for p in sorted(parts):
        psets = _subgroup_sets_of_subset(m, parts[p])
        at = m.element_at
        new = []
        for a in combined:
            atoms = [at(i) for i in a]
            for b in psets:
                s = set()
                for i in b:
                    xb = at(i)
                    for xa in atoms:
                        s.add(m.index(m.add(xa, xb)))
                new.append(frozenset(s))
        combined = new
    uniq = sorted(set(combined), key=lambda s: (len(s), sorted(s)))
    return [Subgroup(m, s) for s in uniq]


def enumerate_isotropic_subgroups(m, bound=None):
    """All totally isotropic subgroups (Q vanishes identically on H)."""
    _bound_check(m, bound)
    iso = set(m.isotropic_indices)
    zero = m.index(tuple(0 for _ in m.orders))
    seen = {frozenset({zero})}
    queue = [frozenset({zero})]
    at = m.element_at
    while queue:
        h = queue.pop()
        gens_t = [at(i) for i in h]
        for i in iso:
            if i in h:
                continue
            x = at(i)
            # x must be orthogonal to H: isotropic + orthogonal extensions
            # of an isotropic group stay isotropic
            if any(m.b_int(x, g) for g in gens_t):
                continue
            hx = _join(m, h, x)
            if hx not in seen:
                seen.add(hx)
                queue.append(hx)
    uniq = sorted(seen, key=lambda s: (len(s), sorted(s)))
    return [Subgroup(m, s) for s in uniq]


def enumerate_self_dual_isotropic(m, bound=None):
    """Isotropic subgroups with H equal to its own orthogonal complement."""
    from math import isqrt

    r = isqrt(m.size)
    if r * r != m.size:
        return []
    return [h for h in enumerate_isotropic_subgroups(m, bound) if h.order == r]


def complement(h):
    """The orthogonal complement of a subgroup under B."""
    m = h.parent
    gens = h.gen_tuples()
    idx = frozenset(
        i
        for i, x in enumerate(m.element_list)
        if all(m.b_int(x, g) == 0 for g in gens)
    )
    return Subgroup(m, idx)


def classify(h):
    """Definitional classification flags, used as the oracle everywhere."""
    m = h.parent
    elems = h.element_tuples()
    gens = h.gen_tuples()
    iso = all(m.q_int(x) == 0 for x in elems)
    self_orth = all(m.b_int(a, b) == 0 for a in gens for b in gens)
    comp = complement(h)
    return SubgroupClass(
        is_isotropic=iso,
        is_self_orthogonal=self_orth,
        is_self_dual=comp.indices == h.indices,
        is_coisotropic=all(m.q_int(x) == 0 for x in comp.element_tuples()),
    )


def characteristic_vector(h):
    """The 0/1 group-ring vector supported exactly on H."""
    return GroupRingVector.characteristic(h.parent, sorted(h.indices))
