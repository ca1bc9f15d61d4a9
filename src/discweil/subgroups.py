"""Subgroup enumeration and classification for finite quadratic modules.

Subgroups are stored by their full element-index set; equality and hashing
use that canonical set, so no normal-form theory is needed at these sizes.
Index sets are closed by one sumset helper, {x + y : x in A, y in B}, on the
module's element table: a span, the join <H, x> and the sum of subgroups of
coprime orders are all sumsets.  The zero element has index 0.
Enumeration splits into p-primary parts first (the subgroup lattice of a
finite abelian group is the product of its p-primary lattices).  Each part's
lattice is walked along its cover relation: every subgroup of a finite
abelian p-group is reached from 0 by joins of index p, and each index-p
supergroup of a found subgroup is built once, so the work grows with the
number of covers, not with |D_p| joins per subgroup.  One search serves all
subgroups and the isotropic and self-dual isotropic ones.
"""

import os
import re
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt, lcm

import numpy as np

from .arith import factorize

DEFAULT_BOUND = 10**4
# Bytes one dense table may take.  Tables too large for it are refused
# before they are allocated, like modules over the element bound.
BYTE_BUDGET = 2**31


class EnumerationBoundError(RuntimeError):
    """|D| exceeds the configured enumeration bound, or a table the byte budget."""


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

    @property
    def order(self):
        return len(self.indices)

    @cached_property
    def _element_tuples(self):
        """The elements in index order, built once per subgroup."""
        return tuple(map(self.parent.element_at, sorted(self.indices)))

    def element_tuples(self):
        return list(self._element_tuples)

    @cached_property
    def _gen_tuples(self):
        """The given generators, else a greedy list, found once per subgroup."""
        if self.gens:
            return tuple(map(self.parent.element_at, self.gens))
        return tuple(_greedy_gens(self.parent, self.indices))

    def gen_tuples(self):
        return list(self._gen_tuples)

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
    return lcm(*[d // gcd(d, int(c)) for c, d in zip(x, m.orders)])


def _array(s):
    """An index collection (a set or a sequence) as an int64 array."""
    return np.fromiter(s, np.int64, len(s))


def _sumset(m, a, b):
    """Index set {x + y : x in A, y in B} for index arrays A and B."""
    X = m.coords
    return frozenset(m.indices_of(X[a][:, None] + X[b]).ravel().tolist())


def _steps(m, h, x):
    """Indices of 0, x, ..., (r-1)x, r > 0 least with rx in the index array H.

    These are coset representatives of H in <H, x>: <H, x> is the sumset of
    H and the steps, with no sum repeated.
    """
    mult = m.indices_of(np.arange(element_order(m, x) + 1)[:, None] * np.asarray(x))
    in_h = np.zeros(m.size, dtype=bool)
    in_h[h] = True
    return mult[: 1 + int(np.argmax(in_h[mult[1:]]))]


def span_indices(m, gen_tuples):
    """Index set of the subgroup generated by the given element tuples."""
    cur = np.zeros(1, dtype=np.int64)
    for g in gen_tuples:
        cur = _array(_sumset(m, cur, _steps(m, cur, g)))
    return frozenset(cur.tolist())


def _greedy_gens(m, indices):
    """A short generating list for an index set, smallest indices first."""
    have = frozenset({0})
    gens = []
    for i in sorted(indices):
        if i in have:
            continue
        gens.append(m.element_at(i))
        have = span_indices(m, gens)
        if have == indices:
            break
    return gens


def _bound_check(size):
    """Refuse |D| = ``size`` over WEILREP_MAX_D, else over DEFAULT_BOUND."""
    env = os.environ.get("WEILREP_MAX_D")
    if env and not re.fullmatch("[0-9]+", env):
        raise ValueError("WEILREP_MAX_D must be a plain decimal integer >= 0, not %r" % env)
    bound = int(env) if env else DEFAULT_BOUND
    if size > bound:
        raise EnumerationBoundError(
            "|D| = %d exceeds enumeration bound %d" % (size, bound)
        )


def _byte_check(entries, width, what):
    """Refuse a table of ``entries`` values of ``width`` bytes each over BYTE_BUDGET."""
    need = entries * width
    if need > BYTE_BUDGET:
        raise EnumerationBoundError(
            "%s needs about %d bytes, over the budget of %d" % (what, need, BYTE_BUDGET)
        )


def _subgroup_sets_of_subset(m, members, p):
    """All subgroup index sets inside the index set ``members``.

    ``members`` is the p-part of D, or its isotropic elements.  The search
    walks the cover relation of the p-part's subgroup lattice: from each
    found H it tries only the members x outside H with p*x in H, and the
    join <H, x> is the sumset of H and {0, x, ..., (p-1)x}, of index p over
    H.  Every y in <H, x> outside H gives the same join, so those are marked
    done and each index-p supergroup of H is built once.  Nothing is missed:
    when H' contains H properly, H'/H has an element of order p, and so a
    step of index p leads from H towards H'.

    A member x joins H only when g + x stays a member for every generator g
    of H: in a subgroup that always holds, and for isotropic g and x,
    Q(g + x) = B(g, x), so <H, x> stays isotropic.  Each group carries the
    members that may join it, filtered as its generators grow.
    """
    inside = np.zeros(m.size, dtype=bool)
    inside[_array(members)] = True
    X = m.coords
    multiples = np.arange(p)[:, None]
    zero = frozenset({0})
    seen = {zero}
    queue = [(zero, np.flatnonzero(inside))]
    while queue:
        h, cand = queue.pop()
        ha = _array(h)
        in_h = np.zeros(m.size, dtype=bool)
        in_h[ha] = True
        done = in_h.copy()
        for i in cand[in_h[m.indices_of(p * X[cand])]].tolist():
            if done[i]:
                continue
            hx = _sumset(m, ha, m.indices_of(multiples * X[i]))
            done[_array(hx)] = True
            if hx not in seen:
                seen.add(hx)
                queue.append((hx, cand[inside[m.indices_of(X[cand] + X[i])]]))
    return seen


def _p_primary_index_sets(m):
    """Index sets of the p-primary parts of D, keyed by prime.

    The p-part of Z/d is the multiples of d / p^e, p^e the p-part of d.
    """
    primes = sorted({p for d in m.orders for p, _ in factorize(d)})
    out = {}
    for p in primes:
        step = np.array([d // p ** dict(factorize(d)).get(p, 0) for d in m.orders])
        out[p] = frozenset(np.flatnonzero((m.coords % step == 0).all(axis=1)).tolist())
    return out


def _enumerate(m, isotropic=False, self_dual=False):
    """The subgroups of D, or its isotropic or self-dual isotropic ones, in order.

    Any subgroup splits uniquely over the primes, so each p-part is searched
    alone and the results are summed.  The p-parts are mutually orthogonal:
    H is isotropic exactly when every H_p is, and self-dual exactly when
    every |H_p|^2 = |D_p|.
    """
    _bound_check(m.size)
    iso = frozenset(m.isotropic_indices) if isotropic else None
    combined = [frozenset({0})]
    for p, part in sorted(_p_primary_index_sets(m).items()):
        sets = _subgroup_sets_of_subset(m, part & iso if isotropic else part, p)
        psets = [_array(b) for b in sets if not self_dual or len(b) ** 2 == len(part)]
        combined = [_sumset(m, a, b) for a in map(_array, combined) for b in psets]
    uniq = sorted(set(combined), key=lambda s: (len(s), sorted(s)))
    return [Subgroup(m, s) for s in uniq]


def enumerate_subgroups(m):
    """Every subgroup of D exactly once, canonically ordered."""
    return _enumerate(m)


def enumerate_isotropic_subgroups(m):
    """All totally isotropic subgroups (Q vanishes identically on H)."""
    return _enumerate(m, isotropic=True)


def enumerate_self_dual_isotropic(m):
    """Isotropic subgroups with H equal to its own orthogonal complement."""
    r = isqrt(m.size)
    if r * r != m.size:
        return []
    return _enumerate(m, isotropic=True, self_dual=True)


def complement(h):
    """The orthogonal complement of a subgroup under B."""
    m = h.parent
    perp = np.ones(m.size, dtype=bool)
    for g in h.gen_tuples():
        perp &= m.b_ints(g) == 0
    return Subgroup(m, np.flatnonzero(perp).tolist())


def classify(h):
    """Definitional classification flags, used as the oracle everywhere."""
    m = h.parent
    gens = h.gen_tuples()
    self_orth = all(m.b_int(a, b) == 0 for a in gens for b in gens)
    comp = complement(h)
    return SubgroupClass(
        is_isotropic=not m.q_ints[list(h.indices)].any(),
        is_self_orthogonal=self_orth,
        is_self_dual=comp.indices == h.indices,
        is_coisotropic=not m.q_ints[list(comp.indices)].any(),
    )


def isotropic_rows(m, subgroups):
    """The 0/1 rows of the given subgroups over m.isotropic_indices."""
    iso = m.isotropic_indices
    return [[1 if i in h.indices else 0 for i in iso] for h in subgroups]
