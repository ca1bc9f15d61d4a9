"""Subgroup enumeration and classification for finite quadratic modules.

Subgroups are stored by their full element-index set; equality and hashing
use that canonical set, so no normal-form theory is needed at these sizes.
The zero element has index 0.  While a set is built it is held as a bitset,
the Python int with bit i for index i, and closed by one join: <H, x> by
doubling, cur |= cur + 2^i x, where each translation by an element rotates
the digits of the mixed radix (``FqModule.translate``).  A span, a step of
the walk and the sum of subgroups of coprime orders are all such joins.
Enumeration splits into p-primary parts first (the subgroup lattice of a
finite abelian group is the product of its p-primary lattices).  Each part's
lattice is walked along its cover relation: every subgroup of a finite
abelian p-group is reached from 0 by joins of index p, and each index-p
supergroup of a found subgroup is built once, so the work grows with the
number of covers, not with |D_p| joins per subgroup.  One search serves all
subgroups and the isotropic and self-dual isotropic ones.
"""

import os
from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt, lcm

import numpy as np

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


def _pack(flags):
    """|D| booleans in index order as a bitset: the int with bit i set when flag i is."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _unpack(m, bits):
    """A bitset as |D| booleans in index order."""
    raw = np.frombuffer(bits.to_bytes(-(-m.size // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=m.size, bitorder="little").view(bool)


def _bits(m, indices):
    """An index collection as a bitset."""
    flags = np.zeros(m.size, dtype=bool)
    flags[list(indices)] = True
    return _pack(flags)


def _index_set(m, bits):
    """The indices of a bitset, as a frozenset."""
    return frozenset(np.flatnonzero(_unpack(m, bits)).tolist())


def _span(m, h, gens, order):
    """The bitset of <H, gens>, for the bitset of a subgroup H and reduced generators.

    ``order`` is a multiple of the order r of each generator x mod the span
    before it.  Doubling keeps cur = H + {0, x, ..., (2^i - 1) x}:
    cur |= cur + 2^i x.  It is <H, x> once 2^i >= r, and as soon as a step
    adds nothing (cur is then closed under x), so a join of order r costs
    about log2 r translations.
    """
    for x in gens:
        n = 1
        while True:
            step = h | m.translate(h, x)
            n *= 2
            if step == h or n >= order:
                break
            h, x = step, tuple(2 * c % d for c, d in zip(x, m.orders))
        h = step
    return h


def span_indices(m, gen_tuples):
    """Index set of the subgroup generated by the given element tuples.

    The span grows from {0} on a bitset by one doubling join per generator,
    about log2 of the generator's order translations each.
    """
    gens = [tuple(int(c) % d for c, d in zip(g, m.orders)) for g in gen_tuples]
    return _index_set(m, _span(m, 1, gens, lcm(*m.orders)))


def _greedy_gens(m, indices):
    """A short generating list for an index set, smallest indices first."""
    target, have, exponent = _bits(m, indices), 1, lcm(*m.orders)
    gens = []
    for i in sorted(indices):
        if have >> i & 1:
            continue
        gens.append(m.element_at(i))
        have = _span(m, have, gens[-1:], exponent)
        if have == target:
            break
    return gens


def _bound_check(size):
    """Refuse |D| = ``size`` over WEILREP_MAX_D, else over DEFAULT_BOUND."""
    env = os.environ.get("WEILREP_MAX_D")
    if env and not (env.isascii() and env.isdigit()):
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
    walks the cover relation of the p-part's subgroup lattice on bitsets:
    from each found H it tries only the members x outside H with p*x in H,
    and the join <H, x>, of index p over H, closes by doubling in about
    log2 p translations.  Every y in <H, x> outside H gives the same join,
    so those are marked done and each index-p supergroup of H is built
    once.  Nothing is missed: when H' contains H properly, H'/H has an
    element of order p, and so a step of index p leads from H towards H'.

    A member x joins H only when g + x stays a member for every generator g
    of H: in a subgroup that always holds, and for isotropic g and x,
    Q(g + x) = B(g, x), so <H, x> stays isotropic.  Each group carries the
    members that may join it, filtered as its generators grow: the members
    c with c + x a member are the bitset cand & (members - x).
    """
    inside = _bits(m, members)
    X = m.coords
    times_p = m.indices_of(p * X)
    seen = {1}
    queue = [(1, inside)]
    while queue:
        h, cand = queue.pop()
        todo = cand & _pack(_unpack(m, h)[times_p]) & ~h
        while todo:
            x = X[(todo & -todo).bit_length() - 1].tolist()
            hx = _span(m, h, [x], p)
            todo &= ~hx
            if hx not in seen:
                seen.add(hx)
                queue.append((hx, cand & m.translate(inside, m.neg(x))))
    return {_index_set(m, b) for b in seen}


def _p_primary_index_sets(m):
    """Index sets of the p-primary parts of D, keyed by prime.

    The p-part of Z/d is the multiples of d / p^e, p^e the p-part of d.
    """
    return {
        p: frozenset(np.flatnonzero((m.coords % np.array(step) == 0).all(axis=1)).tolist())
        for p, step in m._cofactors.items()
    }


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
        psets = [b for b in sets if not self_dual or len(b) ** 2 == len(part)]
        if combined == [frozenset({0})]:  # the first part: its sets as they are
            combined = psets
            continue
        gens, exponent = [_greedy_gens(m, b) for b in psets], lcm(*m.orders)
        combined = [_index_set(m, _span(m, a, g, exponent)) for a in map(partial(_bits, m), combined) for g in gens]
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
