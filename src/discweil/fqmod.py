"""Finite quadratic modules: finite abelian groups with a Q/Z-valued quadratic form.

A module is presented by generator orders (d_1, ..., d_k) together with the
values Q(g_i) and B(g_i, g_j) of the quadratic form and its polarization
B(x, y) = Q(x+y) - Q(x) - Q(y).  Values live in Q/Z and are stored as
Fractions reduced into [0, 1).  Everything here is exact: the signature is
read off the Gauss sum in a cyclotomic field, with no floating point.

Element x = (x_1, ..., x_k) has index sum_i x_i * d_{i+1} * ... * d_k (a
mixed radix, first coordinate most significant), and every per-element
computation reads one integer element table built with numpy in index
order and cached on the module: ``coords``, ``q_ints`` = L*Q(x) in [0, L)
(L the level) and the r x |D| table ``pairing`` of L*B on the generators.
Each is an int64 product reduced mod L once; an entry sums coordinates
x_j < d_j times residues below L, at most (L - 1) sum_j (d_j - 1).  A module
for which that reaches 2^63, or of level above 2^31 (exponents past int32),
or whose tables are over the byte budget is refused before any is built.
``indices_of`` maps coordinate rows back to indices.  An index set can also
be held as a bitset, a Python int with bit i for index i; ``translate`` moves
one by an element, a rotation within each digit of the mixed radix.
"""

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, prod
from numbers import Rational
from operator import index

import numpy as np

from .arith import factorize
from .cyclo import from_powers, root_of_unity
from .subgroups import EnumerationBoundError, _byte_check


def mod1(fr):
    """Reduce a rational into [0, 1), i.e. take its class in Q/Z; a float or a string raises TypeError."""
    if type(fr) is Fraction and 0 <= fr.numerator < fr.denominator:
        return fr
    if not isinstance(fr, Rational):
        raise TypeError("Q/Z values must be rational numbers, not %s" % type(fr).__name__)
    fr = Fraction(fr)
    return fr - (fr.numerator // fr.denominator)


def _frac_str(fr):
    return "%d/%d" % (fr.numerator, fr.denominator)


class DegenerateFormError(ValueError):
    pass


class FqModule:
    """A finite quadratic module (D, Q) in generator/Gram presentation.

    orders  d_i with D = prod Z/d_i
    qs      Q(g_i) in Q/Z
    bs      B(g_i, g_j) in Q/Z, symmetric, with B(g,g) = 2 Q(g)

    Equality is equality of presentations.  Instances are immutable.
    """

    def __init__(self, orders, qs, bs):
        # orders that are not integers and values that are not rationals raise TypeError
        try:
            self.orders = tuple(map(index, orders))
        except TypeError:
            raise TypeError("generator orders must be integers") from None
        self.qs = tuple(map(mod1, qs))
        self.bs = tuple(tuple(map(mod1, row)) for row in bs)
        k = len(self.orders)
        if any(d < 1 for d in self.orders):
            raise ValueError("generator orders must be positive")
        if len(self.qs) != k or len(self.bs) != k or any(len(r) != k for r in self.bs):
            raise ValueError("presentation size mismatch")
        self._validate()

    def _validate(self):
        # values in [0, 1) scaled by the level L: a check holds in Q/Z exactly when it holds mod L
        L, qg, bg = self._int_tables
        for i, (d, row) in enumerate(zip(self.orders, bg)):
            for j, b in enumerate(row):
                if b != bg[j][i]:
                    raise ValueError("bilinear values not symmetric")
                # d_i g_i = 0 forces d_i B(g_i, g_j) = 0 in Q/Z
                if d * b % L:
                    raise ValueError("bilinear value incompatible with order")
            if row[i] != 2 * qg[i] % L:
                raise ValueError("B(g,g) must equal 2 Q(g)")
            if d * d * qg[i] % L:
                raise ValueError("Q value incompatible with order")
        if L > 2**31 or (L - 1) * sum(d - 1 for d in self.orders) >= 2**63:
            raise EnumerationBoundError("level %d: exponents overflow int64 products or int32" % L)
        # coords and pairing, 8 r bytes per element each, q_ints, 8, and the
        # |D| x r product that q_ints is summed from
        _byte_check(self.size, 8 * (3 * len(self.orders) + 1), "the element tables")
        if self.radical_size() != 1:
            raise DegenerateFormError("bilinear form is degenerate")

    # -- structure ---------------------------------------------------------

    @cached_property
    def size(self):
        return prod(self.orders)

    @cached_property
    def level(self):
        """Smallest L with L*Q(x) integral for all x."""
        dens = [q.denominator for q in self.qs]
        dens += [b.denominator for row in self.bs for b in row]
        return lcm(1, *dens)

    @cached_property
    def _int_tables(self):
        """Q and B on generators scaled by the level, as plain ints in [0, L)."""
        L = self.level
        qg = [q.numerator * (L // q.denominator) for q in self.qs]
        bg = [[b.numerator * (L // b.denominator) for b in row] for row in self.bs]
        return L, qg, bg

    @cached_property
    def _strides(self):
        """Place values of the mixed radix: index = coords @ strides."""
        return np.array(
            [prod(self.orders[j + 1:]) for j in range(len(self.orders))], dtype=np.int64
        )

    @cached_property
    def _radix(self):
        """The generator orders as a read-only int64 array."""
        d = np.array(self.orders, dtype=np.int64)
        d.flags.writeable = False
        return d

    @cached_property
    def _cofactors(self):
        """{p: (d_j / p^e_j)_j, p^e_j the p-part of d_j}, p the primes dividing |D| in order."""
        out = {}
        for j, d in enumerate(self.orders):
            for p, e in factorize(d):
                out.setdefault(p, list(self.orders))[j] = d // p**e
        return {p: tuple(out[p]) for p in sorted(out)}

    @cached_property
    def coords(self):
        """All elements as rows of an int64 array, in index order."""
        idx = np.arange(self.size, dtype=np.int64)[:, None]
        X = idx // self._strides % self._radix
        X.flags.writeable = False  # shared by every caller of this module
        return X

    def indices_of(self, rows):
        """Indices of coordinate rows (any int array, last axis the coordinates)."""
        return np.asarray(rows) % self._radix @ self._strides

    @cached_property
    def _rotations(self):
        """Per generator j: d_j, its place value s_j, the repunit of its blocks and its low masks.

        The repunit sets bit 0 of every block of d_j s_j indices; the low
        mask of t, built on first use, sets the first (d_j - t) s_j bits of
        every block.  Together they take sum_j d_j ints of |D| bits, in
        CPython's 30-bit digits, charged on the byte budget here before any
        is built.
        """
        _byte_check(sum(self.orders), 4 * (self.size // 30) + 64, "the rotation masks")
        n = self.size
        return [
            (d, s, ((1 << n) - 1) // ((1 << d * s) - 1), [0] * d)
            for d, s in zip(self.orders, self._strides.tolist())
        ]

    def translate(self, bits, x):
        """The bitset of H + x, for the bitset of an index set H and reduced coordinates x.

        Bit i of ``bits`` stands for index i.  Adding t to coordinate j
        rotates digit j of every index: the indices whose j-th coordinate is
        below d_j - t (the low mask of t) move up by t s_j, the others down
        by (d_j - t) s_j.
        """
        for t, (d, s, rep, lows) in zip(x, self._rotations):
            if t:
                low = lows[t]
                if not low:
                    low = lows[t] = (rep << (d - t) * s) - rep
                a = bits & low
                bits = a << t * s | (bits ^ a) >> (d - t) * s
        return bits

    @cached_property
    def _gram(self):
        """B on generators scaled by the level, as an int64 matrix."""
        k = len(self.orders)
        return np.array(self._int_tables[2], dtype=np.int64).reshape(k, k)

    @cached_property
    def q_ints(self):
        """L*Q(x) in [0, L) for every element, in index order.

        L*Q(x) = sum_i x_i (U x)_i with U upper triangular: L*Q(g_i) on the
        diagonal and L*B(g_i, g_j) above it.
        """
        L, qg, _ = self._int_tables
        U = np.triu(self._gram, 1) + np.diag(np.array(qg, dtype=np.int64))
        X = self.coords
        Y = X @ U.T
        Y %= L
        Y *= X
        q = Y.sum(axis=1)
        q %= L
        q.flags.writeable = False
        return q

    @cached_property
    def pairing(self):
        """L*B(g_j, x) in [0, L) for every generator g_j and element x: the r x |D| table, read-only."""
        P = self._gram @ self.coords.T
        P %= self.level
        P.flags.writeable = False
        return P

    def b_ints(self, x):
        """L*B(x, y) in [0, L) for every element y, in index order."""
        return np.array(x, dtype=np.int64) @ self.pairing % self.level

    def index(self, x):
        i = 0
        for c, d in zip(x, self.orders):
            i = i * d + (c % d)
        return i

    def element_at(self, i):
        coords = []
        for d in reversed(self.orders):
            coords.append(i % d)
            i //= d
        return tuple(reversed(coords))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.orders))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.orders))

    # -- the form ----------------------------------------------------------

    def q_int(self, x):
        """Q(x) * level, as an integer in [0, level)."""
        L, qg, bg = self._int_tables
        t = 0
        k = len(self.orders)
        for i in range(k):
            xi = x[i]
            if xi:
                t += xi * xi * qg[i]
                for j in range(i + 1, k):
                    if x[j]:
                        t += xi * x[j] * bg[i][j]
        return t % L

    def b_int(self, x, y):
        """B(x, y) * level, as an integer in [0, level)."""
        L, _, bg = self._int_tables
        t = 0
        k = len(self.orders)
        for i in range(k):
            if x[i]:
                for j in range(k):
                    if y[j]:
                        t += x[i] * y[j] * bg[i][j]
        return t % L

    def q_value(self, x):
        self._check_coords(x)
        return Fraction(self.q_int(x), self.level)

    def b_value(self, x, y):
        self._check_coords(x)
        self._check_coords(y)
        return Fraction(self.b_int(x, y), self.level)

    def _check_coords(self, x):
        if len(x) != len(self.orders) or any(
            not 0 <= c < d for c, d in zip(x, self.orders)
        ):
            raise ValueError("element coordinates out of range: %r" % (x,))

    @cached_property
    def isotropic_indices(self):
        """Indices of all x with Q(x) = 0, ascending."""
        return tuple(np.flatnonzero(self.q_ints == 0).tolist())

    def radical_size(self):
        """Number of x with B(x, .) identically zero.  1 means non-degenerate."""
        return int(np.count_nonzero(~self.pairing.any(axis=0)))

    # -- Gauss sum and signature --------------------------------------------

    def gauss_sum(self):
        """Sum of e(Q(x)) over D, exact, at conductor the level (it lives there)."""
        hist = np.bincount(self.q_ints, minlength=self.level)  # L*Q(x) -> number of x
        return from_powers(self.level, {int(e): int(hist[e]) for e in np.flatnonzero(hist)})

    def signature_mod8(self):
        """The s in Z/8 with gauss sum = sqrt(|D|) e(s/8) (exact identification).

        The squared sum pins s mod 4; the sign of the sum itself against
        e(s/8) a sqrt(m), where |D| = a^2 m with m squarefree, tells s from s+4.
        """
        g = self.gauss_sum()
        n = self.size
        g2 = g * g
        for s in range(4):
            if g2 == root_of_unity(s, 4) * n:
                a, m = 1, 1
                for p, k in factorize(n):
                    a *= p ** (k // 2)
                    m *= p ** (k % 2)
                return s if g == root_of_unity(s, 8) * a * _sqrt_squarefree(m) else s + 4
        raise DegenerateFormError("gauss sum off the expected circle")


    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "orders": list(self.orders),
            "q_gen": [_frac_str(q) for q in self.qs],
            "b_gram": [[_frac_str(b) for b in row] for row in self.bs],
        }

    @classmethod
    def from_json(cls, obj):
        return cls(*presentation_from_json(obj))

    def __eq__(self, other):
        return (
            isinstance(other, FqModule)
            and self.orders == other.orders
            and self.qs == other.qs
            and self.bs == other.bs
        )

    @cached_property
    def _hash(self):
        return hash((self.orders, self.qs, self.bs))

    def __hash__(self):
        # cached: lru_cache keys hash the module on every call, and the
        # presentation holds k^2 Fractions
        return self._hash

    def __repr__(self):
        return "FqModule(orders=%r)" % (self.orders,)


def _typed(v, kinds):
    if type(v) not in kinds:
        raise TypeError("unexpected JSON type")
    return v


def presentation_from_json(obj):
    """(orders, qs, bs) of a module's JSON object or text, with nothing built;
    a missing or malformed field raises ValueError naming it."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("module JSON must be an object with orders, q_gen and b_gram")
    out = []
    for key, parse in (
        ("orders", lambda d: _typed(d, (int,))),
        ("q_gen", lambda s: Fraction(_typed(s, (int, str)))),
        ("b_gram", lambda row: [Fraction(_typed(s, (int, str))) for s in row]),
    ):
        if key not in obj:
            raise ValueError("module JSON has no %r field" % key)
        try:
            out.append([parse(v) for v in obj[key]])
        except (TypeError, ValueError, ZeroDivisionError):
            raise ValueError("module JSON field %r is malformed" % key) from None
    return out


def _sqrt_squarefree(m):
    """The positive square root of a squarefree m >= 1 as a cyclotomic number.

    An odd prime p gives its quadratic Gauss sum sum_x (x/p) zeta_p^x, which
    is sqrt(p) for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4; the prime 2
    gives zeta_8 + zeta_8^-1 = sqrt(2).
    """
    out = Fraction(1)
    for p, _ in factorize(m):
        if p == 2:
            out = out * (root_of_unity(1, 8) + root_of_unity(-1, 8))
            continue
        g = from_powers(p, {x: 1 if pow(x, (p - 1) // 2, p) == 1 else -1 for x in range(1, p)})
        out = out * (g * root_of_unity(-1, 4) if p % 4 == 3 else g)
    return out


def hyperbolic(N):
    """(Z/N)^2 with Q(x, y) = xy/N.  N = 1 gives the trivial module."""
    if N < 1:
        raise ValueError("scale must be a positive integer")
    z = Fraction(0)
    b = Fraction(1, N)
    return FqModule((N, N), (z, z), ((z, b), (b, z)))


def direct_sum(a, b):
    """Orthogonal sum: concatenated generators, block diagonal B."""
    k, l = len(a.orders), len(b.orders)
    z = Fraction(0)
    bs = []
    for i in range(k + l):
        row = []
        for j in range(k + l):
            if i < k and j < k:
                row.append(a.bs[i][j])
            elif i >= k and j >= k:
                row.append(b.bs[i - k][j - k])
            else:
                row.append(z)
        bs.append(row)
    return FqModule(a.orders + b.orders, a.qs + b.qs, bs)


@lru_cache(maxsize=32)
def hyperbolic_pair(N, Nprime):
    """The rank 4 module (Z/N)^2 + (Z/N')^2 with Q = x1 x2/N + x3 x4/N'.

    The presentation of direct_sum(hyperbolic(N), hyperbolic(N')), built and
    validated once.  Cached, as modules are immutable and the catalogs ask
    for the same pair once per member.
    """
    if N < 1 or Nprime < 1:
        raise ValueError("scale must be a positive integer")
    z, b, c = Fraction(0), Fraction(1, N), Fraction(1, Nprime)
    return FqModule(
        (N, N, Nprime, Nprime),
        (z, z, z, z),
        ((z, b, z, z), (b, z, z, z), (z, z, z, c), (z, z, c, z)),
    )


def p_primary_decomposition(m):
    """Split m into its p-primary orthogonal components.

    Returns a list of (p, component FqModule, embedding) sorted by p, where
    embedding[j] is the element of m realizing the component's j-th generator.
    The components are mutually orthogonal and their sizes multiply to |D|.
    """
    out = []
    strides = m._strides.tolist()
    for p, cofactors in m._cofactors.items():
        # the p-part of Z/d_i is generated by c_i g_i (index c_i s_i), of order d_i / c_i
        parts = [(d // c, c * s) for d, c, s in zip(m.orders, cofactors, strides) if c < d]
        emb = [m.element_at(i) for _, i in parts]
        qs, bs = [m.q_value(x) for x in emb], [[m.b_value(x, y) for y in emb] for x in emb]
        out.append((p, FqModule([o for o, _ in parts], qs, bs), emb))
    if not out:
        # trivial module
        out.append((1, m, []))
    return out
