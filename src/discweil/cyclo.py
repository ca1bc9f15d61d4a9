"""Exact arithmetic in cyclotomic fields Q(zeta_M).

One value, one representation: a rational number is always a ``Fraction``
and a ``CycNumber`` is always irrational.  Every number this module hands
out (arithmetic, ``root_of_unity``, ``exp_frac``, ``exp_frac_product``,
``from_coordinates``, ``from_powers``) is built by ``_make``, which returns
a Fraction whenever the power-basis coordinates are rational;
``coordinates`` reads the integer coordinates of either kind at a chosen
conductor.

A CycNumber of conductor M is stored canonically: integer coordinates
(c_0, ..., c_(phi-1)) in the power basis 1, zeta_M, ..., zeta_M^(phi(M)-1)
over a positive denominator coprime to their content, so equality reads
fields.  A sum adds coordinates and a product is an integer convolution
reduced by the one cached table of the powers zeta_M^e, 0 <= e < M, whose
rows hold only their nonzero coordinates.  The text form depends on the
value and the conductor: r zeta_M^e prints as r*zM^e (r > 0 where -zeta_M^e
is a power too), anything else as the power-basis sum.  A CycNumber keeps
the conductor its computation reached, so equal irrational values can print
differently: root_of_unity(3, 72) == root_of_unity(1, 24), printed 1*z72^3
and 1*z24^1.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .arith import divisors

cache = lru_cache(maxsize=None)


# ---------------------------------------------------------------- polynomials
# integer polynomials as tuples of coefficients, low degree first


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(out)


def _poly_divmod_exact(a, b):
    " divide integer polys, b monic; remainder must come out zero "
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = a[i + len(b) - 1]
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    assert all(c == 0 for c in a), "non-exact polynomial division"
    return tuple(q)


@cache
def cyclotomic_poly(M):
    """Coefficients of the M-th cyclotomic polynomial, low degree first."""
    num = tuple([-1] + [0] * (M - 1) + [1])  # x^M - 1
    den = (1,)
    for d in divisors(M):
        if d < M:
            den = _poly_mul(den, cyclotomic_poly(d))
    return _poly_divmod_exact(num, den)


@cache
def _powers(M):
    """Row e = the nonzero (index, value) pairs of the power-basis integer
    coordinates of zeta_M^e, by index, 0 <= e < M.

    Below phi(M) a row is ((e, 1),); from phi(M) on, row e is row e - 1
    times x, reduced once by Phi_M, so no dense row is ever built.
    """
    poly = cyclotomic_poly(M)
    deg = len(poly) - 1
    low = [(j, c) for j, c in enumerate(poly[:deg]) if c]
    rows = [((e, 1),) for e in range(min(deg, M))]
    for _ in range(deg, M):
        cur = {j + 1: r for j, r in rows[-1] if j + 1 < deg}
        last, top = rows[-1][-1]
        if last == deg - 1:
            for j, c in low:
                cur[j] = cur.get(j, 0) - top * c
        rows.append(tuple(sorted((j, r) for j, r in cur.items() if r)))
    return tuple(rows)


@cache
def _monomials(M):
    """Sparse row of zeta_M^e -> e; every such row is primitive."""
    return {row: e for e, row in enumerate(_powers(M))}


def _reduce(M, terms):
    """Power-basis integer coordinates of sum c zeta_M^e over (e, c) pairs."""
    rows = _powers(M)
    out = [0] * degree(M)
    for e, c in terms:
        for j, r in rows[e % M]:
            out[j] += c * r
    return out


def degree(M):
    """phi(M), the number of power-basis coordinates of Q(zeta_M)."""
    return len(cyclotomic_poly(M)) - 1


def sparse_coordinates(M, terms):
    """Nonzero (index, value) pairs of the power-basis integer coordinates of
    sum c zeta_M^e over (e, c) pairs."""
    return [(j, x) for j, x in enumerate(_reduce(M, terms)) if x]


def fold(M, full):
    """Power-basis coordinates of sum full[k] zeta_M^k over a list of 2 phi - 1
    ints: the top half full[phi:] reduced once by the coordinates of zeta_M^k."""
    n = (len(full) + 1) // 2
    out = full[:n]
    rows = _powers(M)
    for k in range(n, len(full)):
        c = full[k]
        if c:
            for j, r in rows[k % M]:
                out[j] += c * r
    return out


def _make(M, coords, den):
    """The number coords / den of conductor M, den > 0: a Fraction when it
    is rational, otherwise a CycNumber with the content divided out."""
    if not any(coords[1:]):
        # Fraction of one int takes no gcd
        return Fraction(coords[0]) if den == 1 else Fraction(coords[0], den)
    g = 1 if den == 1 else gcd(den, *coords)
    x = object.__new__(CycNumber)
    x.conductor = M
    x.coords = tuple(coords) if g == 1 else tuple(c // g for c in coords)
    x.den = den // g
    return x


def from_coordinates(M, coords):
    """The element of Z[zeta_M] with power-basis coordinates coords."""
    return _make(M, coords, 1)


def from_powers(M, coeffs):
    """The number sum v zeta_M^e of an exponent -> rational map, its values
    ints or Fractions."""
    den = lcm(*(v.denominator for v in coeffs.values()))
    return _make(M, _reduce(M, ((e, v.numerator * (den // v.denominator)) for e, v in coeffs.items())), den)


def coordinates(M, x):
    """The power-basis integer coordinates of x in Z[zeta_M], for a Fraction
    or a CycNumber whose conductor divides M; ValueError off Z[zeta_M]."""
    if isinstance(x, CycNumber):
        x = x.promote(M)
        coords, den = list(x.coords), x.den
    else:
        x = Fraction(x)
        coords, den = [x.numerator] + [0] * (degree(M) - 1), x.denominator
    if den != 1:
        raise ValueError("not an element of Z[zeta_%d]" % M)
    return coords


class CycNumber:
    """An irrational element of Q(zeta_M): integer power-basis coordinates
    over den.  Only ``_make`` builds one."""

    __slots__ = ("conductor", "coords", "den")

    def promote(self, M):
        if M == self.conductor:
            return self
        if M % self.conductor:
            raise ValueError("new conductor must be a multiple")
        return self._substitute(M, M // self.conductor)

    def _substitute(self, M, k):
        """The number at conductor M with every zeta^j replaced by zeta_M^(j k)."""
        return _make(M, _reduce(M, ((j * k, c) for j, c in enumerate(self.coords) if c)), self.den)

    def _pair(self, other):
        if other.conductor == self.conductor:
            return self, other
        M = lcm(self.conductor, other.conductor)
        return self.promote(M), other.promote(M)

    def _monomial(self):
        """(r, e) with self = r zeta_M^e, r > 0 where there is a choice; or None."""
        g = gcd(*self.coords)
        table = _monomials(self.conductor)
        unit = tuple((j, c // g) for j, c in enumerate(self.coords) if c)
        if unit in table:
            return Fraction(g, self.den), table[unit]
        unit = tuple((j, -c) for j, c in unit)
        if unit in table:
            return Fraction(-g, self.den), table[unit]
        return None

    # -- arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            den = lcm(self.den, other.denominator)
            coords = [c * (den // self.den) for c in self.coords]
            coords[0] += other.numerator * (den // other.denominator)
            return _make(self.conductor, coords, den)
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        den = lcm(a.den, b.den)
        fa, fb = den // a.den, den // b.den
        return _make(a.conductor, [x * fa + y * fb for x, y in zip(a.coords, b.coords)], den)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.conductor, [-c for c in self.coords], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Fraction(other)
            return _make(
                self.conductor,
                [c * other.numerator for c in self.coords],
                self.den * other.denominator,
            )
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        M = a.conductor
        n = len(a.coords)
        full = [0] * (2 * n - 1)
        bnz = [(j, y) for j, y in enumerate(b.coords) if y]
        for i, x in enumerate(a.coords):
            if x:
                for j, y in bnz:
                    full[i + j] += x * y
        return _make(M, fold(M, full), a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inv() ** (-n)
        out = Fraction(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def inv(self):
        """1 / self: zeta^-e / r for r zeta^e, otherwise the product of the
        other Galois conjugates divided by the norm, a nonzero rational."""
        M = self.conductor
        mono = self._monomial()
        if mono is not None:
            return root_of_unity(-mono[1], M) * (1 / mono[0])
        rest = Fraction(1)
        for k in range(2, M):
            if gcd(k, M) == 1:
                rest = rest * self._substitute(M, k)
        return rest / (self * rest)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def conjugate(self):
        return self._substitute(self.conductor, -1)

    def __eq__(self, other):
        if not isinstance(other, CycNumber):
            return NotImplemented
        a, b = self._pair(other)
        return a.coords == b.coords and a.den == b.den

    __hash__ = None

    # -- evaluation and output

    def mod_prime(self, q, t):
        """Value in F_q after zeta_M -> t (t of multiplicative order M mod q)."""
        out = sum(c * pow(t, j, q) for j, c in enumerate(self.coords) if c)
        return out * pow(self.den, -1, q) % q

    def to_json(self):
        terms = []
        for i, c in enumerate(self.coords):
            if c:
                v = Fraction(c, self.den)
                terms.append([i, "%d/%d" % (v.numerator, v.denominator)])
        return {"conductor": self.conductor, "terms": terms}

    def __repr__(self):
        """r zeta_M^e as r*zM^e, anything else as the power-basis sum."""
        M = self.conductor
        mono = self._monomial()
        if mono is not None:
            return "%s*z%d^%d" % (mono[0], M, mono[1])
        bits = []
        for j, c in enumerate(self.coords):
            if c:
                v = Fraction(c, self.den)
                bits.append(str(v) if j == 0 else "%s*z%d^%d" % (v, M, j))
        return " + ".join(bits)


def root_of_unity(a, M):
    """zeta_M^a."""
    if M < 1:
        raise ValueError("conductor must be positive")
    return _make(M, _reduce(M, ((a, 1),)), 1)


def exp_frac(fr):
    """e(fr) = exp(2 pi i fr) for a rational fr, exact."""
    fr = Fraction(fr)
    return root_of_unity(fr.numerator % fr.denominator, fr.denominator)


def exp_frac_product(pairs):
    """prod e(s)^c over pairs (s, c) of a rational s and an integer c, exact.

    The value is e(sum c s), one root of unity, built at the conductor the
    running product of the exp_frac(s) ** c reaches, so it is that product
    in type, text and JSON: the lcm of the conductors of its irrational
    factors e(s)^c (each the reduced denominator of s), restarted whenever
    a partial product is +-1.  The exponents are summed as integers over
    the lcm L of the denominators: e(t/L) is +-1 exactly when L | 2t.
    """
    pairs = [(Fraction(s), c) for s, c in pairs]
    L = lcm(*(s.denominator for s, _ in pairs))
    total = 0
    M = 1
    for s, c in pairs:
        t = s.numerator * (L // s.denominator) * c
        if 2 * t % L:
            M = lcm(M, s.denominator)
        total += t
        if not 2 * total % L:
            M = 1
    if M == 1:
        return Fraction(-1 if total % L else 1)
    # e(total/L) = zeta_2M^e; at odd M an odd e is -zeta_M^((e - M)/2), no power of zeta_M
    e = 2 * total * M // L
    if e % 2 == 0:
        return root_of_unity(e // 2, M)
    return -root_of_unity((e - M) // 2, M)
