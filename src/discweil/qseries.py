"""Truncated q-series with fractional exponents and cyclotomic coefficients.

A series keeps a single exponent denominator m: the term map sends an integer
key k to the coefficient of q^(k/m).  Truncation metadata propagates through
arithmetic pessimistically, so an identity check can never silently compare
coefficients beyond what both sides actually know.

Every product expansion, a Borcherds lift side or an eta quotient, runs one
recurrence, the Euler transform ``_euler``: n b_n = sum s_k b_(n-k) with
sum s_k t^k = t d/dt log of the product, so no series powers and no inverse.
``product_terms`` builds the s_k from explicit factors (1 - zeta_M^a t^s)^c;
an eta quotient has them in closed form: as log(1 - x) = -sum_m x^m/m, each
n | j gives prod_n (1 - zeta_M^(a n) t^(s n))^e the term -e s n zeta_M^(a j)
at k = j s, in all -e s sigma(j) zeta_M^(a j).  With integer exponents every
coefficient lies in Z[zeta_M], so the recurrence runs on integer power-basis
coordinates and checks each division by n.  The sparse pentagonal eta
expansion and the naive truncated product stay as oracles, as do the per-n
factors of an eta quotient fed to ``product_terms`` and the Fraction
bookkeeping of ``EtaQuotient.expand`` (in the tests).
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .cyclo import CycNumber, degree, exp_frac, fold, from_coordinates, sparse_coordinates


def _coeff_json(v):
    if isinstance(v, CycNumber):
        return v.to_json()
    v = Fraction(v)
    return [v.numerator, v.denominator]


def _key_bound(trunc, m):
    """ceil(trunc m): an integer key k lies below the truncation trunc exactly when k < it."""
    return -(-trunc.numerator * m // trunc.denominator)


class FracQSeries:
    """Sparse truncated series sum_k c_k q^(k/exp_den) with k/exp_den < trunc."""

    __slots__ = ("exp_den", "terms", "trunc")

    def __init__(self, exp_den, terms, trunc):
        if exp_den < 1:
            raise ValueError("exponent denominator must be positive")
        self.exp_den = exp_den
        self.trunc = trunc = Fraction(trunc)
        bound = _key_bound(trunc, exp_den)
        self.terms = {
            k: v for k, v in terms.items() if v and k < bound
        }

    @classmethod
    def monomial(cls, expo, coeff, trunc):
        expo = Fraction(expo)
        m = expo.denominator
        return cls(m, {expo.numerator: coeff}, trunc)

    def lead(self):
        """Leading exponent, or None for a series with no known terms."""
        if not self.terms:
            return None
        return Fraction(min(self.terms), self.exp_den)

    def _lead_or_trunc(self):
        return self.trunc if not self.terms else Fraction(min(self.terms), self.exp_den)

    def coefficient(self, expo):
        expo = Fraction(expo)
        if expo >= self.trunc:
            raise ValueError("coefficient beyond the truncation order")
        k = expo * self.exp_den
        if k.denominator != 1:
            return Fraction(0)
        return self.terms.get(k.numerator, Fraction(0))

    def _rescaled(self, m):
        if m == self.exp_den:
            return self
        assert m % self.exp_den == 0
        f = m // self.exp_den
        return FracQSeries(m, {k * f: v for k, v in self.terms.items()}, self.trunc)

    def scale(self, c):
        return FracQSeries(
            self.exp_den, {k: v * c for k, v in self.terms.items()}, self.trunc
        )

    def __mul__(self, other):
        if not isinstance(other, FracQSeries):
            return NotImplemented
        m = lcm(self.exp_den, other.exp_den)
        a, b = self._rescaled(m), other._rescaled(m)
        trunc = min(
            a.trunc + b._lead_or_trunc(), b.trunc + a._lead_or_trunc()
        )
        bound = _key_bound(trunc, m)
        out = {}
        bkeys = sorted(b.terms)
        for ka, va in a.terms.items():
            for kb in bkeys:
                k = ka + kb
                if k >= bound:
                    break
                p = va * b.terms[kb]
                w = out.get(k)
                out[k] = p if w is None else w + p
        return FracQSeries(m, out, trunc)

    def text(self, max_terms=None):
        lines = []
        for k in sorted(self.terms):
            lines.append("q^(%d/%d): %s" % (k, self.exp_den, self.terms[k]))
            if max_terms is not None and len(lines) >= max_terms:
                break
        return "\n".join(lines)

    def to_json(self):
        return {
            "exp_den": self.exp_den,
            "trunc": [self.trunc.numerator, self.trunc.denominator],
            "terms": {str(k): _coeff_json(self.terms[k]) for k in sorted(self.terms)},
        }

    def __repr__(self):
        nt = len(self.terms)
        return "FracQSeries(%d terms, exp_den=%d, trunc=%s)" % (nt, self.exp_den, self.trunc)


def equals_to_precision(a, b):
    """Exact coefficient agreement below the smaller truncation."""
    return first_mismatch(a, b) is None


def first_mismatch(a, b):
    """Smallest exponent below both truncations where coefficients differ."""
    m = lcm(a.exp_den, b.exp_den)
    a, b = a._rescaled(m), b._rescaled(m)
    bound = _key_bound(min(a.trunc, b.trunc), m)
    for k in sorted(set(a.terms) | set(b.terms)):
        if k >= bound:
            break
        if a.terms.get(k, 0) != b.terms.get(k, 0):
            return Fraction(k, m)
    return None


# ------------------------------------------------------------- products


def product_terms(factors, M, bound):
    """Coefficients b_0, ..., b_(bound-1) of prod (1 - zeta_M^a t^s)^c.

    ``factors`` lists the triples (s, a, c) with s >= 1 and integer c; any
    other c raises ValueError.  Their logarithmic derivative has
    s_k = -sum_(s | k) s c zeta_M^(a k/s), summed here over the multiples of
    every s, and ``_euler`` expands it.
    """
    if any(c != int(c) for _, _, c in factors):
        raise ValueError("product exponents must be integers")
    hist = [{} for _ in range(bound)]
    for s, a, c in factors:
        for j in range(1, (bound - 1) // s + 1):
            h = hist[j * s]
            e = a * j % M
            h[e] = h.get(e, 0) - s * int(c)
    return _euler(hist, M, bound)


def _euler(hist, M, bound):
    """b_0, ..., b_(bound-1) from n b_n = sum_(k=1..n) s_k b_(n-k), b_0 = 1,
    where s_k = sum_e hist[k][e] zeta_M^e.

    Each b_n lies in Z[zeta_M] = Z[x]/Phi_M with its power basis a Z-basis,
    so s_k and b_n are sparse integer coordinates.  Step n convolves them
    into 2 phi - 1 ints, reduces the top half once by the powers zeta_M^e and
    divides by n; as b_n is integral, a remainder raises ArithmeticError, so
    that is checked at every step.  An all-zero convolution is an exact 0.
    """
    phi = degree(M)
    sums = []
    for k in range(1, bound):
        v = hist[k] and sparse_coordinates(M, hist[k].items())
        if v:
            sums.append((k, v))
    zero = Fraction(0)
    out = [Fraction(1)] if bound > 0 else []
    b = [[(0, 1)]]
    for n in range(1, bound):
        full = [0] * (2 * phi - 1)
        for k, v in sums:
            if k > n:
                break
            for j, y in b[n - k]:
                for i, x in v:
                    full[i + j] += x * y
        if not any(full):
            b.append([])
            out.append(zero)
            continue
        coords = []
        for c in fold(M, full):
            q, r = divmod(c, n)
            if r:
                raise ArithmeticError("n does not divide n b_n at n = %d" % n)
            coords.append(q)
        b.append([(i, x) for i, x in enumerate(coords) if x])
        out.append(from_coordinates(M, coords))
    return out


# ------------------------------------------------------------------ eta


def _eta_args(d, r, trunc):
    d, r, trunc = Fraction(d), Fraction(r), Fraction(trunc)
    if d <= 0:
        raise ValueError("eta scale must be positive")
    if trunc <= d / 24:
        raise ValueError("truncation under the leading exponent gives an empty series")
    return d, r, trunc


def eta_series(d, r, trunc):
    """eta(d tau + r) as a truncated series, via the pentagonal expansion.

    The exponents are d(24 g + 1)/24 over generalized pentagonal numbers g,
    with coefficients (-1)^k e((24 g + 1) r / 24).
    """
    d, r, trunc = _eta_args(d, r, trunc)
    m = 24 * d.denominator
    dn = d.numerator
    terms = {}
    k = 0
    while True:
        hit = False
        for kk in ((k,) if k == 0 else (k, -k)):
            g = kk * (3 * kk - 1) // 2
            expo_key = dn * (24 * g + 1)
            if Fraction(expo_key, m) >= trunc:
                continue
            hit = True
            sgn = -1 if kk % 2 else 1
            terms[expo_key] = sgn * exp_frac(r * (24 * g + 1) / 24)
        if not hit and k > 0:
            break
        k += 1
    return FracQSeries(m, terms, trunc)


def eta_series_naive(d, r, trunc):
    """The same expansion by direct truncated multiplication (test oracle)."""
    d, r, trunc = _eta_args(d, r, trunc)
    acc = FracQSeries.monomial(d / 24, exp_frac(r / 24), trunc)
    n = 1
    while d / 24 + n * d < trunc:
        factor = FracQSeries(
            (n * d).denominator,
            {0: Fraction(1), (n * d).numerator: -exp_frac(n * r)},
            trunc,
        )
        acc = acc * factor
        n += 1
    return acc


@dataclass(frozen=True)
class EtaFactor:
    """One factor eta(scale * tau + shift)^exponent."""

    scale: Fraction
    shift: Fraction
    exponent: int

    def __post_init__(self):
        object.__setattr__(self, "scale", Fraction(self.scale))
        object.__setattr__(self, "shift", Fraction(self.shift))
        if self.scale <= 0:
            raise ValueError("eta scale must be positive")

    def text(self, var="tau"):
        if self.scale == 1:
            arg = var
        else:
            arg = "%s*%s" % (self.scale, var)
        if self.shift:
            arg += " + %s" % self.shift if self.shift > 0 else " - %s" % (-self.shift)
        body = "eta(%s)" % arg
        if self.exponent != 1:
            body += "^%d" % self.exponent
        return body

    def to_json(self):
        return {
            "scale": [self.scale.numerator, self.scale.denominator],
            "shift": [self.shift.numerator, self.shift.denominator],
            "exponent": self.exponent,
        }


@dataclass(frozen=True)
class EtaQuotient:
    """prefactor * product of eta factors."""

    factors: tuple
    prefactor: object = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))

    def expand(self, trunc):
        """Truncated series of the quotient, from one pass of ``_euler``.

        Each factor eta(d tau + r)^e is e(r e/24) q^(d e/24) times
        prod_n (1 - e(n r) q^(n d))^e.  The monomials are pulled out front; with
        step = d D and a = r M over the lcms D, M of the scale and shift
        denominators, s_k takes -e step sigma(j) zeta_M^(a j) at k = j step
        (module docstring): one sieve, then bound/step terms a factor.  The
        lead sum(step e)/24D, the largest step and the phase sum(a e)/24M
        are integers over those denominators, and the series is built once,
        at the lcm m of D and the lead's denominator: b_j at q^(lead + j/D).
        It is known below trunc - loss(), as a quotient of eta series each
        truncated at trunc would be.
        """
        trunc = Fraction(trunc)
        live = [f for f in self.factors if f.exponent]
        D = lcm(*(f.scale.denominator for f in live))
        M = lcm(*(f.shift.denominator for f in live))
        steps = [f.scale.numerator * (D // f.scale.denominator) for f in live]
        top = max(steps, default=0)  # 24 D (loss() + lead())
        tn, td = trunc.numerator, trunc.denominator
        if live and 24 * D * tn <= top * td:
            raise ValueError("truncation under the leading exponent gives an empty series")
        if any(f.exponent != int(f.exponent) for f in live):
            raise ValueError("product exponents must be integers")
        bound = -((top * td - 24 * D * tn) // (24 * td))  # ceil(D (trunc - loss() - lead()))
        sigma = [0] * bound
        for i in range(1, bound):
            for j in range(i, bound, i):
                sigma[j] += i
        hist = [{} for _ in range(bound)]
        lead = phase = 0  # 24 D lead(), and 24 M times the phase
        for f, step in zip(live, steps):
            e = int(f.exponent)
            a = f.shift.numerator * (M // f.shift.denominator)
            c = step * e
            lead += c
            phase += a * e
            for j in range(1, (bound - 1) // step + 1):
                h = hist[j * step]
                r = a * j % M
                h[r] = h.get(r, 0) - c * sigma[j]
        coeffs = _euler(hist, M, bound)
        front = self.prefactor * exp_frac(Fraction(phase, 24 * M))
        if front != 1:
            coeffs = [v * front if v else v for v in coeffs]
        lead = Fraction(lead, 24 * D)
        m = lcm(D, lead.denominator)
        k0, stride = lead.numerator * (m // lead.denominator), m // D
        terms = {k0 + j * stride: v for j, v in enumerate(coeffs)}
        return FracQSeries(m, terms, trunc + lead - Fraction(top, 24 * D))

    def loss(self):
        """How far below the requested order expand() knows the series."""
        top = max((f.scale for f in self.factors if f.exponent), default=Fraction(0))
        return top / 24 - self.lead()

    def lead(self):
        return sum((f.scale * f.exponent for f in self.factors), Fraction(0)) / 24

    def text(self, var="tau"):
        if not self.factors:
            body = "1"
        else:
            body = " * ".join(f.text(var) for f in self.factors)
        if self.prefactor == 1:
            return body
        return "%s * %s" % (self.prefactor, body)

    def to_json(self):
        return {
            "prefactor": _coeff_json(self.prefactor),
            "factors": [f.to_json() for f in self.factors],
        }


def assert_identity(lhs, rhs, trunc):
    """Compare two eta quotients as series up to the requested order.

    Each side is expanded once, deep enough that both are known to the
    requested truncation; the report carries the first mismatching exponent
    if any.
    """
    trunc = Fraction(trunc)
    depth = trunc + max(0, lhs.loss(), rhs.loss())
    a = lhs.expand(depth)
    b = rhs.expand(depth)
    bad = first_mismatch(a, b)
    report = {
        "equal": bad is None,
        "checked_to": str(min(min(a.trunc, b.trunc), trunc)),
        "first_mismatch": None if bad is None else str(bad),
    }
    if bad is not None:
        report["lhs_coeff"] = str(a.coefficient(bad))
        report["rhs_coeff"] = str(b.coefficient(bad))
    return report
