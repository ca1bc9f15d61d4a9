"""The two-variable product lift on paired hyperbolic modules.

An invariant input form with integer coefficients c_gamma lifts to a product
of two single-variable series: the tau_1 side collects the coefficients along
the coordinate pattern (0,x,0,l) and the tau_2 side those along (0,x,l,0),
with leading exponents given by the two Weyl counting sums.  For inputs that
decompose over the self-dual isotropic catalog the two sides collapse to
explicit eta factors, and nullspace relations among catalog members collapse
to eta-function identities whose constants are forced by leading terms.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from math import ceil

from .arith import divisors, is_prime, is_rational_square
from .cyclo import CycNumber, exp_frac, exp_frac_product
from .fqmod import hyperbolic_pair
from .linalg import rational_rref
from .lnn_catalog import SelfDualSpec, assemble, catalog_for, relations_Np, selfdual_list_Np
from .qseries import (
    EtaFactor,
    EtaQuotient,
    FracQSeries,
    assert_identity,
    first_mismatch,
    product_terms,
)
from .subgroups import isotropic_rows
from .weilrep import _fixed, _isotropic_block


@lru_cache(maxsize=32)
def _side_table(N, Np):
    """Where the side patterns sit in D_{N,N'}: (columns, cells).

    columns[0][l][x] is the index of (0,x,0,l), columns[1][l][x] that of
    (0,x,l,0); cells[side] maps each index of columns[side] to its (x, l).
    FqModule.index is additive on reduced coordinates, so three calls give
    the place values of x and of the two l slots.
    """
    m = hyperbolic_pair(N, Np)
    sx, s3, s4 = (m.index(e) for e in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    columns = [[[x * sx + l * s for x in range(N)] for l in range(Np)] for s in (s4, s3)]
    xl = [(x, l) for l in range(Np) for x in range(N)]
    return columns, [dict(zip(chain.from_iterable(grid), xl)) for grid in columns]


class InputForm:
    """Integer-coefficient vector fixed by the whole representation.

    Construction verifies exact invariance: the support must be isotropic
    (fixing by the T generator), and the S generator must fix the vector,
    proven by the test the invariant certificate uses, zeta^E v = G v.
    """

    def __init__(self, module, coeffs):
        orders = module.orders
        if (
            len(orders) != 4
            or orders[0] != orders[1]
            or orders[2] != orders[3]
            or module != hyperbolic_pair(orders[0], orders[2])
        ):
            raise ValueError("expected a paired hyperbolic module")
        self.module = module
        self.N = orders[0]
        self.Nprime = orders[2]
        dense = [0] * module.size
        for key, v in coeffs.items():
            if len(key) != len(orders):
                raise ValueError("coefficient key %r needs one entry per generator" % (key,))
            if not all(0 <= c < d for c, d in zip(key, orders)):
                raise ValueError("coefficient key %r has an entry outside [0, order)" % (key,))
            if v != int(v):
                raise ValueError("coefficients must be integers")
            dense[module.index(tuple(key))] += int(v)
        self.dense = dense
        self._verify()

    @classmethod
    def from_combination(cls, module, pairs):
        """Integer combination of characteristic functions of SelfDualSpecs
        or Subgroups of ``module``; a member of another module is refused."""
        dense = {}
        for c, h in pairs:
            spec = isinstance(h, SelfDualSpec)
            parent = hyperbolic_pair(h.N, h.Nprime) if spec else h.parent
            if parent != module:
                raise ValueError("member of %r given for %r" % (parent, module))
            if spec:
                h = assemble(h)
            for x in h.element_tuples():
                dense[x] = dense.get(x, 0) + c
        return cls(module, dense)

    @cached_property
    def sides(self):
        """The coefficients along the side patterns: sides[0][l][x] at
        (0,x,0,l) and sides[1][l][x] at (0,x,l,0)."""
        columns = _side_table(self.N, self.Nprime)[0]
        return tuple([[self.dense[i] for i in column] for column in grid] for grid in columns)

    def _verify(self):
        m = self.module
        iso = m.isotropic_indices
        inside = set(iso)
        if any(v and i not in inside for i, v in enumerate(self.dense)):
            raise ValueError("not invariant: support contains a non-isotropic element")
        if not _fixed(m, _isotropic_block(m), [[self.dense[i] for i in iso]]):
            raise ValueError("not invariant under the S generator")


@dataclass(frozen=True)
class WeylVector:
    rho_kappa_prime: Fraction
    rho_kappa: Fraction

    def to_json(self):
        return [str(self.rho_kappa_prime), str(self.rho_kappa)]


def weyl_vector(f):
    """The two counting sums: (0,x,0,l) over 24 and (0,x,l,0) over 24 N'."""
    s_prime, s_plain = (sum(map(sum, grid)) for grid in f.sides)
    return WeylVector(Fraction(s_prime, 24), Fraction(s_plain, 24 * f.Nprime))


@dataclass
class LiftResult:
    weight: Fraction
    weyl: WeylVector
    psi1: FracQSeries
    psi2: FracQSeries
    eta1: object
    eta2: object
    constant_note: object

    def to_json(self):
        const = self.constant_note
        return {
            "weight": str(self.weight),
            "weyl": self.weyl.to_json(),
            "psi1": self.psi1.to_json(),
            "psi2": self.psi2.to_json(),
            "eta1": None if self.eta1 is None else self.eta1.to_json(),
            "eta2": None if self.eta2 is None else self.eta2.to_json(),
            "constant": const.to_json() if isinstance(const, CycNumber) else str(const),
        }


def _psi_series(side, lead, grid, trunc):
    """One side of the product expansion as a truncated series.

    side[l][x] is the coefficient c at the side's pattern for x and l mod N'
    (one of f.sides), lead the leading exponent and 1/grid the exponent
    step: tau_1 reads f.sides[0] on grid 1, tau_2 reads f.sides[1] on grid
    N'.  Grid step l contributes prod_x (1 - zeta_N^x w^l)^c.
    """
    Np, N = len(side), len(side[0])
    trunc = Fraction(trunc)
    bound = ceil((trunc - lead) * grid)
    factors = [(lam, x, c) for lam in range(1, bound) for x, c in enumerate(side[lam % Np]) if c]
    coeffs = product_terms(factors, N, bound)
    exp_den = 24 * Np
    k0 = lead * exp_den
    assert k0.denominator == 1
    k0, step = k0.numerator, exp_den // grid
    return FracQSeries(exp_den, {k0 + k * step: v for k, v in enumerate(coeffs)}, trunc)


def lift(f, trunc):
    """Product expansion of the lift of f, split into the two variables."""
    w = weyl_vector(f)
    psi1 = _psi_series(f.sides[0], f.Nprime * w.rho_kappa, 1, trunc)
    psi2 = _psi_series(f.sides[1], w.rho_kappa_prime / f.Nprime, f.Nprime, trunc)
    eta1 = eta2 = None
    const = "undetermined"
    try:
        terms = decompose(f)
    except ValueError:
        terms = None
    if terms is not None:
        eta1, eta2, const = eta_identify([(c, h) for c, _, h in terms])
    return LiftResult(
        weight=Fraction(f.dense[0], 2),  # index 0 is the zero element
        weyl=w,
        psi1=psi1,
        psi2=psi2,
        eta1=eta1,
        eta2=eta2,
        constant_note=const,
    )


# ----------------------------------------------------- eta identification


def _collapse(S, Np):
    """(c, g, w) for a subgroup S of (Z/N) x (Z/N').

    c counts (x, 0) in S, g generates the second projection (N' when trivial),
    and w = c k0 drives the shift, k0 the smallest x with (x, g) in S.
    """
    c, g = 0, Np
    for _, t in S:
        if not t:
            c += 1
        elif t < g:
            g = t
    k0 = min(x for x, t in S if t == g % Np)
    return c, g, c * k0


def _member_sides(h):
    """(scale, shift, phase) of the two sides of a self-dual isotropic h in
    D_{N,N'}: each side's eta factor eta(scale tau + shift) comes with the
    prefactor e(phase), phase = -w/24N.  N and N' are read from h's module.

    The sides collect the (x, l) of h's elements (0,x,0,l) and (0,x,l,0),
    read off h's index set through the side table's cells.
    """
    N, Np = h.parent.orders[0], h.parent.orders[2]
    S = [[cell[i] for i in h.indices.intersection(cell)] for cell in _side_table(N, Np)[1]]
    (c1, g1, w1), (c2, g2, w2) = (_collapse(s, Np) for s in S)
    if c1 * g1 != len(S[1]) or c2 * g2 != len(S[0]):
        raise ValueError("side data violates the self-duality cross counts")
    return (
        (Fraction(c1 * g1), Fraction(w1, N), Fraction(-w1, 24 * N)),
        (Fraction(c2 * g2, Np), Fraction(w2, N), Fraction(-w2, 24 * N)),
    )


def _solve_exact(cols, b):
    ncols = len(cols)
    rows = [
        [cols[j][i] for j in range(ncols)] + [b[i]]
        for i in range(len(b))
    ]
    rref, pivots = rational_rref(rows)
    if ncols in pivots:
        return None
    sol = [Fraction(0)] * ncols
    for row, p in zip(rref, pivots):
        sol[p] = row[ncols]
    return sol


def decompose(f):
    """Integer coordinates of f over the catalog, or unsupported-input.

    Returns the triples (c, spec, subgroup) of the nonzero coordinates: each
    catalog spec with the subgroup that was assembled to solve for it, so no
    caller assembles it again.
    """
    members = catalog_for(f.N, f.Nprime)
    groups = [assemble(s) for s in members]
    m = f.module
    cols = isotropic_rows(m, groups)
    b = [f.dense[i] for i in m.isotropic_indices]
    sol = _solve_exact(cols, b)
    if sol is None:
        raise ValueError("input is outside the cataloged span")
    if any(v.denominator != 1 for v in sol):
        raise ValueError("input is not an integer combination of the catalog")
    return [(int(v), s, h) for v, s, h in zip(sol, members, groups) if v]


def eta_identify(decomposition):
    """Symbolic eta quotients of the two sides, with the matching constant.

    ``decomposition`` holds (c, subgroup) pairs, c nonzero, of self-dual
    isotropic subgroups of one D_{N,N'}.  The returned quotients reproduce the
    product-formula series exactly: expanding eta1 gives psi1 and expanding
    eta2 gives psi2, coefficient by coefficient, because each member's factor
    eta^c comes with e(-w/24N)^c.  A side's prefactor is the product of
    those, one root of unity e(-sum c w/24N) (``exp_frac_product``).
    """
    factors = ([], [])
    phases = ([], [])
    for c, h in decomposition:
        for i, (scale, shift, phase) in enumerate(_member_sides(h)):
            factors[i].append(EtaFactor(scale, shift, c))
            phases[i].append((phase, c))
    q1, q2 = (EtaQuotient(tuple(f), exp_frac_product(p)) for f, p in zip(factors, phases))
    return q1, q2, q1.prefactor * q2.prefactor


# ------------------------------------------------- characters and relations


def character_trivial_check(f):
    """The four sufficient conditions for a trivial character, N' = 1."""
    if f.Nprime != 1:
        raise ValueError("the character criteria are for the N' = 1 modules")
    N = f.N
    alpha = {d: 0 for d in divisors(N)}
    for c, spec, _ in decompose(f):
        alpha[spec.first[0]] = c
    s1 = sum(d * a for d, a in alpha.items())
    s2 = sum((N // d) * a for d, a in alpha.items())
    total = sum(alpha.values())
    k = Fraction(total, 2)
    weight_even = k.denominator == 1 and k.numerator % 2 == 0
    prod = Fraction(1)
    for d, a in alpha.items():
        prod *= Fraction(d) ** a
    report = {
        "alpha": {str(d): alpha[d] for d in sorted(alpha)},
        "weyl_integral_1": s1 % 24 == 0,
        "weyl_integral_2": s2 % 24 == 0,
        "weight_even": weight_even,
        "product_square": is_rational_square(prod),
        "weight": str(k),
    }
    report["trivial"] = all(
        report[key]
        for key in ("weyl_integral_1", "weyl_integral_2", "weight_even", "product_square")
    )
    return report


def relation_to_eta_identity(N, p, rel, trunc):
    """Lift a catalog relation and read off the eta identity it encodes.

    The relation kills the input form, so each side's quotient is constant;
    the constants come from exact leading coefficients and multiply to 1.
    """
    members = selfdual_list_Np(N, p)
    if len(rel) != len(members):
        raise ValueError("relation length does not match the catalog")
    decomposition = [(c, assemble(s)) for c, s in zip(rel, members) if c]
    total = {}
    for c, h in decomposition:
        for i in h.indices:
            total[i] = total.get(i, 0) + c
    if any(total.values()):
        raise ValueError("vector is not a relation of the catalog")
    q1, q2, _ = eta_identify(decomposition)
    out = {"N": N, "p": p}
    consts = []
    for name, q in (("tau1", q1), ("tau2", q2)):
        series = q.expand(Fraction(trunc))
        const = series.coefficient(0)
        target = FracQSeries.monomial(0, const, series.trunc)
        bad = first_mismatch(series, target)
        consts.append(const)
        out[name] = {
            "quotient": q.text("tau1" if name == "tau1" else "tau2"),
            "constant": str(const),
            "verified": bad is None and series.lead() == 0,
            "first_mismatch": None if bad is None else str(bad),
            "checked_to": str(series.trunc),
        }
    prod = consts[0] * consts[1]
    out["product_of_constants_is_one"] = prod == 1
    out["verified"] = (
        out["tau1"]["verified"]
        and out["tau2"]["verified"]
        and out["product_of_constants_is_one"]
    )
    return out


def verify_eta_prime(p, prec=200):
    """The shifted-eta product identity at a prime, checked two ways.

    Route one expands both sides of the identity directly; route two lifts
    the unique catalog relation of the (p, p) pair, whose tau_1 side must be
    the same identity with its constant forced to e((p-1)/48).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    prec = Fraction(prec)
    expected = exp_frac(Fraction(p - 1, 48))
    lhs = EtaQuotient(
        tuple(EtaFactor(1, Fraction(a, p), 1) for a in range(1, p))
    )
    rhs = EtaQuotient(
        (
            EtaFactor(p, 0, p + 1),
            EtaFactor(1, 0, -1),
            EtaFactor(p * p, 0, -1),
        ),
        expected,
    )
    direct = assert_identity(lhs, rhs, prec)
    rel = relations_Np(p, p)[0]
    relation = relation_to_eta_identity(p, p, rel, prec)
    # the tau_1 quotient is pref * eta(p t)^(p+1) / (eta eta(p^2 t) prod eta(t + a/p));
    # its constant is 1 exactly when the identity holds with constant = pref.
    tau1_const_one = relation["tau1"]["constant"] == "1"
    report = {
        "p": p,
        "identity": "%s = %s" % (lhs.text(), rhs.text()),
        "constant": str(expected),
        "direct": direct,
        "relation": relation,
        "verified": direct["equal"] and relation["verified"] and tau1_const_one,
    }
    return report
