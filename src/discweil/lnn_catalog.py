"""Echelon parametrization of subgroups of (Z/N)^2 and the self-dual
isotropic catalog for the paired hyperbolic modules.

A subgroup of (Z/N)^2 under Q(x,y) = xy/N is written H_{x,y,z} =
<(x,y),(0,z)> with x, z divisors of N, 0 <= y < z, and z minimal.  All the
classification questions (membership, complement, isotropy, co-isotropy,
self-duality) have closed forms in these coordinates.  Self-dual isotropic
subgroups of the four-coordinate module (Z/N)^2 x (Z/N')^2 are assembled
from a co-isotropic block on each side plus a pair of glue elements, subject
to three congruences.  A ``SelfDualSpec`` is checked by the closed forms
alone; only ``assemble`` and ``hxyz_subgroup`` build a module.
"""

from dataclasses import dataclass
from math import gcd

from .arith import divisors, factorize, is_prime
from .fqmod import hyperbolic, hyperbolic_pair
from .subgroups import Subgroup, SubgroupClass


def _is_div(d, n):
    return isinstance(d, int) and 1 <= d <= n and n % d == 0


@dataclass(frozen=True)
class HxyzParams:
    """Normalized echelon coordinates of a subgroup of (Z/N)^2.

    Invariants: x | N, z | N, 0 <= y < z, and z | (N/x) y (minimality of z).
    The group has order (N/x)(N/z).
    """

    N: int
    x: int
    y: int
    z: int

    def __post_init__(self):
        N, x, y, z = self.N, self.x, self.y, self.z
        if N < 1 or not _is_div(x, N) or not _is_div(z, N):
            raise ValueError("x and z must be divisors of N")
        if not 0 <= y < z:
            raise ValueError("need 0 <= y < z")
        if ((N // x) * y) % z:
            raise ValueError("z is not minimal for these generators")

    def as_tuple(self):
        return (self.x, self.y, self.z)


def hxyz_subgroup(p):
    """The subgroup <(x,y),(0,z)> of (Z/N)^2 for HxyzParams p."""
    N, x, y, z = p.N, p.x, p.y, p.z
    return Subgroup.from_gens(hyperbolic(N), [(x % N, y % N), (0, z % N)])


def canonical_params(h):
    """Echelon coordinates from the minimum formulas, for h in (Z/N)^2."""
    N = h.parent.orders[0]
    return HxyzParams(N, *_min_params(N, h.element_tuples()))


def _min_params(N, pairs):
    pairs = set(pairs)
    firsts = [s for (s, r) in pairs if s != 0]
    x = min(firsts) if firsts else N
    y = min(r for (s, r) in pairs if s == x % N)
    seconds = [r for (s, r) in pairs if s == 0 and r != 0]
    z = min(seconds) if seconds else N
    return x, y, z


def hxyz_complement(p):
    """Orthogonal complement: (x,y,z) goes to (N/z, -Ny/(xz), N/x)."""
    N, x, y, z = p.N, p.x, p.y, p.z
    zc = N // x
    yc = (-(N * y) // (x * z)) % zc if zc > 1 else 0
    return HxyzParams(N, N // z, yc, zc)


def classify_params(p):
    """All four classification flags by the closed-form criteria."""
    N, x, y, z = p.N, p.x, p.y, p.z
    iso = (x * z) % N == 0 and (x * y) % N == 0
    self_orth = (x * z) % N == 0 and (2 * x * y) % N == 0
    self_dual = x * z == N and (2 * y) % z == 0
    coiso = N % (x * z) == 0 and (N * y) % (x * z * z) == 0
    return SubgroupClass(
        is_isotropic=iso,
        is_self_orthogonal=self_orth,
        is_self_dual=self_dual,
        is_coisotropic=coiso,
    )


# ----------------------------------------------------- four-coordinate glue


@dataclass(frozen=True)
class SelfDualSpec:
    """Assembly data for a subgroup of (Z/N)^2 x (Z/N')^2.

    first = (x,y,z) over N, second = (x',y',z') over N', both normalized;
    ab and cd are elements of H_{x',y',z'} glued onto the generators (x,y)
    and (0,z).  The cardinality constraint N' x z = N x' z' is enforced.
    """

    N: int
    Nprime: int
    first: tuple
    second: tuple
    ab: tuple
    cd: tuple

    def __post_init__(self):
        N, Np = self.N, self.Nprime
        if Np < 1 or N % Np:
            raise ValueError("N' must divide N")
        HxyzParams(N, *self.first)
        HxyzParams(Np, *self.second)
        x, _, z = self.first
        xp, yp, zp = self.second
        if Np * x * z != N * xp * zp:
            raise ValueError("cardinality constraint N'xz = Nx'z' fails")
        for pt in (self.ab, self.cd):
            if len(pt) != 2:
                raise ValueError("glue elements must be pairs")
            # (a, b) = k (x', y') + l (0, z') exactly when x' | a and
            # z' | b - (a/x') y'; any lift of a/x' will do, as z' | (N'/x') y'
            a, b = pt
            if a % xp or (b - a // xp * yp) % zp:
                raise ValueError("glue element %r outside the second block" % (pt,))

    def to_json(self):
        return {
            "N": self.N,
            "Nprime": self.Nprime,
            "first": list(self.first),
            "second": list(self.second),
            "ab": [v % self.Nprime for v in self.ab],
            "cd": [v % self.Nprime for v in self.cd],
        }


def _second_complement_gens(spec):
    """Generators of the complement of the second block, inside (Z/N')^2."""
    c = hxyz_complement(HxyzParams(spec.Nprime, *spec.second))
    return (c.x, c.y), (0, c.z)


def assemble(spec):
    """The four-generator subgroup of the paired module."""
    N, Np = spec.N, spec.Nprime
    m = hyperbolic_pair(N, Np)
    x, y, z = spec.first
    a, b = (v % Np for v in spec.ab)
    c, d = (v % Np for v in spec.cd)
    (g3a, g3b), (g4a, g4b) = _second_complement_gens(spec)
    gens = [
        (x % N, y % N, a, b),
        (0, z % N, c, d),
        (0, 0, g3a % Np, g3b % Np),
        (0, 0, g4a % Np, g4b % Np),
    ]
    return Subgroup.from_gens(m, [g for g in gens if any(g)])


def condsum_check(spec):
    """True exactly when the assembled group is self-dual isotropic.

    The hypotheses (both blocks co-isotropic) are part of the check: the
    three congruences alone do not suffice outside them.
    """
    N, Np = spec.N, spec.Nprime
    if not classify_params(HxyzParams(N, *spec.first)).is_coisotropic:
        return False
    if not classify_params(HxyzParams(Np, *spec.second)).is_coisotropic:
        return False
    x, y, z = spec.first
    a, b = spec.ab
    c, d = spec.cd
    r = N // Np
    return (
        (r * a * b + x * y) % N == 0
        and (c * d) % Np == 0
        and (r * (a * d + b * c) + x * z) % N == 0
    )


def family_exNy0(N, Nprime):
    """All glue subgroups built from y = 0 blocks, duplicate-free.

    Runs over divisor pairs d1 d2 | N and d3 d4 | N' with N' d1 d2 = N d3 d4,
    units a of Z/N', and both orderings of the glue pair.
    """
    if Nprime < 1 or N % Nprime:
        raise ValueError("N' must divide N")
    units = [a for a in range(1, Nprime + 1) if gcd(a, Nprime) == 1] or [0]
    out = []
    seen = set()
    for d1 in divisors(N):
        for d2 in divisors(N):
            if N % (d1 * d2):
                continue
            if (Nprime * d1 * d2) % N:
                continue
            prod2 = Nprime * d1 * d2 // N
            for d3 in divisors(Nprime):
                if prod2 % d3:
                    continue
                d4 = prod2 // d3
                if Nprime % d4 or Nprime % (d3 * d4):
                    continue
                for a in units:
                    ainv = pow(a, -1, Nprime) if Nprime > 1 else 0
                    glue1 = ((a * d3) % Nprime, 0)
                    glue2 = (0, (-ainv * d4) % Nprime)
                    for ab, cd in ((glue1, glue2), (glue2, glue1)):
                        spec = SelfDualSpec(
                            N, Nprime, (d1, 0, d2), (d3, 0, d4), ab, cd
                        )
                        key = frozenset(assemble(spec).indices)
                        if key in seen:
                            continue
                        seen.add(key)
                        if not condsum_check(spec):
                            raise AssertionError(
                                "family member fails the congruence check: %r" % (spec,)
                            )
                        out.append(spec)
    return out


def family_exy_y(N, xyz, u):
    """The twisted-diagonal glue subgroup of the square pair (N' = N).

    Needs H_{x,y,z} co-isotropic, u a unit mod N, and z | (u - u^{-1}) y
    (the last condition makes the glue element land in the mirrored block).
    """
    x, y, z = xyz
    p = HxyzParams(N, x, y, z)
    if not classify_params(p).is_coisotropic:
        raise ValueError("H_{%d,%d,%d} is not co-isotropic in (Z/%d)^2" % (x, y, z, N))
    if gcd(u, N) != 1:
        raise ValueError("u must be a unit modulo N")
    uinv = pow(u, -1, N) if N > 1 else 0
    if ((u - uinv) * y) % z:
        raise ValueError("u fails the compatibility condition z | (u - u^{-1}) y")
    spec = SelfDualSpec(
        N, N,
        (x, y, z),
        (x, (-y) % z, z),
        ((-u * x) % N, (uinv * y) % N),
        (0, (uinv * z) % N),
    )
    assert condsum_check(spec), spec
    return spec


# ------------------------------------------------------- the prime catalog


def selfdual_list_Np(N, p):
    """The full self-dual isotropic catalog of the (N, p) pair, in order.

    Order: the two direct-sum families over divisors d of N (second block
    H_{1,0,p}, then H_{p,0,1}), then the two glued families over divisors d'
    of N/p and units a = 1..p-1 (glue (a,0),(0,-a^-1), then swapped).
    relations_Np uses coordinates in exactly this order.
    """
    if not is_prime(p) or N % p:
        raise ValueError("p must be a prime divisor of N")
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


def relations_Np(N, p):
    """Integer vectors spanning the relations among the catalog's
    characteristic functions, one per divisor of N/p, in selfdual_list_Np
    coordinates."""
    if not is_prime(p) or N % p:
        raise ValueError("p must be a prime divisor of N")
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


def dimension_formula(N, Nprime):
    """Invariant dimension of the (N, N') pair for square-free N'."""
    if Nprime < 1 or N % Nprime:
        raise ValueError("N' must divide N")
    fac_np = dict(factorize(Nprime))
    if any(e > 1 for e in fac_np.values()):
        raise ValueError("N' must be square-free")
    out = 1
    for q, n in factorize(N):
        if q in fac_np:
            out *= n * (2 * q - 1) + 2
        else:
            out *= n + 1
    return out


def reconstruct_spec(h):
    """Assembly data of a self-dual isotropic subgroup of a paired module.

    The block parameters come from the minimum formulas applied to the two
    projections; the glue pair is taken lexicographically minimal in its
    coset (it is only unique modulo the complement of the second block).
    """
    m = h.parent
    if len(m.orders) != 4 or m.orders[0] != m.orders[1] or m.orders[2] != m.orders[3]:
        raise ValueError("expected a paired hyperbolic module")
    N, Np = m.orders[0], m.orders[2]
    elems = h.element_tuples()
    proj1 = {(g[0], g[1]) for g in elems}
    proj2 = {(g[2], g[3]) for g in elems}
    x, y, z = _min_params(N, proj1)
    sec = _min_params(Np, proj2)
    ab = min((g[2], g[3]) for g in elems if (g[0], g[1]) == (x % N, y))
    cd = min((g[2], g[3]) for g in elems if (g[0], g[1]) == (0, z % N))
    spec = SelfDualSpec(N, Np, (x, y, z), sec, ab, cd)
    if assemble(spec) != h:
        raise ValueError("assembly does not reproduce the subgroup")
    return spec
