"""End-to-end reproduction suite behind the `repro` CLI command.

Each check re-derives its expected values from an independent route
(brute-force enumeration, closed formulas, a second expansion algorithm)
and compares exactly. Details are deterministic strings; wall times are
reported separately so output stays byte-stable.
"""

import time
from fractions import Fraction

from .arith import divisors, is_prime, sigma0
from .borcherds import lift, verify_eta_prime, InputForm, catalog_for
from .fqmod import hyperbolic, hyperbolic_pair
from .lnn_catalog import (
    assemble,
    canonical_params,
    classify_params,
    dimension_formula,
    hxyz_complement,
    hxyz_subgroup,
    relations_Np,
    selfdual_list_Np,
)
from .linalg import rational_rank
from .qseries import equals_to_precision, eta_series, eta_series_naive
from .subgroups import (
    classify,
    complement,
    enumerate_self_dual_isotropic,
    enumerate_subgroups,
    isotropic_rows,
)
from .weilrep import check_vH_action, invariant_space, verify_selfdual_span, weil_relations_report

PRIME_PAIRS = [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)]
# check 2 also takes these, at 0.3 to 1.1 s each (2 cores)
SPAN_PAIRS = PRIME_PAIRS + [(8, 4), (12, 3), (10, 5), (12, 4)]


def check_invariant_dimensions_rank1():
    """dim of the invariant space is sigma0(N) for N <= 30, family full rank."""
    bad = []
    for N in range(1, 31):
        want = sigma0(N)
        m = hyperbolic_pair(N, 1)
        dim = len(invariant_space(m))
        rank = _catalog_rank(m, catalog_for(N, 1))
        if dim != want or rank != want:
            bad.append((N, dim, rank, want))
    detail = "N=1..30 certified dims and family ranks all equal sigma0(N)"
    if bad:
        detail = "mismatches: %r" % (bad,)
    return not bad, detail, 120.0


def check_selfdual_span():
    """span{v^H} equals the invariant space for N' = 1 and the span pairs."""
    bad = []
    for N in range(1, 13):
        rep = verify_selfdual_span(hyperbolic_pair(N, 1))
        if not rep["span_equal"]:
            bad.append(((N, 1), rep))
    for N, p in SPAN_PAIRS:
        rep = verify_selfdual_span(hyperbolic_pair(N, p))
        if not rep["span_equal"]:
            bad.append(((N, p), rep))
    detail = "span equality holds for N<=12 (N'=1) and %r" % (SPAN_PAIRS,)
    if bad:
        detail = "span failures: %r" % (bad,)
    return not bad, detail, 300.0


def check_dimension_formulas():
    """Closed dimension formulas against certified kernel dimensions."""
    bad = []
    for N, p in PRIME_PAIRS:
        closed = (2 * p - 3) * sigma0(N // p) + 2 * sigma0(N)
        if dimension_formula(N, p) != closed:
            bad.append(("product-vs-closed", N, p))
        if len(invariant_space(hyperbolic_pair(N, p))) != closed:
            bad.append(("kernel", N, p, closed))
    # (30, 6), |D| = 32400, is past the element bound: the certificate
    # takes it through its p-primary parts
    crosschecked = [(N, Np, dimension_formula(N, Np)) for N, Np in [(6, 2), (4, 2), (12, 2), (30, 6)]]
    for N, Np, want in crosschecked:
        got = verify_selfdual_span(hyperbolic_pair(N, Np))["dimension"]
        if got != want:
            bad.append(("dimension_formula", N, Np, got, want))
    detail = (
        "prime pairs match (2p-3)sigma0(N/p)+2sigma0(N); certified dimensions"
        " match dimension_formula at %r" % (crosschecked,)
    )
    if bad:
        detail = "formula failures: %r" % (bad,)
    return not bad, detail, None


def check_closed_forms():
    """Echelon complement / classification formulas against brute force."""
    bad = 0
    groups = 0
    for N in range(1, 13):
        m = hyperbolic(N)
        for h in enumerate_subgroups(m):
            groups += 1
            p = canonical_params(h)
            if hxyz_subgroup(p) != h:
                bad += 1
                continue
            if hxyz_subgroup(hxyz_complement(p)) != complement(h):
                bad += 1
            if classify_params(p) != classify(h):
                bad += 1
    detail = "%d subgroups over N=1..12, %d discrepancies" % (groups, bad)
    return bad == 0, detail, None


def check_catalog_enumeration():
    """Self-dual isotropic catalogs equal exhaustive enumeration for N <= 6."""
    bad = []
    checked = []
    for N in range(2, 7):
        for p in [q for q in divisors(N) if q > 1 and is_prime(q)]:
            cat = selfdual_list_Np(N, p)
            want_count = 2 * sigma0(N) + 2 * (p - 1) * sigma0(N // p)
            m = hyperbolic_pair(N, p)
            listed = {assemble(s).indices for s in cat}
            found = {h.indices for h in enumerate_self_dual_isotropic(m)}
            rels = relations_Np(N, p)
            nullity_ok = (
                len(rels) == sigma0(N // p)
                and rational_rank(rels) == sigma0(N // p)
                and len(cat) - _catalog_rank(m, cat) == sigma0(N // p)
            )
            if listed != found or len(cat) != want_count or not nullity_ok:
                bad.append((N, p, len(cat), want_count, listed == found))
            checked.append((N, p, len(cat)))
    detail = "catalog == enumeration with counts %r" % (checked,)
    if bad:
        detail = "catalog failures: %r" % (bad,)
    return not bad, detail, None


def _catalog_rank(m, cat):
    return rational_rank(isotropic_rows(m, [assemble(s) for s in cat]))


def check_weil_matrix_relations():
    """Defining relations, unitarity and the subgroup action, |D| <= 144."""
    pairs = [(N, 1) for N in range(1, 13)] + [(2, 2), (4, 2), (6, 2), (3, 3)]
    bad = []
    n_groups = 0
    for N, Np in pairs:
        m = hyperbolic_pair(N, Np)
        rep = weil_relations_report(m)
        if not (rep["s4"] and rep["st3"] and rep["s_unitary"] and rep["t_unitary"]):
            bad.append((N, Np, rep))
            continue
        for h in enumerate_subgroups(m):
            n_groups += 1
            if not check_vH_action(m, h):
                bad.append((N, Np, "vH", sorted(h.indices)))
    detail = "relations + unitarity on %d modules, v^H action on %d subgroups" % (
        len(pairs),
        n_groups,
    )
    if bad:
        detail = "relation failures: %r" % (bad[:4],)
    return not bad, detail, None


def check_lift_eta_agreement():
    """Lift of each v^H_d equals eta(d tau) in both variables to 200 terms."""
    bad = []
    for N in range(1, 13):
        m = hyperbolic_pair(N, 1)
        for spec in catalog_for(N, 1):
            d = spec.first[0]
            f = InputForm.from_combination(m, [(1, spec)])
            res = lift(f, 200)
            ref = eta_series(d, 0, 200)
            ok = (
                res.weyl.rho_kappa_prime == Fraction(d, 24)
                and res.weyl.rho_kappa == Fraction(d, 24)
                and res.psi1.lead() == Fraction(d, 24)
                and res.psi2.lead() == Fraction(d, 24)
                and equals_to_precision(res.psi1, ref)
                and equals_to_precision(res.psi2, ref)
            )
            if not ok:
                bad.append((N, d))
    detail = "all (N, d) with d | N <= 12 agree with eta(d tau) to 200 terms"
    if bad:
        detail = "lift mismatches at %r" % (bad,)
    return not bad, detail, None


def check_eta_prime_identities():
    """The derived eta identity for p in {2, 3, 5, 7} at 200 terms."""
    bad = []
    slow = []
    for p in (2, 3, 5, 7):
        t0 = time.monotonic()
        rep = verify_eta_prime(p, 200)
        dt = time.monotonic() - t0
        if not rep["verified"]:
            bad.append((p, rep["identity"]))
        if dt >= 60.0:
            slow.append((p, round(dt, 1)))
    detail = "identities verified with constants for p = 2, 3, 5, 7"
    if bad or slow:
        detail = "failures %r, over budget %r" % (bad, slow)
    return not (bad or slow), detail, None


def check_pentagonal_oracle():
    """Pentagonal-number expansion against the naive product, order 300."""
    cases = [
        (Fraction(1), Fraction(0)),
        (Fraction(2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 3)),
    ]
    bad = []
    for d, r in cases:
        a = eta_series(d, r, 300)
        b = eta_series_naive(d, r, 300)
        if not equals_to_precision(a, b):
            bad.append((str(d), str(r)))
    detail = "pentagonal == naive product to order 300 for %d scale/shift pairs" % len(cases)
    if bad:
        detail = "oracle mismatches at %r" % (bad,)
    return not bad, detail, None


CHECKS = [
    ("invariant-dimensions", check_invariant_dimensions_rank1),
    ("selfdual-span", check_selfdual_span),
    ("dimension-formulas", check_dimension_formulas),
    ("echelon-closed-forms", check_closed_forms),
    ("catalog-completeness", check_catalog_enumeration),
    ("weil-relations", check_weil_matrix_relations),
    ("lift-eta-agreement", check_lift_eta_agreement),
    ("eta-identities", check_eta_prime_identities),
    ("pentagonal-oracle", check_pentagonal_oracle),
]


def run_check(index):
    """Run one check by 1-based index; returns a result dict."""
    name, fn = CHECKS[index - 1]
    t0 = time.monotonic()
    out = fn()
    passed, detail, budget = out
    dt = time.monotonic() - t0
    if budget is not None and dt >= budget:
        passed = False
        detail += " [exceeded %ds budget]" % int(budget)
    return {
        "index": index,
        "name": name,
        "passed": bool(passed),
        "detail": detail,
        "seconds": dt,
    }


def run_all(only=None):
    wanted = only or range(1, len(CHECKS) + 1)
    return [run_check(i) for i in wanted]
