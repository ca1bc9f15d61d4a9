"""Seeded inputs, tasks and oracles of the three benchmark workloads.

Each task does what one CLI command or repro check does and returns the
result object together with its JSON text (the bytes the CLI would print).
Each oracle judges a task's result by a route other than the one the task
took.  The generators take the seed as an argument and hand the library only
the finished inputs.  A workload's shape (modules, members per input,
coefficient range, truncation) is fixed by SHAPES, so the seed changes which
inputs run but not how much work they take.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

import discweil.borcherds as borcherds
import discweil.cli as cli
import discweil.fqmod as fqmod
import discweil.lnn_catalog as lnn_catalog
import discweil.qseries as qseries
import discweil.subgroups as subgroups
import discweil.weilrep as weilrep

PRIME_PAIRS = [(2, 2), (3, 3), (4, 2), (6, 2), (6, 3)]

SHAPES = {
    "lift": {
        "diagonal_N": list(range(1, 13)),  # every d | N: the 35 cases of repro check 7
        "diagonal_prec": 20,
        "pairs": PRIME_PAIRS,
        "combos_per_pair": 2,
        "members": 3,
        "combo_prec": 12,
    },
    "eta": {
        "primes": [2, 3, 5, 7],
        "prime_prec": 40,
        # the prime pairs with N <= 12 except (11, 11), whose relation alone
        # costs more than the rest of the round
        "pairs": [(2, 2), (3, 3), (4, 2), (5, 5), (6, 2), (6, 3), (7, 7), (8, 2),
                  (9, 3), (10, 2), (10, 5), (12, 2), (12, 3)],
        "relation_prec": 20,
    },
    "certify": {
        "invariants_N": [6, 12, 20, 30],
        "invariants_pairs": PRIME_PAIRS,
        # (6, 3) is left out: its span equality alone costs more than a round
        "span_pairs": [(2, 2), (3, 3), (4, 2), (6, 2)],
        # the modules of repro check 6
        "relation_modules": [(N, 1) for N in range(1, 13)] + [(2, 2), (4, 2), (6, 2), (3, 3)],
        "steps": 4,
    },
}

# Shapes small enough for the harness tests: a few seconds per round.
TINY = {
    "lift": dict(SHAPES["lift"], diagonal_N=[1, 2, 4, 6], diagonal_prec=8,
                 pairs=[(2, 2), (4, 2)], combos_per_pair=1, combo_prec=6),
    "eta": dict(SHAPES["eta"], primes=[2, 3], prime_prec=10, pairs=[(4, 2), (6, 3)], relation_prec=6),
    "certify": dict(SHAPES["certify"], invariants_N=[4, 6], invariants_pairs=[(2, 2)],
                    span_pairs=[(2, 2)], relation_modules=[(4, 1), (2, 2)]),
}


class Task:
    """One call a user would make: ``run`` returns (result, JSON text)."""

    def __init__(self, name, run, check):
        self.name = name
        self.run = run
        self.check = check


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def sigma0(n):
    return len(divisors(n))


def closed_dimension(N, Np):
    """Invariant dimension of D_{N,N'}: sigma0(N), or (2p-3)sigma0(N/p)+2sigma0(N)."""
    if Np == 1:
        return sigma0(N)
    return (2 * Np - 3) * sigma0(N // Np) + 2 * sigma0(N)


# ------------------------------------------------------------------ lift


def diagonal_member(N, d):
    """Characteristic function of H_d = <(d,0,0,0), (0,N/d,0,0)> in D_{N,1}."""
    return {(d * i % N, (N // d) * j % N, 0, 0): 1 for i in range(N // d) for j in range(d)}


def _half_negative(rng, k):
    """k signs, half of them -1 at seeded places (one seeded sign when k = 1).

    The coefficients stay +-1 and the count of each sign is fixed, because the
    cost of a lift or an eta expansion grows with the exponents and moves with
    the balance of signs; the seed then changes inputs, not work.
    """
    if k == 1:
        return [rng.choice((1, -1))]
    signs = [-1] * (k // 2) + [1] * (k - k // 2)
    rng.shuffle(signs)
    return signs


def lift_combination(rng, N, p, members):
    """A +-1 combination of distinct catalog members with mixed signs."""
    cat = lnn_catalog.selfdual_list_Np(N, p)
    picks = rng.sample(range(len(cat)), members)
    coeffs = {}
    for idx, c in zip(picks, _half_negative(rng, members)):
        for x in lnn_catalog.assemble(cat[idx]).element_tuples():
            coeffs[x] = coeffs.get(x, 0) + c
    return {x: c for x, c in coeffs.items() if c}


def _lift_task(name, N, Np, coeffs, prec):
    def run():
        m = fqmod.hyperbolic_pair(N, Np)
        f = borcherds.InputForm(m, coeffs)
        res = borcherds.lift(f, prec)
        return res, _dumps(res.to_json())

    def check(res):
        if res.eta1 is None or res.eta2 is None:
            return False
        if res.psi1.trunc != prec or res.psi2.trunc != prec:
            return False
        return qseries.equals_to_precision(res.psi1, res.eta1.expand(prec)) and qseries.equals_to_precision(
            res.psi2, res.eta2.expand(prec)
        )

    return Task(name, run, check)


def lift_tasks(seed, shape):
    rng = random.Random(seed)
    tasks = []
    for N in shape["diagonal_N"]:
        for d in divisors(N):
            tasks.append(
                _lift_task("lift N=%d d=%d" % (N, d), N, 1, diagonal_member(N, d), shape["diagonal_prec"])
            )
    for N, p in shape["pairs"]:
        for k in range(shape["combos_per_pair"]):
            coeffs = lift_combination(rng, N, p, shape["members"])
            tasks.append(_lift_task("lift (%d,%d) combo %d" % (N, p, k), N, p, coeffs, shape["combo_prec"]))
    return tasks


# ------------------------------------------------------------------- eta


def _verify_eta_task(p, prec):
    def run():
        rep = borcherds.verify_eta_prime(p, prec)
        return rep, _dumps(rep)

    def check(rep):
        rel = rep["relation"]
        return (
            rep["verified"] is True
            and rep["direct"]["equal"] is True
            and rel["tau1"]["constant"] == "1"
            and rel["product_of_constants_is_one"] is True
        )

    return Task("verify-eta p=%d" % p, run, check)


def relation_combination(rng, N, p):
    """A seeded +-1 combination of the relations_Np basis, never zero."""
    basis = lnn_catalog.relations_Np(N, p)
    coef = _half_negative(rng, len(basis))
    return [sum(c * v[i] for c, v in zip(coef, basis)) for i in range(len(basis[0]))]


def _relation_task(N, p, rel, prec):
    def run():
        out = borcherds.relation_to_eta_identity(N, p, rel, prec)
        return out, _dumps(out)

    def check(out):
        return (
            out["verified"] is True
            and out["product_of_constants_is_one"] is True
            and out["tau1"]["first_mismatch"] is None
            and out["tau2"]["first_mismatch"] is None
        )

    return Task("relation (%d,%d)" % (N, p), run, check)


def eta_tasks(seed, shape):
    rng = random.Random(seed)
    tasks = [_verify_eta_task(p, shape["prime_prec"]) for p in shape["primes"]]
    for N, p in shape["pairs"]:
        rel = relation_combination(rng, N, p)
        tasks.append(_relation_task(N, p, rel, shape["relation_prec"]))
    return tasks


# --------------------------------------------------------------- certify


def _random_sl2(rng, n, steps):
    """A product of elementary matrices mod n: a random unimodular change."""
    a, b, c, d = 1, 0, 0, 1
    for k in range(steps):
        t = rng.randrange(n)
        if k % 2:
            a, b, c, d = a, (a * t + b) % n, c, (c * t + d) % n
        else:
            a, b, c, d = (a + b * t) % n, b, (c + d * t) % n, d
    return a, b, c, d


def presented_pair(rng, N, Np, steps):
    """JSON of D_{N,N'} with each hyperbolic block in a random new basis.

    Block (Z/n)^2 with Q(x, y) = xy/n and new generators g1 = (a, c),
    g2 = (b, d) of determinant 1: Q(g1) = ac/n, Q(g2) = bd/n and
    B(g1, g2) = (ad + bc)/n.  The result is isometric to D_{N,N'}.
    """
    orders, qs, off_b = [], [], []
    for n in (N, Np):
        a, b, c, d = _random_sl2(rng, n, steps)
        orders += [n, n]
        qs += [Fraction(a * c, n), Fraction(b * d, n)]
        off_b.append(Fraction(a * d + b * c, n))
    gram = [[Fraction(0)] * 4 for _ in range(4)]
    for blk in range(2):
        i = 2 * blk
        gram[i][i] = 2 * qs[i]
        gram[i + 1][i + 1] = 2 * qs[i + 1]
        gram[i][i + 1] = gram[i + 1][i] = off_b[blk]

    def mod1(fr):
        return "%d/%d" % ((fr - fr.numerator // fr.denominator).numerator, fr.denominator)

    return {
        "orders": orders,
        "q_gen": [mod1(q) for q in qs],
        "b_gram": [[mod1(v) for v in row] for row in gram],
    }


def _invariants_task(N, Np, module_json):
    text_in = _dumps(module_json)
    want = closed_dimension(N, Np)

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["invariants", "--module", text_in])
        if code != 0:
            raise RuntimeError("invariants exited with %d" % code)
        text = buf.getvalue()
        return json.loads(text), text

    def check(out):
        return out["dimension"] == want and out["selfdual_family_rank"] == want and len(out["basis"]) == want

    return Task("invariants (%d,%d)" % (N, Np), run, check)


def _span_task(N, Np, module_json):
    want = closed_dimension(N, Np)

    def run():
        rep = weilrep.verify_selfdual_span(fqmod.FqModule.from_json(module_json))
        return rep, _dumps(rep)

    def check(rep):
        return rep["span_equal"] is True and rep["dimension"] == want and rep["family_rank"] == want

    return Task("selfdual-span (%d,%d)" % (N, Np), run, check)


def _relations_task(N, Np, module_json):
    def run():
        m = fqmod.FqModule.from_json(module_json)
        rep = weilrep.weil_relations_report(m)
        rep["vH"] = [weilrep.check_vH_action(m, h) for h in subgroups.enumerate_subgroups(m)]
        return rep, _dumps(rep)

    def check(rep):
        flags = ("s4", "st3", "s_unitary", "t_unitary")
        return all(rep[k] is True for k in flags) and bool(rep["vH"]) and all(rep["vH"])

    return Task("weil-relations (%d,%d)" % (N, Np), run, check)


def certify_tasks(seed, shape):
    rng = random.Random(seed)
    steps = shape["steps"]
    tasks = []
    for N in shape["invariants_N"]:
        tasks.append(_invariants_task(N, 1, presented_pair(rng, N, 1, steps)))
    for N, p in shape["invariants_pairs"]:
        tasks.append(_invariants_task(N, p, presented_pair(rng, N, p, steps)))
    for N, p in shape["span_pairs"]:
        tasks.append(_span_task(N, p, presented_pair(rng, N, p, steps)))
    for N, Np in shape["relation_modules"]:
        tasks.append(_relations_task(N, Np, presented_pair(rng, N, Np, steps)))
    return tasks


BUILDERS = {"lift": lift_tasks, "eta": eta_tasks, "certify": certify_tasks}


def build(workload, seed, shape=None):
    """The task list of one workload round for a seed."""
    return BUILDERS[workload](seed, SHAPES[workload] if shape is None else shape)
