import json
import random
import time
import tracemalloc
from fractions import Fraction as F
from functools import lru_cache, partial, reduce
from itertools import combinations_with_replacement
from math import lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_fqmod import COMPONENTS, _cyclic, element_list, matmul_mod, negated, smul
from test_linalg import fraction_kernel, fraction_rref

from discweil import weilrep as W
from discweil.arith import primitive_root
from discweil.cyclo import (
    CycNumber,
    _powers,
    coordinates,
    cyclotomic_poly,
    degree,
    from_coordinates,
    from_powers,
    root_of_unity,
)
from discweil.fqmod import FqModule, direct_sum, hyperbolic_pair, p_primary_decomposition
from discweil.linalg import _certified, _prime
from discweil.lnn_catalog import dimension_formula
from discweil.subgroups import EnumerationBoundError, enumerate_subgroups

A1 = FqModule((2,), [F(1, 4)], [[F(1, 2)]])  # signature 1
A2 = FqModule((3,), [F(1, 3)], [[F(2, 3)]])  # signature 2


# ------------------------------------------------------------- dense oracle
# rho(S), rho(T^k) and their products as dense matrices of CycNumbers, built
# entry by entry from the module's tuple arithmetic: the reference for the
# histogram route of the library.  SL2(Z) matrices enter as words in S and T^k.


@lru_cache(maxsize=32)
def exponents(m):
    """The whole |D| x |D| exponent table E = -X (L B_gen) X^t mod L, read-only int32.

    The dense table by one reduction of the r x |D| factor, cached 32
    modules deep: the reference for ``W._exponent_block``, which builds only
    the blocks its callers read.
    """
    L = m.level
    X = m.coords
    E = X @ matmul_mod(m._gram, X.T, L)
    np.negative(E, out=E)
    E %= L
    E = E.astype(np.int32)
    E.flags.writeable = False
    return E


def blocks_of(E):
    """A stand-in for ``W._exponent_block`` that reads its blocks from the table E."""
    return lambda _, I, J=None: E[I] if J is None else E[np.ix_(I, J)]


@lru_cache(maxsize=None)
def powers_table(L):
    """Row e: the power-basis coordinates of zeta_L^e, 0 <= e < L, as int64.

    The whole L x phi(L) table, by integer long division of each x^e by the
    monic Phi_L, with no use of cyclo's table of powers: the reference for
    that table, for ``root_of_unity`` and for the reduction of the bins of
    ``W._s_sums``.
    """
    poly = np.array(cyclotomic_poly(L), dtype=np.int64)
    deg = len(poly) - 1
    rem = np.eye(L, dtype=np.int64)  # row e: x^e, low degree first
    for i in range(L - 1, deg - 1, -1):
        # clear x^i from the rows e >= i: subtract c x^(i - deg) Phi_L
        rem[i:, i - deg:i + 1] -= rem[i:, i, None] * poly
    return rem[:, :deg]


@pytest.mark.parametrize("M", [*range(1, 65), 1009, 1024, 1155])
def test_table_of_powers_matches_long_division(M):
    want = powers_table(M)
    assert degree(M) == want.shape[1]
    rows = _powers(M)
    assert len(rows) == M
    for e in range(M):
        assert rows[e] == tuple((j, int(r)) for j, r in enumerate(want[e]) if r)
        assert coordinates(M, root_of_unity(e, M)) == want[e].tolist()
    # the dense tail that ``W._s_sums`` reads, kept read-only, and its largest entry
    tail, top = W._tail(M)
    assert not tail.flags.writeable and tail.dtype == np.int64
    assert np.array_equal(tail, want[degree(M):])
    assert top == int(np.abs(want[degree(M):]).max(initial=1))


def dense_scalar(m):
    """e(-sig/8)/sqrt|D| = conj(G)/|D|."""
    return m.gauss_sum().conjugate() * F(1, m.size)


def dense_S(m):
    s0 = dense_scalar(m)
    els = element_list(m)
    return [[s0 * root_of_unity(-m.b_int(x, y), m.level) for y in els] for x in els]


def dense_T(m, k=1):
    L = m.level
    return [
        [root_of_unity(k * m.q_int(x), L) if i == j else F(0) for j in range(m.size)]
        for i, x in enumerate(element_list(m))
    ]


def identity(n):
    return [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = F(0)
            for k in range(n):
                if a[i][k] and b[k][j]:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_apply(a, vec):
    return [sum((row[k] * v for k, v in enumerate(vec) if v), F(0)) for row in a]


def conj_transpose(a):
    return [[a[j][i].conjugate() for j in range(len(a))] for i in range(len(a))]


S_MAT = ((0, -1), (1, 0))


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _t_mat(k):
    return ((1, k), (0, 1))


def evaluate_word(word):
    out = ((1, 0), (0, 1))
    for tok in word:
        out = _mat_mul(out, S_MAT if tok == "S" else _t_mat(tok[1]))
    return out


def sl2_word(mat):
    """Decompose an SL2(Z) matrix into S and T^k tokens (left to right product).

    Tokens are the string "S" or a pair ("T", k).  Standard Euclidean descent
    on the bottom-left entry; the result is verified by round-trip before
    being returned.
    """
    a, b = mat[0]
    c, d = mat[1]
    if a * d - b * c != 1:
        raise ValueError("determinant must be 1")
    word = []
    # peel T^q S from the left while the bottom-left entry is nonzero
    while c != 0:
        q = a // c
        word.append(("T", q))
        word.append("S")
        # multiply on the left by S^-1 T^-q:  S^-1 = [[0,1],[-1,0]]
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    # now the matrix is [[a, b], [0, d]] with ad = 1
    if a == 1:
        if b:
            word.append(("T", b))
    else:
        # a = d = -1: this is -I times T^(-b); -I = S^2
        word.append("S")
        word.append("S")
        if b:
            word.append(("T", -b))
    got = evaluate_word(word)
    assert got == (tuple(mat[0]), tuple(mat[1])), (got, mat)
    return word


def apply_T_power(m, k, vec):
    """rho(T^k) applied to a dense list: entry x times zeta_L^(k L Q(x))."""
    L = m.level
    exps = (k * m.q_ints % L).tolist()
    return [root_of_unity(e, L) * v if e else v for e, v in zip(exps, vec)]


def apply_S(m, vec):
    """rho(S) applied to a dense list of ints, Fractions or CycNumbers, exact.

    Over one common denominator each entry is split into its power-basis
    coordinates at the common conductor M, and the library's ``_s_sums``
    applies zeta^E to each coordinate j, one column of integers each; column
    j is then multiplied by zeta_M^j.  The scalar conj(G)/|D| is applied
    after, as a plain Fraction when it is rational, which keeps conductors
    small.
    """
    L = m.level
    M = lcm(L, *(v.conductor for v in vec if isinstance(v, CycNumber)))
    vals = [v if isinstance(v, CycNumber) else F(v) for v in vec]
    den = lcm(*(v.den if isinstance(v, CycNumber) else v.denominator for v in vals))
    V = np.array([coordinates(M, v * den) for v in vals], dtype=object)
    s0 = dense_scalar(m) / den
    return [
        sum((root_of_unity(j, M) * from_coordinates(L, c) for j, c in enumerate(row)), F(0)) * s0
        for row in W._s_sums(exponents(m), L, V).tolist()
    ]


def apply_word(m, word, vec):
    """Apply rho(word) with apply_S and apply_T_power, right to left."""
    for tok in reversed(word):
        if tok == "S":
            vec = apply_S(m, vec)
        else:
            vec = apply_T_power(m, tok[1], vec)
    return vec


def add_at_s_sums(E, L, V, S=None):
    """``W._s_sums`` by ``np.add.at`` at the exponents reduced mod L.

    The direct scatter, every entry added at its exponent mod L, reduced by
    the whole table of powers: the oracle for the counting into L bins and
    the reduction at the radical of ``_s_sums``, with the same choice of
    int64 or Python ints.  Vector c may also carry exponents S[k, c] (0 when
    omitted), entry V[k, c] zeta_L^S[k, c] at the element of row k, which
    the oracles of the report read.
    """
    b = V.shape[1]
    n = E.shape[1]
    RED = powers_table(L)
    if int(np.abs(V).sum()) * int(np.abs(RED).max()) < 2**63:
        V = V.astype(np.int64, copy=False)
    else:
        V, RED = V.astype(object), RED.astype(object)
    out = np.zeros((n, b, L), dtype=V.dtype)
    k, c = np.nonzero(V)
    shift = 0 if S is None else S[k, c][:, None]
    rows = np.arange(0, n * b * L, b * L)
    at = rows + (c * L)[:, None] + (E[k].astype(np.int64) + shift) % L
    np.add.at(out.reshape(-1), at, V[k, c][:, None])
    return out @ RED


def dense_rho(m, mat):
    out = identity(m.size)
    for tok in sl2_word(mat):
        out = mat_mul(out, dense_S(m) if tok == "S" else dense_T(m, tok[1]))
    return out


def dense_relations(m):
    """The flags of weil_relations_report, from the dense matrices."""
    S, T = dense_S(m), dense_T(m)
    S2 = mat_mul(S, S)
    ST = mat_mul(S, T)
    scale = root_of_unity(-m.signature_mod8(), 4)  # e(-sig/4)
    neg = [m.index(m.neg(x)) for x in element_list(m)]
    n = m.size
    return {
        "s2_is_negation": all(
            S2[i][j] == (scale if j == neg[i] else 0) for i in range(n) for j in range(n)
        ),
        "s4": mat_mul(S2, S2) == identity(n),
        "st3": mat_mul(mat_mul(ST, ST), ST) == S2,
        "s_unitary": mat_mul(S, conj_transpose(S)) == identity(n),
        "t_unitary": mat_mul(T, conj_transpose(T)) == identity(n),
    }


def column_relations(m):
    """The flags of weil_relations_report, column by column in O(|D|^3).

    Each relation is checked on every column: ``add_at_s_sums`` applies
    zeta^E to a batch of columns given as monomial vectors, ones times
    zeta^S, and the power-basis coordinates it returns are compared exactly
    with the closed forms.

    - rho(S)^2 = e(-sig/4) P_neg exactly when (zeta^E)^2 e_c = |D| e_(-c);
    - rho(S)^4 is then e(-sig/2), the identity exactly for even signature;
    - (ST)^3 = S^2 exactly when zeta^E T zeta^E = G T^-1 zeta^E T^-1
      (zeta^E on the columns T zeta^E e_c against G zeta^(E[i, c] - q_i - q_c))
      and s0 G = 1, which S^2 gives: on a degenerate table s0 G != 1, and
      the flag reads False, as the report's does;
    - rho(S) is unitary once S^2 holds and E is the table of a symmetric
      bilinear form, E = E^t and E[:, -c] = -E[:, c] mod L, checked on E.

    The reference for the report, which proves the same flags from the
    premises of the tables in O(|D|^2 r).  It reads the whole table through
    ``W._exponent_block``, so it sees a table a test installs there.
    """
    L = m.level
    n = m.size
    E = W._exponent_block(m, np.arange(n), np.arange(n))
    q = m.q_ints
    neg = m.indices_of(-m.coords)
    G = m.gauss_sum()
    RED = powers_table(L)
    phi = RED.shape[1]
    Gmat = np.array([coordinates(L, root_of_unity(t, L) * G) for t in range(phi)], dtype=np.int64)
    s2_ok = st3_ok = table_ok = True
    width = max(1, W._BLOCK // (n * L))
    for c0 in range(0, n, width):
        cols = np.arange(c0, min(n, c0 + width))
        at = np.arange(len(cols))
        blk = E[:, cols]
        ones = np.ones(blk.shape, dtype=np.int64)
        s2 = add_at_s_sums(E, L, ones, blk)
        want = np.zeros_like(s2)
        want[neg[cols], at, 0] = n
        s2_ok &= bool(np.array_equal(s2, want))

        table_ok &= bool(np.array_equal(blk, E[cols].T))
        table_ok &= bool(np.array_equal(E[:, neg[cols]], -blk % L))

        sts = add_at_s_sums(E, L, ones, (blk + q[:, None]) % L)
        st3_ok &= bool(np.array_equal(sts, RED[(blk - q[:, None] - q[cols]) % L] @ Gmat))

    return {
        "s2_is_negation": s2_ok,
        "s4": s2_ok and m.signature_mod8() % 2 == 0,
        "st3": st3_ok and s2_ok,
        "s_unitary": s2_ok and table_ok,
        "t_unitary": True,
        "method": "integer-histogram",
    }


def dense_vH(m, S, indices):
    """Is rho(S) 1_X = s0 |X| 1_{X perp}?  (True for every subgroup X.)"""
    els = element_list(m)
    got = mat_apply(S, [1 if i in indices else 0 for i in range(m.size)])
    want = dense_scalar(m) * len(indices)
    for x, g in zip(els, got):
        perp = all(m.b_int(x, els[k]) == 0 for k in indices)
        if g != (want if perp else 0):
            return False
    return True


def test_relations_small_modules_any_signature():
    # S^4 = e(-sig/2) id, so it is the identity exactly for even signature
    for m in (A1, A2, hyperbolic_pair(2, 1), hyperbolic_pair(3, 1)):
        rep = W.weil_relations_report(m)
        assert rep["st3"], m
        assert rep["s_unitary"] and rep["t_unitary"]
        assert rep["s2_is_negation"]
        assert rep["s4"] == (m.signature_mod8() % 2 == 0), m


def test_relations_fast_path_matches_dense():
    m = hyperbolic_pair(4, 1)
    fast = W.weil_relations_report(m)
    dense = dense_relations(m)
    for k in ("s4", "st3", "s_unitary", "t_unitary"):
        assert fast[k] == dense[k] is True


def test_apply_S_on_e0():
    m = hyperbolic_pair(2, 1)
    vec = [F(0)] * m.size
    vec[m.index((0, 0, 0, 0))] = F(1)
    out = apply_S(m, vec)
    assert all(x == F(1, 2) for x in out)


def test_apply_T_phases():
    m = hyperbolic_pair(3, 1)
    from discweil.cyclo import exp_frac

    vec = [F(1)] * m.size
    out = apply_T_power(m, 2, vec)
    for i, x in enumerate(element_list(m)):
        assert out[i] == exp_frac(2 * m.q_value(x))


def test_apply_S_matches_matrix():
    m = hyperbolic_pair(3, 1)
    vec = [F(i % 4 - 1) for i in range(m.size)]
    by_mat = mat_apply(dense_S(m), vec)
    by_fn = apply_S(m, vec)
    assert all(a == b for a, b in zip(by_mat, by_fn))


def test_sl2_word_round_trip():
    mats = [((2, 1), (7, 4)), ((1, 0), (0, 1)), ((0, -1), (1, 0)), ((5, 2), (12, 5))]
    for mat in mats:
        word = sl2_word(mat)
        assert evaluate_word(word) == mat


def test_rho_is_a_homomorphism_through_words():
    m = hyperbolic_pair(2, 1)
    mat = ((2, 1), (7, 4))
    vec = [F(1), F(0), F(2), F(0)]
    direct = mat_apply(dense_rho(m, mat), vec)
    word = sl2_word(mat)
    assert apply_word(m, word, vec) == direct


def mu_matrix(u, N):
    """An SL2(Z) matrix with bottom row (N, u), acting like multiplication by u.

    Takes the smallest non-negative a with a u = 1 mod N; the top row is then
    (a, (a u - 1)/N).
    """
    a = pow(u, -1, N)
    return ((a, (a * u - 1) // N), (N, u))


def verify_mu(m, u):
    """The isotropic gamma for which rho(M_u) e_gamma != e_{u gamma}."""
    word = sl2_word(mu_matrix(u % m.level, m.level))
    bad = []
    for i in m.isotropic_indices:
        vec = [F(0)] * m.size
        vec[i] = F(1)
        target = m.index(smul(m, u, m.element_at(i)))
        if apply_word(m, word, vec) != [int(j == target) for j in range(m.size)]:
            bad.append(m.element_at(i))
    return bad


def test_verify_mu():
    m = hyperbolic_pair(6, 1)
    for u in (1, 5):
        assert verify_mu(m, u) == []


def test_vH_action_all_subgroups():
    m = hyperbolic_pair(6, 1)
    for h in enumerate_subgroups(m):
        assert W.check_vH_action(m, h)


def vH_column_oracle(E, L, idx):
    """Is sum_(k in idx) zeta_L^E[k, c] = |idx| on the zero columns of E[idx] and 0 on the rest?"""
    for c in range(E.shape[1]):
        got = sum((root_of_unity(int(E[k, c]), L) for k in idx), F(0))
        if got != (0 if E[idx, c].any() else len(idx)):
            return False
    return True


@pytest.mark.parametrize(
    "m", [hyperbolic_pair(3, 1), hyperbolic_pair(4, 1), COMPONENTS[8]], ids=["D3", "D4", "Z4"]
)
def test_vH_check_rejects_a_column_that_is_no_character(monkeypatch, m):
    # E[x, c] off by one at the last element x of H: column c of E[H] is no
    # longer a character of H (the level is above 2), and the check must
    # fail, as the column oracle finds by summing roots of unity; on the
    # table as it is, both hold
    E0, L = exponents(m), m.level
    for h in enumerate_subgroups(m):
        idx = list(h.indices)
        monkeypatch.setattr(W, "_exponent_block", blocks_of(E0))
        assert W.check_vH_action(m, h) is vH_column_oracle(E0, L, idx) is True
        for c in range(m.size):
            E = E0.copy()
            E[idx[-1], c] = (E[idx[-1], c] + 1) % L
            monkeypatch.setattr(W, "_exponent_block", blocks_of(E))
            assert W.check_vH_action(m, h) is vH_column_oracle(E, L, idx) is False


# ------------------------------------------------------ power-basis oracle
# The fixed-point system expanded over the power basis of Q(zeta_L) into
# integer rows, solved by the Fraction kernel: the reference for the
# certified modular kernel of the library.


def power_basis_rows(m):
    """Integer rows of the fixed-point system over the power basis.

    Unknowns are v_gamma for isotropic gamma.  For every beta in D the
    equation  sum_gamma zeta^(-B(beta,gamma)) v_gamma - G [beta iso] v_beta = 0
    (G the Gauss sum, equal to 1/scalar(S)) expands to phi(L) integer rows,
    of which the nonzero ones are kept, in the order (beta, coordinate).
    """
    E = exponents(m)
    RED = powers_table(m.level)
    iso = list(m.isotropic_indices)
    gcan = np.array(coordinates(m.level, m.gauss_sum()), dtype=np.int64)
    A = RED[E[:, iso]]  # (|D|, |iso|, phi): coordinates of zeta^E[beta, gamma]
    A[iso, np.arange(len(iso))] -= gcan
    A = A.transpose(0, 2, 1).reshape(-1, len(iso))
    return A[A.any(axis=1)].tolist(), iso


def oracle_invariants(m):
    rows, iso = power_basis_rows(m)
    return fraction_kernel(rows, len(iso))


def oracle_rank(rows):
    return len(fraction_rref(rows)[1])


# ------------------------------------------------------ full-system oracle
# The fixed-point system on all |D| rows, and the exponent table by two
# reduced products: the references for the square system the certificate
# eliminates and for the table ``exponents`` builds by one reduction.


def full_residues(m, q):
    """The |D| x |iso| system zeta^E[:, iso] - G I mod q, zeta_L sent to t of order L."""
    L, iso = m.level, list(m.isotropic_indices)
    t = pow(primitive_root(q), (q - 1) // L, q)
    A = np.array([pow(t, e, q) for e in range(L)], dtype=np.int64)[exponents(m)[:, iso]]
    at = (iso, np.arange(len(iso)))
    g = sum(c * pow(t, j, q) for j, c in enumerate(coordinates(L, m.gauss_sum()))) % q
    A[at] = (A[at] - g) % q
    return A


def certified_system(m, residues):
    """(rref, pivots, kernel) of the fixed-point system whose residues mod q are residues(q)."""
    ncols = len(m.isotropic_indices)
    return _certified(residues, ncols, partial(W._fixed, m, W._isotropic_block(m)), m.level)


def summed(picks):
    return reduce(direct_sum, [COMPONENTS[i] for i in picks])


# a sum of one to three Jordan components, or a double D + D(-1) of a sum of
# one or two with |D| <= 16, which has self-dual isotropic subgroups
PICKS = st.lists(st.sampled_from(range(len(COMPONENTS))), min_size=1, max_size=3)
SUMS = PICKS.map(summed)
DOUBLES = (
    PICKS.filter(lambda picks: len(picks) < 3)
    .map(summed)
    .filter(lambda d: d.size <= 16)
    .map(lambda d: direct_sum(d, negated(d)))
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, DOUBLES))
@example(COMPONENTS[6])  # Z/2 with x^2/4: signature 1, no invariants
@example(direct_sum(COMPONENTS[5], negated(COMPONENTS[5])))  # Z/7 + Z/7(-1)
@example(hyperbolic_pair(6, 1))
def test_square_system_matches_full_system_oracle(m):
    # the square block and all |D| rows have one kernel, so one RREF
    square = partial(W._residues, m, W._isotropic_block(m))
    assert certified_system(m, square) == certified_system(m, partial(full_residues, m))
    assert square(_prime(0, m.level)).shape == (len(m.isotropic_indices),) * 2


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, DOUBLES))
@example(hyperbolic_pair(12, 2))
def test_exponents_match_two_matmul_oracle(m):
    L, X = m.level, m.coords
    E = exponents(m)
    assert E.dtype == np.int32 and not E.flags.writeable
    assert np.array_equal(E, -matmul_mod(matmul_mod(X, m._gram, L), X.T, L) % L)
    every = np.arange(m.size)
    block = W._exponent_block(m, every, every)
    assert block.dtype == np.int32 and block.flags.c_contiguous
    assert np.array_equal(block, E)


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, DOUBLES))
@example(hyperbolic_pair(6, 2))
@example(COMPONENTS[6])  # no self-dual isotropic subgroup: the lift alone
def test_bound_route_matches_lift_oracle(m):
    # the certified dimension and spans verdict against the lift on its own
    rows = W._isotropic_block(m)
    kernel = certified_system(m, partial(W._residues, m, rows))[2]
    dimension, lifted, family, pivots, spans = W._square_certificate(m)
    assert dimension == len(kernel)
    assert spans == (len(pivots) == len(kernel) and W._fixed(m, rows, [family[c] for c in pivots]))
    assert (lifted is None) == (bool(family) and spans)
    assert lifted in (None, kernel)


@pytest.mark.parametrize("N, Np, want", [(6, 1, 4), (2, 2, 5), (6, 2, 10)])
def test_bounds_certify_without_the_lift(monkeypatch, N, Np, want):
    def no_lift(*_):
        raise AssertionError("the lift ran")

    monkeypatch.setattr(W, "_certified", no_lift)
    m = hyperbolic_pair(N, Np)
    assert len(W.invariant_space(m)) == want
    rep = W.verify_selfdual_span(m)
    assert rep["dimension"] == rep["family_rank"] == want and rep["span_equal"]


def test_invariant_space_methods_agree():
    # the kernel the lift certifies against the power-basis oracle, and for
    # modules with self-dual isotropic subgroups the v^H that the bounds
    # certify against that kernel
    for N, Np, want in [(2, 1, 2), (6, 1, 4), (2, 2, 5)]:
        m = hyperbolic_pair(N, Np)
        kernel = certified_system(m, partial(W._residues, m, W._isotropic_block(m)))[2]
        assert kernel == oracle_invariants(m)
        dimension, lifted, family, pivots, spans = W._square_certificate(m)
        assert spans and dimension == len(pivots) == want and lifted is None
        got = [[v[g] for g in m.isotropic_indices] for v in W.invariant_space(m)]
        assert oracle_rank(got) == oracle_rank(got + kernel) == want


def test_bad_prime_is_rejected(monkeypatch):
    # the residues of the first prime keep only their first row, as if the
    # prime were unlucky: the upper bound |iso| - 1 misses the family's
    # rank, so the lift runs, starting from the RREF the bounds made; its
    # first kernel is too large and fails the exact check, the next prime's
    # smaller key restarts the lift, and the certificate is the bounds' one
    # with the lifted kernel.  p-primary modules, as a module of two or
    # more parts is certified through its parts
    for m in (hyperbolic_pair(4, 1), direct_sum(COMPONENTS[4], negated(COMPONENTS[4]))):
        dimension, _, size, rank, spans = W._certificate(m)
        kernel = certified_system(m, partial(W._residues, m, W._isotropic_block(m)))[2]
        first = _prime(0, m.level)
        residues, fixed = W._residues, W._fixed
        primes, verdicts = [], []

        def corrupted(mod, rows, q):
            A = residues(mod, rows, q)
            primes.append(q)
            if q == first:
                A[1:] = 0
            return A

        def recorded(*args):
            verdicts.append(fixed(*args))
            return verdicts[-1]

        with monkeypatch.context() as mp:
            mp.setattr(W, "_residues", corrupted)
            mp.setattr(W, "_fixed", recorded)
            assert W._certificate(m) == (dimension, kernel, size, rank, spans)
        assert spans and dimension == len(kernel) == rank
        # the bounds' prime, reduced once for both routes, then the lift's second
        assert primes == [first, _prime(1, m.level)]
        assert verdicts == [False, True, True]


# (Z/3)^3 with signatures 6 and 2: the Gauss sum is not real, and each
# module has one invariant, so the test ``_fixed`` makes reads G, not conj(G)
NONREAL_G = [
    reduce(direct_sum, [COMPONENTS[i] for i in picks]) for picks in ((0, 0, 0), (0, 0, 1))
]


@settings(max_examples=30)
@given(st.sampled_from(NONREAL_G), st.data())
def test_fixed_matches_dense_oracle(m, data):
    # integer combinations of the oracle's invariants, bumped on a few
    # isotropic elements: _fixed holds exactly when the dense rho(S) fixes them
    iso = list(m.isotropic_indices)
    vec = [0] * len(iso)
    for inv in oracle_invariants(m):
        c = data.draw(st.integers(-3, 3))
        vec = [a + c * b for a, b in zip(vec, inv)]
    bumps = st.dictionaries(st.integers(0, len(iso) - 1), st.integers(-2, 2), max_size=2)
    for k, v in data.draw(bumps).items():
        vec[k] += v
    dense = [0] * m.size
    for g, v in zip(iso, vec):
        dense[g] = v
    assert W._fixed(m, W._isotropic_block(m), [vec]) is (mat_apply(dense_S(m), dense) == dense)


def test_invariant_vectors_are_fixed_by_generators():
    m = hyperbolic_pair(4, 1)
    for v in W.invariant_space(m):
        assert apply_S(m, v) == v
        assert apply_T_power(m, 1, v) == v


def test_selfdual_span_report():
    rep = W.verify_selfdual_span(hyperbolic_pair(6, 1))
    assert rep == {
        "dimension": 4,
        "family_size": 4,
        "family_rank": 4,
        "span_equal": True,
    }


def double(d):
    """D + D(-1): the diagonal is a self-dual isotropic subgroup."""
    return direct_sum(d, negated(d))


# p-primary modules and sums of them with self-dual isotropic subgroups,
# beyond D_{N,N'}, and the dimension of their invariants
BEYOND_LNN = {
    "Z9": (_cyclic(9, F(1, 9)), 1),
    "Z25": (_cyclic(25, F(1, 25)), 1),
    "Z4+Z4(-1)": (direct_sum(_cyclic(4, F(1, 8)), _cyclic(4, F(-1, 8))), 2),
    "Z8+Z8(-1)": (double(_cyclic(8, F(1, 16))), 3),
    "Z9+Z9(-1)": (double(_cyclic(9, F(1, 9))), 3),
    "(Z3)^4": (reduce(direct_sum, [COMPONENTS[0], COMPONENTS[0], COMPONENTS[1], COMPONENTS[1]]), 7),
    "Z7+Z7(-1)+Z3+Z3(-1)": (direct_sum(double(COMPONENTS[4]), double(COMPONENTS[0])), 4),
}


@pytest.mark.parametrize("name", list(BEYOND_LNN))
def test_selfdual_family_spans_beyond_lnn(name):
    # the paper's theorem on discriminant forms that are not D_{N,N'}: the
    # self-dual isotropic family spans the invariants, whose dimension the
    # lift alone certifies too
    m, want = BEYOND_LNN[name]
    assert m.signature_mod8() == 0
    rep = W.verify_selfdual_span(m)
    kernel = certified_system(m, partial(W._residues, m, W._isotropic_block(m)))[2]
    assert rep["span_equal"] is True
    assert rep["dimension"] == rep["family_rank"] == len(kernel) == want


# multi-prime D_{N,N'} under the bound: every one is certified through its parts
PRODUCT_PAIRS = st.sampled_from([(6, 1), (10, 1), (12, 1), (15, 1), (6, 2), (6, 3), (12, 2)]).map(
    lambda pair: hyperbolic_pair(*pair)
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, DOUBLES, PRODUCT_PAIRS))
@example(hyperbolic_pair(12, 2))
@example(double(direct_sum(COMPONENTS[0], COMPONENTS[2])))  # Z/15 + Z/15(-1), two parts
@example(reduce(direct_sum, [double(COMPONENTS[6]), COMPONENTS[0], COMPONENTS[4]]))  # three parts
def test_product_route_matches_square_route(m):
    # the square certificate of the whole module is the oracle of the
    # product route, for the certificate, the span report and the basis
    dimension, kernel, family, pivots, spans = W._square_certificate(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_product_certificate", lambda _: None)
        basis = W.invariant_space(m)
        report = W.verify_selfdual_span(m) if family else None
    # a module of two or more parts with a family has parts with families,
    # and each spans, so it takes the product route
    product = W._product_certificate(m)
    assert (product is not None) == (len(p_primary_decomposition(m)) > 1 and bool(family))
    assert product in (None, (dimension, len(family), len(pivots)))
    assert W._certificate(m) == (dimension, kernel, len(family), len(pivots), spans)
    assert json.dumps(W.invariant_space(m)) == json.dumps(basis)
    if family:
        assert W.verify_selfdual_span(m) == report


@pytest.mark.parametrize(
    "m,parts",
    [
        (direct_sum(COMPONENTS[6], double(COMPONENTS[0])), []),
        (reduce(direct_sum, [double(COMPONENTS[6]), COMPONENTS[0], COMPONENTS[0]]), [4, 9]),
        (direct_sum(COMPONENTS[0], COMPONENTS[2]), []),
    ],
    ids=["odd 2-part", "3-part with no family", "no family"],
)
def test_a_part_without_a_spanning_family_goes_square(monkeypatch, m, parts):
    # Z/2 with x^2/4 has signature 1, so no family; (Z/3)^2 with
    # x^2/3 + y^2/3 has no isotropic element but 0; Z/3 + Z/5 has
    # signature 2.  The square certificate then runs on the whole module.
    # A part of non-square order (Z/2, Z/3, Z/5) has no family at all, so
    # no part is certified before the whole module.
    square = W._square_certificate
    sizes = []

    def recorded(mod):
        sizes.append(mod.size)
        return square(mod)

    monkeypatch.setattr(W, "_square_certificate", recorded)
    dimension, kernel, size, rank, spans = W._certificate(m)
    # the parts up to the first without a family, then the whole module
    assert sizes == parts + [m.size]
    assert W._product_certificate(m) is None
    assert (kernel is None) == (bool(size) and spans)
    assert dimension == len(kernel) == size == rank == 0


def test_basis_closes_against_the_product_counts(monkeypatch):
    # on the product route the basis is the greedy subfamily of the whole
    # module's family, accepted only when its size and rank are the
    # products of the parts': a certificate either closes or raises
    m = hyperbolic_pair(6, 1)
    assert W._product_certificate(m) == (4, 4, 4)
    monkeypatch.setattr(W, "_product_certificate", lambda _: (5, 5, 5))
    with pytest.raises(W.CertificationError):
        W.invariant_space(m)


@pytest.mark.parametrize("N, Np, size", [(12, 12, 176), (60, 6, 160)])
def test_span_report_past_the_bound_runs_through_the_parts(monkeypatch, N, Np, size):
    # |D| = 20736 and 129600, over the default bound of 10^4, with every
    # part under it: the span report certifies them in well under a second
    # and computes no residue of the whole module, while a basis, a list
    # of |D| ints, is refused before any work.  Both have dimension 112,
    # which is dimension_formula(60, 6)
    monkeypatch.delenv("WEILREP_MAX_D", raising=False)
    residues = W._residues

    def parts_only(mod, rows, q):
        if mod.size == N * N * Np * Np:
            raise AssertionError("the residues of the whole module were computed")
        return residues(mod, rows, q)

    monkeypatch.setattr(W, "_residues", parts_only)
    t0 = time.monotonic()
    rep = W.verify_selfdual_span(hyperbolic_pair(N, Np))
    assert time.monotonic() - t0 < 1.0
    assert rep == {"dimension": 112, "family_size": size, "family_rank": 112, "span_equal": True}
    assert dimension_formula(60, 6) == 112

    def no_work(_):
        raise AssertionError("the parts were split")

    monkeypatch.setattr(W, "p_primary_decomposition", no_work)
    with pytest.raises(EnumerationBoundError):
        W.invariant_space(hyperbolic_pair(N, Np))


def test_env_var_bound_governs_dense_tables(monkeypatch):
    # |D| = 16 is over a bound of 10, so the dense tables are refused
    m = hyperbolic_pair(4, 1)
    monkeypatch.setenv("WEILREP_MAX_D", "10")
    with pytest.raises(EnumerationBoundError):
        W.weil_relations_report(m)
    # also when the tables were built before the bound was lowered
    monkeypatch.delenv("WEILREP_MAX_D")
    assert W.weil_relations_report(m)["s4"]
    monkeypatch.setenv("WEILREP_MAX_D", "10")
    with pytest.raises(EnumerationBoundError):
        W.weil_relations_report(m)


def test_bound_governs_relations_on_every_module(monkeypatch):
    # Z/5 with Q = x^2/5: |D| = 5 is not a square, and over a bound of 3
    m = FqModule((5,), [F(1, 5)], [[F(2, 5)]])
    monkeypatch.setenv("WEILREP_MAX_D", "3")
    with pytest.raises(EnumerationBoundError):
        W.weil_relations_report(m)


# every direct sum of one to three Jordan components with |D| <= 12
SMALL_SUMS = [
    picks
    for r in (1, 2, 3)
    for picks in combinations_with_replacement(range(len(COMPONENTS)), r)
    if prod(COMPONENTS[i].size for i in picks) <= 12
]
CONDUCTORS = (1, 3, 4, 5, 8, 12)
CYC = st.builds(
    lambda M, terms: from_powers(M, dict(terms)),
    st.sampled_from(CONDUCTORS),
    st.lists(st.tuples(st.integers(0, 23), st.fractions(max_denominator=6)), max_size=3),
)
ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.fractions(max_denominator=7, min_value=-3, max_value=3),
    st.integers(-(2**70), 2**70),
    CYC,
)


@settings(max_examples=60)
@given(st.sampled_from(SMALL_SUMS), st.data())
@example((6,), None)  # Z/2 with x^2/4: signature 1
@example((0,), None)  # Z/3 with x^2/3: signature 2, |D| not a square
@example((2,), None)  # Z/5 with x^2/5
@example((8,), None)  # Z/4 with x^2/8
@example((9,), None)  # Z/4 with 3x^2/8
def test_histogram_route_matches_dense_oracle(picks, data):
    m = reduce(direct_sum, [COMPONENTS[i] for i in picks])
    dense = dense_relations(m)
    S = dense_S(m)
    subgroups = enumerate_subgroups(m)
    if data is not None:
        # an arbitrary subset: the identity holds exactly when the oracle says so
        subset = data.draw(st.sets(st.integers(0, m.size - 1), min_size=1))
        vec = data.draw(st.lists(ENTRIES, min_size=m.size, max_size=m.size))
        subset_ok, s_vec = dense_vH(m, S, subset), mat_apply(S, vec)
    # the default block; one index, below one row of |D|, so every scatter
    # step takes one entry and every batch one column; and batches of three
    # columns, each scattered in several steps
    for block in (W._BLOCK, 1, 3 * m.size * m.level + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(W, "_BLOCK", block)
            rep = W.weil_relations_report(m)
            assert rep["method"] == "integer-histogram"
            flags = ("s2_is_negation", "s4", "st3", "s_unitary", "t_unitary")
            assert {k: rep[k] for k in flags} == dense
            assert rep == column_relations(m)
            for h in subgroups:
                assert W.check_vH_action(m, h) is dense_vH(m, S, h.indices) is True
            if data is not None:
                assert W.check_vH_action(m, SimpleNamespace(indices=subset)) is subset_ok
                assert apply_S(m, vec) == s_vec


# blocks of 2^16 (above the default), the default, one entry, 3 |D| L + 1
# (the column oracle's batches of three columns) and 3 |D| + 1 (the proof's
# blocks of three rows)
@pytest.mark.parametrize("block", sorted({2**16, W._BLOCK, 1, 3 * 27 + 1, 3 * 9 + 1}))
@pytest.mark.parametrize("entries", [[(1, 2)], [(1, 2), (2, 1)]], ids=["one", "pair"])
def test_relations_report_rejects_a_wrong_table(monkeypatch, block, entries):
    # one entry of the exponent table off by one, or a symmetric pair of
    # them: rho(S) is no longer the Weil action, and every relation that
    # involves it must fail, as the column oracle finds, whatever the blocks
    # (|D| = 9 entries per row, |D| L = 27 histogram entries per column)
    m = hyperbolic_pair(3, 1)
    E = exponents(m).copy()
    for i, k in entries:
        E[i, k] = (E[i, k] + 1) % m.level
    monkeypatch.setattr(W, "_exponent_block", blocks_of(E))
    monkeypatch.setattr(W, "_BLOCK", block)
    rep = W.weil_relations_report(m)
    assert rep == column_relations(m)
    assert not rep["s2_is_negation"] and not rep["s4"]
    assert not rep["st3"]
    assert not rep["s_unitary"]


@pytest.mark.parametrize("block", sorted({2**16, W._BLOCK, 1}))
@pytest.mark.parametrize("m", [hyperbolic_pair(3, 1), COMPONENTS[6]], ids=["D3", "A1"])
def test_relations_report_rejects_a_wrong_q(monkeypatch, m, block):
    # one value L*Q(x_j) off by one and E as it is: S^2 reads only E and
    # still holds, while STS = T^-1 S T^-1 must fail for every j.  The
    # signature is pinned, as the Gauss sum of the wrong values is off the
    # circle |G|^2 = |D|.
    sig, q = m.signature_mod8(), m.q_ints
    monkeypatch.setattr(m, "signature_mod8", lambda: sig)
    monkeypatch.setattr(W, "_BLOCK", block)
    for j in range(m.size):
        wrong = q.copy()
        wrong[j] = (wrong[j] + 1) % m.level
        monkeypatch.setitem(m.__dict__, "q_ints", wrong)
        rep = W.weil_relations_report(m)
        assert rep["s2_is_negation"] and not rep["st3"], j


# the modules of repro check 6
CHECK6 = [(N, 1) for N in range(1, 13)] + [(2, 2), (4, 2), (6, 2), (3, 3)]


def presented(rng, N, Np, steps=4):
    """D_{N,N'} with each hyperbolic block in the basis of a random SL2(Z).

    Block (Z/n)^2 with Q(x, y) = xy/n and the generators g1 = (a, c),
    g2 = (b, d) of a product of elementary matrices: Q(g1) = ac/n,
    Q(g2) = bd/n and B(g1, g2) = (ad + bc)/n.  Isometric to D_{N,N'}.
    """
    orders, qs, bs = [], [], [[F(0)] * 4 for _ in range(4)]
    for i, n in ((0, N), (2, Np)):
        a, b, c, d = 1, 0, 0, 1
        for k in range(steps):
            t = rng.randrange(n)
            if k % 2:
                b, d = a * t + b, c * t + d
            else:
                a, c = a + b * t, c + d * t
        orders += [n, n]
        qs += [F(a * c, n), F(b * d, n)]
        bs[i][i], bs[i + 1][i + 1] = 2 * qs[i], 2 * qs[i + 1]
        bs[i][i + 1] = bs[i + 1][i] = F(a * d + b * c, n)
    return FqModule(orders, qs, bs)


RELATIONS_HOLD = {
    "s2_is_negation": True,
    "s4": True,
    "st3": True,
    "s_unitary": True,
    "t_unitary": True,
    "method": "integer-histogram",
}


@pytest.mark.parametrize("N,Np", CHECK6)
def test_relations_proof_matches_column_oracle(N, Np):
    # each module of check 6 and two seeded isometric presentations of it
    rng = random.Random(100 * N + Np)
    for m in (hyperbolic_pair(N, Np), presented(rng, N, Np), presented(rng, N, Np)):
        assert W.weil_relations_report(m) == column_relations(m) == RELATIONS_HOLD, m.to_json()


# seeded isometric presentations of small D_{N,N'}
PRESENTED = st.builds(
    lambda seed, pair: presented(random.Random(seed), *pair),
    st.integers(0, 2**16),
    st.sampled_from([(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (4, 2), (3, 3)]),
)


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, PRESENTED))
@example(hyperbolic_pair(12, 2))
@example(presented(random.Random(1), 30, 6))  # |D| = 32400, level 30
def test_element_tables_match_products_reduced_at_every_step(m):
    # q_ints, pairing and b_ints take plain int64 products reduced once:
    # against products reduced mod L after every product, which need no
    # range rule
    L, X, gram = m.level, m.coords, m._gram
    U = np.triu(gram, 1)
    U[np.diag_indices_from(U)] = m._int_tables[1]  # L*Q on the generators
    assert np.array_equal(m.q_ints, (X * matmul_mod(X, U.T, L) % L).sum(axis=1) % L)
    assert np.array_equal(m.pairing, matmul_mod(gram, X.T, L))
    for x in X[:: max(1, m.size // 7)]:
        assert np.array_equal(m.b_ints(x), matmul_mod(x[None], m.pairing, L)[0])


def index_lists(m):
    return st.lists(st.integers(0, m.size - 1), max_size=2 * m.size)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(SUMS, PRESENTED).flatmap(
        lambda m: st.tuples(st.just(m), index_lists(m), index_lists(m))
    )
)
@example((hyperbolic_pair(6, 1), [], [0, 5, 5]))  # no rows, a repeated column
@example((hyperbolic_pair(6, 1), [7, 7, 0], []))  # a repeated row, no columns
@example((hyperbolic_pair(6, 1), [], []))
def test_exponent_block_matches_dense_oracle(case):
    m, I, J = case
    I, J = np.array(I, dtype=np.int64), np.array(J, dtype=np.int64)
    block = W._exponent_block(m, I, J)
    assert block.dtype == np.int32 and block.shape == (len(I), len(J))
    assert np.array_equal(block, exponents(m)[np.ix_(I, J)])


@pytest.mark.parametrize("m", [hyperbolic_pair(3, 1), hyperbolic_pair(4, 2)], ids=["D3", "D42"])
@pytest.mark.parametrize(
    "case", ["generator column", "q at zero", "q at a generator", "q negated", "q plus a character"]
)
def test_relations_report_fails_a_broken_premise(monkeypatch, m, case):
    # The row and column of a generator off by one keep E symmetric but not
    # additive: S^2 and STS fail.  q[0] = 1, q off by one at a generator, or
    # -q, is no quadratic refinement of E: STS fails, while S^2 reads only E
    # and holds.  Each as the column oracle finds it.  -q passes the column
    # zeta^E zeta^q = G zeta^-q (its Gauss sum is conj(G)), so only the
    # premise rejects it.  q + E[g] is a refinement still, as the row E[g]
    # is a character, but not even (2 q[x] + E[x, x] != 0): that column
    # fails, and STS with it.  The signature is pinned, as the Gauss sum of
    # a wrong q is off the circle |G|^2 = |D|.
    L, g = m.level, m.indices_of(np.eye(len(m.orders), dtype=np.int64))[0]
    sig = m.signature_mod8()
    monkeypatch.setattr(m, "signature_mod8", lambda: sig)
    E, q = exponents(m).copy(), m.q_ints.copy()
    if case == "generator column":
        E[:, g] = (E[:, g] + 1) % L
        E[g] = E[:, g]
        monkeypatch.setattr(W, "_exponent_block", blocks_of(E))
    else:
        if case == "q negated":
            q = -q % L
        elif case == "q plus a character":
            q = (q + E[g]) % L
        else:
            at = 0 if case == "q at zero" else g
            q[at] = (q[at] + 1) % L
        monkeypatch.setitem(m.__dict__, "q_ints", q)
    rep = W.weil_relations_report(m)
    assert rep == column_relations(m)
    assert rep["s2_is_negation"] is (case != "generator column")
    assert not rep["st3"]


def table_square(E, L):
    """(zeta^E)^2 as power-basis coordinates, with no symmetry of E assumed.

    Entry (i, c) is sum_k zeta^(E[i, k] + E[k, c]): ``add_at_s_sums`` on
    the rows k of E^t, each column c the vector of the roots zeta^E[k, c].
    """
    return add_at_s_sums(E.T, L, np.ones(E.shape, dtype=np.int64), E)


@pytest.mark.parametrize("N,twist", [(4, "swap"), (5, "swap"), (5, "double"), (3, "double")])
def test_relations_report_needs_a_bilinear_table(monkeypatch, N, twist):
    # Tables that pass the column zeta^E 1 = |D| e_0, as their rows hold the
    # exponents of E permuted, but are no table of a symmetric bilinear form,
    # and whose square is not |D| P_neg:
    # - swap: rows and columns of two elements x, y with y != -x exchanged,
    #   symmetric but not additive;
    # - double: E[i, a k], a doubling the first coordinate, additive in each
    #   argument but not symmetric.
    # The column oracle reads such tables as symmetric and cannot judge the
    # second kind, so the exact square is the reference.
    m = hyperbolic_pair(N, 1)
    E = exponents(m)
    if twist == "swap":
        perm = np.arange(m.size)
        perm[[1, 2]] = [2, 1]
        E = E[np.ix_(perm, perm)]
    else:
        X = m.coords.copy()
        X[:, 0] *= 2
        E = E[:, m.indices_of(X)]
    want = np.zeros((m.size, m.size, len(coordinates(m.level, 1))), dtype=np.int64)
    want[m.indices_of(-m.coords), np.arange(m.size), 0] = m.size
    assert not np.array_equal(table_square(E, m.level), want)
    assert np.array_equal(table_square(exponents(m), m.level), want)
    monkeypatch.setattr(W, "_exponent_block", blocks_of(E))
    rep = W.weil_relations_report(m)
    assert not rep["s2_is_negation"] and not rep["s4"] and not rep["st3"] and not rep["s_unitary"]


# c E and c q mod L, and then t E[g] added to q, g a generator
@pytest.mark.parametrize(
    "N,Np,c,t", [(4, 1, 2, 0), (6, 1, 2, 0), (6, 1, 3, 0), (2, 2, 2, 0), (3, 1, 0, 1)]
)
def test_relations_report_needs_a_non_degenerate_table(monkeypatch, N, Np, c, t):
    # c E is a symmetric bilinear table and c q an even refinement of it,
    # but the rows of the x with c L B(x, .) = 0 are zero, and some such x
    # is not 0: the form is degenerate, and S^2 is no negation, as the
    # column oracle finds.  Then s0 G != 1, so the identity that st3 checks
    # is not (ST)^3 = S^2, and st3 reads False: for c = 2 on D_{4,1},
    # s0 G = 4 and (ST)^3 != S^2.  With c = 0 the table is zero and
    # q = E[g] is not zero on its radical, all of D: G = 0, S = 0, and
    # st3 reads False too, as nothing in the report proves it.
    m = hyperbolic_pair(N, Np)
    L, E = m.level, exponents(m)
    g = m.indices_of(np.eye(len(m.orders), dtype=np.int64))[0]
    monkeypatch.setattr(W, "_exponent_block", blocks_of(c * E % L))
    monkeypatch.setitem(m.__dict__, "q_ints", (c * m.q_ints + t * E[g]) % L)
    rep = W.weil_relations_report(m)
    assert rep == column_relations(m)
    assert not rep["s2_is_negation"] and not rep["st3"]


@pytest.mark.parametrize(
    "m",
    [hyperbolic_pair(6, 2), FqModule((2048,), [F(1, 4096)], [[F(1, 2048)]])],
    ids=["D62", "Z2048"],
)
def test_relations_report_sums_no_root_of_unity(monkeypatch, m):
    # the report reads integer tables only: the kernel is never called
    def no_sums(*_):
        raise AssertionError("the report summed roots of unity")

    monkeypatch.setattr(W, "_s_sums", no_sums)
    assert W.weil_relations_report(m) == dict(RELATIONS_HOLD, s4=m.signature_mod8() % 2 == 0)


@pytest.mark.parametrize("N,Np", [(30, 1), (20, 1), (6, 3)])
def test_relations_hold_on_large_modules(N, Np):
    # |D| = 900, 400 and 324
    assert W.weil_relations_report(hyperbolic_pair(N, Np)) == RELATIONS_HOLD


def test_relations_report_holds_no_table_beside_E():
    # from a module with nothing built, the report and every table it
    # builds (the element tables and blocks of E) stay below the 4 |D|^2
    # bytes of the one int32 table E it never builds
    m = hyperbolic_pair(30, 1)
    tracemalloc.start()
    try:
        assert W.weil_relations_report(m)["st3"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * m.size**2


def test_byte_budget_refuses_before_allocating(monkeypatch):
    from discweil import cli, subgroups

    m = hyperbolic_pair(4, 1)

    def no_table(*_):
        raise AssertionError("the table was built")

    class NoPairing:
        """Stands for the module's pairing table, which every block is built from."""

        __getitem__ = no_table

    # one byte under the certificate's 12 |iso| |D| bytes of rows E[iso]:
    # the report's first block, all 16 rows of D_{4,1}, is refused before
    # any row is built, and so is the certificate
    monkeypatch.setitem(m.__dict__, "pairing", NoPairing())
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", 12 * len(m.isotropic_indices) * m.size - 1)
    with pytest.raises(EnumerationBoundError, match="exponent table"):
        W.weil_relations_report(m)
    assert cli.main(["invariants", "--N", "4"]) == 3
    # on D_{2,1} the rows fit, the fixed-point system (36 bytes for each
    # of its |iso|^2 residues) does not, and no residue is computed
    monkeypatch.undo()
    m = hyperbolic_pair(2, 1)
    need = 36 * len(m.isotropic_indices) ** 2
    assert need > 12 * m.size**2
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", need - 1)
    monkeypatch.setattr(W, "_residues", no_table)
    with pytest.raises(EnumerationBoundError, match="fixed-point system"):
        W.invariant_space(m)
    assert cli.main(["invariants", "--N", "2"]) == 3
    # under the default budget the report runs, and never computes a residue
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", 2**31)
    assert W.weil_relations_report(m)["st3"]


def test_s_sums_refuses_int32_overflow():
    # only the shape of 2^21 + 2^10 vector entries at level 2^10, whose
    # 2^31 + 2^20 landing indices overflow int32: refused before any use
    V = SimpleNamespace(shape=(2**11 + 1, 2**10))
    with pytest.raises(EnumerationBoundError, match="int32"):
        W._s_sums(None, 2**10, V)


def test_s_sums_charges_its_histograms_before_allocating(monkeypatch):
    from discweil import subgroups

    # Z/1009 with Q = x^2/1009, |D| = L = 1009: rho(S) of v^H for H = 0 is
    # counted into |D| L int64 bins, with bincount's counts of the same
    # size, |D| int32 row offsets, the |D| landing indices (16 bytes each)
    # of its one entry (40 bytes) and numpy's buffer of 8192 int64 for the
    # strided add, and reduced by the one tail row of phi(L) int64, 16.4 MB
    # in all, while the one row E[0] it reads is 12 kB
    m = FqModule((1009,), [F(1, 1009)], [[F(2, 1009)]])
    n, L = m.size, m.level
    charge = 16 * n * L + 4 * n + 8 * (L - 1) + 16 * n + 40 + 8 * np.getbufsize()
    h = SimpleNamespace(indices=[0])
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", charge - 1)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBoundError, match="rho"):
            W.check_vH_action(m, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    monkeypatch.setattr(subgroups, "BYTE_BUDGET", charge)
    assert W.check_vH_action(m, h)


@pytest.mark.parametrize("case", ["fixed", "columns", "vH"])
def test_s_sums_peak_is_within_its_charge(monkeypatch, case):
    # one call, with its inputs and cyclo's table of powers built before,
    # allocates no more than it charges (the slack covers Python objects
    # and array headers):
    # - fixed: a vector of seven values over the 520 isotropic elements of
    #   D_{100,1}, as ``_fixed`` hands it over: blocks of L entries of
    #   10^4 landing indices each, with a masked copy for each value;
    # - columns: zeta^E 1 on 64 columns of Z/1009 with Q = x^2/1009, one
    #   block of |D| entries;
    # - vH: v^H for H = 0 on the same module, one entry
    charges = []
    check = W._byte_check

    def recorded(entries, width, what):
        charges.append(entries * width)
        return check(entries, width, what)

    if case == "fixed":
        m = hyperbolic_pair(100, 1)
        E = W._isotropic_block(m)
        values = np.random.default_rng(0).integers(-3, 4, (len(m.isotropic_indices), 1))
        V = np.array(values.tolist(), dtype=object)
    else:
        m = FqModule((1009,), [F(1, 1009)], [[F(2, 1009)]])
        if case == "columns":
            E = W._exponent_block(m, np.arange(m.size), np.arange(64))
            V = np.ones((m.size, 1), dtype=np.int64)
        else:
            E = W._exponent_block(m, np.array([0]), np.arange(m.size))
            V = np.ones((1, 1), dtype=np.int64)
    root_of_unity(1, m.level)
    monkeypatch.setattr(W, "_byte_check", recorded)
    tracemalloc.start()
    try:
        W._s_sums(E, m.level, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == 1
    assert peak <= charges[0] + 2**15


def test_s_sums_of_one_vector_peak_is_within_its_charge(monkeypatch):
    # zeta^E 1_D on D_{30,1} in 30 blocks of L = 30 rows (a block of 2000
    # indices): each block's bincount counts are added and dropped before
    # the next block is counted, so the call stays within its charge with
    # no slack, though its 27000 bins take 216 kB a copy
    m = hyperbolic_pair(30, 1)
    E = W._exponent_block(m, np.arange(m.size))
    root_of_unity(1, m.level)
    W._tail(W._radical(m.level)[0])
    charges = []
    check = W._byte_check

    def recorded(entries, width, what):
        charges.append(entries * width)
        return check(entries, width, what)

    monkeypatch.setattr(W, "_byte_check", recorded)
    monkeypatch.setattr(W, "_BLOCK", 2000)
    tracemalloc.start()
    try:
        W._s_sums(E, m.level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(charges) == 1
    assert peak <= charges[0]


def test_residues_are_c_contiguous():
    # rows[:, iso] gathers columns in Fortran order when iso is not all of
    # D; the elimination of such a table is slower (see ``W._residues``)
    m = hyperbolic_pair(6, 3)
    assert len(m.isotropic_indices) < m.size
    A = W._residues(m, W._isotropic_block(m), _prime(0, m.level))
    assert A.flags.c_contiguous


# nonzero values: small ones of both signs, and ones of 2^62 and more, which
# put the sums on the object path
SCATTER_VALUES = st.lists(
    st.one_of(
        st.integers(-5, 5).filter(bool),
        st.integers(2**62, 2**66),
        st.integers(-(2**66), -(2**62)),
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


# Z/101 with Q = x^2/101: at a prime level the tail of the table of powers
# is the one row of all -1, zeta^(p-1) = -(1 + ... + zeta^(p-2))
Z101 = FqModule((101,), [F(1, 101)], [[F(2, 101)]])


@settings(max_examples=60)
@given(
    st.sampled_from(SMALL_SUMS).map(summed),
    st.integers(1, 3),
    SCATTER_VALUES,
    st.sampled_from([0.2, 0.6, 1.0]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([W._BLOCK, 1]),
)
@example(hyperbolic_pair(2, 2), 3, [1, -2, 3], 1.0, 0, 1)  # 48 nonzeros, blocks of 6
@example(summed((8,)), 3, [1, -2, 3], 1.0, 0, 1)  # Z/4 with x^2/8: level 8, a 2-power
@example(summed((0, 6)), 2, [2**62, -1], 0.6, 1, 1)  # Z/3 + Z/2, object path
@example(summed((2,)), 1, [1], 1.0, 2, W._BLOCK)  # Z/5, one value, one block
@example(summed((4,)), 2, [2, -1], 0.6, 3, 1)  # Z/7: a prime level
@example(Z101, 3, [1, -2, 3, 5], 1.0, 4, W._BLOCK)  # Z/101: the tail is all -1
# levels with square factors, reduced at their radicals 2, 3, 2 and 6
@example(_cyclic(8, F(1, 16)), 2, [1, -2, 3], 1.0, 5, 1)  # level 16
@example(_cyclic(27, F(1, 27)), 2, [1, -2, 2**62], 0.6, 6, W._BLOCK)  # level 27, object path
@example(_cyclic(16, F(3, 32)), 3, [1, -1, 4], 1.0, 7, 1)  # level 32
@example(direct_sum(_cyclic(4, F(1, 8)), _cyclic(9, F(1, 9))), 2, [1, 5], 0.6, 8, 1)  # level 72
def test_s_sums_matches_add_at_oracle(m, b, values, density, seed, block):
    # random integer vectors with b columns: the default block or one of bL
    # nonzero entries (then several blocks when dense and |D| > L), against
    # the scatter by np.add.at at exponents mod L and the whole table of
    # powers; and the same vectors given on the rows of their support alone,
    # with those rows of E
    E, L = exponents(m), m.level
    rng = np.random.default_rng(seed)
    shape = (m.size, b)
    V = np.array(values, dtype=object)[rng.integers(0, len(values), shape)]
    V[rng.random(shape) >= density] = 0
    support = np.flatnonzero(V.any(axis=1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_BLOCK", block)
        got = W._s_sums(E, L, V)
        rows = W._exponent_block(m, support, np.arange(m.size))
        on_support = W._s_sums(rows, L, V[support])
    want = add_at_s_sums(E, L, V)
    assert got.dtype == want.dtype == on_support.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(on_support, want)


@settings(max_examples=40, deadline=None)
@given(st.one_of(SUMS, DOUBLES), st.sampled_from([W._BLOCK, 1]), st.data())
@example(_cyclic(8, F(1, 16)), 1, None)  # level 16
@example(_cyclic(27, F(1, 27)), W._BLOCK, None)  # level 27
@example(direct_sum(_cyclic(4, F(1, 8)), _cyclic(9, F(1, 9))), 1, None)  # level 72
@example(Z101, W._BLOCK, None)  # a prime level
@example(hyperbolic_pair(4, 1), 1, None)  # 16 rows at level 4: four blocks of L rows
def test_s_sums_of_one_vector_matches_weighted_form(m, block, data):
    # zeta^E 1_K on every row, or on a drawn set of rows K: V = None against
    # a V of ones and the np.add.at oracle, with the default block or one of
    # L rows; then with a largest tail entry of 2^62, which puts two or more
    # rows on the object path, with the same sums
    E, L = exponents(m), m.level
    K = np.arange(m.size)
    if data is not None and data.draw(st.booleans()):
        K = np.array(sorted(data.draw(st.sets(st.integers(0, m.size - 1), min_size=1))))
    ones = np.ones((len(K), 1), dtype=np.int64)
    want = add_at_s_sums(E[K], L, ones)
    tail = W._tail
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(W, "_BLOCK", block)
        got = W._s_sums(E[K], L)
        assert got.dtype == np.int64 and got.shape == (m.size, 1, degree(L))
        assert np.array_equal(got, W._s_sums(E[K], L, ones))
        assert np.array_equal(got, want)
        mp.setattr(W, "_tail", lambda r: (tail(r)[0], 2**62))
        big = W._s_sums(E[K], L)
    assert big.dtype == (object if len(K) > 1 else np.int64)
    assert np.array_equal(big, want)


def test_vH_check_of_a_small_subgroup_is_one_bincount(monkeypatch):
    # |H| |D| <= _BLOCK on D_{6,1}: zeta^E 1_H is one bincount of the rows
    # E[H], with no search for nonzero entries, no vector of ones and no
    # target array
    m = hyperbolic_pair(6, 1)
    names = []

    class Numpy:
        def __getattr__(self, name):
            names.append(name)
            return getattr(np, name)

    monkeypatch.setattr(W, "np", Numpy())
    for h in enumerate_subgroups(m):
        assert len(h.indices) * m.size <= W._BLOCK
        names.clear()
        assert W.check_vH_action(m, h)
        assert names.count("bincount") == 1
        assert not {"nonzero", "count_nonzero", "ones", "zeros", "zeros_like", "array_equal"} & set(names)


@pytest.mark.parametrize("block", [W._BLOCK, 400])
def test_s_sums_counts_at_least_its_bins(monkeypatch, block):
    # a b = 1 call on the 400 elements of D_{20,1}: |D| L = 8000 bins.
    # With a block of 400 indices and no floor on the block, each bincount
    # would zero all the bins for one entry's 400 indices.
    m = hyperbolic_pair(20, 1)
    calls = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def bincount(self, x, minlength=0):
            calls.append((x.size, minlength))
            return np.bincount(x, minlength=minlength)

    monkeypatch.setattr(W, "np", Numpy())
    monkeypatch.setattr(W, "_BLOCK", block)
    assert W.check_vH_action(m, SimpleNamespace(indices=range(m.size)))
    assert sum(size for size, _ in calls) == m.size**2
    for size, minlength in calls:
        assert minlength <= max(2 * block, size)


def test_s_sums_reduces_at_the_radical():
    # Z/1024 with Q = x^2/2048: level 2^11, radical 2, so the bins are
    # reduced by the 1 x 1 tail of zeta_2, where the tail of the level is
    # (L - phi) phi int64 = 8 MiB; the sums of four rows of zeta^E 1 (the
    # report's first column on a small block) stay far below that
    m = _cyclic(1024, F(1, 2048))
    L = m.level
    E = W._exponent_block(m, np.arange(m.size), np.arange(4))
    V = np.ones((m.size, 1), dtype=np.int64)
    tracemalloc.start()
    try:
        got = W._s_sums(E, L, V)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(got, add_at_s_sums(E, L, V))


def test_exponent_table_peak_is_its_charge():
    # the certificate's rows E[iso] are charged 12 bytes per entry: the
    # int64 product and its int32 copy.  The module's coordinates, Gram
    # matrix, isotropic elements and r x |D| pairing table are its own
    # tables, all built before; the slack covers the gathers of coordinates
    # and pairing and small arrays.
    m = hyperbolic_pair(12, 2)
    m.coords, m._gram, m.isotropic_indices, m.pairing
    tracemalloc.start()
    try:
        rows = W._isotropic_block(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.shape == (len(m.isotropic_indices), m.size)
    assert peak <= 12 * rows.size + 2**15


def test_apply_S_exact_beyond_int64():
    # Z/3 + Z/4 (level 24) with an entry of conductor 5 and a 2^70 coefficient
    m = direct_sum(COMPONENTS[0], COMPONENTS[8])
    vec = [F(0)] * m.size
    vec[1] = 2**70
    vec[4] = from_powers(5, {1: 2**70 + 1, 3: F(-1, 3)})
    vec[7] = F(5, 2)
    got = apply_S(m, vec)
    assert got == mat_apply(dense_S(m), vec)
    assert apply_S(m, [v * -1 for v in vec]) == [-g for g in got]


INVARIANT_INPUTS = [
    reduce(direct_sum, [COMPONENTS[i] for i in picks]) for picks in SMALL_SUMS
] + [
    direct_sum(d, negated(d))
    for d in (reduce(direct_sum, [COMPONENTS[i] for i in picks]) for picks in SMALL_SUMS)
    if d.size <= 9
]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(INVARIANT_INPUTS))
@example(COMPONENTS[6])  # Z/2 with x^2/4: signature 1, no invariants
@example(direct_sum(COMPONENTS[0], COMPONENTS[2]))  # Z/3 + Z/5: signature 2
@example(direct_sum(COMPONENTS[5], negated(COMPONENTS[5])))  # Z/7 + Z/7(-1)
def test_invariant_space_matches_power_basis_oracle(m):
    basis = W.invariant_space(m)
    iso = list(m.isotropic_indices)
    got = [[v[g] for g in iso] for v in basis]
    want = oracle_invariants(m)
    assert oracle_rank(got) == oracle_rank(want) == oracle_rank(got + want) == len(got)
    if m.signature_mod8() % 2:
        assert basis == []
    S, T = dense_S(m), dense_T(m)
    for v in basis:
        assert mat_apply(S, v) == v
        assert mat_apply(T, v) == v
