"""The Weil representation on C[D] and its invariant vectors, exactly.

Matrices over the cyclotomic field are fine for small modules, but all the
heavy identity checking here goes through an integer fast path: entries of
rho(S) and rho(T) are a common scalar times a single root of unity, so any
product of them has entries described by exponent histograms.  Histograms
reduce to power-basis coordinates by one integer matrix multiplication, and
identity checks become exact integer array comparisons.  The integer tables
are the module's element table (coordinates, L*Q) and, from ``_pack``, the
tables that need pairs of elements: the |D| x |D| matrix of L*B, held behind
the enumeration bound, and the reduction rows of the level.

The invariant space is computed with a certificate.  Candidate invariant
vectors (either characteristic functions of self-dual isotropic subgroups or
the rational kernel of the fixed-point system expanded over the power basis)
are verified exactly; a mod-q specialization bounds the rank of the system
from below, which bounds the dimension from above.  When the two bounds meet
the answer is proven, with no floating point and no unverified heuristics.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

from .arith import prime_one_mod, primitive_root
from .cyclo import CycNumber, _reduction_rows, root_of_unity
from .fqmod import matmul_mod, q_histogram
from .groupring import GroupRingVector
from .linalg import (
    modq_rank,
    primitive_integer_vector,
    rational_kernel,
    rational_rank,
    same_rational_span,
)
from .subgroups import (
    EnumerationBoundError,
    _bound_check,
    enumerate_self_dual_isotropic,
    isotropic_rows,
)


class CertificationError(RuntimeError):
    """The exact dimension sandwich did not close."""


# --------------------------------------------------------------- numpy pack


def _pack(m):
    """The pair tables of a module: B-exponent matrix and the reduction rows.

    Bmat[i, j] = L*B(x_i, x_j) is |D|^2, so the bound is checked on every
    call; only the tables are cached.  Per-element values (coordinates, Q,
    negation) come from the module's element table.
    """
    _bound_check(m, None)
    return _tables(m)


@lru_cache(maxsize=32)
def _tables(m):
    L = m.level
    X = m.coords
    Bmat = matmul_mod(matmul_mod(X, m._gram, L), X.T, L)
    RED = np.array(_reduction_rows(L), dtype=np.int64)
    return Bmat, RED


def _sqrt_size(m):
    r = isqrt(m.size)
    return r if r * r == m.size else None


# --------------------------------------------------------- dense matrices


class WeilMatrix:
    """A dense matrix of CycNumbers indexed by D x D.  Small modules only."""

    def __init__(self, module, rows):
        self.module = module
        self.rows = rows

    @property
    def size(self):
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def mul(self, other):
        n = self.size
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = None
                for k in range(n):
                    t = self.rows[i][k] * other.rows[k][j]
                    acc = t if acc is None else acc + t
                row.append(acc)
            out.append(row)
        return WeilMatrix(self.module, out)

    def apply(self, vec):
        """vec: list of scalars (Fraction or CycNumber).  Returns CycNumbers."""
        n = self.size
        out = []
        for i in range(n):
            acc = CycNumber(1, {})
            for k in range(n):
                v = vec[k]
                if v:
                    acc = acc + self.rows[i][k] * v
            out.append(acc)
        return out

    def conj_transpose(self):
        n = self.size
        return WeilMatrix(
            self.module,
            [[self.rows[j][i].conjugate() for j in range(n)] for i in range(n)],
        )

    def __eq__(self, other):
        if not isinstance(other, WeilMatrix) or self.size != other.size:
            return NotImplemented
        n = self.size
        return all(
            self.rows[i][j] == other.rows[i][j] for i in range(n) for j in range(n)
        )

    __hash__ = None

    def is_identity(self):
        n = self.size
        for i in range(n):
            for j in range(n):
                want = 1 if i == j else 0
                if not self.rows[i][j] == want:
                    return False
        return True


def _s_scalar(m):
    """The scalar in front of rho(S): e(-sig/8)/sqrt(|D|), exactly.

    A plain Fraction whenever the signature is 0 mod 8 (the usual case here);
    that keeps conductors small downstream.
    """
    s0 = m.gauss_sum().conjugate() * Fraction(1, m.size)
    if s0.is_rational():
        return s0.rational_value()
    return s0


def rho_T(m):
    n = m.size
    L = m.level
    zero = CycNumber(L, {})
    rows = []
    for i, x in enumerate(m.element_list):
        row = [zero] * n
        row[i] = root_of_unity(m.q_int(x), L)
        rows.append(row)
    return WeilMatrix(m, rows)


def rho_S(m):
    n = m.size
    L = m.level
    s0 = _s_scalar(m)
    rows = []
    for i, x in enumerate(m.element_list):
        row = []
        for j, y in enumerate(m.element_list):
            row.append(s0 * root_of_unity(-m.b_int(x, y), L))
        rows.append(row)
    return WeilMatrix(m, rows)


def identity_matrix(m):
    n = m.size
    one = CycNumber(1, {0: Fraction(1)})
    zero = CycNumber(1, {})
    return WeilMatrix(m, [[one if i == j else zero for j in range(n)] for i in range(n)])


# ------------------------------------------------------------ SL2 words


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
    L = m.level
    qvec = m.q_ints
    out = []
    for i, v in enumerate(vec):
        e = k * int(qvec[i]) % L
        if e:
            out.append(root_of_unity(e, L) * v)
        else:
            out.append(v)
    return out


def apply_S(m, vec):
    """rho(S) applied to a dense coefficient list, exact."""
    L = m.level
    Bmat, _ = _pack(m)
    s0 = _s_scalar(m)
    M = L
    for v in vec:
        if isinstance(v, CycNumber):
            M = lcm(M, v.conductor)
    stretch = M // L
    n = m.size
    zero = Fraction(0)
    out = []
    for i in range(n):
        terms = {}
        row = Bmat[i]
        for k in range(n):
            v = vec[k]
            if not v:
                continue
            sh = (int(-row[k]) % L) * stretch
            if isinstance(v, CycNumber):
                step = M // v.conductor
                for j, c in enumerate(v.coords):
                    if c:
                        e = (j * step + sh) % M
                        terms[e] = terms.get(e, zero) + Fraction(c, v.den)
            else:
                terms[sh] = terms.get(sh, zero) + Fraction(v)
        out.append(s0 * CycNumber(M, terms))
    return out


def apply_word(m, word, vec):
    """Apply rho(word), word evaluated left to right as a matrix product."""
    for tok in reversed(word):
        if tok == "S":
            vec = apply_S(m, vec)
        else:
            vec = apply_T_power(m, tok[1], vec)
    return vec


def rho(m, mat):
    """rho of an arbitrary SL2(Z) matrix via its word.  Dense; small modules."""
    word = sl2_word(mat)
    out = identity_matrix(m)
    for tok in word:
        step = rho_S(m) if tok == "S" else _t_power_matrix(m, tok[1])
        out = out.mul(step)
    return out


def _t_power_matrix(m, k):
    n = m.size
    L = m.level
    zero = CycNumber(L, {})
    rows = []
    for i, x in enumerate(m.element_list):
        row = [zero] * n
        row[i] = root_of_unity(k * m.q_int(x), L)
        rows.append(row)
    return WeilMatrix(m, rows)


def mu_matrix(u, N):
    """An SL2(Z) matrix with bottom row (N, u), acting like multiplication by u.

    Takes the smallest non-negative a with a u = 1 mod N; the top row is then
    (a, (a u - 1)/N).
    """
    if N == 1:
        return ((1, 0), (0, 1))
    from math import gcd

    if gcd(u, N) != 1:
        raise ValueError("u must be a unit modulo N")
    a = pow(u, -1, N)
    b = (a * u - 1) // N
    return ((a, b), (N, u))


def verify_mu(m, u):
    """Check rho(M_u) e_gamma = e_{u gamma} on every isotropic gamma."""
    N = m.level
    mat = mu_matrix(u % N if N > 1 else 1, N)
    word = sl2_word(mat)
    n = m.size
    violations = []
    for i in m.isotropic_indices:
        vec = [Fraction(0)] * n
        vec[i] = Fraction(1)
        got = apply_word(m, word, vec)
        target = m.index(m.smul(u, m.element_at(i)))
        for j in range(n):
            want = 1 if j == target else 0
            if not got[j] == want:
                violations.append(
                    {"gamma": list(m.element_at(i)), "at": list(m.element_at(j))}
                )
                break
    return {"matrix": [list(r) for r in mat], "ok": not violations, "violations": violations}


# ------------------------------------------------- exact fast identity checks


def _hist_mono_product(E1, E2, L):
    """Exponent histograms of (zeta^E1) (zeta^E2): out[i,j,e] = #{k: E1[i,k]+E2[k,j]=e}."""
    n = E1.shape[0]
    out = np.zeros((n * n, L), dtype=np.int64)
    rows = np.arange(n * n)
    for k in range(n):
        e = (E1[:, k][:, None] + E2[k, :][None, :]) % L
        out[rows, e.ravel()] += 1
    return out.reshape(n, n, L)


def _hist_times_mono(H, E2, L):
    """Histogram matrix times monomial matrix: C[i,j] = sum_k H[i,k] shifted by E2[k,j]."""
    n = H.shape[0]
    out = np.zeros_like(H)
    for k in range(n):
        col = H[:, k, :]
        rolled = [np.roll(col, s, axis=-1) for s in range(L)]
        for s in range(L):
            js = np.nonzero(E2[k] == s)[0]
            if js.size:
                out[:, js, :] += rolled[s][:, None, :]
    return out


def _canon(H, RED):
    """Reduce histograms to power-basis coordinates: (..., L) -> (..., phi)."""
    shape = H.shape[:-1]
    flat = H.reshape(-1, H.shape[-1])
    return (flat @ RED).reshape(*shape, RED.shape[1])


def weil_relations_report(m):
    """Exact verification of the defining relations and unitarity.

    Fast integer path for the signature-0, square-|D| modules the catalogs
    live on; small modules of any signature fall back to dense matrices.
    """
    r = _sqrt_size(m)
    if r is not None and m.signature_mod8() == 0:
        return _relations_fast(m, r)
    return _relations_dense(m)


def _relations_fast(m, sqrt_d):
    L = m.level
    Bmat, RED = _pack(m)
    qvec = m.q_ints
    neg = m.indices_of(-m.coords)
    n = m.size
    ES = (-Bmat) % L
    S2 = _hist_mono_product(ES, ES, L)
    s2c = _canon(S2, RED)
    target = np.zeros_like(s2c)
    target[np.arange(n), neg, 0] = n  # rho(S)^2 = (1/|D|) * hist, so hist = |D| P_neg
    s2_ok = bool(np.array_equal(s2c, target))

    EA = (ES + qvec[None, :]) % L
    H2 = _hist_mono_product(EA, EA, L)
    H3 = _hist_times_mono(H2, EA, L)
    st3_ok = bool(np.array_equal(_canon(H3, RED), sqrt_d * s2c))

    U = np.zeros((n * n, L), dtype=np.int64)
    rows = np.arange(n * n)
    for k in range(n):
        e = (Bmat[None, :, k] - Bmat[:, k][:, None]) % L
        U[rows, e.ravel()] += 1
    uc = _canon(U.reshape(n, n, L), RED)
    ut = np.zeros_like(uc)
    ut[np.arange(n), np.arange(n), 0] = n
    s_unitary = bool(np.array_equal(uc, ut))

    return {
        "s2_is_negation": s2_ok,
        "s4": s2_ok,  # P_neg squared is the identity permutation
        "st3": st3_ok,
        "s_unitary": s_unitary,
        "t_unitary": True,  # diagonal of roots of unity
        "method": "integer-histogram",
    }


def _relations_dense(m):
    S = rho_S(m)
    T = rho_T(m)
    S2 = S.mul(S)
    S4 = S2.mul(S2)
    ST = S.mul(T)
    ST3 = ST.mul(ST).mul(ST)
    return {
        "s2_is_negation": _is_scaled_negation(m, S2),
        "s4": S4.is_identity(),
        "st3": ST3 == S2,
        "s_unitary": S.mul(S.conj_transpose()).is_identity(),
        "t_unitary": T.mul(T.conj_transpose()).is_identity(),
        "method": "dense",
    }


def _is_scaled_negation(m, S2):
    """Is rho(S)^2 equal to e(-sig/4) times the negation permutation?"""
    sig = m.signature_mod8()
    scale = root_of_unity(-sig, 4).promote(lcm(8, m.level))
    n = m.size
    for i in range(n):
        tgt = m.index(m.neg(m.element_at(i)))
        for j in range(n):
            want = scale if j == tgt else 0
            if not S2.rows[i][j] == want:
                return False
    return True


def check_vH_action(m, h):
    """Exact check of rho(S) v^H = (|H|/sqrt|D|) v^{H perp} via histograms."""
    L = m.level
    Bmat, RED = _pack(m)
    n = m.size
    idx = sorted(h.indices)
    counts = np.zeros((n, L), dtype=np.int64)
    rows = np.arange(n)
    for j in idx:
        e = (-Bmat[:, j]) % L
        counts[rows, e] += 1
    canon = counts @ RED
    perp = np.all(Bmat[:, idx] == 0, axis=1)
    target = np.zeros_like(canon)
    target[perp, 0] = len(idx)
    return bool(np.array_equal(canon, target))


# ------------------------------------------------------- invariant vectors


def _gauss_sum_level(m):
    """Gauss sum at conductor exactly the level (it lives there)."""
    return CycNumber(m.level, q_histogram(m))


def _invariant_system_rows(m):
    """Integer rows of the fixed-point system over the power basis.

    Unknowns are v_gamma for isotropic gamma.  For every beta in D the
    equation  sum_gamma zeta^(-B(beta,gamma)) v_gamma - G [beta iso] v_beta = 0
    (G the Gauss sum, equal to 1/scalar(S)) expands to phi(L) integer rows.
    """
    L = m.level
    Bmat, RED = _pack(m)
    iso = list(m.isotropic_indices)
    pos = {g: c for c, g in enumerate(iso)}
    G = _gauss_sum_level(m)
    gcan = G.coords  # counts of roots of unity: integral, so G.den == 1
    phi = RED.shape[1]
    red = _reduction_rows(L)
    rows = []
    for beta in range(m.size):
        block = [[0] * len(iso) for _ in range(phi)]
        for c, g in enumerate(iso):
            coord = red[int(-Bmat[beta, g]) % L]
            for t in range(phi):
                if coord[t]:
                    block[t][c] += coord[t]
        if beta in pos:
            c = pos[beta]
            for t in range(phi):
                if gcan[t]:
                    block[t][c] -= gcan[t]
        for row in block:
            if any(row):
                rows.append(row)
    return rows, iso


def _kernel_candidates(m):
    rows, iso = _invariant_system_rows(m)
    basis = rational_kernel(rows, ncols=len(iso))
    return basis, iso


def _subgroup_candidates(m, bound=None):
    iso = list(m.isotropic_indices)
    sd = enumerate_self_dual_isotropic(m, bound)
    for h in sd:
        if not check_vH_action(m, h):
            raise CertificationError("subgroup candidate fails the exact S-action")
    vecs = isotropic_rows(m, sd)
    # reduce to an independent subfamily over Q, keep primitive integers
    basis = []
    for v in vecs:
        if not basis or rational_rank(basis + [v]) > len(basis):
            basis.append(v)
    return [primitive_integer_vector([Fraction(x) for x in v]) for v in basis], iso


def _certify_dimension(m, iso, r, tries=3):
    """Prove dim <= r by a mod-q rank bound on the fixed-point system."""
    L = m.level
    Bmat, _ = _pack(m)
    G = _gauss_sum_level(m)
    need = len(iso) - r
    cols = (-Bmat[:, iso]) % L
    for attempt in range(tries):
        q = prime_one_mod(L, 20 + attempt)
        g = primitive_root(q)
        t = pow(g, (q - 1) // L, q)
        tpow = np.array([pow(t, e, q) for e in range(L)], dtype=np.int64)
        A = tpow[cols]
        gq = G.mod_prime(q, t)
        for c, gamma in enumerate(iso):
            A[gamma, c] = (A[gamma, c] - gq) % q
        rank = modq_rank(A, q)
        if rank == need:
            return True
        if rank > need:
            raise CertificationError(
                "rank bound exceeds the candidate bound: candidates not invariant?"
            )
        # an unlucky prime can only lose rank; retry with a larger one
    raise CertificationError("could not certify the invariant dimension")


def invariant_space(m, method="auto", bound=None):
    """A certified basis of the SL2(Z)-invariant vectors, as integer vectors.

    method "kernel": exact rational kernel of the full fixed-point system.
    method "subgroups": span of verified self-dual isotropic characteristic
    functions (raises if the certificate cannot close over that span).
    method "auto": subgroups when any exist, else kernel.

    Returns a list of GroupRingVectors with primitive integer coefficients.
    """
    if method == "auto":
        try:
            sd = enumerate_self_dual_isotropic(m, bound)
        except EnumerationBoundError:
            sd = []
        method = "subgroups" if sd else "kernel"
    if method == "subgroups":
        cand, iso = _subgroup_candidates(m, bound)
    elif method == "kernel":
        cand, iso = _kernel_candidates(m)
    else:
        raise ValueError("unknown method %r" % (method,))
    _certify_dimension(m, iso, len(cand))
    basis = []
    for v in sorted(cand):
        basis.append(
            GroupRingVector(m, {g: c for g, c in zip(iso, v) if c})
        )
    return basis


def invariant_dimension(m, method="auto", bound=None):
    return len(invariant_space(m, method, bound))


def verify_selfdual_span(m, bound=None):
    """Compare span{v^H : H self-dual isotropic} with the invariant space."""
    sd = enumerate_self_dual_isotropic(m, bound)
    if not sd:
        raise ValueError("no self-dual isotropic subgroup; nothing to compare")
    inv = invariant_space(m, method="kernel")
    fam = isotropic_rows(m, sd)
    inv_rows = [[vec.get(g) for g in m.isotropic_indices] for vec in inv]
    return {
        "dimension": len(inv),
        "family_size": len(fam),
        "family_rank": rational_rank(fam),
        "span_equal": same_rational_span(fam, inv_rows),
    }
