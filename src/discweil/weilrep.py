"""The Weil representation on C[D] and its invariant vectors, exactly.

rho(S) is the scalar conj(G)/|D| (G the Gauss sum) times the monomial matrix
zeta_L^E, E = -L*B mod L the exponent table, and rho(T) is the diagonal
zeta_L^(L*Q).  So rho(S) applied to a vector, and every product of the
generators, is a scalar times sums of roots of unity described by integer
exponent histograms.  Histograms reduce to power-basis coordinates by one
integer matrix multiplication, and every identity check is an exact integer
array comparison, for modules of any signature.  The integer tables are the
module's element table (coordinates, L*Q) and, from ``_pack``, the |D| x |D|
exponent table, held behind the enumeration bound.

The invariant space is computed with a certificate.  Candidate invariant
vectors are characteristic functions of self-dual isotropic subgroups, each
checked by the exact S-action, or the kernel of the fixed-point system over
the power basis, which ``linalg`` lifts from F_q and checks in integers.  A
mod-q specialization bounds the rank of the system from below, which bounds
the dimension from above.  When the two bounds meet the answer is proven,
with no floating point and no unverified heuristics.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from .arith import prime_one_mod, primitive_root
from .cyclo import CycNumber, _make, _reduction_rows, root_of_unity
from .fqmod import matmul_mod, q_histogram
from .groupring import GroupRingVector
from .linalg import modq_rank, rational_kernel, rational_rank, rational_rref
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
    """The exponent table of a module: E[i, k] = -L*B(x_i, x_k) mod L.

    E is |D|^2, so the bound is checked on every call; only the table is
    cached.  B is symmetric, so E is too: row k of E is its column k.
    Per-element values (coordinates, Q, negation) come from the module's
    element table.
    """
    _bound_check(m, None)
    return _exponents(m)


@lru_cache(maxsize=32)
def _exponents(m):
    L = m.level
    X = m.coords
    E = matmul_mod(matmul_mod(X, m._gram, L), X.T, L)
    np.negative(E, out=E)
    E %= L
    E.flags.writeable = False
    return E


@lru_cache(maxsize=None)
def _reduction_array(M):
    """The rows of ``_reduction_rows(M)`` as a read-only int64 array."""
    RED = np.array(_reduction_rows(M), dtype=np.int64)
    RED.flags.writeable = False
    return RED


def _s_scalar(m):
    """The scalar in front of rho(S): e(-sig/8)/sqrt(|D|) = conj(G)/|D|, exactly.

    A plain Fraction whenever the signature is 0 mod 8 (the usual case here);
    that keeps conductors small downstream.
    """
    s0 = m.gauss_sum().conjugate() * Fraction(1, m.size)
    if s0.is_rational():
        return s0.rational_value()
    return s0


def _s_sums(E, L, V):
    """Coordinates of sum_k zeta_L^E[i,k] v_k for every i: rho(S) v without its scalar.

    E is the exponent table of a module of level L.  Row k of V is the
    exponent histogram of v_k at a conductor M divisible by L,
    v_k = sum_j V[k, j] zeta_M^j, with integer entries of any size.  Returns
    the (|D|, phi(M)) power-basis coordinates, counted in int64 when no sum
    can reach 2^63 and in Python ints (an object array) otherwise.  The
    shifted histograms are added a block of nonzero entries of V at a time,
    so about 2^20 indices are held at once whatever |D|.
    """
    n, M = V.shape
    stretch = M // L
    RED = _reduction_array(M)
    if int(np.abs(V).sum()) * int(np.abs(RED).max()) < 2**63:
        V = V.astype(np.int64, copy=False)
    else:
        V, RED = V.astype(object), RED.astype(object)
    out = np.zeros_like(V)
    rows = np.arange(0, n * M, M)
    ks, js = np.nonzero(V)
    block = max(1, 2**20 // n)
    for at in range(0, len(ks), block):
        k, j = ks[at:at + block], js[at:at + block]
        # out[i, (j + stretch E[k, i]) mod M] += V[k, j]; E is symmetric
        np.add.at(out.reshape(-1), rows + (j[:, None] + stretch * E[k]) % M, V[k, j][:, None])
    return out @ RED


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
    """rho(S) applied to a dense list of ints, Fractions or CycNumbers, exact."""
    n = m.size
    M = lcm(m.level, *(v.conductor for v in vec if isinstance(v, CycNumber)))
    vals = [v if isinstance(v, CycNumber) else Fraction(v) for v in vec]
    den = lcm(*(v.den if isinstance(v, CycNumber) else v.denominator for v in vals))
    V = np.zeros((n, M), dtype=object)
    for k, v in enumerate(vals):
        if isinstance(v, CycNumber):
            step, f = M // v.conductor, den // v.den
            for j, c in enumerate(v.coords):
                if c:
                    V[k, j * step] = c * f
        elif v:
            V[k, 0] = v.numerator * (den // v.denominator)
    s0 = _s_scalar(m)
    return [_make(M, coords, den) * s0 for coords in _s_sums(_pack(m), m.level, V).tolist()]


def apply_word(m, word, vec):
    """Apply rho(word), word evaluated left to right as a matrix product."""
    for tok in reversed(word):
        if tok == "S":
            vec = apply_S(m, vec)
        else:
            vec = apply_T_power(m, tok[1], vec)
    return vec


# ------------------------------------------------- exact identity checks


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
    """Exact verification of the defining relations and unitarity, any signature.

    rho(S) = s0 zeta^E and rho(T) = diag(zeta^(L*Q)) with s0 = conj(G)/|D|,
    G the Gauss sum, and G conj(G) = |D| (``signature_mod8`` proves it
    exactly).  Every relation is then one between integer histograms of
    products of the monomial matrices zeta^E and A = zeta^(E + L*Q), compared
    in power-basis coordinates:

    - rho(S)^2 = e(-sig/4) P_neg, P_neg the negation permutation, exactly
      when (zeta^E)^2 = |D| P_neg;
    - rho(S)^4 is then e(-sig/2), the identity exactly for even signature;
    - (ST)^3 = S^2 exactly when A^3 = G (zeta^E)^2, as s0 G = 1;
    - rho(S) is unitary exactly when zeta^E conj(zeta^E)^t = |D|.
    """
    L = m.level
    E = _pack(m)
    RED = _reduction_array(L)
    n = m.size
    neg = m.indices_of(-m.coords)
    s2c = _canon(_hist_mono_product(E, E, L), RED)
    target = np.zeros_like(s2c)
    target[np.arange(n), neg, 0] = n
    s2_ok = bool(np.array_equal(s2c, target))

    A = (E + m.q_ints[None, :]) % L
    H3 = _hist_times_mono(_hist_mono_product(A, A, L), A, L)
    G = _gauss_sum_level(m)  # counts of roots of unity: integral, so G.den == 1
    Gmat = np.array(
        [(root_of_unity(t, L) * G).coords for t in range(RED.shape[1])], dtype=np.int64
    )
    st3_ok = bool(np.array_equal(_canon(H3, RED), s2c @ Gmat))

    U = np.zeros((n * n, L), dtype=np.int64)
    rows = np.arange(n * n)
    for k in range(n):
        e = (E[k][:, None] - E[k][None, :]) % L
        U[rows, e.ravel()] += 1
    uc = _canon(U.reshape(n, n, L), RED)
    ut = np.zeros_like(uc)
    ut[np.arange(n), np.arange(n), 0] = n
    s_unitary = bool(np.array_equal(uc, ut))

    return {
        "s2_is_negation": s2_ok,
        "s4": s2_ok and m.signature_mod8() % 2 == 0,
        "st3": st3_ok,
        "s_unitary": s_unitary,
        "t_unitary": True,  # diagonal of roots of unity
        "method": "integer-histogram",
    }


def check_vH_action(m, h):
    """Exact check of rho(S) v^H = s0 |H| v^{H perp}, s0 the scalar of rho(S)."""
    E = _pack(m)
    idx = list(h.indices)
    V = np.zeros((m.size, m.level), dtype=np.int64)
    V[idx, 0] = 1
    got = _s_sums(E, m.level, V)
    target = np.zeros_like(got)
    target[~E[idx].any(axis=0), 0] = len(idx)
    return bool(np.array_equal(got, target))


# ------------------------------------------------------- invariant vectors


def _gauss_sum_level(m):
    """Gauss sum at conductor exactly the level (it lives there)."""
    return CycNumber(m.level, q_histogram(m))


def _invariant_system_rows(m):
    """Integer rows of the fixed-point system over the power basis.

    Unknowns are v_gamma for isotropic gamma.  For every beta in D the
    equation  sum_gamma zeta^(-B(beta,gamma)) v_gamma - G [beta iso] v_beta = 0
    (G the Gauss sum, equal to 1/scalar(S)) expands to phi(L) integer rows,
    of which the nonzero ones are kept, in the order (beta, coordinate).
    """
    E = _pack(m)
    RED = _reduction_array(m.level)
    iso = list(m.isotropic_indices)
    gcan = np.array(_gauss_sum_level(m).coords, dtype=np.int64)  # integral: den == 1
    A = RED[E[:, iso]]  # (|D|, |iso|, phi): coordinates of zeta^E[beta, gamma]
    A[iso, np.arange(len(iso))] -= gcan
    A = A.transpose(0, 2, 1).reshape(-1, len(iso))
    return A[A.any(axis=1)].tolist(), iso


def _kernel_candidates(m):
    rows, iso = _invariant_system_rows(m)
    basis = rational_kernel(rows, ncols=len(iso))
    return basis, iso


def _subgroup_candidates(m):
    iso = list(m.isotropic_indices)
    sd = enumerate_self_dual_isotropic(m)
    for h in sd:
        if not check_vH_action(m, h):
            raise CertificationError("subgroup candidate fails the exact S-action")
    vecs = isotropic_rows(m, sd)
    # the greedy independent subfamily over Q (each vector kept when it is
    # not in the span of those before it) is the pivot columns of the family
    # written as columns; 0/1 rows holding the zero element are primitive
    _, pivots = rational_rref([list(col) for col in zip(*vecs)])
    return [vecs[c] for c in pivots], iso


def _certify_dimension(m, iso, r, tries=3):
    """Prove dim <= r by a mod-q rank bound on the fixed-point system."""
    L = m.level
    G = _gauss_sum_level(m)
    need = len(iso) - r
    cols = _pack(m)[:, iso]
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


def invariant_space(m, method="auto"):
    """A certified basis of the SL2(Z)-invariant vectors, as integer vectors.

    method "kernel": exact rational kernel of the full fixed-point system.
    method "subgroups": span of verified self-dual isotropic characteristic
    functions (raises if the certificate cannot close over that span).
    method "auto": subgroups when any exist, else kernel.

    Returns a list of GroupRingVectors with primitive integer coefficients.
    """
    if method == "auto":
        try:
            sd = enumerate_self_dual_isotropic(m)
        except EnumerationBoundError:
            sd = []
        method = "subgroups" if sd else "kernel"
    if method == "subgroups":
        cand, iso = _subgroup_candidates(m)
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


def invariant_dimension(m, method="auto"):
    return len(invariant_space(m, method))


def verify_selfdual_span(m):
    """Compare span{v^H : H self-dual isotropic} with the invariant space."""
    sd = enumerate_self_dual_isotropic(m)
    if not sd:
        raise ValueError("no self-dual isotropic subgroup; nothing to compare")
    inv = invariant_space(m, method="kernel")
    fam = isotropic_rows(m, sd)
    inv_rows = [[vec.get(g) for g in m.isotropic_indices] for vec in inv]
    rank = rational_rank(fam)
    return {
        "dimension": len(inv),
        "family_size": len(fam),
        "family_rank": rank,
        "span_equal": rank == len(inv) and rational_rank(fam + inv_rows) == rank,
    }
