"""The Weil representation on C[D] and its invariant vectors, exactly.

rho(S) is the scalar conj(G)/|D| (G the Gauss sum) times the monomial matrix
zeta_L^E, E = -L*B mod L the exponent table, and rho(T) is the diagonal
zeta_L^(L*Q).  So rho(S) applied to a vector, and every product of the
generators, is a scalar times sums of roots of unity described by integer
exponent histograms.  One routine, ``_s_sums``, applies zeta^E to a batch of
vectors given as histograms over their support rows: it counts the shifted
exponents with ``np.bincount`` into twice the conductor's bins, folds the
upper half onto the lower, and reduces the result to power-basis coordinates
by one integer matrix multiplication, in blocks that count at least as many
indices as they have bins.  The v^H check and the invariant certificate go
through it, a block of columns at a time, and compare exact integer arrays,
for modules of any signature.  ``weil_relations_report`` proves the
relations from the structure of the tables, checked on the generators in
O(|D|^2 r): E is symmetric and additive, and L*Q refines it.  These reduce
S^2 and STS = T^-1 S T^-1 (equivalent to (ST)^3 = S^2) to one column of
zeta^E each, compared with |D| e_0 and with the Gauss sum times roots of
unity; unitarity then follows from S^2.
The integer tables are the module's element table (coordinates, L*Q) and
the blocks E[I, J] of the exponent table that ``_exponent_block`` builds on
demand, each held behind the enumeration bound and the byte budget.  No
|D| x |D| table is built: each reader builds only the rows it reads.

The invariant space has one certificate.  Its vectors are those over the
isotropic elements (the rho(T)-fixed ones) in the kernel of the square
|iso| x |iso| system zeta^E[iso, iso] - G I, which is all of the invariant
space as rho(S) is unitary; ``linalg`` eliminates it mod primes q = 1
(mod L) and lifts a kernel basis that ``_s_sums`` proves invariant on all
|D| rows, exactly.  The v^H of the self-dual isotropic subgroups are
measured against that kernel.  No floating point and no unverified
heuristics.
"""

from functools import lru_cache, partial
from math import prod

import numpy as np

from .arith import factorize, primitive_root
from .cyclo import coordinates, root_of_unity
from .fqmod import matmul_mod
from .linalg import _certified, rational_rref
from .subgroups import (
    EnumerationBoundError,
    _bound_check,
    _byte_check,
    enumerate_self_dual_isotropic,
    isotropic_rows,
)


class CertificationError(RuntimeError):
    """The self-dual isotropic family does not span the certified invariants."""


# --------------------------------------------------------------- numpy pack

# The scatter step of ``_s_sums`` and the histogram batches of ``_fixed``
# hold about this many indices at once, or as many as the scatter's output
# has bins when that is more (up to twice that, as the scatter splits its
# entries into equal blocks): the temporaries stay within a small multiple of
# max(_BLOCK, output size) entries.  ``weil_relations_report`` builds blocks
# of rows of E of about this many entries (at least one row), so no
# temporary of |D|^2 entries is ever built.  A batch of _BLOCK histogram
# entries has 2 _BLOCK bins, and each bin costs about 30 bytes while it is
# counted (the output, the int32 indices, bincount's intp copy of them and
# its counts), so 2^15 keeps a scatter near 2 MB.  Larger blocks only raise
# the peak memory; smaller ones add per-step overhead on large modules.
_BLOCK = 2**15


@lru_cache(maxsize=32)
def _pairing(m):
    """(L B_gen) X^t mod L, X the element coordinates: the r x |D| factor of E.

    Entry (j, k) is L*B(g_j, x_k) mod L for the generator g_j.  Read-only,
    and no larger than the module's own coordinate table.
    """
    P = matmul_mod(m._gram, m.coords.T, m.level)
    P.flags.writeable = False
    return P


def _exponent_block(m, I, J):
    """E[I, J] of the exponent table E[i, k] = -L*B(x_i, x_k) mod L, as int32.

    I and J are arrays of element indices, in any order, repeated or empty.
    The block is -X[I] P[:, J] mod L with P the r x |D| factor of
    ``_pairing``: one int64 product, then an int32 copy, so it peaks at 12
    bytes per entry.  The element bound, the range below and that charge on
    the byte budget are checked on every call, before anything is built.
    B is symmetric, so E is too: E[I, J] is the transpose of E[J, I].

    Range.  An entry of the int64 product is a sum of r terms, a coordinate
    x_j <= d_j - 1 times a residue of P <= L - 1: at most
    (L - 1) sum_j (d_j - 1).  A module for which that reaches 2^63 is
    refused, and so is one of level above 2^31, whose exponents would not
    fit int32.
    """
    L = m.level
    _bound_check(m.size)
    if L > 2**31 or (L - 1) * sum(d - 1 for d in m.orders) >= 2**63:
        raise EnumerationBoundError("level %d: exponents overflow int64 products or int32" % L)
    _byte_check(len(I) * len(J), 12, "a block of the exponent table")
    E = m.coords[I] @ _pairing(m)[:, J]
    np.negative(E, out=E)
    E %= L
    return E.astype(np.int32)


def _isotropic_block(m):
    """E[iso], the block of the exponent table on the rows of the isotropic elements."""
    return _exponent_block(m, np.array(m.isotropic_indices), np.arange(m.size))


@lru_cache(maxsize=None)
def _reduction_array(M):
    """Row e = the power-basis coordinates of zeta_M^e, a read-only int64 array."""
    RED = np.array([coordinates(M, root_of_unity(e, M)) for e in range(M)], dtype=np.int64)
    RED.flags.writeable = False
    return RED


def _s_sums(E, L, V):
    """rho(S) without its scalar on a batch of b vectors: sum_k zeta_L^E[k, i] v_c[k].

    E is a block E[K, J] of the exponent table of a module of level L, and
    V[k, c] the exponent histogram at a conductor M divisible by L of the
    entry of vector c at the element of row k of E, v_c[k] =
    sum_j V[k, c, j] zeta_M^j, with integer entries of any size.  Returns
    the (|J|, b, phi(M)) power-basis coordinates, counted in int64 when no
    sum can reach 2^63 and in Python ints (an object array) otherwise.  As
    E is symmetric, these are the entries J of zeta^E v_c when K holds the
    support of every v_c.

    Entry (k, c, j) of V lands at exponent j + (M/L) E[k, i] of row i, which
    is below 2M: the histograms are counted into 2M bins per (i, c) and
    folded, bin e + M onto bin e, so no index is reduced mod M.  The counting
    is ``np.bincount`` of the landing indices, once for each distinct value
    w of V in a block of its nonzero entries, added as w times the exact
    int64 counts (cast to Python ints on the object path); no float touches
    a value.  A block holds at least 2bM nonzero entries (all of them when V
    has fewer), so it counts at least as many indices as its bincount has
    bins, and about ``_BLOCK`` indices when that is more.

    The landing indices are int32, like E, and below |J| b 2M.  A call for
    which that, or |K| b 2M, passes 2^31 is refused, |K| b 2M first, from
    V's shape alone, before E is read.  The output and bincount's counts
    (each |J| b 2M int64) and the reduction array (M phi(M) int64) are
    charged on the byte budget before any of them is allocated.
    """
    k, b, M = V.shape
    if k * b * 2 * M > 2**31 or E.shape[1] * b * 2 * M > 2**31:
        raise EnumerationBoundError("%d vectors at conductor %d overflow int32 indices" % (b, M))
    n = E.shape[1]
    phi = prod((p - 1) * p ** (e - 1) for p, e in factorize(M))
    _byte_check(4 * n * b * M + M * phi, 8, "the histograms of rho(S)")
    stretch = M // L
    RED = _reduction_array(M)
    if int(np.abs(V).sum()) * int(np.abs(RED).max()) < 2**63:
        V = V.astype(np.int64, copy=False)
    else:
        V, RED = V.astype(object), RED.astype(object)
    out = np.zeros((n, b, 2 * M), dtype=V.dtype)
    flat = out.reshape(-1)
    rows = np.arange(0, out.size, 2 * b * M, dtype=np.int32)
    ks, cs, js = (a.astype(np.int32) for a in np.nonzero(V))
    blocks = max(1, len(ks) // max(_BLOCK // n, 2 * b * M))
    for t in range(blocks):
        lo, hi = len(ks) * t // blocks, len(ks) * (t + 1) // blocks
        k, c, j = ks[lo:hi], cs[lo:hi], js[lo:hi]
        # out[i, c, j + stretch E[k, i]] += V[k, c, j]
        at = rows + (2 * M * c + j)[:, None] + stretch * E[k]
        w = V[k, c, j]
        values = set(w.tolist())
        for x in values:
            hit = at if len(values) == 1 else at[w == x]
            counts = np.bincount(hit.reshape(-1), minlength=out.size)
            counts = counts.astype(out.dtype, copy=False)
            counts *= x
            flat += counts
            del counts  # so the charge bounds the fold and reduction below too
    return (out[..., :M] + out[..., M:]) @ RED


def _row_sums(E, shift, L):
    """sum_k zeta_L^(E[i, k] + shift[k]) for each row i of E, as power-basis coordinates.

    shift is 0 or a row of values in [0, L), so every exponent is below 2L.
    As in ``_s_sums``, they are counted by ``np.bincount`` into 2L bins per
    row and folded, with no reduction mod L: a block of |K| rows holds
    |K| |D| indices and 2 |K| L bins.
    """
    at = E + shift + 2 * L * np.arange(len(E))[:, None]
    counts = np.bincount(at.reshape(-1), minlength=2 * L * len(E)).reshape(len(E), 2, L)
    return counts.sum(axis=1) @ _reduction_array(L)


# ------------------------------------------------- exact identity checks


def weil_relations_report(m):
    """Exact proof of the defining relations and unitarity, any signature.

    rho(S) = s0 zeta^E and rho(T) = diag(zeta^q), q = L*Q, with s0 = conj(G)/|D|,
    G the Gauss sum and G conj(G) = |D| (``signature_mod8`` proves it
    exactly).  The relations follow from three premises, each checked exactly
    on the tables E and q with the generators g_j and the shifts x + g_j:

    - additivity: E[x, y + g_j] = E[x, y] + E[x, g_j] mod L for every x, y
      and j.  At y = 0 this gives E[x, 0] = 0, and by induction on the
      length of a word in the generators E[x, y] = sum_i y_i E[x, g_i] for
      y = sum_i y_i g_i: every row is a character;
    - symmetry: E[x, g_j] = E[g_j, x] for every x and j.  With additivity
      this is E = E^t, as then E[x, y] = sum_i y_i E[g_i, x] =
      sum_i,k y_i x_k E[g_i, g_k] and E[g_i, g_k] = E[g_k, g_i]: every
      column is a character too;
    - quadratic refinement: q[x + g_j] = q[x] + q[g_j] - E[x, g_j] mod L for
      every x and j.  At x = 0 this gives q[0] = E[0, g_j] = 0, and by the
      same induction q[x + y] = q[x] + q[y] - E[x, y] for all x, y.

    With s = x_i + x_c, each relation is then one column of zeta^E, whose
    entry s is the sum of row s, compared exactly with its closed form:

    - (zeta^E)^2 [i, c] = sum_k zeta^(E[s, k]) = (zeta^E 1)[s], so
      rho(S)^2 = e(-sig/4) P_neg, P_neg the negation, exactly when
      zeta^E 1 = |D| e_0;
    - rho(S)^4 is then e(-sig/2), the identity exactly for even signature;
    - (ST)^3 = S^2 exactly when STS = T^-1 S T^-1 (S and T are invertible),
      that is, as s0 G = 1, when zeta^E T zeta^E = G T^-1 zeta^E T^-1.  Entry
      (i, c) of the left side is sum_k zeta^(E[s, k] + q[k]) =
      (zeta^E zeta^q)[s], and of the right side G zeta^(E[i, c] - q[i] - q[c])
      = G zeta^(-q[s]): the relation holds exactly when
      zeta^E zeta^q = G zeta^-q;
    - rho(S) is unitary once S^2 holds: additivity gives E[:, -c] = -E[:, c],
      so with symmetry conj(zeta^E)^t = zeta^E P_neg, and zeta^E conj(zeta^E)^t
      = (zeta^E)^2 P_neg = |D| P_neg^2 = |D| I.

    A flag is True only when it is proven, so a failed premise makes every
    flag that rests on it False.  The premises cost O(|D|^2 r), r the number
    of generators, and the two columns O(|D|^2).  Each block of rows E[K] of
    about ``_BLOCK`` entries is built once, compared with itself for
    additivity and refinement and with the block E[gens, K] for symmetry,
    and summed for rows K of both columns, then dropped.
    """
    L, n = m.level, m.size
    q = m.q_ints
    X = m.coords
    step = np.eye(X.shape[1], dtype=np.int64)
    gens = m.indices_of(step)
    shift = m.indices_of(X[:, None, :] + step)  # shift[x, j]: the index of x + g_j
    every = np.arange(n)
    G = m.gauss_sum()
    # G zeta^-t, the closed form of (zeta^E zeta^q)[s] at t = q[s]
    closed = np.array([coordinates(L, root_of_unity(-t, L) * G) for t in range(L)], dtype=np.int64)
    width = max(1, _BLOCK // n)
    form_ok = s2_ok = st3_ok = True
    for x0 in range(0, n, width):
        K = every[x0:x0 + width]
        rows = _exponent_block(m, K, every)
        # d = E[x, y] + E[x, g_j] - E[x, y + g_j] lies in (-L, 2L): 0 mod L when 0 or L
        sums = (rows + rows[:, g, None] - rows[:, shift[:, j]] for j, g in enumerate(gens))
        form_ok = all(((d == 0) | (d == L)).all() for d in sums) and np.array_equal(
            rows[:, gens].T, _exponent_block(m, gens, K)
        )
        if not form_ok:
            break
        if s2_ok:
            want = np.zeros((len(K), closed.shape[1]), dtype=np.int64)
            want[K == 0, 0] = n
            s2_ok = np.array_equal(_row_sums(rows, 0, L), want)
        st3_ok = (
            st3_ok
            and not ((q[shift[K]] - q[K, None] - q[gens] + rows[:, gens]) % L).any()  # q refines E
            and np.array_equal(_row_sums(rows, q, L), closed[q[K]])
        )
    s2_ok = form_ok and s2_ok
    return {
        "s2_is_negation": s2_ok,
        "s4": s2_ok and m.signature_mod8() % 2 == 0,
        "st3": form_ok and st3_ok,
        "s_unitary": s2_ok,
        "t_unitary": True,  # diagonal of roots of unity
        "method": "integer-histogram",
    }


def check_vH_action(m, h):
    """Exact check of rho(S) v^H = s0 |H| v^{H perp}, s0 the scalar of rho(S)."""
    idx = np.array(list(h.indices), dtype=np.int64)
    E = _exponent_block(m, idx, np.arange(m.size))
    V = np.zeros((len(idx), 1, m.level), dtype=np.int64)
    V[:, 0, 0] = 1
    got = _s_sums(E, m.level, V)[:, 0]
    target = np.zeros_like(got)
    target[~E.any(axis=0), 0] = len(idx)
    return bool(np.array_equal(got, target))


# ------------------------------------------------------- invariant vectors


def _residues(m, rows, q):
    """The square system zeta^E[iso, iso] - G I mod q, zeta_L sent to t of order L.

    rows is E[iso].  ``np.take`` keeps the gathered block C-contiguous, as
    ``_rref_mod`` wants it: the gather rows[:, iso] comes out in Fortran
    order, and on D_{24,4} ``_rref_mod`` took 17.5 s on that order against
    10.4 s on C order (2-core machine).
    """
    L, iso = m.level, m.isotropic_indices
    t = pow(primitive_root(q), (q - 1) // L, q)
    A = np.array([pow(t, e, q) for e in range(L)], dtype=np.int64)[np.take(rows, iso, axis=1)]
    at = np.diag_indices(len(iso))
    g = sum(c * pow(t, j, q) for j, c in enumerate(coordinates(L, m.gauss_sum()))) % q
    A[at] = (A[at] - g) % q
    return A


def _fixed(m, rows, vectors):
    """zeta^E v == G v exactly, for integer vectors v over the isotropic elements.

    rows is E[iso].  Such a v is fixed by rho(T), and rho(S) v = s0 zeta^E v
    = v exactly when zeta^E v = G v, as s0 G = 1.  ``_s_sums`` applies
    zeta^E to a block of the vectors at a time, each block of about
    ``_BLOCK`` histogram entries over D.
    """
    n, L, iso = m.size, m.level, list(m.isotropic_indices)
    gcan = np.array(coordinates(L, m.gauss_sum()), dtype=object)
    width = max(1, _BLOCK // (n * L))
    for c0 in range(0, len(vectors), width):
        K = np.array(vectors[c0:c0 + width], dtype=object).T
        V = np.zeros((len(iso), K.shape[1], L), dtype=object)
        V[:, :, 0] = K
        want = np.zeros((n, K.shape[1], len(gcan)), dtype=object)
        want[iso] = K[:, :, None] * gcan
        if not np.array_equal(_s_sums(rows, L, V), want):
            return False
    return True


def _certificate(m):
    """The certified invariants of m and the self-dual isotropic family against them.

    The invariants are the vectors over the isotropic elements in the kernel
    of the square |iso| x |iso| system zeta^E[iso, iso] - G I, with entries
    in Z[zeta_L].  ``linalg`` eliminates it mod primes q = 1 (mod L) and
    accepts a lifted kernel basis only when ``_fixed`` proves every vector
    invariant on all |D| rows.

    Soundness.  An invariant v lies over the isotropic elements (rho(T)
    fixes it) and solves zeta^E v = G v on every row, so on the isotropic
    rows: the square kernel over C contains the invariants.  Reduction mod q
    is a ring map, so rank_q <= rank_C and the ncols - rank_q lifted vectors
    are at least as many as the invariants; ``_fixed`` proves each of them
    invariant, and they are independent, so they span the invariants.

    Termination.  rho(S) = s0 zeta^E is unitary (``weil_relations_report``).
    If v lies over iso and (rho(S) v)_x = v_x for every isotropic x, then
    ||rho(S) v|| = ||v|| leaves no room for entries off iso: rho(S) v = v.
    So the square kernel over C is exactly the invariant space, which has a
    basis of rational vectors (McGraw, "The rationality of vector valued
    modular forms associated with the Weil representation", Math. Ann.
    2003); the RREF of the system is then rational, and a lucky prime lifts
    it.

    Memory.  The rows E[iso] are built once, at 12 |iso| |D| bytes while
    they are built and 4 after, handed to ``_residues`` and ``_fixed`` and
    dropped on return.  A residue table is held as int64 next to them, and
    each elimination step holds three more int64 temporaries of its size:
    about 36 bytes per entry, checked before the rows are built.
    ``verify_selfdual_span`` in a fresh interpreter on a 2-core machine,
    with the whole cached table before and these rows after
    (``BENCH_17.json``): D_{24,4} 16.8 s and 1002 MB of peak RSS before,
    14.2 s and 158 MB after; D_{30,3} 9.0 s and 781 MB before, 6.2 s and
    113 MB after; D_{100,1} 6.1 s and 1174 MB before, 2.6 s and 104 MB
    after.

    Returns (iso, kernel basis, family rows, family pivots, spans): the
    pivots index the greedy independent subfamily of the 0/1 rows of the
    self-dual isotropic subgroups, and spans says that this subfamily is
    proven invariant by ``_fixed`` and as large as the kernel, so that the
    family spans the invariants.
    """
    _bound_check(m.size)
    iso = m.isotropic_indices
    _byte_check(len(iso) ** 2, 36, "the fixed-point system")
    rows = _isotropic_block(m)
    fixed = partial(_fixed, m, rows)
    kernel = _certified(partial(_residues, m, rows), len(iso), fixed, m.level)[2]
    family = isotropic_rows(m, enumerate_self_dual_isotropic(m))
    # the greedy subfamily (each vector kept when it is not in the span of
    # those before it) is the pivot columns of the family written as columns
    pivots = rational_rref([list(col) for col in zip(*family)])[1] if family else []
    spans = len(pivots) == len(kernel) and fixed([family[c] for c in pivots])
    return iso, kernel, family, pivots, spans


def _invariants(m):
    """(certified basis of the invariants, rank of the self-dual isotropic family)."""
    iso, kernel, family, pivots, spans = _certificate(m)
    if family and not spans:
        raise CertificationError("the self-dual isotropic family does not span the invariants")
    basis = []
    for v in sorted([family[c] for c in pivots] if family else kernel):
        dense = [0] * m.size
        for g, c in zip(iso, v):
            dense[g] = c
        basis.append(dense)
    return basis, len(pivots)


def invariant_space(m):
    """A certified basis of the SL2(Z)-invariant vectors, as integer vectors.

    The span of the v^H, H self-dual isotropic, when the module has such
    subgroups: their greedy independent subfamily, which ``_certificate``
    proves to span the certified kernel (raises CertificationError if not).
    Otherwise the kernel basis itself.  Each vector is a list of |D| ints,
    primitive, in element-index order.
    """
    return _invariants(m)[0]


def invariant_dimension(m):
    return len(invariant_space(m))


def verify_selfdual_span(m):
    """Compare span{v^H : H self-dual isotropic} with the invariant space."""
    _, kernel, family, pivots, spans = _certificate(m)
    if not family:
        raise ValueError("no self-dual isotropic subgroup; nothing to compare")
    return {
        "dimension": len(kernel),
        "family_size": len(family),
        "family_rank": len(pivots),
        "span_equal": spans,
    }
