"""The Weil representation on C[D] and its invariant vectors, exactly.

rho(S) is the scalar conj(G)/|D| (G the Gauss sum) times the monomial matrix
zeta_L^E, E = -L*B mod L the exponent table, and rho(T) is the diagonal
zeta_L^(L*Q).  So rho(S) applied to a vector, and every product of the
generators, is a scalar times sums of roots of unity of the level.  One
routine, ``_s_sums``, applies zeta^E to a batch of integer vectors, or to
the vector 1_K of a block of rows: it counts the exponents, each already in
[0, L), with ``np.bincount`` into the level's L bins and reduces the bins
to power-basis coordinates at the radical of L by the tail of cyclo's
sparse table of the powers of its root of unity.  The v^H check (on 1_H)
and the invariant certificate go through it and compare exact integer
arrays, for modules of any signature.
``weil_relations_report`` sums no root of unity: it proves the relations
from the integer tables alone, checked on the generators in O(|D|^2 r).  E
is symmetric and additive, L*Q is an even refinement of it, and row 0 is
its only zero row (non-degeneracy); character orthogonality and the
translation invariance of the Gauss sum do the rest.
The integer tables are the module's element and pairing tables
(coordinates, L*Q, L*B on the generators) and the blocks E[I, J] of the
exponent table that ``_exponent_block`` builds on demand, each held behind
the enumeration bound and the byte budget.  No |D| x |D| table is built:
each reader builds only the rows it reads.

The invariant space has one certificate.  Its vectors lie over the
isotropic elements (the rho(T)-fixed ones), in the kernel of the square
|iso| x |iso| system zeta^E[iso, iso] - G I.  When the module has self-dual
isotropic subgroups, two bounds prove the dimension: the system's rank mod
one prime q = 1 (mod L) bounds it above, and the independent v^H that
``_s_sums`` proves invariant on all |D| rows bound it below.  When they
meet, the v^H span the invariants.  Otherwise, and for modules with no such
subgroup, ``linalg`` eliminates the system mod primes q = 1 (mod L) and
lifts a kernel basis that ``_s_sums`` proves invariant, exactly; that the
lift closes rests on rho(S) being unitary and on the rationality of the
invariants.  A module of two or more p-primary parts whose families span
is certified through them: its invariants are the tensor product of
theirs, and no table of the whole module is built.  No floating point and
no unverified heuristics.
"""

from functools import lru_cache, partial
from math import prod

import numpy as np

from .arith import factorize, is_rational_square, primitive_root
from .cyclo import _powers, coordinates, degree
from .fqmod import p_primary_decomposition
from .linalg import _certified, _prime, _rref_mod, rational_rref
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

# The scatter step of ``_s_sums`` holds about this many indices at once, or
# up to twice as many as its output has bins when that is more, so its
# temporaries stay within a small multiple of max(_BLOCK, output size), and
# ``weil_relations_report`` builds blocks of about this many entries of E
# (at least one row).  A batch of ``_fixed`` has _BLOCK bins at about 30
# bytes each while counted, so 2^15 keeps a scatter near 1 MB; larger
# blocks raise the peak, smaller ones the per-step overhead.
_BLOCK = 2**15


def _exponent_block(m, I, J=None):
    """E[I, J] of the exponent table E[i, k] = -L*B(x_i, x_k) mod L, as int32.

    I and J are arrays of element indices, in any order, repeated or empty;
    J = None takes every column, reading ``m.pairing`` as it is.  The block
    is -X[I] P[:, J] mod L, P = ``m.pairing``: one int64 product (below
    2^63 by the module's range rule), then an int32 copy, so it peaks at 12
    bytes per entry.  The element bound and that charge on the byte budget
    are checked on every call, before anything is built.  B is symmetric,
    so E is too: E[I, J] is the transpose of E[J, I].
    """
    _bound_check(m.size)
    _byte_check(len(I) * (m.size if J is None else len(J)), 12, "a block of the exponent table")
    E = m.coords[I] @ (m.pairing if J is None else m.pairing[:, J])
    np.negative(E, out=E)
    E %= m.level
    return E.astype(np.int32)


def _isotropic_block(m):
    """E[iso], the block of the exponent table on the rows of the isotropic elements."""
    return _exponent_block(m, np.array(m.isotropic_indices))


@lru_cache(maxsize=8)
def _tail(r):
    """Rows phi(r) to r - 1 of cyclo's table of the powers of zeta_r, dense.

    A read-only (r - phi(r)) x phi(r) int64 array from the sparse rows of
    ``_powers(r)``, and its largest |entry| (1 when empty); kept per radical.
    """
    phi = degree(r)
    at = [(a * phi + j, x) for a, row in enumerate(_powers(r)[phi:]) for j, x in row]
    tail = np.zeros((r - phi, phi), dtype=np.int64)
    tail.reshape(-1)[[i for i, _ in at]] = [x for _, x in at]
    tail.flags.writeable = False
    return tail, int(np.abs(tail).max(initial=1))


@lru_cache(maxsize=8)
def _radical(L):
    """(r, phi(r)) for the radical r of L; ``_tail(r)`` is read after the charge."""
    r = prod(p for p, _ in factorize(L))
    return r, degree(r)


def _s_sums(E, L, V=None):
    """zeta^E on b integer vectors: sum_k V[k, c] zeta_L^E[k, i].

    E is an int32 block E[K, J] of the exponent table of a module of level
    L, and V an integer array of shape (|K|, b), entries of any size: vector
    c is V[k, c] at row k of E; V = None is the one vector 1_K (b = 1).
    Returns the (|J|, b, phi(L)) power-basis coordinates, in int64 when no
    sum can reach 2^63 and in Python ints (an object array) otherwise.  As
    E is symmetric, these are the entries J of zeta^E v_c when K holds the
    support of every v_c.

    Entry (k, c) lands at bin E[k, i] of the L bins of (i, c), counted by
    ``np.bincount``; no float touches a value.  1_K takes one bincount per
    block of rows of E, offset to the bins of their columns.  A block of the
    nonzero entries of V is counted once per distinct value w in it and
    added as w times the exact counts.  A block holds at least bL rows or
    entries (or all), so it counts at least as many indices as its bincount
    has bins, and about ``_BLOCK`` indices when that is more.

    The bins are reduced at the radical r of L: with s = L / r,
    Phi_L(x) = Phi_r(x^s), so bin a s + t is zeta_r^a zeta_L^t, and the
    power basis is zeta_L^(a s + t) for a < phi(r), t < s.  The rows
    a >= phi(r) are contracted with the (r - phi(r)) x phi(r) int64 tail
    of cyclo's table of the powers of zeta_r, read after the charge from
    ``_tail(r)`` with its largest entry.  At a squarefree level s = 1.

    The landing indices are int32, like E, and below |J| b L.  A call for
    which that, or |K| b L, passes 2^31 is refused, |K| b L first, from V's
    shape (E's for 1_K) alone, before E is read.  Charged on the byte
    budget before any of them is allocated, for 1_K as for a V of ones: the
    bins and bincount's counts (each |J| b L int64), the int32 offsets of
    the |J| rows of the bins, the tail ((r - phi(r)) phi(r) int64), 16
    bytes per landing index of the largest block (the int32 indices, their
    copy masked to one value and bincount's intp copy), 40 bytes per entry
    of V (its cast copy, its nonzero positions, and the values, offsets and
    mask of a block), and numpy's buffer of ``np.getbufsize()`` entries for
    adding the strided low bins.  The object path charges its arrays at 8
    bytes an entry, without the Python ints they point to.
    """
    K, b = (len(E), 1) if V is None else V.shape
    if K * b * L > 2**31 or E.shape[1] * b * L > 2**31:
        raise EnumerationBoundError("%d vectors at level %d overflow int32 indices" % (b, L))
    n = E.shape[1]
    r, phi = _radical(L)
    nonzero = K if V is None else np.count_nonzero(V)
    blocks = max(1, nonzero // max(_BLOCK // n, b * L))
    indices = -(-nonzero // blocks) * n
    need = 16 * n * b * L + 4 * n + 8 * (r - phi) * phi + 16 * indices + 40 * K * b
    need += 8 * np.getbufsize()
    _byte_check(need, 1, "the sums of rho(S)")
    tail, top = _tail(r)
    big = (K if V is None else int(np.abs(V).sum())) * top >= 2**63
    rows = np.arange(0, n * b * L, b * L, dtype=np.int32)
    cut = [nonzero * t // blocks for t in range(blocks + 1)]
    if V is None:
        # out[i, E[k, i]] += 1 for every row k; no block's counts outlive its +=
        out = np.bincount((E[:cut[1]] + rows).ravel(), minlength=n * L)
        for lo, hi in zip(cut[1:], cut[2:]):
            out += np.bincount((E[lo:hi] + rows).ravel(), minlength=n * L)
    else:
        V = V.astype(object if big else np.int64, copy=False)
        out = np.zeros(n * b * L, dtype=V.dtype)
        ks, cs = np.nonzero(V)
        for lo, hi in zip(cut, cut[1:]):
            k, c = ks[lo:hi], cs[lo:hi]
            # out[i, c, E[k, i]] += V[k, c]
            at = E[k]
            at += rows
            at += (L * c)[:, None]
            w = V[k, c]
            values = set(w.tolist())
            for x in values:
                hit = at if len(values) == 1 else at[w == x]
                counts = np.bincount(hit.reshape(-1), minlength=out.size).astype(out.dtype, copy=False)
                counts *= x
                out += counts
                del counts  # so the charge bounds the reduction below too
    if big:
        out, tail = out.astype(object, copy=False), tail.astype(object)
    bins = out.reshape(n, b, r, L // r)
    sums = tail.T @ bins[:, :, phi:]
    sums += bins[:, :, :phi]
    return sums.reshape(n, b, -1)


# ------------------------------------------------- exact identity checks


def weil_relations_report(m):
    """Exact proof of the defining relations and unitarity, from integer tables.

    rho(S) = s0 zeta^E and rho(T) = diag(zeta^q), q = L*Q, with s0 = conj(G)/|D|
    and G = sum_k zeta^q[k] the Gauss sum.  Three premises are checked
    exactly on the tables E and q, with the generators g_j and the shifts
    x + g_j:

    - additivity: E[x, y + g_j] = E[x, y] + E[x, g_j] mod L for all x, y, j.
      By induction on words in the generators, every row is a character;
    - symmetry: E[x, g_j] = E[g_j, x] for all x, j.  With additivity, E = E^t;
    - refinement: q[x + g_j] = q[x] + q[g_j] - E[x, g_j] mod L for all x, j.
      By the same induction, q[x + y] = q[x] + q[y] - E[x, y] for all x, y.

    With s = x_i + x_c, each relation is then one identity for each s:

    - (zeta^E)^2 [i, c] = sum_k zeta^E[s, k] is |D| when row s is zero and 0
      otherwise (row s is a character).  So rho(S)^2 = e(-sig/4) P_neg, P_neg
      the negation, exactly when row 0 is the only zero row: E is
      non-degenerate, and then s0 G = |G|^2 / |D| = 1;
    - rho(S)^4 is then e(-sig/2), the identity exactly for even signature;
    - st3 is (ST)^3 = S^2, that is STS = T^-1 S T^-1, proven as
      zeta^E T zeta^E = G T^-1 zeta^E T^-1 with s0 G = 1: it rests on the
      premises of S^2 as well.  Entry (i, c) of the left side is
      sum_k zeta^(E[s, k] + q[k]) = G zeta^(q[s] + E[s, s]), as k -> k - s
      permutes D and E[s, k] + q[k] = q[k - s] + q[s] + E[s, s] by
      refinement; of the right side it is G zeta^-q[s], and G != 0.  So
      st3 holds exactly when q is even as well, 2 q[x] + E[x, x] = 0, a
      form additive in x that is 4 q[g_j] - q[2 g_j] at a generator;
    - rho(S) is unitary once S^2 holds: additivity gives E[:, -c] = -E[:, c],
      so conj(zeta^E)^t = zeta^E P_neg and zeta^E conj(zeta^E)^t = |D| I.

    A flag is True only when it is proven, so a failed premise makes every
    flag that rests on it False.  Each block of rows E[K] of about ``_BLOCK``
    entries is built once, checked for additivity, refinement, zero rows and
    against E[gens, K] for symmetry, then dropped: O(|D|^2 r) for r
    generators.  No root of unity is summed but the Gauss sum behind s4.
    """
    L, n = m.level, m.size
    q = m.q_ints
    X = m.coords
    step = np.eye(X.shape[1], dtype=np.int64)
    gens = m.indices_of(step)
    shift = m.indices_of(X[:, None, :] + step)  # shift[x, j]: the index of x + g_j
    width = max(1, _BLOCK // n)
    form_ok = s2_ok = refines = True
    for x0 in range(0, n, width):
        K = np.arange(x0, min(n, x0 + width))
        rows = _exponent_block(m, K)
        # d = E[x, y] + E[x, g_j] - E[x, y + g_j] lies in (-L, 2L): 0 mod L when 0 or L
        sums = (rows + rows[:, g, None] - rows[:, shift[:, j]] for j, g in enumerate(gens))
        form_ok = all(((d == 0) | (d == L)).all() for d in sums) and np.array_equal(
            rows[:, gens].T, _exponent_block(m, gens, K)
        )
        if not form_ok:
            break
        s2_ok = s2_ok and np.array_equal(rows.any(axis=1), K != 0)
        refines = refines and not ((q[shift[K]] - q[K, None] - q[gens] + rows[:, gens]) % L).any()
    even = not ((4 * q[gens] - q[m.indices_of(2 * step)]) % L).any()
    s2_ok = form_ok and s2_ok
    return {
        "s2_is_negation": s2_ok,
        "s4": s2_ok and m.signature_mod8() % 2 == 0,
        "st3": s2_ok and refines and even,
        "s_unitary": s2_ok,
        "t_unitary": True,  # diagonal of roots of unity
        "method": "integer-histogram",
    }


def check_vH_action(m, h):
    """Exact check of rho(S) v^H = s0 |H| v^{H perp}, s0 the scalar of rho(S).

    zeta^E 1_H, the rows E[H] summed by ``_s_sums``, less |H| at coordinate
    0 of the zero columns (H perp), in place, must be 0.
    """
    idx = np.fromiter(h.indices, dtype=np.int64, count=len(h.indices))
    E = _exponent_block(m, idx)
    got = _s_sums(E, m.level)[:, 0]
    got[~E.any(axis=0), 0] -= len(idx)
    return not got.any()


# ------------------------------------------------------- invariant vectors


def _residues(m, rows, q):
    """The square system zeta^E[iso, iso] - G I mod q, zeta_L sent to t of order L.

    rows is E[iso].  ``np.take`` keeps the block C-contiguous, as
    ``_rref_mod`` wants it: rows[:, iso] comes out in Fortran order, on
    which ``_rref_mod`` took 17.5 s on D_{24,4} against 10.4 s (2 cores).
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
    = v exactly when zeta^E v = G v, as s0 G = 1.  ``_s_sums`` takes them
    over the rows of E[iso], ``_BLOCK`` // (|D| L) at a time (at least one),
    so that the |D| b L bins of a batch stay near ``_BLOCK``.
    """
    n, L, iso = m.size, m.level, list(m.isotropic_indices)
    gcan = np.array(coordinates(L, m.gauss_sum()), dtype=object)
    width = max(1, _BLOCK // (n * L))
    for c0 in range(0, len(vectors), width):
        V = np.array(vectors[c0:c0 + width], dtype=object).T
        want = np.zeros((n, V.shape[1], len(gcan)), dtype=object)
        want[iso] = V[:, :, None] * gcan
        if not np.array_equal(_s_sums(rows, L, V), want):
            return False
    return True


def _family(m):
    """The 0/1 rows over iso of m's self-dual isotropic subgroups, in
    enumeration order, and the pivots of their greedy independent subfamily.

    The greedy subfamily (each vector kept when it is not in the span of
    those before it) is the pivot columns of the family written as columns.
    """
    family = isotropic_rows(m, enumerate_self_dual_isotropic(m))
    return family, rational_rref([list(col) for col in zip(*family)])[1] if family else []


def _square_certificate(m):
    """The invariants of m and its self-dual isotropic family, certified on m's own system.

    The invariants are the vectors over the isotropic elements in the kernel
    of the square |iso| x |iso| system zeta^E[iso, iso] - G I, with entries
    in Z[zeta_L]: an invariant v lies over iso (rho(T) fixes it) and solves
    zeta^E v = G v on every row, so on the isotropic rows.  ``_fixed``
    proves a vector over iso invariant on all |D| rows.  The dimension is
    proven by one of two routes.

    Bounds (modules with self-dual isotropic subgroups).  The system is
    eliminated once, mod the first prime q = 1 (mod L) of ``linalg``.
    Reduction mod q is a ring map, so rank_q <= rank_C, and the invariants,
    inside the square kernel over C, have dimension at most |iso| - rank_q.
    The greedy subfamily of the family's 0/1 rows is independent over Q,
    so over C (``rational_rref`` proves it), and ``_fixed`` proves it
    invariant: the dimension is at least its size.  When the two bounds
    meet, the dimension is proven and the family spans the invariants; no
    vector is lifted and no theorem on the invariants is assumed.

    Lift (no family, or bounds that do not meet).  ``linalg`` eliminates the
    system mod primes q = 1 (mod L), starting from the bounds' elimination
    when they ran, and accepts a lifted kernel basis only when ``_fixed``
    proves every vector invariant.  The ncols - rank_q lifted vectors are
    then at least as many as the invariants, proven invariant and
    independent, so they span them.  The family spans when its greedy
    subfamily is as large as the kernel and proven invariant.  The lift
    terminates because rho(S) = s0 zeta^E is unitary
    (``weil_relations_report``): if v lies over iso and (rho(S) v)_x = v_x
    for every isotropic x, then ||rho(S) v|| = ||v|| leaves no room for
    entries off iso, so the square kernel over C is exactly the invariant
    space, which has a basis of rational vectors (McGraw, "The rationality
    of vector valued modular forms associated with the Weil representation",
    Math. Ann. 2003); the RREF of the system is then rational, and a lucky
    prime lifts it.  Only the lift needs McGraw's theorem.

    Memory.  The rows E[iso] are built once, at 12 |iso| |D| bytes while
    built and 4 after, and dropped on return.  A residue table is held as
    int64 next to them, and each elimination step holds three more int64
    temporaries of its size: about 36 bytes per entry, checked before the
    rows are built.  Each batch of ``_fixed`` adds what ``_s_sums`` charges.

    Returns (dimension, kernel basis, family rows, family pivots, spans):
    the kernel basis is None unless the lift ran; the rows and pivots are
    those of ``_family``, and spans says that the greedy subfamily is proven
    to span the invariants.
    """
    _bound_check(m.size)
    iso = m.isotropic_indices
    _byte_check(len(iso) ** 2, 36, "the fixed-point system")
    rows = _isotropic_block(m)
    fixed = partial(_fixed, m, rows)
    family, pivots = _family(m)
    greedy = [family[c] for c in pivots]
    reduced = {}
    if family:
        q = _prime(0, m.level)
        reduced[q] = _residues(m, rows, q)
        upper = len(iso) - len(_rref_mod(reduced[q], q))
        if upper == len(pivots):
            reduced.clear()  # freed before the sums of ``_fixed`` are counted
            if fixed(greedy):
                return upper, None, family, pivots, True
    # when the bounds miss, the lift starts at their prime from their RREF,
    # which its own elimination leaves as it is
    kernel = _certified(
        lambda p: reduced.pop(p) if p in reduced else _residues(m, rows, p), len(iso), fixed, m.level
    )[2]
    spans = len(pivots) == len(kernel) and fixed(greedy)
    return len(kernel), kernel, family, pivots, spans


def _product_certificate(m):
    """(dimension, family size, family rank) of m as products over its p-primary parts, or None.

    None unless m has two or more parts and the square certificate of each
    proves that a nonempty self-dual isotropic family spans its invariants.
    A part whose order is no square has no self-dual isotropic subgroup
    (|H|^2 = |D_p|), so that is checked of every part before any part is
    certified.  ``_certificate`` proves the products; of m itself only the
    presentation is read.
    """
    if len(factorize(m.size)) < 2:
        return None
    parts = [part for _, part, _ in p_primary_decomposition(m)]
    if not all(is_rational_square(part.size) for part in parts):
        return None
    counts = []
    for part in parts:
        dimension, _, family, pivots, spans = _square_certificate(part)
        if not (family and spans):
            return None
        counts.append((dimension, len(family), len(pivots)))
    return tuple(map(prod, zip(*counts)))


def _certificate(m):
    """The certified invariants of m and the self-dual isotropic family against them.

    Returns (dimension, kernel basis, family size, family rank, spans): the
    kernel basis is None unless ``_square_certificate`` lifted one for m,
    and spans says that the family is proven to span the invariants.

    A module of two or more p-primary parts D_p, each with a nonempty
    family that its square certificate proves spanning, takes the product
    route: each count is the product of the parts', spans is True, and no
    table of m is built, so the element bound applies to each part alone.
    Proof:

    - C[D] = (x)_p C[D_p], e_x = (x)_p e_(x_p).  Q and B are sums over the
      parts, so the Gauss sum, zeta^E and rho(T), and so rho(S), are the
      tensor products of the parts'.
    - A self-dual isotropic H of D_p makes the Gauss sum of D_p |H| > 0
      (the coset x + H adds e(Q(x)) sum_h e(B(x, h)), 0 unless x lies in
      H^perp = H), so D_p has signature 0 mod 8, and rho_(D_p) is a
      representation of SL2(Z) that factors through SL2(Z/L_p), L_p the
      level of D_p (Nobs & Wolfart 1976; Ehlen & Skoruppa, "Computing
      invariants of the Weil representation", 2017).  SL2(Z) maps onto
      SL2(Z/L) = prod_p SL2(Z/L_p) (CRT), each factor acting on its own
      C[D_p], and the invariants of such an external tensor product are
      the tensor product of the invariants: Inv(D) = (x)_p Inv(D_p).
    - Q/Z = (+)_p Q_p/Z_p, so x is isotropic exactly when every x_p is,
      and a subgroup H = (+)_p H_p is self-dual isotropic exactly when
      every H_p is (|H|^2 = |D|, and each |H_p|^2 <= |D_p|).  So the family
      of D is the sums of one member of each part's family, v^H is
      (x)_p v^(H_p), and the v^H span (x)_p span{v^(H_p)}, of dimension
      the product of the parts' ranks, which is (x)_p Inv(D_p) = Inv(D).

    Every other module takes ``_square_certificate`` on m itself, which is
    also this route's test oracle: p-primary modules, and modules with a
    part whose family is empty (such a part may have odd signature, and
    then its rho is a representation of the metaplectic group only) or
    does not span.
    """
    product = _product_certificate(m)
    if product:
        dimension, size, rank = product
        return dimension, None, size, rank, True
    dimension, kernel, family, pivots, spans = _square_certificate(m)
    return dimension, kernel, len(family), len(pivots), spans


def _invariants(m):
    """(certified basis of the invariants, rank of the self-dual isotropic family).

    m's own family is enumerated and its greedy subfamily taken on either
    route, so the basis does not depend on the route; |D| over the element
    bound is refused before any work.
    """
    _bound_check(m.size)
    product = _product_certificate(m)
    if product:
        kernel = None
        family, pivots = _family(m)
        if product != (len(pivots), len(family), len(pivots)):
            raise CertificationError("the self-dual isotropic family is not the product of its parts' families")
    else:
        _, kernel, family, pivots, spans = _square_certificate(m)
        if family and not spans:
            raise CertificationError("the self-dual isotropic family does not span the invariants")
    basis = []
    for v in sorted([family[c] for c in pivots] if family else kernel):
        dense = [0] * m.size
        for g, c in zip(m.isotropic_indices, v):
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
    dimension, _, size, rank, spans = _certificate(m)
    if not size:
        raise ValueError("no self-dual isotropic subgroup; nothing to compare")
    return {
        "dimension": dimension,
        "family_size": size,
        "family_rank": rank,
        "span_equal": spans,
    }
