"""Exact linear algebra by one elimination: the RREF over F_q, lifted with a proof.

``_rref_mod`` reduces an integer matrix over F_q, q < 2^31 prime, so that the
product of two residues fits in int64.  ``_certified`` lifts it to a proven
answer.  It takes the matrix as its residues mod q, a function of q, for the
primes q = 1 (mod step) counting down from 2^31 by lcm(2, step): step = 1
for rows over Q, step = L for a system over Z[zeta_L], whose residues send
zeta_L to an element of order L mod q.  Reduction mod q is a ring map, so the
rank mod q is at most the rank over the field.  A prime's pivots are ranked
by the key (-rank, pivots): the true pivots have the least key, so a larger
key is skipped, a smaller one restarts the accumulation, and only the
finitely many unlucky primes delay the answer.  The pivot columns of an RREF
are unit vectors; the free columns of the primes that share the least key
are combined by the CRT and lifted by rational reconstruction (von zur
Gathen & Gerhard, Modern Computer Algebra, 5.10).  The lift is accepted only
when ``exact`` proves that each kernel vector it gives, one per free column,
is a solution: ncols - rank_q independent solutions and rank_q <= rank prove
that they span the kernel, and the lifted rows, which annihilate them, are
then the RREF.  For rows over Q the proof is the integer product rows . v = 0.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .arith import is_prime

_ZERO, _ONE = Fraction(0), Fraction(1)


def rational_rref(rows):
    """Reduced row echelon form over Q.  Returns (rref rows, pivot columns)."""
    rref, pivots, _ = _certified_rows(rows, len(rows[0]) if rows else 0)
    return rref, pivots


def rational_rank(rows):
    """Rank over Q, certified on the rows or on their transpose.

    The certificate lifts one kernel vector per free column, so it runs on
    whichever of the two has fewer columns.
    """
    ints = [_integer_row(row) for row in rows]
    if ints and len(ints[0]) > len(ints):
        ints = [list(col) for col in zip(*ints)]
    return len(rational_rref(ints)[1])


def primitive_integer_vector(v):
    """Scale a rational vector to coprime integers with positive leading entry."""
    den = lcm(*[f.denominator for f in v]) if v else 1
    ints = [int(f * den) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def _rref_mod(a, q):
    """RREF over F_q of the int64 array ``a`` (entries in [0, q)), in place: the pivots."""
    nrows, ncols = a.shape
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        a[[r, p]] = a[[p, r]]
        # rows r and below are zero left of c: the earlier pivot columns are
        # cleared and the earlier free columns were zero from their row down
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, q) % q
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows, c:] = (a[rows, c:] - np.outer(col[rows], a[r, c:])) % q
        pivots.append(c)
    return pivots


@lru_cache(maxsize=None)
def _prime(i, step=1):
    """The i-th prime q = 1 (mod step) below 2^31, counting down (i = 0 the largest)."""
    s = lcm(2, step)
    q = _prime(i - 1, step) - s if i else (2**31 - 2) // s * s + 1
    while not is_prime(q):
        q -= s
    return q


def _integer_row(row):
    """The row times the common denominator of its Fractions; rows of ints as they are."""
    if not any(type(x) is Fraction for x in row):
        return row
    den = lcm(*(x.denominator for x in row if type(x) is Fraction))
    return [int(x * den) for x in row]


def _rational(r, M):
    """The fraction n/d = r mod M with |n|, d <= sqrt(M/2), or None."""
    bound = isqrt(M // 2)
    r0, r1, t0, t1 = M, r, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None


def _annihilates(A, kernel):
    """A . v == 0 for every v in ``kernel``, in exact integer arithmetic."""
    ncols = A.shape[1]
    amax = int(np.abs(A).max()) if A.size else 0
    vmax = max((abs(x) for v in kernel for x in v), default=1)
    exact = np.int64 if ncols * amax * vmax < 2**63 else object
    K = np.array(kernel, dtype=exact).reshape(len(kernel), ncols)
    return not (A.astype(exact) @ K.T).any()


def _certified_rows(rows, ncols):
    """``_certified`` for rows of ints and Fractions, proven by integer products."""
    ints = [_integer_row(row) for row in rows]
    try:
        A = np.array(ints, dtype=np.int64).reshape(len(ints), ncols)
    except OverflowError:
        A = np.array(ints, dtype=object).reshape(len(ints), ncols)
    return _certified(
        lambda q: (A % q).astype(np.int64), ncols, lambda kernel: _annihilates(A, kernel)
    )


def _certified(residues, ncols, exact, step=1):
    """(rref, pivots, kernel basis) of the matrix with residues(q) mod q, proven as the module says.

    ``residues(q)`` is a fresh int64 array with entries in [0, q), for the
    primes q = 1 (mod step): the matrix mod q, or any array row-equivalent
    to it mod q, such as its RREF, as both have the same RREF.
    ``exact(kernel)`` is true only when every vector of the primitive
    integer kernel basis is an exact solution.
    """
    best = None
    for i in count():
        q = _prime(i, step)
        a = residues(q)
        pivots = _rref_mod(a, q)
        key = (-len(pivots), pivots)
        free = sorted(set(range(ncols)) - set(pivots))
        x = a[: len(pivots)][:, free]
        if best is None or key < best:
            best, M, R = key, q, x.astype(object)
        elif key > best:
            continue
        else:
            R = R + M * ((x - R) * pow(M, -1, q) % q)
            M *= q
        lifted = [[_rational(y, M) for y in row] for row in R.tolist()]
        if any(None in row for row in lifted):
            continue
        rref = [[_ONE if c == pc else _ZERO for c in range(ncols)] for pc in pivots]
        for row, values in zip(rref, lifted):
            for fc, y in zip(free, values):
                row[fc] = y
        kernel = []
        for fc in free:
            v = [_ZERO] * ncols
            v[fc] = _ONE
            for r, pc in enumerate(pivots):
                v[pc] = -rref[r][fc]
            kernel.append(primitive_integer_vector(v))
        if exact(kernel):
            return rref, pivots, kernel
