"""Exact linear algebra over Q by one elimination: the RREF over F_q.

``_rref_mod`` reduces an integer matrix over F_q, q < 2^31 prime, so that the
product of two residues fits in int64; ``modq_rank`` is its rank, a lower
bound for the rank over Q.  ``_certified`` lifts it to Q with a proof.  Rows
are scaled to integers and reduced mod primes counting down from 2^31 - 1.
A prime's pivots are ranked by the key (-rank, pivots): the pivots over Q
have the least key, so a larger key is skipped, a smaller one restarts the
accumulation, and only the finitely many unlucky primes delay the answer.
The residues of the primes that share the least key are combined by the CRT
and lifted by rational reconstruction (von zur Gathen & Gerhard, Modern
Computer Algebra, 5.10).  The lift is accepted only when each kernel vector
it gives, one per free column, is an exact integer solution of rows . v = 0:
ncols - rank_q independent solutions and rank_q <= rank_Q prove that they
span the kernel, and the lifted rows, which annihilate them, are then the
RREF over Q.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .arith import is_prime


def rational_rref(rows):
    """Reduced row echelon form over Q.  Returns (rref rows, pivot columns)."""
    rref, pivots, _ = _certified(rows, len(rows[0]) if rows else 0)
    return rref, pivots


def rational_rank(rows):
    return len(rational_rref(rows)[0])


def rational_kernel(rows, ncols=None):
    """Basis of the right kernel as primitive integer vectors.

    Basis vectors are the standard rref kernel vectors (one per free column),
    cleared of denominators, divided by content, leading entry positive.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return _certified(rows, ncols)[2]


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


def modq_rank(mat, q):
    """Rank of an integer matrix over F_q (q prime, q^2 within int64)."""
    a = np.array(mat, dtype=np.int64) % q
    if a.size == 0:
        return 0
    return len(_rref_mod(a, q))


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
        a[r] = a[r] * pow(int(a[r, c]), -1, q) % q
        col = a[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[r])) % q
        pivots.append(c)
    return pivots


@lru_cache(maxsize=None)
def _prime(i):
    """The i-th prime below 2^31, counting down from 2^31 - 1 (i = 0)."""
    q = _prime(i - 1) - 2 if i else 2**31 - 1
    while not is_prime(q):
        q -= 2
    return q


def _integer_row(row):
    """The row times the common denominator of its Fractions; rows of ints as they are."""
    if not any(isinstance(x, Fraction) for x in row):
        return row
    den = lcm(*(x.denominator for x in row if isinstance(x, Fraction)))
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


def _certified(rows, ncols):
    """(rref, pivots, kernel basis) of the rows over Q, proven as the module says."""
    ints = [_integer_row(row) for row in rows]
    try:
        A = np.array(ints, dtype=np.int64).reshape(len(ints), ncols)
    except OverflowError:
        A = np.array(ints, dtype=object).reshape(len(ints), ncols)
    best = None
    for i in count():
        q = _prime(i)
        a = (A % q).astype(np.int64)
        pivots = _rref_mod(a, q)
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, M, R = key, q, a[: len(pivots)].astype(object)
        elif key > best:
            continue
        else:
            R = R + M * ((a[: len(pivots)] - R) * pow(M, -1, q) % q)
            M *= q
        rref = [[_rational(x, M) for x in row] for row in R.tolist()]
        if any(None in row for row in rref):
            continue
        kernel = []
        for fc in sorted(set(range(ncols)) - set(pivots)):
            v = [Fraction(0)] * ncols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rref[r][fc]
            kernel.append(primitive_integer_vector(v))
        if _annihilates(A, kernel):
            return rref, pivots, kernel
