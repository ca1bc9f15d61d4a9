"""Exact linear algebra over Q plus a mod-q rank bound for certification."""

from fractions import Fraction
from math import gcd

import numpy as np


def rational_rref(rows):
    """Reduced row echelon form over Q.  Returns (rref rows, pivot columns)."""
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rational_rank(rows):
    return len(rational_rref(rows)[0])


def rational_kernel(rows, ncols=None):
    """Basis of the right kernel as primitive integer vectors.

    Basis vectors are the standard rref kernel vectors (one per free column),
    cleared of denominators, divided by content, leading entry positive.
    """
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rref, pivots = rational_rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rref[r][fc]
        basis.append(primitive_integer_vector(v))
    return basis


def primitive_integer_vector(v):
    """Scale a rational vector to coprime integers with positive leading entry."""
    from math import lcm

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


def same_rational_span(rows_a, rows_b):
    ra = rational_rank(rows_a)
    rb = rational_rank(rows_b)
    if ra != rb:
        return False
    return rational_rank(list(rows_a) + list(rows_b)) == ra


def modq_rank(mat, q):
    """Rank of an integer matrix over F_q (q prime, q^2 within int64)."""
    a = np.array(mat, dtype=np.int64) % q
    if a.size == 0:
        return 0
    nrows, ncols = a.shape
    rank = 0
    for c in range(ncols):
        sub = a[rank:, c]
        nz = np.nonzero(sub)[0]
        if nz.size == 0:
            continue
        p = rank + int(nz[0])
        if p != rank:
            a[[rank, p]] = a[[p, rank]]
        inv = pow(int(a[rank, c]), -1, q)
        a[rank] = a[rank] * inv % q
        col = a[:, c].copy()
        col[rank] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            a[rows] = (a[rows] - np.outer(col[rows], a[rank])) % q
        rank += 1
        if rank == nrows:
            break
    return rank
