"""Exact row-reduction kernels over F_p and the rationals.

Matrices are plain lists of lists.  Prime field entries are ints in
``[0, p)``; rational entries are ``fractions.Fraction``.  All functions
leave their inputs untouched.

There is one implementation, in pure Python.  A compiled F_p kernel was
9-19x faster in isolation, but the benchmark's ``kernels.share`` (kernel
time over item time) is 0.20 on ``series-fp`` and 0 on the monomial and
semigroup workloads, and QQ entries are ``Fraction`` objects a C loop cannot
speed up; by Amdahl's law even a 19x kernel gains at most 1.23x end to
end.  Revisit this only if ``kernels.share`` on an F_p workload rises above
about 0.35.
"""

from fractions import Fraction

# Recorded on the benchmark environment line, which refuses to compare runs
# of different backends.
BACKEND = "python"


def rref_fp(rows, p):
    """Reduced row echelon form over F_p.

    Returns ``(reduced_rows, pivot_cols)`` where ``reduced_rows`` contains
    only the nonzero rows, pivots are 1 and pivot columns are cleared
    elsewhere.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(rank, nrows):
            if m[i][col] % p:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        row = m[rank]
        for c in range(col, ncols):
            row[c] = row[c] * inv % p
        for i in range(nrows):
            if i == rank:
                continue
            f = m[i][col] % p
            if f:
                ri = m[i]
                for c in range(col, ncols):
                    ri[c] = (ri[c] - f * row[c]) % p
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def reduce_rows_fp(vecs, basis, pivots, p):
    """Reduce each vector in ``vecs`` modulo the row span of ``basis``.

    ``basis`` must be in reduced echelon form with the given pivot
    columns.  Returns the list of residual vectors.
    """
    out = []
    ncols = len(basis[0]) if basis else (len(vecs[0]) if vecs else 0)
    for v in vecs:
        r = list(v)
        for row, col in zip(basis, pivots):
            f = r[col] % p
            if f:
                for c in range(col, ncols):
                    r[c] = (r[c] - f * row[c]) % p
        out.append(r)
    return out


def rref_qq(rows):
    """Reduced row echelon form over the rationals (exact Fractions)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = -1
        for i in range(rank, nrows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row < 0:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = Fraction(1) / m[rank][col]
        row = m[rank]
        for c in range(col, ncols):
            row[c] *= inv
        for i in range(nrows):
            if i == rank:
                continue
            f = m[i][col]
            if f:
                ri = m[i]
                for c in range(col, ncols):
                    ri[c] -= f * row[c]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def reduce_rows_qq(vecs, basis, pivots):
    out = []
    ncols = len(basis[0]) if basis else (len(vecs[0]) if vecs else 0)
    for v in vecs:
        r = list(v)
        for row, col in zip(basis, pivots):
            f = r[col]
            if f:
                for c in range(col, ncols):
                    r[c] -= f * row[c]
        out.append(r)
    return out
