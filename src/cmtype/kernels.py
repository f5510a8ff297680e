"""Exact row-reduction kernels over F_p and the rationals.

Matrices are sequences of rows.  Prime field entries are ints, returned
in ``[0, p)`` wherever a function computes them; rational entries are
``fractions.Fraction``.  All functions leave their inputs untouched.

There is one implementation, in pure Python, and no compiled kernel: the
inner loops are slice comprehensions from the pivot column on.  A compiled
F_p kernel was 9-19x faster in isolation, but Cython cannot be installed
without network access, and C through ctypes or the C API would bring back
a build step for a package that installs and runs as plain Python.  With
each ideal operation reducing once, the benchmark's traced ``kernels.share``
(kernel time over item time, seed 1, three runs) is 0.37-0.39 on
``series-fp``, where a 19x kernel would cap at 1/(0.61 + 0.39/19) ~ 1.6x
end to end, and 0.37-0.41 on ``series-qq``, whose ``Fraction`` entries a C
loop cannot speed up; it is 0 on the monomial and semigroup workloads.  Kernel time is cut instead by
making fewer and smaller reductions.
"""

from fractions import Fraction

# Recorded on the benchmark environment line, which refuses to compare runs
# of different backends.
BACKEND = "python"


def rref_fp(rows, p):
    """Reduced row echelon form over F_p.

    Entries may be any ints; the result is canonical.  Returns
    ``(reduced_rows, pivot_cols)`` where ``reduced_rows`` contains only the
    nonzero rows, pivots are 1 and pivot columns are cleared elsewhere.
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
        tail = [x * inv % p for x in m[rank][col:]]
        # The cells left of the pivot are 0 mod p but may be raw multiples of p.
        m[rank] = [0] * col + tail
        for i in range(nrows):
            if i == rank:
                continue
            ri = m[i]
            f = ri[col] % p
            if f:
                ri[col:] = [(a - f * b) % p for a, b in zip(ri[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def reduce_rows_fp(vecs, basis, pivots, p):
    """Reduce each vector in ``vecs`` modulo the row span of ``basis``.

    ``basis`` must be in reduced echelon form with the given pivot
    columns.  Returns the list of residual vectors; a cell that no basis
    row touches is returned as given.
    """
    tails = [(col, row[col:]) for row, col in zip(basis, pivots)]
    out = []
    for v in vecs:
        r = list(v)
        for col, tail in tails:
            f = r[col] % p
            if f:
                r[col:] = [(a - f * b) % p for a, b in zip(r[col:], tail)]
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
        row[col:] = tail = [x * inv if x else x for x in row[col:]]
        for i in range(nrows):
            if i == rank:
                continue
            ri = m[i]
            f = ri[col]
            if f:
                ri[col:] = [a - f * b if b else a for a, b in zip(ri[col:], tail)]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return m[:rank], pivots


def reduce_rows_qq(vecs, basis, pivots):
    tails = [(col, row[col:]) for row, col in zip(basis, pivots)]
    out = []
    for v in vecs:
        r = list(v)
        for col, tail in tails:
            f = r[col]
            if f:
                r[col:] = [a - f * b if b else a for a, b in zip(r[col:], tail)]
        out.append(r)
    return out
