"""Exact row-reduction kernels over F_p and the rationals.

Matrices are sequences of rows.  Prime field entries are ints, returned
in ``[0, p)`` wherever a function computes them.  Rational entries may be
ints or ``fractions.Fraction``s, and ``rref_qq`` returns Fractions.  All
functions leave their inputs untouched.

``rref_qq`` is fraction-free.  It scales each row to integers by the lcm of
its denominators, eliminates with row_i <- a row_i - b pivot_row (a and b
divided by their gcd) and divides each changed row by its content, so the
integers stay about the size of the data, the job Bareiss's division by the
previous pivot does (Math. Comp. 22, 1968).  A ``Fraction`` is built only
for the nonzero cells of the rows it returns, each divided by its pivot,
and every zero cell is the one ``ZERO``.  Most cells that come back into a
reduction are zero, so ``_integer_rows`` recognises them by identity and
reads ``numerator`` only off the other Fractions.

A reduction modulo a reduced basis touches only the basis's free (non-pivot)
columns.  Row i is 1 at its pivot and 0 at every other pivot, so v's
coefficient on row i is v[pivot_i]: the residual is zero on every pivot
column and equals v[f] - sum_i v[pivot_i] row_i[f] on a free column f.  The
``reduce_rows_*`` kernels read the coefficients off the pivots and rewrite
only the free cells, against each row's cells there (``CoeffMatrix.tails``).
In a series ideal's window the free columns are gaps of its value set, at
most g(H) of them, and a monomial basis has no row to subtract at all.
``reduce_rows_qq`` takes the cells as they come, ints or Fractions, and
stays off integer rows: a prototype that ran it on integer rows, with the
integer view of each reduced basis cached on the matrix, was slower.

There is one implementation, in pure Python, and no compiled kernel: the
inner loops are slice comprehensions from the pivot column on (in a
reduction, from the first free column right of it).  A compiled
F_p kernel was 9-19x faster in isolation, but Cython cannot be installed
without network access, and C through ctypes or the C API would bring back
a build step for a package that installs and runs as plain Python.  Kernel
time is cut by making fewer and smaller reductions.
"""

import math
from fractions import Fraction

# Recorded on the benchmark environment line, which refuses to compare runs
# of different backends.
BACKEND = "python"

# The rational zero that rref_qq emits and QQ.zero() returns.  Rows fed back
# into a reduction mostly hold this object, and _integer_rows tests it by
# identity; any other zero takes the general path.
ZERO = Fraction(0)


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


def reduce_rows_fp(vecs, free, tails, p):
    """Residuals of the vectors in ``vecs`` modulo a reduced basis, on its free columns.

    ``free`` lists the basis's non-pivot columns in order, and ``tails`` holds
    ``(pivot, s, cells)`` for each basis row that is nonzero on them: ``cells``
    are its entries on ``free[s:]``, the free columns right of its pivot
    (``CoeffMatrix.tails``).  Row i is 1 at its pivot and 0 at every other
    pivot, so v's coefficient on it is v[pivot] and the residual is zero on
    every pivot column.  Returns, per vector, its residual on ``free``; a cell
    that no basis row touches is returned as given.
    """
    out = []
    for v in vecs:
        r = [v[f] for f in free]
        for col, s, tail in tails:
            x = v[col] % p
            if x:
                r[s:] = [(a - x * b) % p for a, b in zip(r[s:], tail)]
        out.append(r)
    return out


def _integer_rows(rows):
    """The rows as lists of ints, each scaled by the lcm of its denominators."""
    m = [[0 if x is ZERO else x if type(x) is int else x.numerator for x in r] for r in rows]
    for k, (row, nums) in enumerate(zip(rows, m)):
        lcm = math.lcm(*[x.denominator for x in row if x is not ZERO and type(x) is not int])
        if lcm > 1:
            m[k] = [n * (lcm // x.denominator) for x, n in zip(row, nums)]
    return m


def rref_qq(rows):
    """Reduced row echelon form over the rationals.

    Entries may be ints or Fractions.  Returns ``(reduced_rows, pivot_cols)``
    like ``rref_fp``, with every cell a Fraction and every zero cell ``ZERO``.
    """
    m = _integer_rows(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        for pivot_row in range(rank, nrows):
            if m[pivot_row][col]:
                break
        else:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        a = m[rank][col]
        tail = m[rank][col:]
        for i, ri in enumerate(m):
            b = ri[col]
            if b and i != rank:
                # row_i <- a row_i - b pivot_row, with a and b divided by their gcd;
                # the pivot row is zero left of col.
                g = math.gcd(a, b)
                ai, bi = a // g, b // g
                ri = [ai * x for x in ri[:col]] + [ai * x - bi * y for x, y in zip(ri[col:], tail)]
                g = math.gcd(*ri)
                m[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    reduced = [[Fraction(x, row[col]) if x else ZERO for x in row] for row, col in zip(m, pivots)]
    return reduced, pivots


def reduce_rows_qq(vecs, free, tails):
    """``reduce_rows_fp`` over the rationals; cells may be ints or Fractions."""
    out = []
    for v in vecs:
        r = [v[f] for f in free]
        for col, s, tail in tails:
            x = v[col]
            if x:
                r[s:] = [a - x * b if b else a for a, b in zip(r[s:], tail)]
        out.append(r)
    return out
