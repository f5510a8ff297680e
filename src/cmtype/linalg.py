"""Exact linear algebra over Q and over prime fields F_p.

Everything is a row space: a CoeffMatrix holds coefficient vectors whose
column 0 corresponds to a designated base exponent fixed by the caller
(the ideal machinery aligns matrices from different ideals by shifting).
All matrices produced by this module are in reduced row echelon form:
nonzero rows only, strictly increasing pivot columns, pivots equal to 1
and cleared elsewhere, so equality of row spaces is equality of rows.

No floating point is used anywhere: rationals are fractions.Fraction,
prime field elements are ints in [0, p).  Every row a CoeffMatrix holds is
canonical in that sense, and each cell is coerced at most once, where it
enters a row reduction:

  * over QQ, ``_rref`` passes its rows on as they are: ``kernels.rref_qq``
    accepts ints and ``Fraction``s alike, eliminates on integer rows and
    emits ``Fraction``s, with every zero cell the one ``kernels.ZERO``
    that ``QQ.zero()`` also returns.  ``_reduce_rows`` passes its vectors on
    as they are too: its int cells only ever flow into ``_rref`` or into a
    truth test, and both accept ints.  ``member`` makes the vector it tests
    ``Fraction``s, so the coordinates it returns are ``Fraction``s;
  * over F_p, cells are ints, canonical or not (``multiply``'s convolution
    emits sums of products).  There is no ``x % p`` pass: the kernels reduce
    every cell they rewrite and zero the cells left of each pivot, so a
    reduced matrix comes out canonical.  ``_reduce_rows`` leaves the cells
    no basis row touches as given, so canonical vectors give canonical
    residuals; ``member`` reduces its vector first, and ``sum_spaces`` its
    residuals, which are only as wide as the basis's free columns.

``_reduce_rows`` returns each residual on the basis's free (non-pivot)
columns only, in column order: modulo a reduced basis the residual is zero
on every pivot column (see ``kernels``).  ``sum_spaces`` builds on it to
add rows to a reduced basis A: it row-reduces only the nonzero residuals,
on A's free columns, then clears A's rows on the new pivots, again on the
free columns alone, and merges the two sets of rows by pivot.  The result
is the reduced row echelon form of the whole stack, which is unique, so
it equals a full-width reduction of the stack row for row.  It is the one
way the series engine adds row spaces (ideal sums and products).

A CoeffMatrix given its ``pivots`` trusts the caller and skips the reduction:
the rows must already be canonical and reduced, with those pivots.
"""

import bisect
import functools
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .errors import ArgumentError, DimensionError

# Python ints do not overflow; the bound keeps trial division to <= 23,170 odd steps.
_PRIME_LIMIT = 1 << 31


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


_NOT_PRIME = "characteristic must be a prime < 2**31, got {}"


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field, named by its characteristic: 0 is the rationals,
    a prime p < 2**31 is F_p.  Any other characteristic is refused."""

    characteristic: int

    def __post_init__(self):
        p = self.characteristic
        if p and not (p < _PRIME_LIMIT and _is_prime(p)):
            raise ArgumentError(_NOT_PRIME.format(p))

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic != 0

    def zero(self):
        return 0 if self.is_prime_field else kernels.ZERO

    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def element(self, x):
        """Coerce an int or Fraction into the field."""
        if self.is_prime_field:
            p = self.characteristic
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ArgumentError(f"{x} has no image in F_{p}")
                return x.numerator * pow(x.denominator, p - 2, p) % p
            return x % p
        return Fraction(x)

    def __str__(self):
        return "QQ" if not self.is_prime_field else f"F_{self.characteristic}"


QQ = FieldSpec(0)


@functools.cache
def GF(p: int) -> FieldSpec:
    """F_p, built once per prime: the primality test runs on the first call.
    p = 0 is refused here, as ``FieldSpec(0)`` is QQ."""
    if not p:
        raise ArgumentError(_NOT_PRIME.format(p))
    return FieldSpec(p)


class CoeffMatrix:
    """A row space over a FieldSpec, kept in reduced row echelon form.

    ``rows`` are tuples of field elements, all of length ``ncols``, reduced
    on construction unless their ``pivots`` are given.  ``tails()`` is the
    view that reductions modulo the matrix read, computed on first use and kept.
    """

    __slots__ = ("field", "ncols", "rows", "pivots", "_tails")

    def __init__(self, field: FieldSpec, ncols: int, rows, pivots=None):
        self.field = field
        self.ncols = ncols
        if pivots is None:
            rows, pivots = _rref(field, rows)
        # tuple() of a list, not of a generator: CPython builds the latter at a
        # guessed size and resizes it, so the tuples it frees pile up on the
        # interpreter's per-size free lists until a full garbage collection.
        self.rows = tuple([tuple(r) for r in rows])
        self.pivots = tuple(pivots)
        for r in self.rows:
            if len(r) != ncols:
                raise DimensionError(f"row of length {len(r)} in a {ncols}-column matrix")
        self._tails = None

    def tails(self):
        """``(free, tails)``: the view of the matrix on its free columns.

        ``free`` lists the non-pivot columns in order.  ``tails`` holds
        ``(pivot, s, cells)`` for each row, in row order, with ``cells`` its
        entries on ``free[s:]``, the free columns right of its pivot; rows
        that are zero there are left out, so a span of unit vectors has no
        tails.  Computed once per matrix.
        """
        if self._tails is None:
            pivots = set(self.pivots)
            free = [j for j in range(self.ncols) if j not in pivots]
            tails = []
            for row, piv in zip(self.rows, self.pivots):
                s = bisect.bisect_left(free, piv)
                cells = [row[f] for f in free[s:]]
                if any(cells):
                    tails.append((piv, s, cells))
            self._tails = free, tails
        return self._tails

    @property
    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, CoeffMatrix)
            and self.field == other.field
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        return f"CoeffMatrix({self.field}, {self.ncols} cols, rank {self.rank})"


def _rref(field: FieldSpec, rows):
    if field.is_prime_field:
        return kernels.rref_fp(rows, field.characteristic)
    return kernels.rref_qq(rows)


def _reduce_rows(field: FieldSpec, vecs, basis: CoeffMatrix):
    """Residuals of ``vecs`` modulo the row span of a reduced basis.

    Each residual is a list of its cells on the basis's free columns, in
    column order; it is zero on the pivot columns.
    """
    free, tails = basis.tails()
    if field.is_prime_field:
        return kernels.reduce_rows_fp(vecs, free, tails, field.characteristic)
    return kernels.reduce_rows_qq(vecs, free, tails)


def reduce_echelon(m: CoeffMatrix) -> CoeffMatrix:
    """The unique reduced row echelon form of the row space of ``m``."""
    rows, pivots = _rref(m.field, m.rows)
    return CoeffMatrix(m.field, m.ncols, rows, pivots)


def member(v, basis: CoeffMatrix):
    """Test membership of a vector in a reduced row space.

    Returns ``(True, coords)`` with ``coords[i]`` the coefficient of basis
    row i, or ``(False, None)``.  This is the public single-vector test;
    the series engine tests its vectors in batches through ``_reduce_rows``.
    """
    if len(v) != basis.ncols:
        raise DimensionError(f"vector of length {len(v)} vs {basis.ncols} columns")
    field = basis.field
    if field.is_prime_field:
        p = field.characteristic
        v = [x % p if type(x) is int else field.element(x) for x in v]
    else:
        v = [x if type(x) is Fraction else Fraction(x) for x in v]
    if any(_reduce_rows(field, [v], basis)[0]):
        return False, None
    return True, [v[col] for col in basis.pivots]


def sum_spaces(a: CoeffMatrix, rows) -> CoeffMatrix:
    """Reduced basis of the span of a reduced basis ``a`` and ``rows``.

    Only the residuals of ``rows`` modulo ``a`` are row-reduced, on a's free
    columns F (``_reduce_rows``), zero residuals left out; each new row is
    its reduced residual, 0 on a's pivots, with pivot q in F.  Then a's rows
    are cleared on the new pivots, on F alone: a row's cells on F are
    reduced modulo the new rows, and its pivot cells stay as they are, since
    the new rows are 0 there.  The two sets of rows, merged by pivot, are 1
    on their own pivot and 0 on every other, so they are the reduced row
    echelon form of the stack, which is unique.  When every residual
    vanishes, ``a`` itself is returned.
    """
    field, ncols = a.field, a.ncols
    if any(len(r) != ncols for r in rows):
        raise DimensionError(f"a row's length differs from the {ncols} columns")
    residuals = _reduce_rows(field, rows, a)
    if field.is_prime_field:
        # rows may hold raw sums of products, which a cell no basis row
        # touches keeps
        p = field.characteristic
        residuals = [[x % p for x in r] for r in residuals]
    residuals = [r for r in residuals if any(r)]
    if not residuals:
        return a
    free, tails = a.tails()
    new = CoeffMatrix(field, len(free), residuals)  # on F: column k is free[k]
    zero = field.zero()
    out = dict(zip(a.pivots, a.rows))
    on_free = [(piv, [zero] * s + cells) for piv, s, cells in tails]
    hit = [(piv, v) for piv, v in on_free if any(v[q] for q in new.pivots)]
    kept, _ = new.tails()
    for (piv, _), cells in zip(hit, _reduce_rows(field, [v for _, v in hit], new)):
        row = list(out[piv])
        for q in new.pivots:
            row[free[q]] = zero
        for k, x in zip(kept, cells):
            row[free[k]] = x or zero
        out[piv] = tuple(row)
    for cells, q in zip(new.rows, new.pivots):
        row = [zero] * ncols
        for f, x in zip(free, cells):
            row[f] = x
        out[free[q]] = tuple(row)
    pivots = sorted(out)
    return CoeffMatrix(field, ncols, [out[piv] for piv in pivots], pivots)


def intersect(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    """Reduced basis of the intersection of two row spaces.

    With A the operand of lower rank, x in A lies in B iff its residual
    modulo B vanishes.  ``_reduce_rows`` gives that residual on B's n free
    columns, so reduce [residual | A] for the rows of A: as with
    Zassenhaus's [A | A; B | 0], the rows whose left n cells vanished have
    right halves that form a reduced basis of the meet, since a reduced
    matrix clears each pivot column in every other row.
    """
    _check_compatible(a, b)
    if a.rank > b.rank:
        a, b = b, a
    field = a.field
    residuals = _reduce_rows(field, a.rows, b)
    stacked = [r + list(x) for r, x in zip(residuals, a.rows)]
    reduced, pivots = _rref(field, stacked)
    n = b.ncols - b.rank
    k = bisect.bisect_left(pivots, n)
    return CoeffMatrix(
        field, a.ncols, [r[n:] for r in reduced[k:]], [piv - n for piv in pivots[k:]]
    )


def nullspace(field: FieldSpec, ncols: int, rows) -> CoeffMatrix:
    """Reduced basis of {x : r x = 0 for every r in ``rows``}, in one reduction.

    ``rows`` is any spanning set of ``ncols``-cell rows.  Reduced with their
    columns reversed, they give a reduced basis A with r x = 0 for every r
    iff A's rows vanish on x reversed, so the solutions are
    ``reversed_kernel(A)``, with no second reduction.
    """
    if any(len(r) != ncols for r in rows):
        raise DimensionError(f"a row's length differs from the {ncols} columns")
    reduced, pivots = _rref(field, [r[::-1] for r in rows])
    return reversed_kernel(CoeffMatrix(field, ncols, reduced, pivots))


def reversed_kernel(a: CoeffMatrix) -> CoeffMatrix:
    """Reduced basis of {x : a y = 0 for y = x reversed}, read off a reduced
    ``a`` with no reduction.

    With n = a.ncols, the solution y for a free column f is 1 at f and
    -a[i][f] at each pivot P_i < f, so x is 1 at n - 1 - f and -a[i][f]
    at n - 1 - P_i, right of it, and no other solution touches
    n - 1 - f.  So the x, free columns descending, are reduced, with pivots
    n - 1 - f; their cells are those of ``a.tails()``.
    """
    field, n = a.field, a.ncols
    zero, one, p = field.zero(), field.one(), field.characteristic
    free, tails = a.tails()
    rows = {}
    for f in free:
        rows[f] = row = [zero] * n
        row[n - 1 - f] = one
    for piv, s, cells in tails:
        for f, x in zip(free[s:], cells):
            if x:
                rows[f][n - 1 - piv] = (-x) % p if p else -x
    order = free[::-1]
    return CoeffMatrix(field, n, [rows[f] for f in order], [n - 1 - f for f in order])


def _check_compatible(a: CoeffMatrix, b: CoeffMatrix):
    if a.field != b.field:
        raise DimensionError(f"field mismatch: {a.field} vs {b.field}")
    if a.ncols != b.ncols:
        raise DimensionError(f"column mismatch: {a.ncols} vs {b.ncols}")
