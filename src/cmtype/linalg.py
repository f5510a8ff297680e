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
    that ``QQ.zero()`` also returns.  ``_reduce_rows`` wraps the cells that
    are not yet ``Fraction``s (ints, from callers and from products), and
    ``member`` does the same for the vector it tests;
  * over F_p, cells are ints, canonical or not (``multiply``'s convolution
    emits sums of products).  There is no ``x % p`` pass: the kernels reduce
    every cell they rewrite and zero the cells left of each pivot, so a
    reduced matrix comes out canonical.  ``_reduce_rows`` leaves the cells
    no basis row touches as given, so canonical vectors give canonical
    residuals; ``member`` reduces its vector first.

``reduced=True`` skips the reduction and trusts the caller: the rows must
already be canonical and in reduced row echelon form, with those pivots.
"""

import bisect
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


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: the rationals or F_p with p prime, p < 2**31."""

    kind: str  # "rationals" | "prime_field"
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "rationals":
            if self.characteristic != 0:
                raise ArgumentError("rationals carry no characteristic")
        elif self.kind == "prime_field":
            p = self.characteristic
            if not (2 <= p < _PRIME_LIMIT) or not _is_prime(p):
                raise ArgumentError(f"characteristic must be a prime < 2**31, got {p}")
        else:
            raise ArgumentError(f"unknown field kind {self.kind!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime_field"

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


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime_field", p)


class CoeffMatrix:
    """A row space over a FieldSpec, kept in reduced row echelon form.

    ``rows`` are tuples of field elements, all of length ``ncols``.
    Construct through :func:`reduce_echelon` (or the ``reduced=True``
    fast path when the rows are already reduced).
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field: FieldSpec, ncols: int, rows, pivots=None, reduced=False):
        self.field = field
        self.ncols = ncols
        if not reduced:
            rows, pivots = _rref(field, rows)
        # tuple() of a list, not of a generator: CPython builds the latter at a
        # guessed size and resizes it, so the tuples it frees pile up on the
        # interpreter's per-size free lists until a full garbage collection.
        self.rows = tuple([tuple(r) for r in rows])
        if pivots is None:
            pivots = [next(i for i, x in enumerate(r) if x) for r in self.rows]
        self.pivots = tuple(pivots)
        for r in self.rows:
            if len(r) != ncols:
                raise DimensionError(f"row of length {len(r)} in a {ncols}-column matrix")

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
    """Residuals of ``vecs`` modulo the row span of a reduced basis."""
    if field.is_prime_field:
        return kernels.reduce_rows_fp(vecs, basis.rows, basis.pivots, field.characteristic)
    return kernels.reduce_rows_qq(
        [[x if type(x) is Fraction else Fraction(x) for x in v] for v in vecs],
        basis.rows,
        basis.pivots,
    )


def reduce_echelon(m: CoeffMatrix) -> CoeffMatrix:
    """The unique reduced row echelon form of the row space of ``m``."""
    rows, pivots = _rref(m.field, m.rows)
    return CoeffMatrix(m.field, m.ncols, rows, pivots, reduced=True)


def member(v, basis: CoeffMatrix):
    """Test membership of a vector in a reduced row space.

    Returns ``(True, coords)`` with ``coords[i]`` the coefficient of basis
    row i, or ``(False, None)``.  This is the public single-vector test;
    the series engine tests its vectors in batches through ``_reduce_rows``.
    """
    if len(v) != basis.ncols:
        raise DimensionError(f"vector of length {len(v)} vs {basis.ncols} columns")
    field = basis.field
    coords = []
    if field.is_prime_field:
        p = field.characteristic
        v = [x % p if type(x) is int else field.element(x) for x in v]
        for row, col in zip(basis.rows, basis.pivots):
            f = v[col]
            coords.append(f)
            if f:
                v[col:] = [(a - f * b) % p for a, b in zip(v[col:], row[col:])]
    else:
        v = [x if type(x) is Fraction else Fraction(x) for x in v]
        for row, col in zip(basis.rows, basis.pivots):
            f = v[col]
            coords.append(f)
            if f:
                v[col:] = [a - f * b if b else a for a, b in zip(v[col:], row[col:])]
    if any(v):
        return False, None
    return True, coords


def sum_spaces(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    """Reduced basis of the sum of two row spaces."""
    _check_compatible(a, b)
    return CoeffMatrix(a.field, a.ncols, list(a.rows) + list(b.rows))


def intersect(a: CoeffMatrix, b: CoeffMatrix) -> CoeffMatrix:
    """Reduced basis of the intersection of two row spaces.

    With A the operand of lower rank, x in A lies in B iff its residual
    modulo B, which is zero on B's pivot columns, vanishes.  So reduce
    [residual on B's non-pivot columns | A] for the rows of A: as with
    Zassenhaus's [A | A; B | 0], the rows whose left half vanished have
    right halves that form a reduced basis of the meet, since a reduced
    matrix clears each pivot column in every other row.
    """
    _check_compatible(a, b)
    if a.rank > b.rank:
        a, b = b, a
    field = a.field
    free = sorted(set(range(a.ncols)) - set(b.pivots))
    residuals = _reduce_rows(field, a.rows, b)
    stacked = [[r[j] for j in free] + list(x) for r, x in zip(residuals, a.rows)]
    reduced, pivots = _rref(field, stacked)
    n = len(free)
    k = bisect.bisect_left(pivots, n)
    return CoeffMatrix(
        field, a.ncols, [r[n:] for r in reduced[k:]], [piv - n for piv in pivots[k:]], reduced=True
    )


def nullspace(field: FieldSpec, ncols: int, rows) -> CoeffMatrix:
    """Reduced basis of {x : r x = 0 for every r in ``rows``}, in one reduction.

    ``rows`` is any spanning set of ``ncols``-cell rows.  Reduced with their
    columns reversed, each pivot row leads at its last nonzero column, so the
    solution for a free column f is 1 at f and nonzero elsewhere only at
    pivot columns right of f: the solutions come out reduced, with the free
    columns as pivots.
    """
    if any(len(r) != ncols for r in rows):
        raise DimensionError(f"a row's length differs from the {ncols} columns")
    reduced, pivots = _rref(field, [r[::-1] for r in rows])
    free = sorted(set(range(ncols)) - {ncols - 1 - piv for piv in pivots})
    zero, one, p = field.zero(), field.one(), field.characteristic
    basis = []
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for row, piv in zip(reduced, pivots):
            x = row[ncols - 1 - f]
            if x:
                v[ncols - 1 - piv] = (-x) % p if p else -x
        basis.append(v)
    return CoeffMatrix(field, ncols, basis, free, reduced=True)


def _check_compatible(a: CoeffMatrix, b: CoeffMatrix):
    if a.field != b.field:
        raise DimensionError(f"field mismatch: {a.field} vs {b.field}")
    if a.ncols != b.ncols:
        raise DimensionError(f"column mismatch: {a.ncols} vs {b.ncols}")
