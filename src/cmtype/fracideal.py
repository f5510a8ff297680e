"""Fractional ideals as row-reduced coefficient subspaces: the general engine.

An ideal I of R = k[[t^H]] with minimal order delta satisfies
t^(delta+c) k[[t]] <= I, where c is the conductor of H: any x in I of
order delta gives x * t^c k[[t]] = t^(delta+c) k[[t]] inside I.  So I is
determined by its image in t^delta k[[t]] / t^gamma k[[t]] with
gamma = delta + c, stored as a reduced CoeffMatrix on the exponent window
[delta, gamma).

That window is the only one an ideal has.  ``FractionalIdeal.__init__``
derives gamma from delta and c, and raises ConsistencyError if the matrix
width is not c or a stored generator is known only below gamma.  So equal
ideals have equal (delta, rows).  A binary operation moves one operand,
with ``_reframe``, onto a c-wide window that already exists (the other
operand's, or the product's) and reduces against that window's own matrix.

Because the tail t^gamma k[[t]] lies inside I, every truncated basis row,
read as a Laurent polynomial, is itself a genuine element of I.  That
keeps all arithmetic exact: products and colon solves work on polynomial
representatives and re-window the result, and widening a window is always
legal (pad rows with zeros, adjoin unit tail rows).
"""

import bisect
import functools

from . import linalg, relideal
from .errors import (
    ArgumentError,
    ConsistencyError,
    ContainmentError,
)
from .linalg import CoeffMatrix, FieldSpec
from .relideal import RelativeIdeal
from .semigroup import NumericalSemigroup
from .series import EXACT, TruncatedSeries


class FractionalIdeal:
    __slots__ = (
        "semigroup", "field", "delta", "gamma", "matrix", "generators", "_modgens", "_mI", "_mu",
    )

    engine = "series"

    def __init__(self, semigroup, field, delta, matrix, generators=None):
        c = semigroup.conductor
        gamma = delta + c
        if matrix.ncols != c:
            raise ConsistencyError(
                f"matrix width {matrix.ncols} is not the conductor {c} of {semigroup}"
            )
        generators = tuple(generators) if generators else None
        for g in generators or ():
            if g.precision < gamma:
                raise ConsistencyError(
                    f"generator {g} + O(t^{g.precision}) is known only below "
                    f"t^{g.precision}; window [{delta}, {gamma}) needs precision {gamma}"
                )
        self.semigroup = semigroup
        self.field = field
        self.delta = delta
        self.gamma = gamma
        self.matrix = matrix
        self.generators = generators
        self._modgens = None
        self._mI = None
        self._mu = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, semigroup, field, gens):
        """Ideal generated over R by Laurent series.

        Rows t^h * g for h in H span the ideal modulo t^gamma; the
        R-stability of the span is verified, not trusted.
        """
        gens = [g for g in gens if g.order is not None]
        if not gens:
            raise ArgumentError("need at least one nonzero generator")
        for g in gens:
            if g.field != field:
                raise ArgumentError(f"generator field {g.field} != ideal field {field}")
        c = semigroup.conductor
        delta = min(g.order for g in gens)
        rows = []
        for g in gens:
            g.window_vector(delta, c)  # raises the precision-naming error
            for h in semigroup.members(0, delta + c - g.order):
                rows.append(g.window_vector(delta - h, c))
        ideal = cls(semigroup, field, delta, CoeffMatrix(field, c, rows), generators=gens)
        ideal.validate()
        return ideal

    @classmethod
    def from_relative(cls, ideal: RelativeIdeal, field: FieldSpec):
        """The monomial fractional ideal with the given exponent set."""
        H = ideal.semigroup
        c = H.conductor
        mask = ideal.members_mask(ideal.delta, c)
        positions = [i for i in range(c) if mask >> i & 1]
        one, zero = field.one(), field.zero()
        rows = []
        for i in positions:
            row = [zero] * c
            row[i] = one
            rows.append(row)
        matrix = CoeffMatrix(field, c, rows, positions)
        gens = [TruncatedSeries.monomial(field, g) for g in ideal.minimal_generators()]
        return cls(H, field, ideal.delta, matrix, generators=gens)

    @classmethod
    def _build(cls, semigroup, start, matrix):
        """The ideal whose span on [start, start + matrix.ncols) is ``matrix``.

        Caller guarantees: ``matrix`` is reduced, and its span plus
        t^end k[[t]], end = start + matrix.ncols, is the ideal modulo
        t^end, with t^end k[[t]] contained in the ideal.
        """
        delta = start + matrix.pivots[0] if matrix.rows else start + matrix.ncols
        out = _reframe(matrix, delta - start, semigroup.conductor)
        if out.rows and out.pivots[0] != 0:
            raise ConsistencyError("window minimum drifted during normalization")
        return cls(semigroup, matrix.field, delta, out)

    def validate(self):
        """Runtime checks of the representation invariants (loud on failure)."""
        if self.matrix.rows:
            if self.matrix.pivots[0] != 0:
                raise ConsistencyError("lowest basis order differs from delta")
        elif self.gamma > self.delta:
            raise ConsistencyError("empty basis on a nonempty window")
        for a in self.semigroup.generators:
            shifted = _reframe(self.matrix, -a, self.semigroup.conductor).rows
            if any(map(any, linalg._reduce_rows(self.field, shifted, self.matrix))):
                raise ConsistencyError(f"span is not stable under multiplication by t^{a}")

    # -- views --------------------------------------------------------------

    def _as_series(self, row):
        """A basis row as an exact Laurent polynomial (a genuine ideal element)."""
        return TruncatedSeries.from_window(self.field, self.delta, row, precision=EXACT)

    def support_ideal(self) -> RelativeIdeal:
        """The value set v(I) = {orders of elements} as a relative ideal."""
        mask = 0
        for p in self.matrix.pivots:
            mask |= 1 << p
        return RelativeIdeal(self.semigroup, self.delta, mask)

    def is_monomial(self) -> bool:
        return all(sum(1 for x in row if x) == 1 for row in self.matrix.rows)

    def describe(self) -> str:
        gens = self.generators or self.module_generators()
        body = ", ".join(str(g) for g in gens)
        return f"({body}) over {self.semigroup} [{self.field}]"

    def __repr__(self):
        return f"FractionalIdeal({self.describe()})"

    def _check_same(self, other):
        if not isinstance(other, FractionalIdeal):
            raise ArgumentError("expected a series-engine ideal")
        if self.semigroup != other.semigroup:
            raise ArgumentError(f"semigroup mismatch: {self.semigroup} vs {other.semigroup}")
        if self.field != other.field:
            raise ArgumentError(f"field mismatch: {self.field} vs {other.field}")

    # -- module structure ----------------------------------------------------

    def module_generators(self):
        """A minimal system of R-module generators, as exact polynomials.

        Basis row i is picked iff it is not in m I plus the rows picked
        before it, that is, iff its residual modulo m I is not in the span
        of the earlier rows' residuals: iff column i is a pivot column of
        the matrix whose columns are the residuals.  For c >= 1, m I holds
        t^gamma k[[t]]: for x >= gamma, t^(x - delta) is in m, so m I has an
        element of order x.  So m I is moved onto I's window.
        """
        if self._modgens is not None:
            return self._modgens
        if self.semigroup.conductor == 0:
            self._modgens = [TruncatedSeries.monomial(self.field, self.delta)]
            return self._modgens
        mI = self.maximal_product()
        span = _reframe(mI.matrix, self.delta - mI.delta, self.semigroup.conductor)
        residuals = linalg._reduce_rows(self.field, self.matrix.rows, span)
        columns = CoeffMatrix(self.field, self.matrix.rank, list(zip(*residuals)))
        picked = [self._as_series(self.matrix.rows[i]) for i in columns.pivots]
        if len(picked) != self.mu():
            raise ConsistencyError("generator extraction disagrees with mu")
        self._modgens = picked
        return picked

    def mu(self) -> int:
        if self._mu is None:
            self._mu = self.quotient_length(self.maximal_product())
        return self._mu

    def maximal_product(self):
        """m I, built once and shared by mu, module_generators and typecalc."""
        if self._mI is None:
            self._mI = _maximal(self.semigroup, self.field).multiply(self)
        return self._mI

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, other):
        """I + J: the rows of the span of lower rank added to the other, on the
        window from min(delta_I, delta_J), in one ``linalg.sum_spaces`` call.
        """
        self._check_same(other)
        start = min(self.delta, other.delta)
        c = self.semigroup.conductor
        a, b = (_reframe(ideal.matrix, start - ideal.delta, c) for ideal in (self, other))
        if a.rank < b.rank:
            a, b = b, a
        return FractionalIdeal._build(self.semigroup, start, linalg.sum_spaces(a, b.rows))

    def multiply(self, other):
        """Ideal product, spanned by (module generators) x (basis rows).

        Each generator g gives a block of rows on the window
        [delta_I + delta_J, delta_I + gamma_J).  A g with one term c t^u
        there spans what t^u J does: J's reduced rows shifted u - delta_I
        places, already reduced, with no arithmetic.  Any other g is
        convolved with each basis row b.  The constructor's precision bound,
        g.precision >= gamma_I, makes every cell exact: TruncatedSeries.mul
        knows g b below g.precision + order(b) >= gamma_I + delta_J.

        g b leads at window cell (ord g - delta_I) + pivot(b) with a nonzero
        product, so the rows b whose cell lies past the window, a suffix of
        J's rows, are exactly those with g b = 0 there; they are skipped.

        The lowest shifted block, or failing one the first block reduced, is
        the basis that ``linalg.sum_spaces`` adds every other row to, so only
        their residuals on its free columns are row-reduced.
        """
        self._check_same(other)
        gens = self.generators or self.module_generators()
        dmin = min(g.order for g in gens)
        if dmin != self.delta:
            raise ConsistencyError("stored generators miss the minimal order")
        start = self.delta + other.delta
        width = self.semigroup.conductor
        J = other.matrix
        shifts, blocks = set(), []
        for g in gens:
            # term t^e of g moves a basis row e - delta_I places into the window
            terms = [(e - self.delta, v) for e, v in g.coeffs.items() if e - self.delta < width]
            if len(terms) == 1:
                shifts.add(terms[0][0])
                continue
            cut = bisect.bisect_left(J.pivots, width - (g.order - self.delta))
            block = []
            for b in J.rows[:cut]:
                row = [0] * width
                for d, v in terms:
                    row[d:] = [x + v * y if y else x for x, y in zip(row[d:], b)]
                block.append(row)
            blocks.append(block)
        if shifts:
            first, *rest = sorted(shifts)
            basis = _reframe(J, -first, width)
            blocks += [_reframe(J, -d, width).rows for d in rest]
        else:
            basis = CoeffMatrix(self.field, width, blocks.pop(0))
        matrix = linalg.sum_spaces(basis, [row for block in blocks for row in block])
        result = FractionalIdeal._build(self.semigroup, start, matrix)
        if result.delta != self.delta + other.delta:
            raise ConsistencyError("product order differs from the sum of orders")
        return result

    def colon(self, other):
        """I : J = {x : xJ <= I}, solved as one nullspace problem in one reduction.

        Solutions live in [delta_I - delta_J, gamma_I - delta_J); the tail
        t^(gamma_I - delta_J) k[[t]] multiplies J into t^(gamma_I) k[[t]],
        hence into I.  x J <= I reduces to x g in I for the module
        generators g of J, and each such condition is linear in the window
        coefficients of x.
        """
        self._check_same(other)
        c = self.semigroup.conductor
        start = self.delta - other.delta
        end = start + c
        # Window cell i of t^u g is g's coefficient at delta_I + i - u: all
        # shifts are slices of one coefficient list of g starting at lo.
        lo = self.delta - (end - 1)
        constraint_rows = []
        for g in other.module_generators():
            padded = g.window_vector(lo, self.gamma - start - lo)
            vecs = [padded[end - 1 - u:end - 1 - u + c] for u in range(start, end)]
            residuals = linalg._reduce_rows(self.field, vecs, self.matrix)
            constraint_rows += [row for row in zip(*residuals) if any(row)]
        solutions = linalg.nullspace(self.field, c, constraint_rows)
        return FractionalIdeal._build(self.semigroup, start, solutions)

    def intersect(self, other):
        """I cap J on the window of the operand with the larger delta, where
        the meet lies and past which both ideals hold the tail."""
        self._check_same(other)
        base, moved = (self, other) if self.delta >= other.delta else (other, self)
        theirs = _reframe(moved.matrix, base.delta - moved.delta, self.semigroup.conductor)
        meet = linalg.intersect(base.matrix, theirs)
        return FractionalIdeal._build(self.semigroup, base.delta, meet)

    def shift(self, s: int):
        """Multiplication by t^s."""
        gens = [g.shift(s) for g in self.generators] if self.generators else None
        return FractionalIdeal(self.semigroup, self.field, self.delta + s, self.matrix, gens)

    def contains_ideal(self, sub) -> bool:
        return self._contains(sub)

    def quotient_length(self, sub) -> int:
        """dim_k(I/J) for J <= I, off the ranks: I holds the tail from gamma_I
        and J from gamma_J, so l(I/J) = rank_I + (gamma_J - gamma_I) - rank_J."""
        if not self._contains(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        return self.matrix.rank + sub.gamma - self.gamma - sub.matrix.rank

    def _contains(self, sub) -> bool:
        """J <= I, for delta_J >= delta_I, iff J's rows cut to I's window lie
        in I's span: their cells past it form an element of I's tail."""
        self._check_same(sub)
        if sub.delta < self.delta:
            return False
        theirs = _reframe(sub.matrix, self.delta - sub.delta, self.semigroup.conductor)
        # v(J) <= v(I) is necessary for J <= I; on the window the values are the pivots
        if not set(theirs.pivots).issubset(self.matrix.pivots):
            return False
        return not any(map(any, linalg._reduce_rows(self.field, theirs.rows, self.matrix)))

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        return (
            self.semigroup == other.semigroup
            and self.field == other.field
            and self.delta == other.delta
            and self.matrix.rows == other.matrix.rows
        )

    def __hash__(self):
        # equal ideals have equal rows, hence equal pivots (their value set)
        return hash((self.semigroup, self.field, self.delta, self.matrix.pivots))

    # -- companions ----------------------------------------------------------

    def unit_ideal(self):
        return _unit(self.semigroup, self.field)

    def canonical_ideal(self):
        return _canonical_ideal(self.semigroup, self.field)

    def maximal_ideal(self):
        return _maximal(self.semigroup, self.field)

    def find_reduction(self):
        """(x) for an x in I of order delta if I^2 = xI, else None.

        Whether I^2 = xI does not depend on the choice of x (the value
        argument of typecalc.is_ulrich_module_wrt), so it is read off the
        values: v(I^2) = delta + v(I).
        """
        if self.multiply(self).support_ideal() != self.support_ideal().shift(self.delta):
            return None
        x = self.module_generators()[0]  # the lowest basis row, of order delta
        return FractionalIdeal.from_generators(self.semigroup, self.field, [x])


def _reframe(matrix, shift, width):
    """A reduced windowed span moved to a window ``width`` columns wide.

    New column j is old column j + shift.  The span plus the tail past the
    old window is cut to the vectors that vanish before the new start, and
    truncated at the new end.  So a shift < 0 pads on the left, a shift > 0
    keeps only the rows whose pivot is at or past it (in reduced echelon
    form they span the vectors that vanish before it), a cut on the right
    drops the rows whose pivot falls past it, and the columns past the old
    window's end get unit rows.  Nothing is reduced again: the kept rows
    keep their pivots, and the unit rows sit on columns where every kept
    row is zero.
    """
    if shift == 0 and width == matrix.ncols:
        return matrix  # the same window: the matrix itself
    zero, one = matrix.field.zero(), matrix.field.one()
    lo, hi = max(shift, 0), shift + width  # the new window, in old columns
    first = bisect.bisect_left(matrix.pivots, lo)
    keep = bisect.bisect_left(matrix.pivots, hi)
    lead, pad = (zero,) * -shift, (zero,) * (hi - max(matrix.ncols, lo))
    rows = [lead + r[lo:hi] + pad for r in matrix.rows[first:keep]]
    pivots = [piv - shift for piv in matrix.pivots[first:keep]]
    for u in range(max(matrix.ncols - shift, 0), width):
        rows.append((zero,) * u + (one,) + (zero,) * (width - u - 1))
        pivots.append(u)
    return CoeffMatrix(matrix.field, width, rows, pivots)


@functools.cache
def _unit(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._unit(H), field)


@functools.cache
def _canonical_ideal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._canonical(H), field)


@functools.cache
def _maximal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._maximal(H), field)
