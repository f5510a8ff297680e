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
ideals have equal (delta, rows), and an operation that needs another
window (a product, a colon solve, the common window of two ideals) moves
rows there and back with ``_reframe``.

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
        zero = field.zero()
        rows = []
        for g in gens:
            vec = g.window_vector(delta, c)  # raises the precision-naming error
            for h in semigroup.members(0, delta + c - g.order):
                rows.append(_shifted(vec, h, zero))
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
        matrix = CoeffMatrix(field, c, rows, pivots=positions, reduced=True)
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
        zero = self.field.zero()
        for r in self.matrix.rows:
            for a in self.semigroup.generators:
                ok, _ = linalg.member(_shifted(r, a, zero), self.matrix)
                if not ok:
                    raise ConsistencyError(
                        f"span is not stable under multiplication by t^{a}"
                    )

    # -- views --------------------------------------------------------------

    def _as_series(self, row):
        """A basis row as an exact Laurent polynomial (a genuine ideal element)."""
        return TruncatedSeries.from_window(self.field, self.delta, row, precision=EXACT)

    def support_ideal(self) -> RelativeIdeal:
        """The value set v(I) = {orders of elements} as a relative ideal."""
        mask = 0
        for p in self.matrix.pivots:
            mask |= 1 << p
        if self.semigroup.conductor == 0:
            mask = 0
        return RelativeIdeal(self.semigroup, self.delta, mask)

    def is_monomial(self) -> bool:
        return all(sum(1 for x in row if x) == 1 for row in self.matrix.rows)

    def describe(self) -> str:
        gens = self.generators or self.module_generators()
        body = ", ".join(str(g) for g in gens)
        return f"({body}) over {self.semigroup} [{self.field}]"

    def __repr__(self):
        return f"FractionalIdeal({self.describe()})"

    # -- alignment helpers ---------------------------------------------------

    def _align(self, other):
        """Both ideals on the common window [min delta, max gamma)."""
        start = min(self.delta, other.delta)
        width = max(self.gamma, other.gamma) - start
        return (
            start,
            _reframe(self.matrix, start - self.delta, width),
            _reframe(other.matrix, start - other.delta, width),
        )

    def _check_same(self, other):
        if not isinstance(other, FractionalIdeal):
            raise ArgumentError("expected a series-engine ideal")
        if self.semigroup != other.semigroup:
            raise ArgumentError(f"semigroup mismatch: {self.semigroup} vs {other.semigroup}")
        if self.field != other.field:
            raise ArgumentError(f"field mismatch: {self.field} vs {other.field}")

    # -- module structure ----------------------------------------------------

    def module_generators(self):
        """A minimal system of R-module generators, as exact polynomials."""
        if self._modgens is not None:
            return self._modgens
        if self.semigroup.conductor == 0:
            self._modgens = [TruncatedSeries.monomial(self.field, self.delta)]
            return self._modgens
        _, mine, span = self._align(self._maximal_product())
        picked = []
        for row, wide in zip(self.matrix.rows, mine.rows):
            ok, _ = linalg.member(wide, span)
            if not ok:
                picked.append(self._as_series(row))
                span = linalg.sum_spaces(span, CoeffMatrix(self.field, mine.ncols, [wide]))
        if len(picked) != self.mu():
            raise ConsistencyError("generator extraction disagrees with mu")
        self._modgens = picked
        return picked

    def mu(self) -> int:
        if self._mu is None:
            if self.semigroup.conductor == 0:
                self._mu = 1
            else:
                self._mu = self.quotient_length(self._maximal_product())
        return self._mu

    def _maximal_product(self):
        """m I, built once and shared by mu and module_generators."""
        if self._mI is None:
            self._mI = _maximal(self.semigroup, self.field).multiply(self)
        return self._mI

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, other):
        self._check_same(other)
        start = min(self.delta, other.delta)
        c = self.semigroup.conductor
        rows = [
            row
            for ideal in (self, other)
            for row in _reframe(ideal.matrix, start - ideal.delta, c).rows
        ]
        return FractionalIdeal._build(self.semigroup, start, CoeffMatrix(self.field, c, rows))

    def multiply(self, other):
        """Ideal product, spanned by (module generators) x (basis rows).

        Each product row is a convolution of the generator's coefficients
        with a basis row b on the window [delta_I + delta_J, delta_I + gamma_J).
        The constructor's precision bound, g.precision >= gamma_I, makes
        every cell exact: TruncatedSeries.mul knows g b below
        g.precision + order(b) >= gamma_I + delta_J.
        """
        self._check_same(other)
        gens = self.generators or self.module_generators()
        dmin = min(g.order for g in gens)
        if dmin != self.delta:
            raise ConsistencyError("stored generators miss the minimal order")
        start = self.delta + other.delta
        width = self.semigroup.conductor
        rows = []
        for g in gens:
            # term t^e of g moves a basis row e - delta_I places into the window
            terms = [(e - self.delta, v) for e, v in g.coeffs.items() if e - self.delta < width]
            for b in other.matrix.rows:
                row = [0] * width
                for d, v in terms:
                    row[d:] = [x + v * y if y else x for x, y in zip(row[d:], b)]
                rows.append(row)
        result = FractionalIdeal._build(
            self.semigroup, start, CoeffMatrix(self.field, width, rows)
        )
        if result.delta != self.delta + other.delta:
            raise ConsistencyError("product order differs from the sum of orders")
        return result

    def colon(self, other):
        """I : J = {x : xJ <= I}, solved as one nullspace problem.

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
        constraint = CoeffMatrix(self.field, c, constraint_rows)
        return FractionalIdeal._build(self.semigroup, start, linalg.nullspace(constraint))

    def intersect(self, other):
        self._check_same(other)
        start, a, b = self._align(other)
        return FractionalIdeal._build(self.semigroup, start, linalg.intersect(a, b))

    def shift(self, s: int):
        """Multiplication by t^s."""
        gens = [g.shift(s) for g in self.generators] if self.generators else None
        return FractionalIdeal(self.semigroup, self.field, self.delta + s, self.matrix, gens)

    def contains_ideal(self, sub) -> bool:
        return self._aligned_if_contains(sub) is not None

    def quotient_length(self, sub) -> int:
        """dim_k(I/J) for J <= I; both contain the common window tail."""
        aligned = self._aligned_if_contains(sub)
        if aligned is None:
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        mine, theirs = aligned
        return mine.rank - theirs.rank

    def _aligned_if_contains(self, sub):
        """Both ideals on one common window if sub <= self, else None."""
        self._check_same(sub)
        if sub.delta < self.delta:
            return None
        _, mine, theirs = self._align(sub)
        for row in theirs.rows:
            ok, _ = linalg.member(row, mine)
            if not ok:
                return None
        return mine, theirs

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
        return hash((self.semigroup, self.field, self.delta, self.matrix.rows))

    # -- companions ----------------------------------------------------------

    def unit_ideal(self):
        return _unit(self.semigroup, self.field)

    def canonical_ideal(self):
        return _canonical_ideal(self.semigroup, self.field)

    def maximal_ideal(self):
        return _maximal(self.semigroup, self.field)

    def find_reduction(self, squared=None):
        """A principal (x) <= I with I^2 = xI, if the search finds one.

        Candidates for x: the stored generators of order delta, then the
        lowest basis row.  Absence of a reduction among these is reported
        as None.  ``squared`` is I I when the caller has already computed it.
        """
        candidates = []
        if self.generators:
            candidates += [g for g in self.generators if g.order == self.delta]
        if self.matrix.rows and self.matrix.pivots[0] == 0:
            candidates.append(self._as_series(self.matrix.rows[0]))
        if self.semigroup.conductor == 0:
            candidates.append(TruncatedSeries.monomial(self.field, self.delta))
        if squared is None:
            squared = self.multiply(self)
        seen = set()
        for x in candidates:
            if x in seen:
                continue
            seen.add(x)
            principal = FractionalIdeal.from_generators(self.semigroup, self.field, [x])
            if principal.multiply(self) == squared:
                return principal
        return None


def _shifted(row, a, zero):
    """The window row of t^a times the polynomial ``row``; cells past the window drop."""
    return ([zero] * a + list(row))[:len(row)]


def _reframe(matrix, shift, width):
    """A reduced windowed span moved to a window ``width`` columns wide.

    New column j is old column j + shift.  Columns before the old window
    are zero (shift < 0 pads on the left); a positive shift drops columns
    that must be zero in every row.  A cut on the right drops the rows
    whose pivot falls past it, and the columns past the old window's end
    get unit rows, since the tail beyond a window lies in the ideal.
    Nothing is reduced again: the kept rows keep their pivots, and the
    unit rows sit on columns where every old row is zero.
    """
    zero, one = matrix.field.zero(), matrix.field.one()
    hi = shift + width  # the new window's end, in old columns
    keep = bisect.bisect_left(matrix.pivots, hi)
    lead, pad = (zero,) * -shift, (zero,) * (hi - matrix.ncols)
    lo = max(shift, 0)
    rows = [lead + r[lo:hi] + pad for r in matrix.rows[:keep]]
    pivots = [piv - shift for piv in matrix.pivots[:keep]]
    for u in range(matrix.ncols - shift, width):
        rows.append((zero,) * u + (one,) + (zero,) * (width - u - 1))
        pivots.append(u)
    return CoeffMatrix(matrix.field, width, rows, pivots, reduced=True)


@functools.cache
def _unit(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._unit(H), field)


@functools.cache
def _canonical_ideal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._canonical(H), field)


@functools.cache
def _maximal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._maximal(H), field)
