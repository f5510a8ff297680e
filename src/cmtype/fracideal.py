"""Fractional ideals as row-reduced coefficient subspaces: the general engine.

An ideal I of R = k[[t^H]] with minimal order delta satisfies
t^(delta+c) k[[t]] <= I, where c is the conductor of H: any x in I of
order delta gives x * t^c k[[t]] = t^(delta+c) k[[t]] inside I.  So I is
determined by its image in t^delta k[[t]] / t^gamma k[[t]] with
gamma = delta + c, stored as a reduced CoeffMatrix on the exponent window
[delta, gamma).

Because the tail t^gamma k[[t]] lies inside I, every truncated basis row,
read as a Laurent polynomial, is itself a genuine element of I.  That
keeps all arithmetic exact: products and colon solves work on polynomial
representatives and re-window the result, and widening a window is always
legal (pad rows with zeros, adjoin unit tail rows).
"""

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
    __slots__ = ("semigroup", "field", "delta", "gamma", "matrix", "generators", "_modgens")

    engine = "series"

    def __init__(self, semigroup, field, delta, gamma, matrix, generators=None):
        if matrix.ncols != gamma - delta:
            raise ConsistencyError("matrix width disagrees with the exponent window")
        self.semigroup = semigroup
        self.field = field
        self.delta = delta
        self.gamma = gamma
        self.matrix = matrix
        self.generators = tuple(generators) if generators else None
        self._modgens = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, semigroup, field, gens, slack=0):
        """Ideal generated over R by Laurent series.

        The window is [delta, delta + c + slack).  Rows t^h * g for h in H
        span the ideal modulo the window top; the tail certification and
        the R-stability of the span are verified, not trusted.
        """
        gens = [g for g in gens if g.order is not None]
        if not gens:
            raise ArgumentError("need at least one nonzero generator")
        for g in gens:
            if g.field != field:
                raise ArgumentError(f"generator field {g.field} != ideal field {field}")
        if slack < 0:
            raise ArgumentError("slack must be nonnegative")
        c = semigroup.conductor
        delta = min(g.order for g in gens)
        gamma = delta + c + slack
        for g in gens:
            if g.precision < gamma:
                raise ArgumentError(
                    f"generator {g} + O(t^{g.precision}) has precision {g.precision}; "
                    f"window [{delta}, {gamma}) needs precision {gamma}"
                )
        width = gamma - delta
        rows = []
        for g in gens:
            for h in semigroup.members(0, gamma - g.order):
                rows.append(g.shift(h).window_vector(delta, width))
        matrix = CoeffMatrix(field, width, rows)
        ideal = cls(semigroup, field, delta, gamma, matrix, generators=gens)
        ideal._certify()
        return ideal

    @classmethod
    def from_relative(cls, ideal: RelativeIdeal, field: FieldSpec, slack=0):
        """The monomial fractional ideal with the given exponent set."""
        H = ideal.semigroup
        c = H.conductor
        delta = ideal.delta
        gamma = delta + c + slack
        width = gamma - delta
        mask = ideal.members_mask(delta, width)
        positions = [i for i in range(width) if mask >> i & 1]
        one, zero = field.one(), field.zero()
        rows = []
        for i in positions:
            row = [zero] * width
            row[i] = one
            rows.append(row)
        matrix = CoeffMatrix(field, width, rows, pivots=positions, reduced=True)
        gens = [TruncatedSeries.monomial(field, g) for g in ideal.minimal_generators()]
        return cls(H, field, delta, gamma, matrix, generators=gens)

    @classmethod
    def _build(cls, semigroup, field, start, end, rows, generators=None):
        """Normalize a windowed span to the canonical window.

        Caller guarantees: span(rows) + t^end k[[t]] is the ideal modulo
        t^end, and t^end k[[t]] is contained in the ideal.
        """
        c = semigroup.conductor
        matrix = CoeffMatrix(field, end - start, rows)
        delta = start + matrix.pivots[0] if matrix.rows else end
        target = delta + c
        width = c
        if target <= end:
            off = delta - start
            cut = [r[off:off + width] for r in matrix.rows]
            out = CoeffMatrix(field, width, cut)
        else:
            off = delta - start
            zero, one = field.zero(), field.one()
            padded = [list(r[off:]) + [zero] * (target - end) for r in matrix.rows]
            for u in range(end, target):
                row = [zero] * width
                row[u - delta] = one
                padded.append(row)
            out = CoeffMatrix(field, width, padded)
        if out.rows and out.pivots[0] != 0:
            raise ConsistencyError("window minimum drifted during normalization")
        return cls(semigroup, field, delta, delta + width, out, generators=generators)

    def _certify(self):
        """Runtime checks of the representation invariants (loud on failure)."""
        c = self.semigroup.conductor
        if self.matrix.rows:
            if self.matrix.pivots[0] != 0:
                raise ConsistencyError("lowest basis order differs from delta")
        elif self.gamma > self.delta:
            raise ConsistencyError("empty basis on a nonempty window")
        for u in range(self.delta + c, self.gamma):
            row = [self.field.zero()] * (self.gamma - self.delta)
            row[u - self.delta] = self.field.one()
            ok, _ = linalg.member(row, self.matrix)
            if not ok:
                raise ConsistencyError(f"tail certification failed at exponent {u}")
        for r in self._basis_series():
            for a in self.semigroup.generators:
                vec = r.shift(a).window_vector(self.delta, self.gamma - self.delta)
                ok, _ = linalg.member(vec, self.matrix)
                if not ok:
                    raise ConsistencyError(
                        f"span is not stable under multiplication by t^{a}"
                    )

    validate = _certify

    # -- views --------------------------------------------------------------

    def _basis_series(self):
        """Basis rows as exact Laurent polynomials (genuine ideal elements)."""
        return [
            TruncatedSeries.from_window(self.field, self.delta, row, precision=EXACT)
            for row in self.matrix.rows
        ]

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

    def _extended(self, start, end):
        """Rows + pivots representing this ideal on the window [start, end).

        Requires start <= delta and end >= gamma: widening only.
        """
        zero, one = self.field.zero(), self.field.one()
        left = self.delta - start
        width = end - start
        rows, pivots = [], []
        for row, piv in zip(self.matrix.rows, self.matrix.pivots):
            rows.append([zero] * left + list(row) + [zero] * (end - self.gamma))
            pivots.append(piv + left)
        for u in range(self.gamma, end):
            row = [zero] * width
            row[u - start] = one
            rows.append(row)
            pivots.append(u - start)
        return CoeffMatrix(self.field, width, rows, pivots=pivots, reduced=True)

    def _align(self, other):
        start = min(self.delta, other.delta)
        end = max(self.gamma, other.gamma)
        return start, end, self._extended(start, end), other._extended(start, end)

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
        mI = _maximal(self.semigroup, self.field).multiply(self)
        start, end, mine, sub = self._align(mI)
        picked = []
        span = sub
        for row, series in zip(mine.rows, self._basis_series()):
            ok, _ = linalg.member(row, span)
            if not ok:
                picked.append(series)
                span = linalg.sum_spaces(span, CoeffMatrix(self.field, end - start, [row]))
        if len(picked) != self.mu():
            raise ConsistencyError("generator extraction disagrees with mu")
        self._modgens = picked
        return picked

    def mu(self) -> int:
        if self.semigroup.conductor == 0:
            return 1
        mI = _maximal(self.semigroup, self.field).multiply(self)
        return self.quotient_length(mI)

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic ----------------------------------------------------------

    def add(self, other):
        self._check_same(other)
        start = min(self.delta, other.delta)
        end = min(self.gamma, other.gamma)
        rows = []
        for ideal in (self, other):
            off = ideal.delta - start
            for row in ideal.matrix.rows:
                vec = [ideal.field.zero()] * off + list(row)
                vec = vec[:end - start]
                if len(vec) < end - start:
                    vec += [ideal.field.zero()] * (end - start - len(vec))
                rows.append(vec)
        return FractionalIdeal._build(self.semigroup, self.field, start, end, rows)

    def multiply(self, other):
        """Ideal product, spanned by (module generators) x (basis rows)."""
        self._check_same(other)
        gens = self.generators or self.module_generators()
        dmin = min(g.order for g in gens)
        if dmin != self.delta:
            raise ConsistencyError("stored generators miss the minimal order")
        start = self.delta + other.delta
        end = self.delta + other.gamma
        width = end - start
        rows = []
        basis = other._basis_series()
        for g in gens:
            for b in basis:
                rows.append(g.mul(b).window_vector(start, width))
        result = FractionalIdeal._build(self.semigroup, self.field, start, end, rows)
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
        start = self.delta - other.delta
        end = self.gamma - other.delta
        nunk = end - start
        width_i = self.gamma - self.delta
        constraint_rows = []
        for g in other.module_generators():
            vecs = [g.shift(u).window_vector(self.delta, width_i) for u in range(start, end)]
            residuals = linalg._reduce_rows(self.field, vecs, self.matrix)
            for i in range(width_i):
                row = [residuals[j][i] for j in range(nunk)]
                if any(row):
                    constraint_rows.append(row)
        constraint = CoeffMatrix(self.field, nunk, constraint_rows)
        solutions = linalg.nullspace(constraint)
        return FractionalIdeal._build(
            self.semigroup, self.field, start, end, [list(r) for r in solutions.rows]
        )

    def intersect(self, other):
        self._check_same(other)
        start, end, a, b = self._align(other)
        inter = linalg.intersect(a, b)
        return FractionalIdeal._build(
            self.semigroup, self.field, start, end, [list(r) for r in inter.rows]
        )

    def shift(self, s: int):
        """Multiplication by t^s."""
        gens = [g.shift(s) for g in self.generators] if self.generators else None
        return FractionalIdeal(
            self.semigroup, self.field, self.delta + s, self.gamma + s, self.matrix, gens
        )

    def contains_ideal(self, sub) -> bool:
        self._check_same(sub)
        if sub.delta < self.delta:
            return False
        _, _, mine, theirs = self._align(sub)
        for row in theirs.rows:
            ok, _ = linalg.member(row, mine)
            if not ok:
                return False
        return True

    def quotient_length(self, sub) -> int:
        """dim_k(I/J) for J <= I; both contain the common window tail."""
        if not self.contains_ideal(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        _, _, mine, theirs = self._align(sub)
        return mine.rank - theirs.rank

    def __eq__(self, other):
        if not isinstance(other, FractionalIdeal):
            return NotImplemented
        if self.semigroup != other.semigroup or self.field != other.field:
            return False
        a, b = self._canonical(), other._canonical()
        return a.delta == b.delta and a.matrix.rows == b.matrix.rows

    def __hash__(self):
        a = self._canonical()
        return hash((a.semigroup, a.field, a.delta, a.matrix.rows))

    def _canonical(self):
        if self.gamma == self.delta + self.semigroup.conductor:
            return self
        return FractionalIdeal._build(
            self.semigroup, self.field, self.delta, self.gamma,
            [list(r) for r in self.matrix.rows], generators=self.generators,
        )

    # -- companions ----------------------------------------------------------

    def unit_ideal(self):
        return _unit(self.semigroup, self.field)

    def canonical_ideal(self):
        return _canonical_ideal(self.semigroup, self.field)

    def maximal_ideal(self):
        return _maximal(self.semigroup, self.field)

    def find_reduction(self):
        """A principal (x) <= I with I^2 = xI, if the search finds one.

        Candidates for x: the stored generators of order delta, then the
        lowest basis row.  Absence of a reduction among these is reported
        as None.
        """
        candidates = []
        if self.generators:
            candidates += [g for g in self.generators if g.order == self.delta]
        if self.matrix.rows and self.matrix.pivots[0] == 0:
            candidates.append(self._basis_series()[0])
        if self.semigroup.conductor == 0:
            candidates.append(TruncatedSeries.monomial(self.field, self.delta))
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


# -- module-level operation names -------------------------------------------

def ideal_from_generators(semigroup, field, gens, slack=0) -> FractionalIdeal:
    return FractionalIdeal.from_generators(semigroup, field, gens, slack=slack)


def from_relative(ideal: RelativeIdeal, field: FieldSpec, slack=0) -> FractionalIdeal:
    return FractionalIdeal.from_relative(ideal, field, slack=slack)


@functools.cache
def _unit(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._unit(H), field)


@functools.cache
def _canonical_ideal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._canonical(H), field)


@functools.cache
def _maximal(H: NumericalSemigroup, field: FieldSpec) -> FractionalIdeal:
    return FractionalIdeal.from_relative(relideal._maximal(H), field)
