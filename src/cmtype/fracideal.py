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

Generators stay rows inside the engine, and an ideal has one generating
set, whatever it was built from: ``_generator_rows`` keeps, once per
ideal, the basis rows whose values are not values of m I, read off the
pivots with no reduction.  ``multiply``, ``colon``, ``top_rank`` and
``endo_meet_dim`` read those rows.  m I is a span on I's own window,
never a product ideal (``_maximal_span``), and R-stability, m I <= I, is
checked on it unless ``from_generators`` built it.  A TruncatedSeries is
made only at the API: parsed generators come in as series, and
``module_generators`` hands series out.  The generators an ideal was
built from are kept only as the label ``describe`` prints.

Colons are nullspaces.  ``colon`` solves one, with unknowns only on the
columns outside a monomial lower bound it knows: R <= I : I, so I : I is
solved on the gaps of H alone and merged with R's unit rows.  The values
prune the rest: v(x y) = v(x) + v(y), so a solution x has
v(x) + v(J) <= v(I), and the unknowns start at the least column that
passes this test; when none does, the bound is the colon (R for I : I)
and nothing is reduced.  ``endo_meet_dim`` keeps every exponent it is
given: the socle excess and faithfulness tests do not share that bound.
Both build their linear conditions, the residuals modulo I of the shifted
generator rows, with the one ``_conditions``.
``canonical_dual`` gives K : I = I^perp, under the residue pairing that
makes K = R^perp, with no reduction at all: the kernel of I's reduced
basis, read off its free-column cells (``CoeffMatrix.tails``) and
reversed, is already reduced.  R : I is K : (K I), a dual too
(``typecalc``).
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
from .semigroup import NumericalSemigroup, _set_bits
from .series import EXACT, TruncatedSeries


class FractionalIdeal:
    __slots__ = (
        "semigroup", "field", "delta", "gamma", "matrix", "generators", "_rows", "_mspan",
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
        self._rows = self._mspan = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, semigroup, field, gens):
        """Ideal generated over R by Laurent series.

        Modulo t^gamma the translates t^h g, 0 < h < gamma - ord g in H, span
        m I, kept as ``_maximal_span`` and stable by construction: t^a t^h g
        is another translate or lies in the tail.  I adds each g's own row to
        them in one ``linalg.sum_spaces`` call.  g has no term below delta,
        so the row of t^h g is g's coefficient list moved h cells right.
        """
        gens = [g for g in gens if g.order is not None]
        if not gens:
            raise ArgumentError("need at least one nonzero generator")
        for g in gens:
            if g.field != field:
                raise ArgumentError(f"generator field {g.field} != ideal field {field}")
        c = semigroup.conductor
        delta = min(g.order for g in gens)
        zero, own, rows = field.zero(), [], []
        for g in gens:
            coeffs = g.window_vector(delta, c)  # raises the precision-naming error
            own.append(coeffs)
            shifts = semigroup.members(1, delta + c - g.order)
            rows += [[zero] * h + coeffs[:c - h] for h in shifts]
        span = CoeffMatrix(field, c, rows)
        ideal = cls(semigroup, field, delta, linalg.sum_spaces(span, own), generators=gens)
        ideal._mspan = span
        return ideal

    @classmethod
    def from_relative(cls, ideal: RelativeIdeal, field: FieldSpec):
        """The monomial fractional ideal with the given exponent set."""
        H = ideal.semigroup
        c = H.conductor
        positions = _set_bits(ideal.members_mask(ideal.delta, c))
        one, zero = field.one(), field.zero()
        rows = []
        for i in positions:
            row = [zero] * c
            row[i] = one
            rows.append(row)
        return cls(H, field, ideal.delta, CoeffMatrix(field, c, rows, positions))

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
        """A minimal system of R-module generators, as exact polynomials."""
        if self.semigroup.conductor == 0:
            return [TruncatedSeries.monomial(self.field, self.delta)]
        return [self._as_series(row) for row in self._generator_rows()]

    def _generator_rows(self):
        """The basis rows that form a minimal generating set, read off the
        values once per ideal.

        A basis row is picked iff its pivot is not a pivot of m I
        (``_maximal_span``), that is, iff its value is not a value of m I.
        With m I they span I: reducing an element of I, each leading cell
        is cleared by the row of m I or the picked row with that pivot.  And
        there are rank_I - rank_mI = mu of them, since m I <= I makes m I's
        pivots a subset of I's.  So no row is reduced, and every row is
        itself an element of I.  For c = 0 the window is empty and
        I = t^delta k[[t]] has the one generator t^delta, whose row is the
        empty row.  The engine's products, colons and ranks read these rows.
        """
        if self._rows is None:
            picked = [()]
            if self.semigroup.conductor:
                taken = set(self._maximal_span().pivots)
                picked = [row for row, p in zip(self.matrix.rows, self.matrix.pivots)
                          if p not in taken]
            if len(picked) != self.mu():
                raise ConsistencyError("generator extraction disagrees with mu")
            self._rows = picked
        return self._rows

    def _maximal_span(self):
        """m I on I's window, built once.  ``from_generators`` keeps the
        span of its translates here; for any other ideal it is the sum of
        the t^a I over the generators a of H, I's basis moved a cells right,
        added to the lowest, t^e I, with m I <= I checked on it, as
        t^a I <= I for each a iff m I <= I.  For c >= 1, m I holds
        t^gamma k[[t]] (t^(x - delta) is in m for x >= gamma), so the window
        modulo this span is I/mI."""
        if self._mspan is None:
            c = self.semigroup.conductor
            e, *rest = self.semigroup.generators
            rows = [row for a in rest for row in _reframe(self.matrix, -a, c).rows]
            span = linalg.sum_spaces(_reframe(self.matrix, -e, c), rows)
            if not self._spans(span):
                raise ConsistencyError(
                    f"span is not stable under m: m I is not contained in I over "
                    f"{self.semigroup} [{self.field}]: delta {self.delta}, basis {self.matrix.rows}"
                )
            self._mspan = span
        return self._mspan

    def mu(self) -> int:
        """l(I/mI) = rank_I - rank(``_maximal_span()``).  For c = 0,
        I = t^delta k[[t]] has the one generator."""
        if not self.semigroup.conductor:
            return 1
        return self.matrix.rank - self._maximal_span().rank

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
        """Ideal product, spanned by (generator rows of I) x (basis rows of J).

        Each generator row g gives a block of rows on the window
        [delta_I + delta_J, delta_I + gamma_J).  A g with one nonzero cell
        c t^u spans what t^u J does: J's reduced rows shifted u - delta_I
        places, already reduced, with no arithmetic.  Any other g is
        convolved with each basis row b.  g and b are genuine elements of I
        and J (``_generator_rows``), so every cell is exact.

        g b leads at window cell (ord g - delta_I) + pivot(b) with a nonzero
        product, so the rows b whose cell lies past the window, a suffix of
        J's rows, are exactly those with g b = 0 there; they are skipped.

        The lowest shifted block, or failing one the first block reduced, is
        the basis that ``linalg.sum_spaces`` adds every other row to, so only
        their residuals on its free columns are row-reduced.  For c = 0 both
        ideals are t^delta k[[t]], and so is their product.
        """
        self._check_same(other)
        start = self.delta + other.delta
        width = self.semigroup.conductor
        J = other.matrix
        if not width:
            return FractionalIdeal(self.semigroup, self.field, start, J)
        rows = self._generator_rows()
        if not any(g[0] for g in rows):
            raise ConsistencyError("generator rows miss the minimal order")
        shifts, blocks = set(), []
        for g in rows:
            terms = [(d, v) for d, v in enumerate(g) if v]
            if len(terms) == 1:
                shifts.add(terms[0][0])
                continue
            cut = bisect.bisect_left(J.pivots, width - terms[0][0])
            blocks.append(_convolve(terms, J.rows[:cut], width))
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
        hence into I.  x J <= I reduces to x g in I for the generator rows g
        of J, and each such condition is linear in the window coefficients
        of x.

        The unknowns skip the columns of a monomial lower bound the colon
        knows: R <= I : I, so for J = I, on the window [0, c),
        I : I = R + (I : I meet span{t^g : g a gap of H}), and only the gap
        columns are solved for.  The solutions are zero on H's columns and
        R's unit rows zero on the gaps, so merged by pivot they are reduced.

        The values bound the unknowns from below.  v(x y) = v(x) + v(y), so
        a solution x has v(x) + v(J) <= v(I), and x has no term below v(x).
        So the candidate columns k are those with k + q a value of I, relative
        to delta_I and its tail included, for every pivot q of J (past J's
        window both ideals hold the tail), and every unknown left of the
        least candidate is dropped.  When no candidate is left, I : J is the
        bound itself, built with no reduction: R for J = I.
        """
        self._check_same(other)
        c = self.semigroup.conductor
        start = self.delta - other.delta
        rows, unknowns = {}, range(c)
        if other == self:
            # R's matrix is on the same window [0, c): keep its unit rows and
            # solve on its free columns, the gaps of H
            R = _unit(self.semigroup, self.field).matrix
            rows, unknowns = dict(zip(R.pivots, R.rows)), R.tails()[0]
        # bit u of ``values``: delta_I + u is a value of I, every bit from c on
        # set (the tail); bit k of ``passes``: k + q is one for every pivot q of J
        values = sum(1 << p for p in self.matrix.pivots) | -1 << c
        passes = values
        for q in other.matrix.pivots:
            passes &= values >> q
        least = next((i for i, k in enumerate(unknowns) if passes >> k & 1), len(unknowns))
        unknowns = unknowns[least:]
        zero = self.field.zero()
        if unknowns:
            # t^(start + k) g is g moved k cells right on I's window
            conditions = self._conditions(other._generator_rows(), unknowns)
            solutions = linalg.nullspace(self.field, len(unknowns), conditions)
            for cells, q in zip(solutions.rows, solutions.pivots):
                row = [zero] * c
                for k, x in zip(unknowns, cells):
                    row[k] = x
                rows[unknowns[q]] = row
        pivots = sorted(rows)
        matrix = CoeffMatrix(self.field, c, [rows[q] for q in pivots], pivots)
        return FractionalIdeal._build(self.semigroup, start, matrix)

    def canonical_dual(self):
        """K : I as I^perp, read off I's reduced basis with no row reduction.

        K = {x : F - x not in H} is R^perp for <x, y> = the coefficient of
        t^F in x y (t^u pairs to zero with all of R iff F - u is not in H),
        and x I <= K iff <x y, r> = 0 for all y in I, r in R, so K : I is
        I^perp.  x pairs to zero with I's tail t^gamma k[[t]] iff
        ord x >= F + 1 - gamma = -delta, and with all of I once
        ord x >= -delta + c, so I^perp lives on the window
        [-delta, -delta + c), where cell k of x pairs with I's cell
        c - 1 - k: x reversed is in the kernel of I's reduced basis
        (``linalg.reversed_kernel``).  For c = 0 the window is empty and
        K : I = t^(-delta) k[[t]].
        """
        kernel = linalg.reversed_kernel(self.matrix)
        return FractionalIdeal._build(self.semigroup, -self.delta, kernel)

    def top_rank(self, X, Y):
        """dim_k of the image of X Y in M/mM, M this ideal, for X Y <= M.

        X Y is spanned by the products g h of generator rows and m kills
        M/mM, so the image is spanned by the images of the g h: each is
        convolved on M's window, reduced modulo m M there
        (``_maximal_span``), and the rank of the residuals is the answer.
        For c = 0, M/mM is spanned by t^delta_M, which X Y reaches iff
        delta_X + delta_Y = delta_M.
        """
        self._check_same(X)
        self._check_same(Y)
        c = self.semigroup.conductor
        d0 = X.delta + Y.delta - self.delta
        if d0 < 0:
            raise ContainmentError(
                f"the product of {X.describe()} and {Y.describe()} is not in {self.describe()}"
            )
        if not c:
            return int(d0 == 0)
        products, hs = [], Y._generator_rows()
        for g in X._generator_rows():
            products += _convolve([(d0 + d, v) for d, v in enumerate(g) if v], hs, c)
        residuals = linalg._reduce_rows(self.field, products, self._maximal_span())
        return _rank(self.field, residuals)

    def endo_meet_dim(self, exponents):
        """dim_k(span{t^f : f in exponents} meet (I : I)), without I : I.

        I : I lies in k[[t]], so only f >= 0 can contribute, and
        sum_f a_f t^f is in I : I iff the a_f solve ``_conditions`` on the
        generator rows: the answer is the number of such f minus its rank.
        With no such f (PF(H) of the DVR) it is 0.
        """
        F = sorted({f for f in exponents if f >= 0})
        return len(F) - _rank(self.field, self._conditions(self._generator_rows(), F))

    def _conditions(self, rows, shifts):
        """The conditions on the a_k for (sum_k a_k t^k) g in I, g in ``rows``.

        Each g is a row on I's window (``colon`` reads J's rows there, its
        unknown t^(delta_I - delta_J + k) in the place of t^k), and k >= 0:
        cell i of t^k g is g's cell i - k, cut at the window's end.  One
        ``_reduce_rows`` call gives every residual modulo I; each g and free
        column of I give the row of that column's residual cells over the k,
        with zero rows dropped.
        """
        c, n = self.semigroup.conductor, len(shifts)
        pad, cut = [self.field.zero()] * c, [min(k, c) for k in shifts]
        vecs = []
        for g in rows:
            padded = pad + list(g)
            vecs += [padded[c - k:2 * c - k] for k in cut]
        residuals = linalg._reduce_rows(self.field, vecs, self.matrix)
        return [cells for i in range(len(rows))
                for cells in zip(*residuals[i * n:i * n + n]) if any(cells)]

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

    def quotient_length(self, sub) -> int:
        """dim_k(I/J) for J <= I, off the ranks: I holds the tail from gamma_I
        and J from gamma_J, so l(I/J) = rank_I + (gamma_J - gamma_I) - rank_J."""
        if not self.contains_ideal(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        return self.matrix.rank + sub.gamma - self.gamma - sub.matrix.rank

    def contains_ideal(self, sub) -> bool:
        """J <= I, for delta_J >= delta_I, iff J's rows cut to I's window lie
        in I's span: their cells past it form an element of I's tail."""
        self._check_same(sub)
        if sub.delta < self.delta:
            return False
        return self._spans(_reframe(sub.matrix, self.delta - sub.delta, self.semigroup.conductor))

    def _spans(self, matrix) -> bool:
        """Whether the rows of a reduced matrix on I's window lie in I's span."""
        # v(J) <= v(I) is necessary for J <= I; on the window the values are the pivots
        if not set(matrix.pivots).issubset(self.matrix.pivots):
            return False
        return not any(map(any, linalg._reduce_rows(self.field, matrix.rows, self.matrix)))

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


def _rank(field, rows):
    """The rank of a list of rows; the kernels take raw F_p sums of products."""
    return len(linalg._rref(field, [r for r in rows if any(r)])[1])


def _convolve(terms, rows, width):
    """The rows (sum of v t^d over ``terms``) * b, one per row b, cut at the
    window's end ``width``; a term with d >= width adds nothing."""
    out = []
    for b in rows:
        row = [0] * width
        for d, v in terms:
            row[d:] = [x + v * y if y else x for x, y in zip(row[d:], b)]
        out.append(row)
    return out


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
    # a window that ends before the old one starts, or starts past its end,
    # keeps none of its rows; clamped there, no tuple is longer than width
    shift = min(max(shift, -width), matrix.ncols)
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
