"""The series engine's representation: one row-reduced window per ideal.

Construction and its window [delta, delta + c), the basis rows and the
generators read off them, ``_reframe`` and ``_build``, and each operation
against its reference in tests/helpers.py, including at conductors past
``SERIES_POOL``; the work each operation does, in row reductions.  The
laws the operations obey, on both engines, are in test_ideal_laws.py.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cmtype import linalg
from cmtype.errors import ArgumentError, ConsistencyError, ContainmentError
from cmtype import fracideal, typecalc
from cmtype.fracideal import FractionalIdeal
from cmtype.linalg import GF, QQ, CoeffMatrix, reduce_echelon
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import TruncatedSeries, parse_series
from helpers import (
    ENGINES,
    SERIES_ENGINES,
    SERIES_POOL,
    colon_reference,
    common_window,
    full_stack_add,
    generated_ideals,
    ideal_cases,
    multiply_reference,
    record_calls,
    series_cases,
    series_ideal,
    series_ideals,
    zassenhaus_intersect,
)

H345 = NumericalSemigroup([3, 4, 5])
H37 = NumericalSemigroup([3, 7])
H456 = NumericalSemigroup([4, 5, 6])
R34 = fracideal._unit(NumericalSemigroup([3, 4]), GF(3))

# one monomial ideal of an ideal_cases draw (its fractional I or its proper J),
# and a field to lift it to
monomial_ideals = ideal_cases(ENGINES[0]).flatmap(lambda case: st.sampled_from(case[:2]))
lift_fields = st.sampled_from([QQ, GF(2), GF(5)])

# (generators of H, field, exponents): the ideals of the seeded loops that
# test_monomial_basis_has_an_empty_cached_view and
# TestEngineAgreement::test_find_reduction replace, both outcomes of
# find_reduction among them; conductors reach 168, past ideal_cases' 80
MONOMIAL_EXAMPLES = [
    ([4, 11], QQ, {-9, -6}), ([9, 10], GF(2), {-22}), ([5, 13], GF(2), {13, 14}),
    ([2, 11], QQ, {0, 1}), ([2, 15], QQ, {-3}), ([9, 14, 15], QQ, {-20}), ([2, 5], QQ, {-3, 0}),
    ([3, 8], GF(5), {-9}), ([2, 9], QQ, {7}), ([2, 11], QQ, {-4, 5}), ([7, 9], QQ, {-6, 4}),
    ([2, 13], GF(5), {8}), ([7, 11, 13], GF(2), {-10, 0}), ([3, 5], QQ, {-7}),
    ([13, 15], GF(5), {143}), ([13, 14, 15], GF(2), {-64}), ([6, 7], QQ, {42}),
    ([4, 15], GF(5), {-7, 10}), ([7, 8], GF(2), {-41}), ([2, 5], GF(5), {-3}),
    ([3, 10, 11], QQ, {-6, -4}), ([10, 11, 12], GF(5), {79, 83, 86}), ([3, 11], GF(2), {-10}),
    ([7, 11], GF(2), {79}), ([5, 13], QQ, {-3}), ([3, 4], QQ, {-6}), ([4, 11], GF(5), {-23}),
    ([3, 5], QQ, {-1, 1}), ([7, 9], QQ, {-18, -14}), ([6, 9, 13], QQ, {30}),
    ([5, 14], QQ, {-16}), ([2, 9], QQ, {-7}), ([3, 8], GF(5), {-8, 5}),
    ([5, 11], GF(2), {-24, -20}), ([2, 11], QQ, {10}), ([3, 4, 5], GF(2), {-2, -1}),
    ([11, 14, 15], GF(2), {33}), ([4, 5], GF(5), {4}), ([9, 10, 15], GF(5), {-6}),
    ([6, 7], GF(2), {-14}),
    ([3, 7], QQ, {0}), ([3, 7], QQ, {3, 7}), ([3, 7], GF(5), {-12}), ([3, 7], GF(5), {4}),
    ([3, 7], GF(5), {7}), ([3, 7], QQ, {-6, -5}), ([3, 7], GF(5), {-1, 10}), ([3, 7], QQ, {-6}),
    ([3, 7], GF(5), {-2, 0}), ([3, 7], GF(5), {-8}), ([3, 7], QQ, {-10, -8}),
    ([3, 7], QQ, {-8}), ([3, 7], QQ, {15, 16}), ([3, 7], QQ, {-9}),
    ([3, 4, 5], QQ, {0, 1}), ([3, 4, 5], GF(5), {3, 4, 5}), ([3, 4, 5], QQ, {-1}),
    ([3, 4, 5], GF(5), {-1}), ([3, 4, 5], QQ, {0, 1, 2}), ([3, 4, 5], GF(5), {0, 2}),
    ([3, 4, 5], QQ, {-3}), ([3, 4, 5], GF(5), {2, 3}), ([3, 4, 5], QQ, {0}),
    ([3, 4, 5], QQ, {-2}),
    ([4, 5, 6], GF(5), {0}), ([4, 5, 6], GF(5), {4, 5, 6}), ([4, 5, 6], GF(5), {11}),
    ([4, 5, 6], GF(5), {2}), ([4, 5, 6], QQ, {-1}), ([4, 5, 6], GF(5), {-6, -5}),
    ([4, 5, 6], GF(5), {-8}), ([4, 5, 6], QQ, {0, 1, 3}), ([4, 5, 6], QQ, {-7, 0}),
    ([4, 5, 6], QQ, {-8, -7}), ([4, 5, 6], QQ, {-6}), ([4, 5, 6], QQ, {2}),
    ([4, 5, 6], GF(5), {-1}), ([4, 5, 6], QQ, {-7}),
]


def monomial_examples(*extra):
    """An @example (E, field, *extra) for each of MONOMIAL_EXAMPLES."""
    def decorate(test):
        for gens, field, exponents in MONOMIAL_EXAMPLES:
            E = RelativeIdeal.from_exponents(NumericalSemigroup(gens), exponents)
            test = example(E, field, *extra)(test)
        return test
    return decorate


class TestConstruction:
    def test_monomial_pair_equals_relative(self):
        I = series_ideal(H345, QQ, "t^3", "t^4")
        assert (I.delta, I.gamma) == (3, 6)
        assert I == FractionalIdeal.from_relative(RelativeIdeal.from_exponents(H345, {3, 4}), QQ)
        assert I.is_monomial()

    def test_ulrich_window(self):
        I = series_ideal(H37, GF(5), "t^6 - 2*t^7", "t^10")
        assert (I.delta, I.gamma) == (6, 18)
        assert not I.is_monomial()
        # delta is the lowest value, and the span is stable under t^3 and t^7
        assert I.matrix.pivots[0] == 0 and series_stable(I)

    def test_dvr_whole_ring(self):
        H1 = NumericalSemigroup([1])
        I = series_ideal(H1, QQ, "1")
        assert (I.delta, I.gamma) == (0, 0)
        assert I.mu() == 1 and I.is_principal()
        assert I.support_ideal() == RelativeIdeal(H1, 0, 0)
        # over the DVR every nonzero ideal is principal: (t^2 + t^3) = (t^2)
        J = series_ideal(H1, QQ, "t^2 + t^3")
        assert (J.delta, J.mu()) == (2, 1)
        assert J.support_ideal() == RelativeIdeal(H1, 2, 0)
        assert typecalc.classify(J)["consistent"]

    def test_all_zero_generators_rejected(self):
        with pytest.raises(ArgumentError):
            FractionalIdeal.from_generators(H345, QQ, [TruncatedSeries.zero(QQ)])

    def test_field_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            FractionalIdeal.from_generators(H345, QQ, [parse_series("t^3", GF(5))])

    @pytest.mark.parametrize("other, message", [
        (RelativeIdeal.from_exponents(H345, {3}), "expected a series-engine ideal"),
        (FractionalIdeal.from_generators(H456, QQ, [parse_series("t^4", QQ)]),
         "semigroup mismatch: <3,4,5> vs <4,5,6>"),
        (FractionalIdeal.from_generators(H345, GF(5), [parse_series("t^3", GF(5))]),
         "field mismatch: QQ vs F_5"),
    ])
    def test_operands_from_another_engine_semigroup_or_field_are_refused(self, other, message):
        I = series_ideal(H345, QQ, "t^3 + t^4")
        for op in (I.add, I.multiply, I.colon, I.intersect, I.contains_ideal):
            with pytest.raises(ArgumentError) as err:
                op(other)
            assert str(err.value) == message

    def test_insufficient_precision_rejected(self):
        short = TruncatedSeries(QQ, {3: 1}, precision=4)
        with pytest.raises(ArgumentError, match="precision"):
            FractionalIdeal.from_generators(H345, QQ, [short])

    @pytest.mark.parametrize("gens, message", [
        ([TruncatedSeries(QQ, {3: 1}, precision=4)],
         "series t^3 + O(t^4) has precision 4; window [3, 6) needs precision 6"),
        # the short generator is not the one of order delta
        ([TruncatedSeries(QQ, {3: 1}), TruncatedSeries(QQ, {4: 2, 5: 1}, precision=5)],
         "series 2*t^4 + O(t^5) has precision 5; window [3, 6) needs precision 6"),
    ])
    def test_insufficient_precision_message(self, gens, message):
        with pytest.raises(ArgumentError) as caught:
            FractionalIdeal.from_generators(H345, QQ, gens)
        assert str(caught.value) == message

    def test_constructor_allows_only_the_conductor_window(self):
        I = series_ideal(H345, QQ, "t^3", "t^4")
        assert (I.gamma - I.delta, I.matrix.ncols) == (3, 3)
        for width in (2, 4):
            rows = [[1] + [0] * (width - 1)]
            with pytest.raises(ConsistencyError, match="width"):
                FractionalIdeal(H345, QQ, 3, CoeffMatrix(QQ, width, rows))
        exact_to_6 = TruncatedSeries(QQ, {3: 1}, precision=6)
        assert FractionalIdeal(H345, QQ, 3, I.matrix, [exact_to_6]).gamma == 6
        known_below_6 = TruncatedSeries(QQ, {3: 1}, precision=5)
        with pytest.raises(ConsistencyError, match="precision 6"):
            FractionalIdeal(H345, QQ, 3, I.matrix, [known_below_6])

    def test_zero_generators_dropped(self):
        gens = [TruncatedSeries.zero(QQ), parse_series("t^5", QQ)]
        I = FractionalIdeal.from_generators(H345, QQ, gens)
        assert I.delta == 5


class TestArithmetic:
    def test_product_with_unit(self):
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        assert I.unit_ideal().multiply(I) == I

    def test_colon_self_detects_not_closed(self):
        # Gorenstein ring, I not principal: I cannot be closed
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        end = I.colon(I)
        R = I.unit_ideal()
        assert end != R
        assert end.contains_ideal(R)

    def test_canonical_self_colon(self):
        K = FractionalIdeal.from_relative(H345.canonical_relative_ideal(), QQ)
        assert K.colon(K) == K.unit_ideal()

    def test_lengths_and_mu(self):
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        R = I.unit_ideal()
        assert I.mu() == 2
        # independent dimension count: dim(R mod t^18) = 12, dim(I mod t^18) = 9
        assert R.quotient_length(I) == 3
        assert R.mu() == 1 and R.is_principal()

    def test_quotient_length_containment_error(self):
        I = series_ideal(H345, QQ, "t^3")
        J = series_ideal(H345, QQ, "t^4")
        with pytest.raises(ContainmentError):
            I.quotient_length(J)

    def test_sum(self):
        a = series_ideal(H345, QQ, "t^3")
        b = series_ideal(H345, QQ, "t^4")
        total = a.add(b)
        expected = series_ideal(H345, QQ, "t^3", "t^4")
        assert total == expected and hash(total) == hash(expected)


class TestFindReduction:
    def test_ulrich_generator_is_reduction(self):
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        P = I.find_reduction()
        assert P is not None and P.delta == 6 and P.is_principal()
        assert P.multiply(I) == I.multiply(I)

    def test_monomial_pair_has_no_reduction(self):
        I = series_ideal(H37, QQ, "t^6", "t^10")
        assert I.find_reduction() is None
        E = RelativeIdeal.from_exponents(H37, {6, 10})
        assert E.find_reduction() is None

    def test_maximal_ideal_reduction(self):
        m = RelativeIdeal.from_exponents(H345, {3, 4, 5})
        red = m.find_reduction()
        assert red is not None and red == red.unit_ideal().shift(3)


class TestFromRelative:
    def test_unit(self):
        R = RelativeIdeal.from_exponents(H345, {0})
        S = FractionalIdeal.from_relative(R, QQ)
        assert S == S.unit_ideal()

    def test_canonical_mu(self):
        K = FractionalIdeal.from_relative(H345.canonical_relative_ideal(), QQ)
        assert K.mu() == 2

    def test_matches_generator_construction(self):
        E = RelativeIdeal.from_exponents(H345, {3, 5})
        assert FractionalIdeal.from_relative(E, QQ) == series_ideal(H345, QQ, "t^3", "t^5")

    @settings(max_examples=60, deadline=None)
    @given(monomial_ideals, lift_fields, st.integers(0, 2**16))
    @monomial_examples(24)
    def test_monomial_basis_has_an_empty_cached_view(self, E, field, seed):
        # a span of unit vectors: reduction only picks each vector's gap cells
        rng = random.Random(seed)
        matrix = FractionalIdeal.from_relative(E, field).matrix
        c = matrix.ncols
        view = matrix.tails()
        mask = E.members_mask(E.delta, c)
        assert view == ([i for i in range(c) if not mask >> i & 1], [])
        vecs = [[rng.choice([rng.randint(-9, 9), Fraction(rng.randint(1, 9), 7)])
                 if field == QQ else rng.randint(-99, 99) for _ in range(c)]
                for _ in range(3)]
        residuals = linalg._reduce_rows(field, vecs, matrix)
        assert len(residuals) == len(vecs)
        for r, v in zip(residuals, vecs):
            assert len(r) == len(view[0]) and all(x is v[j] for x, j in zip(r, view[0]))
        assert matrix.tails() is view


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)])
@pytest.mark.parametrize("gens, exponents", [
    ([1], {-2}), ([1], {0}), ([1], {1}),  # c = 0
    ([3, 4, 5], {-1, 0, 1}), ([3, 7], {-4, 1}), ([3, 7], {0}), ([4, 5, 6], {1, 6}),
    ([3, 7], {0, 1, 2}),
])
def test_from_relative_reads_its_generators_off_the_values(field, gens, exponents):
    # no series is stored: describe and module_generators print the picked
    # rows, which are the unit rows at the minimal generators
    E = RelativeIdeal.from_exponents(NumericalSemigroup(gens), exponents)
    I = FractionalIdeal.from_relative(E, field)
    assert I.generators is None
    expected = [str(TruncatedSeries.monomial(field, g)) for g in E.minimal_generators()]
    assert [str(g) for g in I.module_generators()] == expected
    assert I.describe() == f"({', '.join(expected)}) over {E.semigroup} [{field}]"
    rows = I._generator_rows()
    assert len(rows) == len(expected)
    one, c = field.one(), E.semigroup.conductor
    for row, g in zip(rows, E.minimal_generators()):
        assert list(row) == [one if u == g - I.delta else 0 for u in range(c)]


class TestEngineAgreement:
    """Monomial inputs: every operation matches the relative-ideal engine."""

    @settings(max_examples=60, deadline=None)
    @given(monomial_ideals, lift_fields)
    @monomial_examples()
    def test_find_reduction(self, E, field):
        red = E.find_reduction()
        got = FractionalIdeal.from_relative(E, field).find_reduction()
        if red is None:
            assert got is None
        else:
            assert got == FractionalIdeal.from_relative(red, field)

    def test_the_examples_reach_both_outcomes(self):
        outcomes = {RelativeIdeal.from_exponents(NumericalSemigroup(gens), exponents)
                    .find_reduction() is None for gens, _, exponents in MONOMIAL_EXAMPLES}
        assert outcomes == {True, False}


def series_stable(I):
    """Every basis row times t^a, a a generator of H, stays in the span."""
    width = I.gamma - I.delta
    return all(
        linalg.member(I._as_series(row).shift(a).window_vector(I.delta, width), I.matrix)[0]
        for row in I.matrix.rows
        for a in I.semigroup.generators
    )


def assert_minimal_generators(X):
    """module_generators() are the basis rows whose values are not values of
    m X, the product ideal; there are mu of them, they generate X, and they
    span X modulo m X: the reference for generator extraction.
    """
    gens = X.module_generators()
    mX = X.maximal_ideal().multiply(X)
    start, mine, span = common_window(X, mX)
    c = X.semigroup.conductor
    assert all(tuple(g.window_vector(X.delta, c)) in X.matrix.rows for g in gens)
    assert not any(mX.support_ideal().contains(g.order) for g in gens)
    assert len(gens) == X.mu()
    assert FractionalIdeal.from_generators(X.semigroup, X.field, gens) == X
    wide = [g.window_vector(start, mine.ncols) for g in gens]
    assert linalg.sum_spaces(span, wide) == mine


def colon_example(gens, p, *exprs):
    """An ideal_cases case (I, J, e, 0) of the seeded loop that
    TestColonBruteForce replaces: J is generated by I's first generator."""
    H = NumericalSemigroup(gens)
    I, J = (series_ideal(H, GF(p), *exprs[:k]) for k in (len(exprs), 1))
    return I, J, H.multiplicity, 0


class TestColonBruteForce:
    """Acceptance criterion: exhaustive window enumeration over F_2/F_3."""

    def _brute_colon_rows(self, I, J):
        p = I.field.characteristic
        start, end = I.delta - J.delta, I.gamma - J.delta
        width = end - start
        gens = J.module_generators()
        rows = []
        for coeffs in itertools.product(range(p), repeat=width):
            if not any(coeffs):
                continue
            x = TruncatedSeries.from_window(I.field, start, list(coeffs))
            ok = True
            for g in gens:
                prod = x.mul(g)
                if any(e < I.delta for e in prod.coeffs):
                    ok = False
                    break
                vec = prod.window_vector(I.delta, I.gamma - I.delta)
                if not linalg.member(vec, I.matrix)[0]:
                    ok = False
                    break
            if ok:
                rows.append(list(coeffs))
        return start, end, rows

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([e for e in SERIES_ENGINES if e.field in (GF(2), GF(3))])
           .flatmap(ideal_cases))
    @example(colon_example([2, 5], 2, "t^4 + t^5 + t^6 + t^7"))
    @example(colon_example([2, 5], 2, "t^2 + t^3"))
    @example(colon_example([3, 5], 2, "1 + t + t^2"))
    @example(colon_example([3, 5], 3, "t + 2*t^3 + t^4"))
    @example(colon_example([3, 4], 2, "t^4 + t^5 + t^6 + t^7", "t^4 + t^6"))
    @example(colon_example([3, 4], 2, "1 + t + t^3"))
    @example(colon_example([2, 5], 3, "t^2 + t^3 + 2*t^4 + t^5"))
    @example(colon_example([3, 5], 2, "t + t^4", "t + t^2"))
    @example(colon_example([3, 5], 2, "1 + t^2 + t^3", "1"))
    @example(colon_example([3, 4], 2, "1 + t + t^3", "t^3"))
    @example(colon_example([2, 5], 3, "t^3 + t^4"))
    def test_against_enumeration(self, case):
        I, J = case[:2]
        H, field = I.semigroup, I.field
        assume(field.characteristic ** H.conductor <= 7000)
        start, end, rows = self._brute_colon_rows(I, J)
        rebuilt = FractionalIdeal._build(H, start, CoeffMatrix(field, end - start, rows))
        assert rebuilt == I.colon(J)


def rereduced_window(H, start, matrix):
    """_build's window, by reducing the cut or padded rows once more."""
    c, field = H.conductor, matrix.field
    end = start + matrix.ncols
    delta = start + matrix.pivots[0] if matrix.rows else end
    off = delta - start
    zero, one = field.zero(), field.one()
    rows = [(list(r[off:]) + [zero] * c)[:c] for r in matrix.rows]
    rows += [[one if i == u - delta else zero for i in range(c)] for u in range(end, delta + c)]
    return CoeffMatrix(field, c, rows)


@st.composite
def windowed_spans(draw):
    H = NumericalSemigroup(draw(st.sampled_from(SERIES_POOL)))
    field = draw(st.sampled_from([QQ, GF(7)]))
    width = draw(st.integers(min_value=1, max_value=2 * H.conductor + 2))
    cell = st.sampled_from([0, 0, 0, 1, 2, -1, 5])
    rows = draw(st.lists(st.lists(cell, min_size=width, max_size=width), max_size=width))
    return H, draw(st.integers(min_value=-5, max_value=5)), CoeffMatrix(field, width, rows)


@settings(max_examples=150, deadline=None)
@given(windowed_spans())
# prefix cut: the row with pivot 4 lies past delta + c = 3 and vanishes
@example((H345, 0, CoeffMatrix(GF(7), 6, [[1, 0, 2, 0, 0, 1], [0, 1, 3, 0, 0, 0], [0, 0, 0, 0, 1, 4]])))
# padded branch: delta = 1, so the window [1, 4) gains unit rows at 2 and 3
@example((H345, 0, CoeffMatrix(QQ, 2, [[0, 1]])))
@example((H345, 3, CoeffMatrix(GF(7), 2, [])))
def test_build_marks_only_reduced_matrices_reduced(span):
    H, start, matrix = span
    out = FractionalIdeal._build(H, start, matrix).matrix
    again = reduce_echelon(out)
    assert again == out and again.pivots == out.pivots
    assert out == rereduced_window(H, start, matrix)


@st.composite
def reframings(draw):
    """(matrix, shift, width) for _reframe: shifts up to past the whole old window."""
    _, _, matrix = draw(windowed_spans())
    shift = draw(st.integers(min_value=-5, max_value=matrix.ncols + 6))
    return matrix, shift, draw(st.integers(min_value=1, max_value=matrix.ncols + 6))


def reframed_span(matrix, shift, width):
    """_reframe's result by a meet and a cut: the span plus the tail past its
    window, met with the vectors that are zero before ``shift``, cut to
    [shift, shift + width) and reduced again.
    """
    field, n = matrix.field, matrix.ncols
    lo, hi = min(shift, 0), max(n, shift + width)
    zero, one = field.zero(), field.one()

    def unit(u):
        return [one if i == u - lo else zero for i in range(hi - lo)]

    span = [[zero] * -lo + list(r) + [zero] * (hi - n) for r in matrix.rows]
    span = CoeffMatrix(field, hi - lo, span + [unit(u) for u in range(n, hi)])
    after = CoeffMatrix(field, hi - lo, [unit(u) for u in range(shift, hi)])
    meet = zassenhaus_intersect(span, after)
    return CoeffMatrix(field, width, [r[shift - lo:shift - lo + width] for r in meet.rows])


@settings(max_examples=200, deadline=None)
@given(reframings())
# padded on the left, and on the right with unit rows
@example((CoeffMatrix(QQ, 4, [[1, 2, 0, 0], [0, 0, 1, 3]]), -2, 7))
# a right cut: the last row and the free cells past the cut go
@example((CoeffMatrix(GF(7), 5, [[1, 0, 2, 0, 5], [0, 1, 3, 0, 0], [0, 0, 0, 1, 4]]), 0, 3))
# a positive shift drops zero columns
@example((CoeffMatrix(QQ, 5, [[0, 0, 1, 2, 0], [0, 0, 0, 0, 1]]), 2, 5))
# a window left of the old one
@example((CoeffMatrix(QQ, 1, []), -2, 1))
# a shift past the lowest pivot keeps only the rows whose pivot is at or past it
@example((CoeffMatrix(GF(7), 5, [[1, 0, 2, 0, 5], [0, 1, 3, 0, 0], [0, 0, 0, 1, 4]]), 1, 6))
# a shift past the whole old window: no row is kept, every column is a unit row
@example((CoeffMatrix(QQ, 3, [[1, 0, 2], [0, 1, 4]]), 5, 4))
def test_reframe_matches_the_meet_and_cut(case):
    matrix, shift, width = case
    matrix.tails()
    out = fracideal._reframe(matrix, shift, width)
    assert out == reframed_span(matrix, shift, width)
    fresh = CoeffMatrix(out.field, width, out.rows, out.pivots)
    assert out.tails() == fresh.tails()


# I moved by |s| <= c + 3, and I with an unrelated ideal of any order, J moved by s
shifted_ideals = series_ideals.flatmap(
    lambda I: st.integers(-I.semigroup.conductor - 3, I.semigroup.conductor + 3).map(I.shift))
ideal_pairs = series_cases.map(lambda case: (case[0], case[1].shift(case[3])))

H59, H4911, H68911 = (NumericalSemigroup(g) for g in ([5, 9], [4, 9, 11], [6, 8, 9, 11]))
# pairs of ideals with no monomial generator at conductors past SERIES_POOL's
# c <= 12: <5,9> (c = 32), <4,9,11> (c = 15) and <6,8,9,11> (c = 14)
WIDE_PAIRS = [
    (series_ideal(H59, QQ, "t^3 + 2*t^5 - t^8", "t^11 + t^12 + 3*t^16"),
     series_ideal(H59, QQ, "t^7 - t^9 + 2*t^13")),
    (series_ideal(H59, GF(7), "t^2 + 3*t^4 + t^7"),
     series_ideal(H59, GF(7), "t^6 + 5*t^8 + t^9", "t^20 + 2*t^23")),
    (series_ideal(H4911, QQ, "t + t^3 - 2*t^6", "t^9 + 5*t^10"),
     series_ideal(H4911, QQ, "t^5 + 3*t^7 + t^8")),
    (series_ideal(H4911, GF(7), "t^4 + 6*t^5 + t^9"),
     series_ideal(H4911, GF(7), "t^2 + t^6 + 4*t^7", "t^12 + 3*t^15")),
    (series_ideal(H68911, QQ, "t^3 + 2*t^4 + t^7"),
     series_ideal(H68911, QQ, "t^8 - t^10 + 4*t^13", "t + t^2")),
    (series_ideal(H68911, GF(7), "t^5 + 2*t^8 + 3*t^11", "t^9 + t^10"),
     series_ideal(H68911, GF(7), "1 + 6*t^4 + t^6")),
]


def wide_examples(shape=lambda I, J: (I, J)):
    """An @example for each of WIDE_PAIRS, in the case shape of the test."""
    def decorate(test):
        for I, J in WIDE_PAIRS:
            test = example(shape(I, J))(test)
        return test
    return decorate


@settings(max_examples=120, deadline=None)
@given(ideal_pairs)
# single-term generators with coefficient 2 and -3/2
@example((series_ideal(H37, QQ, "2*t^6", "t^7 + t^8"), series_ideal(H37, QQ, "-3/2*t^3", "t^7")))
@example((series_ideal(H345, GF(32003), "5*t^4", "7*t^3"), series_ideal(H345, GF(32003), "t^3 - t^4")))
# no generator is a single term in the window
@example((series_ideal(H37, GF(3), "t^3 + t^4", "t^7 - t^8"), series_ideal(H37, GF(3), "t^3 + 2*t^4")))
@example((series_ideal(H456, QQ, "t^4 + t^5", "t^6 - 2*t^7"), series_ideal(H456, QQ, "t^4 + t^6")))
@wide_examples()
def test_multiply_and_add_match_the_references(pair):
    I, J = pair
    for a, b in ((I, J), (J, I), (I, I)):
        product, expected = a.multiply(b), multiply_reference(a, b)
        assert product == expected and product.matrix.pivots == expected.matrix.pivots
        total, expected = a.add(b), full_stack_add(a, b)
        assert total == expected and total.matrix.pivots == expected.matrix.pivots
    # generators known exactly to the window's end give I, and one cell
    # short of it are refused; c = 0 has no window to fall short of
    H, F = I.semigroup, I.field
    if H.conductor:
        tight = FractionalIdeal.from_generators(H, F, [g.truncate(I.gamma) for g in I.generators])
        assert tight == I
        assert tight.multiply(J) == multiply_reference(tight, J) == I.multiply(J)
        with pytest.raises(ArgumentError, match="precision"):
            FractionalIdeal.from_generators(H, F, [g.truncate(I.gamma - 1) for g in I.generators])


def drop_a_middle_row(X):
    """X's basis without its middle row, built by __init__: ``_maximal_span()``
    raises when series_stable rejects the span and passes when it accepts
    it.  Returns whether it raised."""
    rows, pivots = list(X.matrix.rows), list(X.matrix.pivots)
    k = len(rows) // 2
    del rows[k], pivots[k]
    H, F = X.semigroup, X.field
    broken = FractionalIdeal(H, F, X.delta, CoeffMatrix(F, H.conductor, rows, pivots))
    if series_stable(broken):
        broken._maximal_span()
        return False
    with pytest.raises(ConsistencyError, match="not stable"):
        broken._maximal_span()
    return True


@settings(max_examples=40, deadline=None)
@given(ideal_pairs)
@wide_examples()
def test_operation_results_are_stable_ideals(pair):
    # each result has its lowest value at delta and a span stable under H,
    # m X <= X holds where __init__'s check builds m X, and its generators
    # are minimal; without a middle row an unstable basis is refused
    I, J = pair
    K, c = I.canonical_ideal(), I.semigroup.conductor
    results = [I.multiply(J), J.multiply(I), I.multiply(I), I.colon(J), J.colon(I), I.colon(I),
               K.colon(I), I.intersect(J), I.intersect(K), I.add(K)]
    for X in [I, J] + results:
        assert not c or X.matrix.pivots[0] == 0
        X._maximal_span()  # kept by from_generators, built and checked otherwise
        assert series_stable(X)
        if c:  # c = 0: the window is empty, and mu = 1 is a law
            assert_minimal_generators(X)
        if X.matrix.rank >= 3:
            drop_a_middle_row(X)


def test_a_basis_missing_a_middle_row_is_refused():
    # the rows of (t^6 - t^7, t^10) over <3,7> have their pivots at 6, 9, 10
    # and 12 to 17; without the one at 13, t^3 times the row at 10 leaves the span
    assert drop_a_middle_row(series_ideal(H37, QQ, "t^6 - t^7", "t^10"))


@settings(max_examples=150, deadline=None)
@given(shifted_ideals)
@example(series_ideal(NumericalSemigroup([1]), QQ, "t^-2 + t"))  # c = 0
@example(series_ideal(NumericalSemigroup([2, 3]), GF(3), "t^-1 + 2*t^0", "t^2"))
@example(series_ideal(H37, QQ, "-3/2*t^-3 + t^-2", "t + 2*t^2"))
@example(series_ideal(H456, GF(32003), "t^4 + 5*t^5 - t^7", "t^6 + t^9"))
def test_canonical_duality_and_the_gap_colon(I):
    # on both engines: K : I = I^perp, (I^perp)^perp = I, R : I = (K I)^perp,
    # and I : I with unknowns on the gaps agrees with every column solved for
    for X in (I, I.support_ideal()):
        K, R = X.canonical_ideal(), X.unit_ideal()
        dual = X.canonical_dual()
        assert dual == colon_reference(K, X), X.describe()
        assert dual.canonical_dual() == X
        assert K.multiply(X).canonical_dual() == R.colon(X)
        assert X.colon(X) == colon_reference(X, X)


@settings(max_examples=120, deadline=None)
@given(shifted_ideals)
@example(series_ideal(NumericalSemigroup([1]), QQ, "t^-2 + t"))  # c = 0: t^(delta+1) k[[t]]
@example(series_ideal(NumericalSemigroup([2, 3]), GF(3), "t^-1 + 2*t^0", "t^2"))  # c = e
@example(series_ideal(H37, GF(2), "t^3 + t^4", "t^7"))
def test_maximal_product_is_the_product_with_m(I):
    # m I, built as a span on I's own window (and checked, for a shifted
    # ideal), against the product ideal m I moved to that window
    assert_maximal_span_is_the_product(I)


@settings(max_examples=150, deadline=None)
@given(series_ideals)
@example(series_ideal(NumericalSemigroup([1]), QQ, "t^-2 + t"))  # c = 0
@example(series_ideal(NumericalSemigroup([2, 3]), GF(3), "t^-1 + 2*t^0", "t^2"))  # c = e
@example(series_ideal(H37, GF(2), "t^3 + t^4", "t^7"))
@example(series_ideal(H456, GF(32003), "t^4 + 5*t^5 - t^7", "t^6 + t^9", "t^11"))
def test_the_kept_maximal_span_is_the_product_with_m(I):
    # from_generators keeps the span of the translates t^h g, h > 0, as m I
    # without checking it: it must be the product m I, row for row
    assert I._mspan is not None
    assert_maximal_span_is_the_product(I)


def assert_maximal_span_is_the_product(I):
    """``_maximal_span()`` is the product m I moved onto I's window, row for
    row, and mu is l(I/mI); for c = 0 the window is empty and mu = 1."""
    span = I._maximal_span()
    expected = I.maximal_ideal().multiply(I)
    moved = fracideal._reframe(expected.matrix, I.delta - expected.delta, I.semigroup.conductor)
    assert (span.rows, span.pivots) == (moved.rows, moved.pivots), I.describe()
    assert I.mu() == I.quotient_length(expected)


@st.composite
def window_pairs(draw):
    """Two ideals over one semigroup, often one inside the other, with deltas
    that may differ by more than c (t^a R : m against R, as in the socle of a
    parameter), a shape ideal_cases does not draw.
    """
    H = NumericalSemigroup(draw(st.sampled_from(SERIES_POOL)))
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    I, J = draw(generated_ideals(H, field)), draw(generated_ideals(H, field))
    R, a = I.unit_ideal(), draw(st.integers(0, 3 * H.conductor))
    pairs = {
        "any": lambda: (I, J),
        "product": lambda: (I, I.multiply(J)),
        "sum": lambda: (I.add(J), J),
        "meet": lambda: (I.intersect(J), J),
        "maximal": lambda: (I, I.maximal_ideal().multiply(I)),
        "socle": lambda: (R.shift(a).colon(I.maximal_ideal()), R),
    }
    return pairs[draw(st.sampled_from(sorted(pairs)))]()


def common_window_contains(I, J):
    """J <= I on the common window: the old containment test."""
    if J.delta < I.delta:
        return False
    _, mine, theirs = common_window(I, J)
    return not any(map(any, linalg._reduce_rows(I.field, theirs.rows, mine)))


@settings(max_examples=120, deadline=None)
@given(window_pairs())
@example((series_ideal(H37, GF(2), "t^3 + t^4", "t^7"), series_ideal(H37, GF(2), "t^6 + t^8")))
# deltas 14 and 0 with c = 6: the meet moves R past its whole window
@example((R34.shift(14).colon(R34.maximal_ideal()), R34))
def test_own_window_operations_match_the_common_window(pair):
    for I, J in (pair, pair[::-1]):
        start, a, b = common_window(I, J)
        contained = common_window_contains(I, J)
        assert I.contains_ideal(J) == contained
        if contained:
            assert I.quotient_length(J) == a.rank - b.rank
        else:
            with pytest.raises(ContainmentError):
                I.quotient_length(J)
        meet = I.intersect(J)
        expected = FractionalIdeal._build(I.semigroup, start, linalg.intersect(a, b))
        assert meet == expected and meet.matrix.pivots == expected.matrix.pivots
        assert_minimal_generators(I)


def gaps_from_the_least_passing(I):
    """The gaps of H at or past the least gap g with g + v(I) <= v(I), off the
    value set: the unknowns of I : I."""
    v, gaps = I.support_ideal(), I.semigroup.gaps()
    values = [u for u in range(I.delta, I.gamma) if v.contains(u)]
    passing = [g for g in gaps if all(v.contains(g + u) for u in values)]
    return [g for g in gaps if passing and g >= passing[0]]


@settings(max_examples=150, deadline=None)
@given(series_cases.map(lambda case: (case[0], case[1].shift(case[3]), case[3])))
@example((series_ideal(NumericalSemigroup([1]), QQ, "t^-2 + t"),  # the DVR, c = 0
          series_ideal(NumericalSemigroup([1]), QQ, "t^3"), 2))
# negative delta, and values on gaps: neither ideal lies in R
@example((series_ideal(H37, GF(3), "t^-2 + t^-1", "t + 2*t^4"),
          series_ideal(H37, GF(3), "t + t^2", "t^5"), -3))
# value-closed: no gap g has g + v(I) <= v(I), so I : I = R with no unknown
@example((series_ideal(H345, GF(32003), "1", "t + t^2"), series_ideal(H345, GF(32003), "t^2"), 1))
@example((series_ideal(H456, QQ, "t^4 + t^5", "t^6 - 2*t^7"), series_ideal(H456, QQ, "t^-1"), 3))
@wide_examples(lambda I, J: (I, J, 1))
def test_colon_solves_from_the_least_value_that_passes(case):
    # the colon's unknowns start at the least column the value sets allow;
    # the reference solves on every column of the window
    I, J, s = case
    for X in (I, J, I.canonical_ideal(), I.maximal_ideal(), I.shift(s)):
        assert I.colon(X) == colon_reference(I, X), (I.describe(), X.describe())
        assert X.colon(I) == colon_reference(X, I), (X.describe(), I.describe())


@pytest.mark.pin
class TestWorkCounts:
    """Each ideal operation row-reduces once; no time is measured."""

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_one_row_reduction_per_operation(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 - t^7", "t^10")
        J = series_ideal(H37, field, "t^3 + 2*t^4", "t^7")
        K = series_ideal(H37, field, "t^3 - t^4", "t^8")
        assert J.contains_ideal(I) and not (J.contains_ideal(K) or K.contains_ideal(J))
        J.module_generators()  # colon reads them; built here, outside the count
        # one list, in call order: (field, rows) per reduction, (span, rows) per sum
        events = record_calls(monkeypatch, linalg, "_rref")
        record_calls(monkeypatch, linalg, "sum_spaces", events)
        counts = {}
        for label, name, x, y in (
            ("multiply", "multiply", I, J),
            ("add, I <= J", "add", I, J),
            ("add", "add", J, K),
            ("intersect", "intersect", I, J),
            ("colon", "colon", I, J),
        ):
            before = len(events)
            getattr(x, name)(y)
            calls = events[before:]
            widths = [len(rows[0]) for f, rows in calls if not isinstance(f, CoeffMatrix)]
            if name in ("multiply", "add"):
                # one sum, and it reduces only residuals on its basis's free columns
                (span,) = [f for f, _ in calls if isinstance(f, CoeffMatrix)]
                assert calls[0][0] is span and all(w <= span.ncols - span.rank for w in widths)
            counts[label] = len(widths)
        # a sum containing the added span reduces nothing; the colon reduces its
        # constraint with reversed columns, which leaves its solutions reduced
        assert counts == {"multiply": 1, "add, I <= J": 0, "add": 1, "intersect": 1, "colon": 1}

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_duals_reduce_nothing_and_the_self_colon_solves_on_the_gaps(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 - t^7", "t^10")
        J = series_ideal(H37, field, "t^3 + 2*t^4", "t^7")
        assert all(X.matrix.tails()[1] for X in (I, J))  # cells the duals negate
        calls = record_calls(monkeypatch, linalg, "_rref")
        I.canonical_dual()
        J.canonical_dual()
        assert calls == []
        I.colon(I)
        # one reduction, of constraints on the gap columns at or past the least
        # gap g with g + v(I) <= v(I)
        (call,) = calls
        width = len(gaps_from_the_least_passing(I))
        assert 0 < width < len(H37.gaps())
        assert call[1] and all(len(row) == width for row in call[1])

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_a_value_closed_self_colon_is_R_with_no_reduction(self, monkeypatch, field):
        # v(I) = {0, 1, 3, 4, ...}: 1 + 1 and 2 + 0 are not values, so no gap passes
        I = series_ideal(H345, field, "1", "t + t^2")
        assert not I.is_monomial() and I.mu() == 2
        assert gaps_from_the_least_passing(I) == []
        calls = record_calls(monkeypatch, linalg, "_rref")
        assert I.colon(I) == I.unit_ideal()
        assert calls == []

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_the_self_colon_solves_from_the_least_passing_gap(self, monkeypatch, field):
        # the gaps of <4,5,6> are 1, 2, 3, 7; 2 and 7 pass, 3 lies between them
        I = series_ideal(H456, field, "t^4 + t^5", "t^6 - 2*t^7")
        assert gaps_from_the_least_passing(I) == [2, 3, 7]
        calls = record_calls(monkeypatch, linalg, "nullspace")
        endo = I.colon(I)
        assert [ncols for _, ncols, _ in calls] == [3]
        assert endo == colon_reference(I, I) != I.unit_ideal()

    def test_endo_meet_dim_reduces_every_exponent(self, monkeypatch):
        # the colon's value bound is not shared: gap 1 fails it and is still reduced
        I = series_ideal(H37, GF(7), "t^6 - t^7", "t^10")
        assert gaps_from_the_least_passing(I)[0] == 4
        reductions = record_calls(monkeypatch, linalg, "_reduce_rows")
        I.endo_meet_dim([1, 4, 11])
        (call,) = reductions
        assert len(call[1]) == 3 * len(I._generator_rows())

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_intersect_reduces_the_lower_rank_only(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 - t^7", "t^10")
        J = series_ideal(H37, field, "t^3 + 2*t^4", "t^7")
        _, a, b = common_window(I, J)
        assert a.rank != b.rank
        calls = record_calls(monkeypatch, linalg, "_rref")
        I.intersect(J)
        J.intersect(I)
        assert [len(rows) for _, rows in calls] == [min(a.rank, b.rank)] * 2

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_multiply_builds_no_zero_row(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 - t^7", "t^10")
        J = series_ideal(H37, field, "t^3 + 2*t^4", "t^7")
        calls = record_calls(monkeypatch, linalg, "_rref")
        for x, y in ((I, J), (J, I), (I, I)):
            x.multiply(y)
        assert len(calls) == 3
        assert all(all(map(any, rows)) for _, rows in calls)

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_predicates_reduce_once_without_member(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 - t^7", "t^10")
        R = I.unit_ideal()
        # from_generators kept m I on I's window, which mu and module_generators read
        members = record_calls(monkeypatch, linalg, "member")
        reductions = record_calls(monkeypatch, linalg, "_reduce_rows")
        counts = {}
        for name, call, own in (
            ("contains_ideal", lambda: R.contains_ideal(I), R.matrix),
            ("quotient_length", lambda: R.quotient_length(I), R.matrix),
            ("mu", I.mu, None),
            ("module_generators", I.module_generators, None),
        ):
            before = len(reductions)
            call()
            counts[name] = len(reductions) - before
            # the containing ideal's own matrix is the basis, never a moved copy
            assert own is None or reductions[-1][2] is own
        # mu is two ranks of the kept span and I, and the generators are I's
        # rows off its pivots
        assert counts == {"contains_ideal": 1, "quotient_length": 1, "mu": 0,
                          "module_generators": 0}
        assert members == []

    @pytest.mark.parametrize("H", [H37, H345])
    def test_one_maximal_span_per_ideal(self, monkeypatch, H):
        sums = record_calls(monkeypatch, linalg, "sum_spaces")
        reductions = record_calls(monkeypatch, linalg, "_reduce_rows")
        built = series_ideal(H, GF(7), "t^6 - t^7", "t^10")
        # the generators' own rows are added to the span of their translates,
        # which is kept as m I: nothing more is summed or reduced to read it
        assert len(sums) == 1
        before = len(reductions)
        built._maximal_span()
        built.mu()
        built.module_generators()
        assert len(sums) == 1 and len(reductions) == before
        # an ideal made by __init__ builds m I and checks m I <= I once
        I = FractionalIdeal(H, built.field, built.delta, built.matrix)
        I._maximal_span()
        assert len(sums) == 2
        assert sum(1 for _, _, basis in reductions if basis is I.matrix) == 1
        before = len(reductions)
        I._maximal_span()
        I.mu()
        assert len(sums) == 2 and len(reductions) == before  # checked once
        assert I._maximal_span().rows == built._maximal_span().rows

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_classify_never_squares_a_principal_ideal(self, monkeypatch, field):
        I = series_ideal(H37, field, "t^6 + t^7")
        calls = record_calls(monkeypatch, FractionalIdeal, "multiply")
        report = typecalc.classify(I)
        assert report["proper"] and report["flags"]["is_principal"]
        assert not report["flags"]["is_ulrich_ideal"]
        assert not any(a is I and b is I for a, b in calls)

    def test_quotient_length_aligns_each_ideal_once(self, monkeypatch):
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        R = I.unit_ideal()
        calls = record_calls(monkeypatch, fracideal, "_reframe")
        assert R.quotient_length(I) == 3
        # only the contained ideal moves, onto R's window
        assert len(calls) == 1 and calls[0][0] is I.matrix


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_non_containment_with_equal_pivots(field):
    # both windows hold one row with pivot 0; only the cells past it differ
    plus = series_ideal(H345, field, "t^3 + t^4")
    minus = series_ideal(H345, field, "t^3 - t^4")
    assert plus.matrix.pivots == minus.matrix.pivots == (0,)
    for I, J in ((plus, minus), (minus, plus)):
        assert not I.contains_ideal(J)
        with pytest.raises(ContainmentError):
            I.quotient_length(J)


@pytest.mark.pin
@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_non_containment_decided_by_the_values(monkeypatch, field):
    # 4 is a value of J but not of m = (t^3, t^7): no residual is computed
    m = series_ideal(H37, field, "t^3", "t^7")
    J = series_ideal(H37, field, "t^4 + t^5", "t^8")
    assert J.delta > m.delta
    reductions = record_calls(monkeypatch, linalg, "_reduce_rows")
    assert not m.contains_ideal(J)
    with pytest.raises(ContainmentError):
        m.quotient_length(J)
    assert reductions == []
