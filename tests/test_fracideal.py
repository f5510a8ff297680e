import itertools
import random

import pytest

from cmtype import linalg
from cmtype.errors import ArgumentError, ConsistencyError, ContainmentError
from cmtype.fracideal import FractionalIdeal, from_relative, ideal_from_generators
from cmtype.linalg import GF, QQ, CoeffMatrix
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import EXACT, TruncatedSeries, parse_series
from helpers import SERIES_POOL, random_relative_ideal, random_semigroup

H345 = NumericalSemigroup([3, 4, 5])
H37 = NumericalSemigroup([3, 7])
H456 = NumericalSemigroup([4, 5, 6])


def series_ideal(H, field, *exprs, slack=0):
    return ideal_from_generators(H, field, [parse_series(s, field) for s in exprs], slack=slack)


class TestConstruction:
    def test_monomial_pair_equals_relative(self):
        I = series_ideal(H345, QQ, "t^3", "t^4")
        assert (I.delta, I.gamma) == (3, 6)
        assert I == from_relative(RelativeIdeal.from_exponents(H345, {3, 4}), QQ)
        assert I.is_monomial()

    def test_ulrich_window(self):
        I = series_ideal(H37, GF(5), "t^6 - 2*t^7", "t^10")
        assert (I.delta, I.gamma) == (6, 18)
        assert not I.is_monomial()
        I.validate()

    def test_dvr_whole_ring(self):
        H1 = NumericalSemigroup([1])
        I = series_ideal(H1, QQ, "1")
        assert (I.delta, I.gamma) == (0, 0)
        assert I.mu() == 1 and I.is_principal()

    def test_all_zero_generators_rejected(self):
        with pytest.raises(ArgumentError):
            ideal_from_generators(H345, QQ, [TruncatedSeries.zero(QQ)])

    def test_field_mismatch_rejected(self):
        with pytest.raises(ArgumentError):
            ideal_from_generators(H345, QQ, [parse_series("t^3", GF(5))])

    def test_insufficient_precision_rejected(self):
        short = TruncatedSeries(QQ, {3: 1}, precision=4)
        with pytest.raises(ArgumentError, match="precision"):
            ideal_from_generators(H345, QQ, [short])

    def test_zero_generators_dropped(self):
        I = ideal_from_generators(H345, QQ, [TruncatedSeries.zero(QQ), parse_series("t^5", QQ)])
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
        K = from_relative(H345.canonical_relative_ideal(), QQ)
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
        assert a.add(b) == series_ideal(H345, QQ, "t^3", "t^4")

    def test_intersect_monomials(self):
        a = series_ideal(H345, QQ, "t^3")
        b = series_ideal(H345, QQ, "t^4")
        expected = RelativeIdeal.from_exponents(H345, {3}).intersect(
            RelativeIdeal.from_exponents(H345, {4})
        )
        assert a.intersect(b) == from_relative(expected, QQ)

    def test_shift_round_trip(self):
        I = series_ideal(H37, QQ, "t^6 - t^7", "t^10")
        assert I.shift(5).shift(-5) == I
        assert I.shift(3).mu() == I.mu()


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
        assert from_relative(R, QQ) == from_relative(R, QQ).unit_ideal()

    def test_canonical_mu(self):
        K = from_relative(H345.canonical_relative_ideal(), QQ)
        assert K.mu() == 2

    def test_matches_generator_construction(self):
        E = RelativeIdeal.from_exponents(H345, {3, 5})
        assert from_relative(E, QQ) == series_ideal(H345, QQ, "t^3", "t^5")

    def test_support_round_trip(self):
        rng = random.Random(21)
        for _ in range(40):
            H = random_semigroup(rng)
            E = random_relative_ideal(rng, H)
            S = from_relative(E, GF(3))
            assert S.support_ideal() == E
            assert from_relative(S.support_ideal(), GF(3)).contains_ideal(S)


class TestPrecisionStability:
    def test_slack_does_not_change_results(self):
        field = GF(5)
        for slack in (0, 1, 3):
            a = series_ideal(H37, field, "t^6 - 2*t^7", "t^10", slack=slack)
            b = series_ideal(H37, field, "t^6 - 2*t^7", "t^10", slack=slack + 3)
            assert a == b
            assert a.colon(a) == b.colon(b)
            assert a.multiply(a) == b.multiply(b)
            assert a.mu() == b.mu()
            assert a.unit_ideal().quotient_length(a) == b.unit_ideal().quotient_length(b)


class TestEngineAgreement:
    """Monomial inputs: every operation matches the relative-ideal engine."""

    def test_random_instances(self):
        rng = random.Random(22)
        for _ in range(200):
            H = random_semigroup(rng, hi=12)
            field = rng.choice([QQ, GF(2), GF(5)])
            E = random_relative_ideal(rng, H)
            F = random_relative_ideal(rng, H)
            a, b = from_relative(E, field), from_relative(F, field)
            assert a.mu() == E.mu()
            assert a.colon(b) == from_relative(E.colon(F), field)
            assert a.multiply(b) == from_relative(E.multiply(F), field)
            assert a.add(b) == from_relative(E.add(F), field)
            assert a.intersect(b) == from_relative(E.intersect(F), field)
            assert a.contains_ideal(b) == E.contains_ideal(F)
            if E.contains_ideal(F):
                assert a.quotient_length(b) == E.quotient_length(F)

    def test_find_reduction(self):
        rng = random.Random(25)
        outcomes = set()
        for H in (H37, H345, H456):
            ideals = [H.canonical_relative_ideal(), RelativeIdeal.from_exponents(H, H.generators)]
            ideals += [random_relative_ideal(rng, H) for _ in range(12)]
            for E in ideals:
                field = rng.choice([QQ, GF(5)])
                red = E.find_reduction()
                got = from_relative(E, field).find_reduction()
                outcomes.add(red is None)
                if red is None:
                    assert got is None
                else:
                    assert got == from_relative(red, field)
        assert outcomes == {True, False}


def _as_series(I, row):
    return TruncatedSeries.from_window(I.field, I.delta, row, precision=EXACT)


def series_multiply(I, J):
    """I J through TruncatedSeries.mul and window_vector."""
    start, end = I.delta + J.delta, I.delta + J.gamma
    rows = [
        g.mul(_as_series(J, b)).window_vector(start, end - start)
        for g in I.generators or I.module_generators()
        for b in J.matrix.rows
    ]
    return FractionalIdeal._build(I.semigroup, I.field, start, end, rows)


def series_colon(I, J):
    """I : J with one shifted series per unknown, as a nullspace."""
    start, end = I.delta - J.delta, I.gamma - J.delta
    constraint = []
    for g in J.module_generators():
        vecs = [g.shift(u).window_vector(I.delta, I.gamma - I.delta) for u in range(start, end)]
        residuals = linalg._reduce_rows(I.field, vecs, I.matrix)
        constraint += [list(col) for col in zip(*residuals) if any(col)]
    solutions = linalg.nullspace(CoeffMatrix(I.field, end - start, constraint))
    rows = [list(r) for r in solutions.rows]
    return FractionalIdeal._build(I.semigroup, I.field, start, end, rows)


def series_stable(I):
    """Every basis row times t^a, a a generator of H, stays in the span."""
    width = I.gamma - I.delta
    return all(
        linalg.member(_as_series(I, row).shift(a).window_vector(I.delta, width), I.matrix)[0]
        for row in I.matrix.rows
        for a in I.semigroup.generators
    )


class TestRowLayerReference:
    """Non-monomial inputs: the row arithmetic matches the series arithmetic."""

    SEMIGROUPS = [[3, 7], [5, 9], [4, 9, 11], [6, 8, 9, 11]]

    def random_coeffs(self, rng, field, H):
        o = rng.randrange(H.conductor)
        coeffs = {o: 1}
        for e in rng.sample(range(o + 1, o + 8), 3):
            coeffs[e] = rng.randrange(1, 7) if field is QQ else rng.randrange(field.characteristic)
        return coeffs

    def instances(self):
        rng = random.Random(26)
        for gens in self.SEMIGROUPS:
            H = NumericalSemigroup(gens)
            for field in (QQ, GF(7)):
                ideals = []
                for _ in range(2):
                    coeffs = [self.random_coeffs(rng, field, H) for _ in range(rng.randint(1, 2))]
                    ideals.append([TruncatedSeries(field, c) for c in coeffs])
                yield H, field, ideals

    def test_multiply_colon_validate(self):
        corrupted_unstable = 0
        for H, field, (gens_i, gens_j) in self.instances():
            I = ideal_from_generators(H, field, gens_i)
            J = ideal_from_generators(H, field, gens_j)
            assert not (I.is_monomial() and J.is_monomial())
            results = []
            for a, b in ((I, J), (J, I), (I, I)):
                results += [a.multiply(b), a.colon(b)]
                assert results[-2] == series_multiply(a, b)
                assert results[-1] == series_colon(a, b)
            for X in [I, J] + results:
                assert series_stable(X)
                X.validate()
                if X.matrix.rank < 3:
                    continue
                rows = list(X.matrix.rows)
                pivots = list(X.matrix.pivots)
                k = len(rows) // 2
                del rows[k], pivots[k]
                broken = FractionalIdeal(
                    H, field, X.delta, X.gamma,
                    CoeffMatrix(field, X.gamma - X.delta, rows, pivots=pivots, reduced=True),
                )
                if series_stable(broken):
                    broken.validate()
                else:
                    corrupted_unstable += 1
                    with pytest.raises(ConsistencyError, match="not stable"):
                        broken.validate()
        assert corrupted_unstable > 0

    def test_generator_precision_at_the_window_edge(self):
        for H, field, (gens_i, gens_j) in self.instances():
            I = ideal_from_generators(H, field, gens_i)
            tight = [TruncatedSeries(field, g.coeffs, precision=I.gamma) for g in gens_i]
            I_tight = ideal_from_generators(H, field, tight)
            assert I_tight == I
            J = ideal_from_generators(H, field, gens_j)
            assert I_tight.multiply(J) == series_multiply(I_tight, J) == I.multiply(J)
            # J's window one wider needs each generator of I one term further
            J_wide = ideal_from_generators(H, field, gens_j, slack=1)
            with pytest.raises(ArgumentError, match="precision"):
                I_tight.multiply(J_wide)
            with pytest.raises(ArgumentError, match="precision"):
                series_multiply(I_tight, J_wide)
            short = [TruncatedSeries(field, g.coeffs, precision=I.gamma - 1) for g in gens_i]
            with pytest.raises(ArgumentError, match="precision"):
                ideal_from_generators(H, field, short)


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

    def test_against_enumeration(self):
        rng = random.Random(23)
        checked = 0
        while checked < 12:
            H = NumericalSemigroup(rng.choice([[2, 3], [3, 4], [2, 5], [3, 5]]))
            p = rng.choice([2, 3])
            field = GF(p)
            gens = []
            for _ in range(rng.randint(1, 2)):
                o = rng.randint(0, 4)
                coeffs = {o: 1}
                for e in range(o + 1, o + 4):
                    coeffs[e] = rng.randrange(p)
                gens.append(TruncatedSeries(field, coeffs))
            I = ideal_from_generators(H, field, gens)
            if I.gamma - I.delta > 8 or p ** (I.gamma - I.delta) > 7000:
                continue
            J = ideal_from_generators(H, field, gens[:1])
            start, end, rows = self._brute_colon_rows(I, J)
            rebuilt = FractionalIdeal._build(H, field, start, end, rows)
            assert rebuilt == I.colon(J)
            checked += 1


def test_validate_on_random_operation_results():
    rng = random.Random(24)
    for _ in range(25):
        H = NumericalSemigroup(rng.choice(SERIES_POOL))
        p = rng.choice([2, 3, 5])
        field = GF(p)
        gens = []
        for _ in range(rng.randint(1, 2)):
            o = rng.randint(0, max(H.conductor - 1, 1))
            coeffs = {o: 1}
            for e in range(o + 1, o + 4):
                if rng.random() < 0.6:
                    coeffs[e] = rng.randrange(1, p)
            gens.append(TruncatedSeries(field, coeffs))
        I = ideal_from_generators(H, field, gens)
        K = I.canonical_ideal()
        for result in (I, I.colon(I), I.multiply(I), K.colon(I), I.intersect(K), I.add(K)):
            result.validate()
