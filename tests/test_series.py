from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype.errors import ArgumentError, ParseError
from cmtype.linalg import GF, QQ
from cmtype.series import EXACT, TruncatedSeries, parse_generators, parse_series, series_mul


class TestParser:
    def test_basic(self):
        s = parse_series("t^6 - 1*t^7", QQ)
        assert s.order == 6
        assert s.coeffs == {6: Fraction(1), 7: Fraction(-1)}
        assert s.precision == EXACT

    def test_single_monomial(self):
        s = parse_series("t^10", QQ)
        assert s.coeffs == {10: Fraction(1)}

    def test_prime_field_coeffs(self):
        s = parse_series("2*t^4 + 3*t^5", GF(5))
        assert s.coeffs == {4: 2, 5: 3}

    def test_negative_coeff_reduced_mod_p(self):
        s = parse_series("t^6 - 2*t^7", GF(5))
        assert s.coeffs == {6: 1, 7: 3}

    def test_bare_t_and_constants(self):
        assert parse_series("t", QQ).coeffs == {1: Fraction(1)}
        assert parse_series("5", QQ).coeffs == {0: Fraction(5)}
        assert parse_series("1", QQ).order == 0

    def test_negative_exponent(self):
        s = parse_series("t^-2 + 1", QQ)
        assert s.order == -2

    def test_rational_coeff(self):
        s = parse_series("1/2*t^3 - 3/4", QQ)
        assert s.coeffs == {3: Fraction(1, 2), 0: Fraction(-3, 4)}

    def test_negative_leading_coeff(self):
        s = parse_series("-3*t^2 + t^4", QQ)
        assert s.coeffs == {2: Fraction(-3), 4: Fraction(1)}

    def test_cancellation_gives_zero_term(self):
        s = parse_series("t^3 - t^3 + t^5", QQ)
        assert s.coeffs == {5: Fraction(1)}

    def test_whitespace_insignificant(self):
        assert parse_series(" t ^ 2+ 3 * t ^ 4 ", QQ) == parse_series("t^2+3*t^4", QQ)

    def test_fraction_over_prime_field_rejected(self):
        with pytest.raises(ParseError):
            parse_series("1/2*t^3", GF(2))
        with pytest.raises(ParseError):
            parse_series("1/3", GF(5))

    @pytest.mark.parametrize(
        "text,pos",
        [
            ("t^", 2),
            ("2*", 2),
            ("t^3 +", 5),
            ("t^3 & t^4", 4),
            ("", 0),
            ("-t^2", 0),  # a bare sign needs digits: the grammar wants -1*t^2
        ],
    )
    def test_syntax_error_positions(self, text, pos):
        with pytest.raises(ParseError) as err:
            parse_series(text, QQ)
        assert err.value.position == pos

    def test_parse_generators_offsets(self):
        gens = parse_generators("t^3, t^4", QQ)
        assert [g.order for g in gens] == [3, 4]
        with pytest.raises(ParseError) as err:
            parse_generators("t^3, t^", QQ)
        assert err.value.position == 7

    @pytest.mark.parametrize(
        "text,message,pos",
        [
            (", t", "empty generator", 0),
            ("t,,t", "empty generator", 2),
            ("t, ", "empty generator", 2),  # where the generator starts, before its blank
            ("t, t^3 ,  ,t", "empty generator", 8),
            ("", "empty generator", 0),
            ("t^3 t^4, t", "expected '+' or '-'", 4),
            ("2*, t", "expected 't' after '*'", 2),
            ("2* , t", "expected 't' after '*'", 3),
            ("1/0, t", "zero denominator", 0),
            ("t^, t", "expected an integer", 2),
            ("t +, t", "expected a term", 3),
        ],
    )
    def test_parse_generators_errors(self, text, message, pos):
        with pytest.raises(ParseError) as err:
            parse_generators(text, QQ)
        assert str(err.value) == f"{message} (at position {pos})"
        assert err.value.position == pos

    def test_a_comma_ends_only_a_generator(self):
        with pytest.raises(ParseError) as err:
            parse_series("t, t", QQ)
        assert str(err.value) == "expected '+' or '-' (at position 1)"

    def test_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_series("1/0", QQ)
        assert str(err.value) == "zero denominator (at position 0)"


# a term is (sign, numerator, denominator or None, exponent or None for a
# constant, whether a coefficient of 1 is written out)
TERMS = st.lists(
    st.tuples(st.sampled_from("+-"), st.integers(-9, 9), st.none() | st.integers(1, 5),
              st.none() | st.integers(-3, 5), st.booleans()),
    min_size=1, max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(TERMS, st.sampled_from([QQ, GF(2), GF(32003)]))
@example([("+", 1, None, 1, False), ("+", -3, None, None, False)], GF(2))  # t + -3
@example([("+", -3, None, 2, True), ("-", -3, None, 2, True), ("+", 1, None, 4, False)], GF(32003))
@example([("+", 1, 2, 1, True), ("-", 3, 4, 1, True), ("+", 1, 4, 1, True)], QQ)  # cancels to 0
def test_parse_matches_the_fraction_sum(terms, field):
    # the parse of the terms' text against the sum of their coefficients
    # taken as Fractions, each coerced into the field
    pieces, expected = [], {}
    for k, (sign, num, den, exp, explicit) in enumerate(terms):
        den = den if field == QQ else None
        monomial = "t" if exp == 1 else f"t^{exp}"
        if exp is None:
            text = f"{num}" if den is None else f"{num}/{den}"
        elif (num, den) == (1, None) and not explicit:
            text = monomial
        else:
            text = f"{num}*{monomial}" if den is None else f"{num}/{den}*{monomial}"
        pieces.append(text if k == 0 else f"{sign} {text}")
        value = Fraction(num, den or 1) * (-1 if k and sign == "-" else 1)
        expected[exp or 0] = expected.get(exp or 0, 0) + value
    parsed = parse_series(" ".join(pieces), field)
    assert parsed == TruncatedSeries(field, expected)
    assert parsed.coeffs == {e: field.element(v) for e, v in expected.items() if field.element(v)}
    assert all(type(v) is (Fraction if field == QQ else int) for v in parsed.coeffs.values())


class TestArithmetic:
    def test_monomial_product(self):
        x = parse_series("t^3", QQ)
        y = parse_series("t^7", QQ)
        assert series_mul(x, y) == parse_series("t^10", QQ)

    def test_difference_of_squares(self):
        x = parse_series("t^6 - t^7", QQ)
        y = parse_series("t^6 + 1*t^7", QQ)
        assert series_mul(x, y) == parse_series("t^12 - t^14", QQ)

    def test_precision_contract(self):
        # x known mod t^9 with order 3, y exact t^4: product known mod t^13
        x = TruncatedSeries(QQ, {3: 1, 5: 2}, precision=9)
        y = TruncatedSeries(QQ, {4: 1})
        prod = series_mul(x, y)
        assert prod.precision == 13
        assert prod.coeffs == {7: Fraction(1), 9: Fraction(2)}

    def test_add_min_precision(self):
        x = TruncatedSeries(QQ, {2: 1}, precision=6)
        y = TruncatedSeries(QQ, {3: 1}, precision=8)
        assert x.add(y).precision == 6

    def test_shift_and_scale(self):
        x = parse_series("t^2 + t^3", GF(3))
        assert x.shift(4).coeffs == {6: 1, 7: 1}
        assert x.scale(2).coeffs == {2: 2, 3: 2}

    def test_zero_series(self):
        z = TruncatedSeries.zero(QQ)
        assert z.order is None and z.coeffs == {} and z.precision == EXACT
        x = parse_series("t^3", QQ)
        assert series_mul(x, z).coeffs == {}

    def test_fields_must_match(self):
        x, y = parse_series("t", QQ), parse_series("t", GF(5))
        for op in (x.add, x.mul):
            with pytest.raises(ArgumentError, match="field mismatch: QQ vs F_5"):
                op(y)

    def test_text_of_the_zero_series_and_of_a_finite_precision(self):
        assert str(TruncatedSeries.zero(QQ)) == "0"
        x = TruncatedSeries(QQ, {2: 1, 3: -2}, precision=5)
        assert repr(x) == "TruncatedSeries(t^2 - 2*t^3 + O(t^5))"
        assert repr(parse_series("t^2", QQ)) == "TruncatedSeries(t^2)"

    def test_window_vector_needs_precision(self):
        x = TruncatedSeries(QQ, {3: 1}, precision=5)
        assert x.window_vector(3, 2) == [Fraction(1), Fraction(0)]
        with pytest.raises(ArgumentError, match="precision"):
            x.window_vector(3, 4)

    def test_truncate_drops_high_terms(self):
        x = parse_series("t^2 + t^6", QQ)
        t = x.truncate(5)
        assert t.coeffs == {2: Fraction(1)} and t.precision == 5

    def test_str_round_trip(self):
        for text in ["t^6 - 2*t^7", "3*t^2 + t^5", "t^-2 + 1/2*t"]:
            s = parse_series(text, QQ)
            assert parse_series(str(s), QQ) == s
