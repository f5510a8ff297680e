"""Exact truncated Laurent series and the generator-expression grammar.

A TruncatedSeries stores its nonzero coefficients on [order, precision);
coefficients at exponents >= precision are unknown.  Series parsed from
text are exact Laurent polynomials (precision = EXACT); finite precision
only arises from arithmetic, where the usual valuation rules track how far
a product or sum stays exact.

Grammar (whitespace insignificant, exponents may be negative):

    expr  := term (('+'|'-') term)*
    term  := [coeff '*'] 't' ['^' int] | coeff
    coeff := int | int '/' int        (the fraction form only over QQ)
    int   := ['-'] digits
"""

import math
from fractions import Fraction

from .errors import ArgumentError, ParseError
from .linalg import FieldSpec

EXACT = math.inf


class TruncatedSeries:
    __slots__ = ("field", "coeffs", "order", "precision")

    def __init__(self, field: FieldSpec, coeffs, precision=EXACT):
        self.field = field
        clean = {}
        for e, v in coeffs.items():
            if e >= precision:
                continue
            v = field.element(v)
            if v:
                clean[e] = v
        self.coeffs = clean
        self.order = min(clean) if clean else None
        self.precision = precision

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def monomial(cls, field, exponent: int, coeff=1):
        return cls(field, {exponent: coeff})

    @classmethod
    def from_window(cls, field, start: int, vec, precision=None):
        """Series with coefficient vec[i] at exponent start + i."""
        if precision is None:
            precision = start + len(vec)
        return cls(field, {start + i: v for i, v in enumerate(vec)}, precision)

    def is_zero(self) -> bool:
        return not self.coeffs and self.precision == EXACT

    def valuation_bound(self):
        """order when a nonzero term is known, else the precision."""
        return self.order if self.order is not None else self.precision

    def window_vector(self, start: int, length: int):
        end = start + length
        if end > self.precision:
            raise ArgumentError(
                f"series {self} + O(t^{self.precision}) has precision {self.precision}; "
                f"window [{start}, {end}) needs precision {end}"
            )
        get, zero = self.coeffs.get, self.field.zero()
        return [get(e, zero) for e in range(start, end)]

    def add(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_field(other)
        prec = min(self.precision, other.precision)
        coeffs = dict(self.coeffs)
        for e, v in other.coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + v
        return TruncatedSeries(self.field, coeffs, prec)

    def scale(self, c) -> "TruncatedSeries":
        c = self.field.element(c)
        return TruncatedSeries(
            self.field, {e: v * c for e, v in self.coeffs.items()}, self.precision
        )

    def shift(self, s: int) -> "TruncatedSeries":
        """Multiplication by t^s."""
        return TruncatedSeries(
            self.field, {e + s: v for e, v in self.coeffs.items()}, self.precision + s
        )

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Product; exact below min(prec_x + ord_y, prec_y + ord_x)."""
        self._check_field(other)
        prec = min(
            self.precision + other.valuation_bound(),
            other.precision + self.valuation_bound(),
        )
        coeffs = {}
        for e1, v1 in self.coeffs.items():
            for e2, v2 in other.coeffs.items():
                e = e1 + e2
                if e < prec:
                    coeffs[e] = coeffs.get(e, 0) + v1 * v2
        return TruncatedSeries(self.field, coeffs, prec)

    def truncate(self, precision) -> "TruncatedSeries":
        return TruncatedSeries(self.field, self.coeffs, min(self.precision, precision))

    def _check_field(self, other):
        if self.field != other.field:
            raise ArgumentError(f"field mismatch: {self.field} vs {other.field}")

    def __eq__(self, other):
        return (
            isinstance(other, TruncatedSeries)
            and self.field == other.field
            and self.coeffs == other.coeffs
            and self.precision == other.precision
        )

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items())), self.precision))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            v = self.coeffs[e]
            term = "t" if e == 1 else (f"t^{e}" if e != 0 else "1")
            if e == 0:
                parts.append(f"{v}")
            elif v == 1:
                parts.append(term)
            else:
                parts.append(f"{v}*{term}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        prec = "" if self.precision == EXACT else f" + O(t^{self.precision})"
        return f"TruncatedSeries({self}{prec})"


def series_mul(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    return x.mul(y)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect_int(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def parse_series(text: str, field: FieldSpec) -> TruncatedSeries:
    """Parse a generator expression into an exact Laurent polynomial."""
    sc = _Scanner(text)
    coeffs = {}
    first = True
    while True:
        if first:
            sign = 1
            first = False
        else:
            if sc.done():
                break
            if sc.take("+"):
                sign = 1
            elif sc.take("-"):
                sign = -1
            else:
                raise ParseError("expected '+' or '-'", sc.pos)
        exp, coeff = _parse_term(sc, field)
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    if not coeffs:
        raise ParseError("empty expression", 0)
    return TruncatedSeries(field, {e: field.element(v) for e, v in coeffs.items()})


def _parse_term(sc: _Scanner, field: FieldSpec):
    ch = sc.peek()
    if ch == "t":
        sc.pos += 1
        exp = sc.expect_int() if sc.take("^") else 1
        return exp, Fraction(1)
    if ch == "-" or ch.isdigit():
        num_pos = sc.pos
        num = sc.expect_int()
        if sc.take("/"):
            if field.is_prime_field:
                raise ParseError("fraction coefficients require the rational field", num_pos)
            den = sc.expect_int()
            if den == 0:
                raise ParseError("zero denominator", num_pos)
            coeff = Fraction(num, den)
        else:
            coeff = Fraction(num)
        if sc.take("*"):
            if not sc.take("t"):
                raise ParseError("expected 't' after '*'", sc.pos)
            exp = sc.expect_int() if sc.take("^") else 1
            return exp, coeff
        return 0, coeff
    raise ParseError("expected a term", sc.pos)


def parse_generators(text: str, field: FieldSpec):
    """Comma-separated list of generator expressions."""
    out = []
    offset = 0
    for chunk in text.split(","):
        if not chunk.strip():
            raise ParseError("empty generator", offset)
        try:
            out.append(parse_series(chunk, field))
        except ParseError as exc:
            raise ParseError(str(exc).rsplit(" (at", 1)[0], offset + exc.position) from None
        offset += len(chunk) + 1
    return out
