"""The fraction-free QQ kernel against Gauss-Jordan elimination on Fractions."""

import copy
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype import kernels
from helpers import rref_qq_reference

# ints (negative ones included), Fractions with denominators up to 10**6, and
# zeros of each kind, the shared one that rref_qq recognises by identity too
cells = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.sampled_from([0, Fraction(0), kernels.ZERO]),
)


@st.composite
def matrices(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(cells, min_size=ncols, max_size=ncols), max_size=7))
    extra = draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else []
    rows += [list(r) for r in extra]  # duplicate rows
    rows += [[0] * ncols] * draw(st.integers(0, 2))  # zero rows
    return draw(st.permutations(rows))


def check_against_reference(rows):
    before = copy.deepcopy(rows)
    reduced, pivots = kernels.rref_qq(rows)
    assert (reduced, pivots) == rref_qq_reference(rows)
    assert rows == before and all(
        type(x) is type(y) for r, s in zip(rows, before) for x, y in zip(r, s)
    )
    assert all(type(x) is Fraction for row in reduced for x in row)
    for row, col in zip(reduced, pivots):
        assert row[col] == 1 and not any(row[:col])
        assert [other[col] for other in reduced] == [int(other is row) for other in reduced]


@settings(max_examples=150, deadline=None)
@given(matrices())
@example([])
@example([[0, Fraction(0)], [Fraction(0), 0]])
@example([[-2, 4, Fraction(-6, 7)], [-2, 4, Fraction(-6, 7)], [Fraction(1, 999_983), 0, 1]])
def test_rref_qq_matches_fraction_elimination(rows):
    check_against_reference(rows)


def test_rref_qq_on_a_product_sized_integer_matrix():
    # the shape of a multiply at c = 36, with cells up to 32002**2
    rng = random.Random(36)
    rows = [[rng.randint(-32002**2, 32002**2) for _ in range(36)] for _ in range(45)]
    rows[7] = [0] * 36
    rows[9] = list(rows[3])
    check_against_reference(rows)
    assert kernels.rref_qq(rows)[1] == list(range(36))
