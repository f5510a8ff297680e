"""The kernels against their references: the fraction-free QQ rref against
Gauss-Jordan elimination on Fractions, and the free-column reductions against
full-width elimination."""

import copy
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype import kernels, linalg
from cmtype.linalg import GF, QQ, CoeffMatrix
from helpers import full_width_residuals, rref_qq_reference

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


def field_cells(field):
    """QQ cells as above; F_p cells as ints of any size, raw multiples of p among them."""
    if not field.is_prime_field:
        return cells
    p = field.characteristic
    return st.one_of(st.integers(-3 * p, 3 * p), st.integers(-3, 3).map(lambda k: k * p))


@st.composite
def reductions(draw):
    """(field, reduced basis, vectors) with the basis made by rref of random rows."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    ncols = draw(st.integers(1, 7))
    row = st.lists(field_cells(field), min_size=ncols, max_size=ncols)
    basis = CoeffMatrix(field, ncols, draw(st.lists(row, max_size=ncols + 1)))
    return field, basis, draw(st.lists(row, max_size=5))


def check_free_column_residuals(field, basis, vecs):
    before = copy.deepcopy((basis.rows, vecs))
    residuals = linalg._reduce_rows(field, vecs, basis)
    reference = full_width_residuals(field, vecs, basis)
    assert (basis.rows, vecs) == before and all(
        type(x) is type(y) for r, s in zip(vecs, before[1]) for x, y in zip(r, s)
    )
    p = field.characteristic
    free = [j for j in range(basis.ncols) if j not in basis.pivots]
    assert basis.tails()[0] == free
    assert len(residuals) == len(vecs)
    for r, ref, v in zip(residuals, reference, vecs):
        assert not any(ref[j] % p if p else ref[j] for j in basis.pivots)
        if p:
            assert [x % p for x in r] == [ref[j] % p for j in free]
            # a cell is reduced mod p or, where no basis row touched it, returned as given
            assert all(0 <= x < p or x is v[j] for x, j in zip(r, free))
        else:
            assert r == [ref[j] for j in free]


@settings(max_examples=200, deadline=None)
@given(reductions())
@example((QQ, CoeffMatrix(QQ, 3, []), [[1, Fraction(1, 2), kernels.ZERO], [0, 0, 0]]))
@example((GF(3), CoeffMatrix(GF(3), 3, []), [[4, 3, -6]]))
@example((QQ, CoeffMatrix(QQ, 2, [[1, 2], [3, Fraction(1, 3)]]), [[5, Fraction(-1, 7)]]))
@example((GF(32003), CoeffMatrix(GF(32003), 2, [[1, 2], [3, 4]]), [[32003, -1]]))
@example((GF(2), CoeffMatrix(GF(2), 3, [[1, 1, 0]]), []))
def test_free_column_reduction_matches_full_width_elimination(case):
    # the examples: empty bases, full-rank bases with no free column, no vectors
    check_free_column_residuals(*case)
