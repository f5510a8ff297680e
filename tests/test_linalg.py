import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype import kernels
from cmtype.errors import ArgumentError, DimensionError
from cmtype.linalg import (
    GF,
    QQ,
    CoeffMatrix,
    intersect,
    member,
    nullspace,
    reduce_echelon,
    sum_spaces,
)
from helpers import two_step_nullspace, zassenhaus_intersect


def mat(field, rows):
    ncols = len(rows[0]) if rows else 0
    return CoeffMatrix(field, ncols, rows)


class TestFieldSpec:
    def test_rationals(self):
        assert QQ.element(3) == Fraction(3)
        assert not QQ.is_prime_field

    @pytest.mark.parametrize("p", [2, 3, 5, 65521, 65537, 2**31 - 1])
    def test_primes_accepted(self, p):
        assert GF(p).characteristic == p

    @pytest.mark.parametrize("p", [1, 4, 0, -3, 91, 2**31 + 11])
    def test_bad_characteristic_rejected(self, p):
        with pytest.raises(ArgumentError):
            GF(p)

    def test_fraction_coercion_mod_p(self):
        assert GF(5).element(Fraction(1, 2)) == 3  # 2 * 3 = 6 = 1 mod 5
        with pytest.raises(ArgumentError):
            GF(2).element(Fraction(1, 2))


class TestReduceEchelon:
    def test_permuted_identity(self):
        m = mat(QQ, [[0, 1], [1, 0]])
        assert reduce_echelon(m).rows == ((1, 0), (0, 1))

    def test_dependent_rows_collapse(self):
        m = mat(QQ, [[1, 2], [2, 4]])
        assert reduce_echelon(m).rows == ((1, 2),)

    def test_mod3_example_against_row_space_enumeration(self):
        # brute-force oracle: the row space of [[2,1],[1,1]] over F_3 has
        # 9 elements, i.e. it is the whole plane, so the RREF is the identity
        rows = [[2, 1], [1, 1]]
        space = set()
        for a, b in itertools.product(range(3), repeat=2):
            space.add(((2 * a + b) % 3, (a + b) % 3))
        assert len(space) == 9
        assert mat(GF(3), rows).rows == ((1, 0), (0, 1))

    def test_idempotent(self):
        m = mat(QQ, [[2, 4, 1], [1, 0, 3], [3, 4, 4]])
        r = reduce_echelon(m)
        assert reduce_echelon(r) == r

    def test_span_preserved(self):
        rows = [[2, 4, 1], [1, 0, 3]]
        r = mat(QQ, rows)
        for row in rows:
            ok, coords = member(row, r)
            assert ok
            rebuilt = [
                sum(c * b[i] for c, b in zip(coords, r.rows)) for i in range(3)
            ]
            assert rebuilt == [Fraction(x) for x in row]


class TestMember:
    def test_zero_vector(self):
        basis = mat(QQ, [[1, 2]])
        ok, coords = member([0, 0], basis)
        assert ok and coords == [Fraction(0)]

    def test_exact_row(self):
        basis = mat(QQ, [[1, 2]])
        ok, coords = member([1, 2], basis)
        assert ok and coords == [Fraction(1)]

    def test_outside_line(self):
        # row space is {c (1, 2)}: any member has v[1] = 2 v[0]
        basis = mat(QQ, [[1, 2]])
        ok, _ = member([1, 0], basis)
        assert not ok

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            member([1, 2, 3], mat(QQ, [[1, 2]]))

    def test_entries_are_coerced_into_the_field(self):
        # over F_5, (6, 12, 5) = (1, 2, 0) = 1 * (1, 2, 0); 1/2 = 3
        basis = mat(GF(5), [[1, 2, 0]])
        assert member([6, 12, 5], basis) == (True, [1])
        assert member([Fraction(1, 2), 1, -5], basis) == (True, [3])
        assert member([1, 2, 1], basis) == (False, None)
        assert member([1, Fraction(2), 0], mat(QQ, [[1, 2, 0]])) == (True, [Fraction(1)])


class TestIntersect:
    def test_idempotent(self):
        a = mat(QQ, [[1, 0, 2], [0, 1, 1]])
        assert intersect(a, a) == a

    def test_complementary_lines(self):
        a = mat(QQ, [[1, 0]])
        b = mat(QQ, [[0, 1]])
        assert intersect(a, b).rank == 0

    def test_containment(self):
        a = mat(QQ, [[1, 0], [0, 1]])
        b = mat(QQ, [[1, 1]])
        assert intersect(a, b).rows == ((1, 1),)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            intersect(mat(QQ, [[1, 0]]), mat(QQ, [[1, 0, 0]]))


small_entries = st.integers(min_value=-4, max_value=4)


@st.composite
def random_rows(draw, ncols=4, max_rows=4):
    n = draw(st.integers(min_value=1, max_value=max_rows))
    return [draw(st.lists(small_entries, min_size=ncols, max_size=ncols)) for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(random_rows(), random_rows(), st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
def test_dimension_formula(rows_a, rows_b, field):
    a, b = mat(field, rows_a), mat(field, rows_b)
    total = sum_spaces(a, b.rows)
    inter = intersect(a, b)
    assert a.rank + b.rank == total.rank + inter.rank
    for row in inter.rows:
        assert member(row, a)[0] and member(row, b)[0]


@st.composite
def sums(draw):
    """(reduced basis, rows): random rows, zero rows and multiples of the basis rows.

    F_p cells are ints of any size, as ``multiply``'s convolution emits them.
    """
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(32003)]))
    ncols = draw(st.integers(1, 7))
    p = field.characteristic
    cell = st.integers(-3 * p, 3 * p) if p else st.fractions(-3, 3, max_denominator=4)
    row = st.lists(cell, min_size=ncols, max_size=ncols)
    basis = CoeffMatrix(field, ncols, draw(st.lists(row, max_size=ncols)))
    kinds = [row, st.just([0] * ncols)]
    if basis.rows:
        multiple = st.tuples(st.sampled_from(basis.rows), cell)
        kinds.append(multiple.map(lambda m: [m[1] * x for x in m[0]]))
    return basis, draw(st.lists(st.one_of(kinds), max_size=5))


@settings(max_examples=200, deadline=None)
@given(sums())
# an empty basis
@example((CoeffMatrix(QQ, 3, []), [[0, 2, 1], [1, 0, 0]]))
# rows inside the span, one of them with raw cells
@example((mat(GF(3), [[1, 0, 2], [0, 1, 1]]), [[2, 0, 4], [1, 1, 3]]))
# zero rows, one of them only modulo p
@example((mat(GF(32003), [[0, 1, 5]]), [[0, 0, 0], [0, 32003, -64006]]))
# pivots left of the basis's
@example((mat(QQ, [[0, 0, 1, 2]]), [[1, Fraction(1, 2), 3, 0], [0, 1, 0, 0]]))
# a new pivot on a free column that a basis row must be cleared on
@example((mat(QQ, [[1, 2, 0, 3]]), [[0, 1, 0, 0]]))
def test_sum_spaces_matches_the_stacked_reduction(case):
    basis, rows = case
    before = copy.deepcopy((basis.rows, rows))
    total = sum_spaces(basis, rows)
    expected = reduce_echelon(CoeffMatrix(basis.field, basis.ncols, list(basis.rows) + rows))
    assert total == expected and total.pivots == expected.pivots
    assert (basis.rows, rows) == before
    if expected.rank == basis.rank:
        assert total is basis
    p = basis.field.characteristic
    cells = [x for r in total.rows for x in r]
    if p:
        assert all(type(x) is int and 0 <= x < p for x in cells)
    else:
        assert all(type(x) is Fraction and (x or x is kernels.ZERO) for x in cells)


def test_sum_spaces_rejects_a_row_of_the_wrong_length():
    with pytest.raises(DimensionError):
        sum_spaces(mat(QQ, [[1, 0]]), [[1, 0, 0]])


@settings(max_examples=60, deadline=None)
@given(random_rows())
def test_fp_agrees_with_rationals_mod_p(rows):
    # agreement holds when no division by a multiple of p occurred: the
    # ranks then coincide and every denominator is a p-unit
    p = 7
    a_qq = mat(QQ, rows)
    a_fp = mat(GF(p), rows)
    denominators_ok = all(x.denominator % p for row in a_qq.rows for x in row)
    if a_qq.rank == a_fp.rank and denominators_ok:
        reduced = tuple(
            tuple(GF(p).element(x) for x in row) for row in a_qq.rows
        )
        assert reduced == a_fp.rows


def test_nullspace_kernel_property():
    rng = random.Random(5)
    for field in (QQ, GF(3)):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(3)]
            m = mat(field, rows)
            ns = nullspace(field, 5, rows)
            assert_reduced(ns)
            assert ns.rank == 5 - m.rank
            for v in ns.rows:
                for row in m.rows:
                    s = sum(field.element(a) * b for a, b in zip(row, v))
                    if field.is_prime_field:
                        s %= field.characteristic
                    assert s == 0


def assert_reduced(m):
    """``m`` is exactly its own reduced row echelon form, pivots included."""
    again = reduce_echelon(m)
    assert again == m and again.pivots == m.pivots


def units(ncols, cols):
    return [[int(j == i) for j in range(ncols)] for i in sorted(cols)]


@st.composite
def operands(draw, ncols=5):
    """Rows of one kind: arbitrary, none, full rank, or unit vectors."""
    kind = draw(st.sampled_from(["rows", "empty", "full", "units"]))
    if kind == "empty":
        return []
    if kind == "units":
        return units(ncols, draw(st.sets(st.integers(0, ncols - 1))))
    rows = draw(random_rows(ncols=ncols, max_rows=ncols))
    return rows + units(ncols, range(ncols)) if kind == "full" else rows


FIELDS = [QQ, GF(2), GF(3), GF(7)]


@settings(max_examples=150, deadline=None)
@given(operands(), operands(), st.sampled_from(FIELDS))
# equal ranks, neither space inside the other
@example([[1, 2, 0, 0, 1], [0, 1, 1, 0, 0]], [[1, 0, 0, 2, 0], [0, 1, 1, 0, 3]], QQ)
@example([[1, 2, 0, 0, 1], [0, 1, 1, 0, 0]], [[1, 0, 0, 2, 0], [0, 1, 1, 0, 3]], GF(7))
def test_intersection_matches_zassenhaus(rows_a, rows_b, field):
    # intersect puts the operand of lower rank first and passes the pivots
    # of its right halves, so they are not reduced again
    a, b = CoeffMatrix(field, 5, rows_a), CoeffMatrix(field, 5, rows_b)
    expected = zassenhaus_intersect(a, b)
    for inter in (intersect(a, b), intersect(b, a)):
        assert_reduced(inter)
        assert inter == expected and inter.pivots == expected.pivots


@settings(max_examples=150, deadline=None)
@given(operands(), st.sampled_from(FIELDS))
@example([[0, 0, 0, 0, 0]], QQ)
def test_nullspace_matches_two_reductions(rows, field):
    ns = nullspace(field, 5, rows)
    expected = two_step_nullspace(field, 5, rows)
    assert_reduced(ns)
    assert ns == expected and ns.pivots == expected.pivots


def test_nullspace_rejects_a_row_of_the_wrong_length():
    with pytest.raises(DimensionError):
        nullspace(QQ, 3, [[1, 2]])


def span(field, rows, n):
    """Every vector of the row space, as a set of tuples over F_p."""
    p = field.characteristic
    return {
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % p for j in range(n))
        for coeffs in itertools.product(range(p), repeat=len(rows))
    }


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GF(2), GF(3)]), st.integers(1, 4), st.data())
def test_row_space_operations_against_set_oracle(field, n, data):
    p = field.characteristic
    cells = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    rows_a, rows_b = (data.draw(st.lists(cells, max_size=4)) for _ in range(2))
    a, b = CoeffMatrix(field, n, rows_a), CoeffMatrix(field, n, rows_b)
    assert span(field, intersect(a, b).rows, n) == span(field, rows_a, n) & span(field, rows_b, n)
    annihilated = {
        v for v in itertools.product(range(p), repeat=n)
        if all(sum(x * y for x, y in zip(r, v)) % p == 0 for r in rows_a)
    }
    assert span(field, nullspace(field, n, rows_a).rows, n) == annihilated


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=-14, max_value=21), min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_raw_fp_cells_come_out_canonical(rows):
    p = 7
    m = mat(GF(p), rows)
    assert all(type(x) is int and 0 <= x < p for row in m.rows for x in row)
    assert m == mat(GF(p), [[x % p for x in row] for row in rows])
    assert_reduced(m)


def test_a_cell_equal_to_p_is_reduced():
    assert mat(GF(7), [[7, 1]]).rows == ((0, 1),)
    assert mat(GF(7), [[7, 1], [1, 14]]).rows == ((1, 0), (0, 1))
