"""Shared generators for randomized tests (all explicitly seeded), references
and test utilities.

``ideal_cases(engine)`` is the one hypothesis strategy for ideals that any
engine can take: it draws (I, J, a, s) on one of the five ``ENGINES`` (the
monomial engine, and the series engine over QQ, GF(2), GF(3) and F_32003),
with I a fractional ideal, J a proper ideal of R drawn independently of I,
a a positive member of H and s a shift; ``ideal_examples(engine)`` are its
explicit cases, the DVR <1> and ideals of negative order among them.
``tests/test_ideal_laws.py`` runs every law on both, and the series tests
that need only ideals of that shape draw from ``series_cases``, or from
``series_ideals``, its I alone.  The other strategies draw shapes it does
not: the exponents a set oracle reads, a product below a third ideal, or
orders more than c apart; each says which in its docstring.

Each operation has one reference under tests/, which computes it by its
definition or by an older algorithm:

  * ``FractionalIdeal.multiply``: ``multiply_reference``, products of
    TruncatedSeries.
  * ``FractionalIdeal.add``: ``full_stack_add``.
  * ``colon`` and ``canonical_dual`` on both engines: ``colon_reference``;
    ``TestColonBruteForce`` in test_fracideal.py enumerates small colons.
  * ``contains_ideal``, ``quotient_length`` and ``intersect`` of the series
    engine: ``common_window``, both ideals on one window.
  * ``module_generators``: ``assert_minimal_generators`` in
    test_fracideal.py.
  * ``is_ulrich_module_wrt`` and ``typecalc._is_ulrich``:
    ``ulrich_module_reference``.
  * ``find_reduction``: ``reduction_search_reference``.
  * The rank routes and the socle excess: ``cokernel_mu_reference``,
    ``quotient_type_reference``, ``socle_excess_reference`` and
    ``parameter_socle_reference``.
  * ``kernels.rref_qq``, ``linalg.intersect``, ``linalg.nullspace`` and
    ``linalg._reduce_rows``: ``rref_qq_reference``, ``zassenhaus_intersect``,
    ``two_step_nullspace`` and ``full_width_residuals``.
  * ``enumerate_monomial_ideals``: ``recursive_monomial_ideals``.
  * ``RelativeIdeal``'s H-stability message: ``stability_error_reference``.
  * Membership in H: ``brute_members``, sums of the given generators.

``members`` lists an ideal's exponents in a range, and ``record_calls``
records the calls a test counts.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from cmtype import linalg
from cmtype.fracideal import FractionalIdeal, _reframe
from cmtype.linalg import GF, QQ, CoeffMatrix
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import TruncatedSeries, parse_series


def random_semigroup(rng, lo=2, hi=16, max_gens=3):
    while True:
        gens = sorted(rng.sample(range(lo, hi), rng.randint(2, max_gens)))
        if math.gcd(*gens) == 1:
            return NumericalSemigroup(gens)


def random_relative_ideal(rng, H, lo=None, hi=None):
    c = max(H.conductor, 2)
    lo = -c if lo is None else lo
    hi = 2 * c if hi is None else hi
    k = rng.randint(1, 4)
    return RelativeIdeal.from_exponents(H, set(rng.sample(range(lo, hi), k)))


def brute_members(gens, limit):
    """The sums of the given generators up to ``limit``, as a set, by a
    breadth-first search: the oracle for membership in H."""
    reachable = {0}
    frontier = {0}
    while frontier:
        nxt = set()
        for x in frontier:
            for g in gens:
                y = x + g
                if y <= limit and y not in reachable:
                    reachable.add(y)
                    nxt.add(y)
        frontier = nxt
    return reachable


def members(E, lo, hi):
    """The exponents of the ideal E in [lo, hi), as a set."""
    return {z for z in range(lo, hi) if E.contains(z)}


def record_calls(monkeypatch, owner, name, calls=None):
    """Wrap ``owner.name`` so that each call appends its positional arguments
    to ``calls`` (a new list unless given) before it runs; returns the list."""
    calls = [] if calls is None else calls
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    return calls


# small semigroups whose series-engine windows stay cheap
SERIES_POOL = [
    [2, 3],
    [2, 5],
    [3, 4],
    [3, 5],
    [3, 4, 5],
    [4, 5, 6],
    [4, 5, 7],
    [5, 6, 7],
    [3, 7],
]


# hypothesis semigroups: at most four generators up to 24, conductor up to 80
MAX_CONDUCTOR = 80
MAX_GENERATOR = 24


@functools.cache
def semigroups():
    """(gens, H), built once.  The filter redraws a rejected semigroup on the
    spot, so a test that draws several keeps its example."""
    gens = st.lists(st.integers(2, MAX_GENERATOR), min_size=2, max_size=4, unique=True)
    coprime = gens.map(lambda g: (g, NumericalSemigroup(g)) if math.gcd(*g) == 1 else None)
    return coprime.filter(lambda case: case is not None and case[1].conductor <= MAX_CONDUCTOR)


def nonzero_coefficient(field):
    if field.is_prime_field:
        return st.integers(1, field.characteristic - 1)
    return st.sampled_from([1, -1, 2, Fraction(-3, 2)])


@st.composite
def generated_ideals(draw, H, field, single_terms=True):
    """An ideal from 1-3 generators; without single_terms, each has >= 2 terms.

    The series ideals of ``ideal_cases``, and the building block of strategies
    that need two unrelated entered ideals."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.integers(-2, H.conductor + 1))
        extra = st.sets(st.integers(1, H.conductor + 1), min_size=0 if single_terms else 1, max_size=3)
        exponents = [order] + sorted(draw(extra))
        gens.append(TruncatedSeries(field, {e: draw(nonzero_coefficient(field)) for e in exponents}))
    return FractionalIdeal.from_generators(H, field, gens)


@dataclass(frozen=True)
class Engine:
    """One engine configuration: the monomial engine (no field) or the series
    engine over one field.  ``lift`` puts a monomial ideal on it."""

    name: str
    field: object = None

    def lift(self, E):
        return E if self.field is None else FractionalIdeal.from_relative(E, self.field)


ENGINES = (
    Engine("monomial"),
    Engine("series-QQ", QQ),
    Engine("series-F2", GF(2)),
    Engine("series-F3", GF(3)),
    Engine("series-F32003", GF(32003)),
)
SERIES_ENGINES = ENGINES[1:]


@st.composite
def entered_ideals(draw, engine):
    """The I of ``ideal_cases`` on a series engine: an ideal entered by
    generators over the DVR or a SERIES_POOL semigroup."""
    H = NumericalSemigroup(draw(st.sampled_from([[1]] + SERIES_POOL)))
    return draw(generated_ideals(H, engine.field, draw(st.booleans())))


@st.composite
def ideal_cases(draw, engine, monomial=False):
    """(I, J, a, s) on one engine: a fractional ideal I, a proper ideal J of R
    drawn independently of I, a positive a in H and a shift s with
    |s| <= c + 3.

    On the monomial engine, and with ``monomial`` on any engine, H is a
    ``semigroups()`` draw (c <= 80) and I and J start as ideals of 1-5
    exponents in [-c - 2, 2c + 2], lifted to the engine.  Otherwise H is the
    DVR or a SERIES_POOL semigroup and both come from ``generated_ideals``, I
    with or without single-term generators.  J is then moved to an order in
    [1, c + 1] and met with R, so J <= m; a <= 2c + e.
    """
    if engine.field is None or monomial:
        H = draw(semigroups())[1]
        c = H.conductor
        exponents = st.lists(st.integers(-c - 2, 2 * c + 2), min_size=1, max_size=5)
        I, J = (engine.lift(RelativeIdeal.from_exponents(H, draw(exponents))) for _ in range(2))
    else:
        I = draw(entered_ideals(engine))
        H = I.semigroup
        J = draw(generated_ideals(H, engine.field))
    c, e = H.conductor, H.multiplicity
    J = J.shift(draw(st.integers(1, c + 1)) - J.delta).intersect(J.unit_ideal())
    a = draw(st.sampled_from(H.members(1, 2 * c + e + 1)))
    return I, J, a, draw(st.integers(-c - 3, c + 3))


# any series engine, for the tests of one engine's representation; drawing
# I alone costs a third less, for the tests that need no J
series_cases = st.sampled_from(SERIES_ENGINES).flatmap(ideal_cases)
series_ideals = st.sampled_from(SERIES_ENGINES).flatmap(entered_ideals)


def ideal_examples(engine, monomial=False):
    """The explicit cases of ``ideal_cases(engine, monomial)``: the DVR <1>
    (c = 0, PF(H) = {-1}), and I of negative order over <3,7>; on the series
    engine, unless ``monomial``, also ideals with no monomial generator over
    both."""
    H1, H37 = NumericalSemigroup([1]), NumericalSemigroup([3, 7])

    def lifted(H, exponents):
        return engine.lift(RelativeIdeal.from_exponents(H, exponents))

    cases = [
        (lifted(H1, {-2}), lifted(H1, {2}), 1, -2),
        (lifted(H1, {0}), lifted(H1, {1}), 3, 4),
        (lifted(H37, {-5, 2}), lifted(H37, {3}), 3, 4),
    ]
    if engine.field is None or monomial:
        return cases
    F = engine.field
    return cases + [
        (series_ideal(H1, F, "t^-2 + 3*t^4"), series_ideal(H1, F, "2*t^2 - t^3"), 3, 1),
        (series_ideal(H37, F, "t^-4 + t^-1"), series_ideal(H37, F, "t^6 - t^7"), 3, -5),
    ]


def series_ideal(H, field, *exprs):
    return FractionalIdeal.from_generators(H, field, [parse_series(s, field) for s in exprs])


def rref_qq_reference(rows):
    """Gauss-Jordan elimination on Fractions: the reference for kernels.rref_qq.

    Returns ``(reduced_rows, pivot_cols)`` with the same contract.
    """
    m = [[Fraction(x) for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, nrows) if m[i][col]), -1)
        if pivot_row < 0:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = tail = [x * inv for x in m[rank]]
        for i in range(nrows):
            f = m[i][col]
            if i != rank and f:
                m[i] = [a - f * b for a, b in zip(m[i], tail)]
        pivots.append(col)
        rank += 1
    return m[:rank], pivots


def zassenhaus_intersect(a, b):
    """The meet of two row spaces by Zassenhaus: the reference for linalg.intersect.

    Row-reduce [A | A; B | 0]: the right halves of the rows whose left half
    vanished form a basis of the intersection.
    """
    n, zero = a.ncols, a.field.zero()
    stacked = [list(r) + list(r) for r in a.rows] + [list(r) + [zero] * n for r in b.rows]
    m = CoeffMatrix(a.field, 2 * n, stacked)
    return CoeffMatrix(a.field, n, [r[n:] for r, piv in zip(m.rows, m.pivots) if piv >= n])


def two_step_nullspace(field, ncols, rows):
    """The solutions of rows x = 0 in two reductions: the reference for linalg.nullspace.

    Reduce the rows, read one solution per free column off the reduced rows,
    then reduce the solutions.
    """
    m = CoeffMatrix(field, ncols, rows)
    p = field.characteristic
    solutions = []
    for f in sorted(set(range(ncols)) - set(m.pivots)):
        v = [field.zero()] * ncols
        v[f] = field.one()
        for row, piv in zip(m.rows, m.pivots):
            if row[f]:
                v[piv] = (-row[f]) % p if p else -row[f]
        solutions.append(v)
    return CoeffMatrix(field, ncols, solutions)


def full_width_residuals(field, vecs, basis):
    """Residuals modulo a reduced basis on every column: the reference for _reduce_rows.

    Eliminates each basis row from its pivot column on, over all ``basis.ncols``
    cells; QQ cells are made Fractions first.
    """
    p = field.characteristic
    out = []
    for v in vecs:
        r = list(v) if p else [Fraction(x) for x in v]
        for row, col in zip(basis.rows, basis.pivots):
            f = r[col] % p if p else r[col]
            if f:
                tail = zip(r[col:], row[col:])
                r[col:] = [(a - f * b) % p for a, b in tail] if p else [a - f * b for a, b in tail]
        out.append(r)
    return out


def common_window(I, J):
    """``(start, a, b)``: both ideals on the window [min delta, max gamma).

    The reference that the one-operand moves of FractionalIdeal's
    containment, length, intersection and generator extraction replace.
    """
    start = min(I.delta, J.delta)
    width = max(I.gamma, J.gamma) - start
    return start, *(_reframe(X.matrix, start - X.delta, width) for X in (I, J))


def colon_reference(I, J):
    """I : J with an unknown on every column of [delta_I - delta_J, gamma_I - delta_J):
    the reference for FractionalIdeal.colon, whose unknowns skip R's columns
    for J = I, and for canonical_dual (K : I).

    A series pair is one nullspace over all c columns: z is in I : J iff
    z g is in I for every module generator g of J, so the constraints are
    the residuals modulo I of each g shifted by every column.  A monomial
    pair is solved on exponent sets: z is in E - F iff z + f is in E for
    every f in F below delta_F + c (past it both hold the tail).
    """
    H = I.semigroup
    c, start = H.conductor, I.delta - J.delta
    if isinstance(I, RelativeIdeal):
        members = [f for f in range(J.delta, J.delta + c) if J.contains(f)]
        window = [z for z in range(start, start + c) if all(I.contains(z + f) for f in members)]
        return RelativeIdeal.from_exponents(H, window + list(range(start + c, start + 2 * c + 1)))
    constraint = []
    for g in J.module_generators():
        vecs = [g.shift(u).window_vector(I.delta, c) for u in range(start, start + c)]
        residuals = linalg._reduce_rows(I.field, vecs, I.matrix)
        constraint += [list(col) for col in zip(*residuals) if any(col)]
    return FractionalIdeal._build(H, start, linalg.nullspace(I.field, c, constraint))


def recursive_monomial_ideals(H, span_bound):
    """The delta-0 monomial ideals by one recursive call per gap of H, those
    past the span bound included (they are never chosen): the reference for
    the sequence enumerate_monomial_ideals yields, walking only the gaps
    <= span_bound.
    """
    gap_mask = ((1 << H.conductor) - 1) & ~H._member_mask
    gaps_desc = H.gaps()[::-1]
    needed = [sum(1 << (g + a) for a in H.generators) & gap_mask for g in gaps_desc]

    def walk(i, chosen_mask):
        if i == len(gaps_desc):
            yield RelativeIdeal(H, 0, H._member_mask | chosen_mask)
            return
        g = gaps_desc[i]
        yield from walk(i + 1, chosen_mask)
        if g <= span_bound and not needed[i] & ~chosen_mask:
            yield from walk(i + 1, chosen_mask | 1 << g)

    yield from walk(0, 0)


def stability_error_reference(H, delta, mask):
    """The message RelativeIdeal(H, delta, mask) raises for a window mask
    (bit 0 set, nothing from bit c on) that is not H-stable, or None: one
    test per generator a of H, in order, on the members as a set, naming the
    least member x with x + a outside them.  The reference for the
    constructor's single test and the walk it makes only on failure."""
    c = H.conductor
    top = c + max(H.generators)
    members = {i for i in range(top) if i >= c or mask >> i & 1}
    for a in H.generators:
        escaped = [x for x in sorted(members) if x + a < top and x + a not in members]
        if escaped:
            x = delta + escaped[0]
            return (
                f"ideal over {H} with delta {delta} and mask {mask:#x} "
                f"is not H-stable: {x} + {a} = {x + a} escapes it"
            )
    return None


def multiply_reference(I, J):
    """I J from every (generator of I) x (basis row of J) product, taken as
    TruncatedSeries and cut to the product's window: the reference for
    FractionalIdeal.multiply.
    """
    start, c = I.delta + J.delta, I.semigroup.conductor
    rows = [
        g.mul(J._as_series(b)).window_vector(start, c)
        for g in I.generators or I.module_generators()
        for b in J.matrix.rows
    ]
    return FractionalIdeal._build(I.semigroup, start, CoeffMatrix(I.field, c, rows))


def full_stack_add(I, J):
    """I + J from both bases stacked on the common window and reduced at
    full width: the reference for FractionalIdeal.add.
    """
    start = min(I.delta, J.delta)
    c = I.semigroup.conductor
    rows = [row for X in (I, J) for row in _reframe(X.matrix, start - X.delta, c).rows]
    return FractionalIdeal._build(I.semigroup, start, CoeffMatrix(I.field, c, rows))


def cokernel_mu_reference(ideal):
    """mu(K / (K:I)I) = len(K / ((K:I)I + mK)), with both sums built: the
    reference for mu(K) - K.top_rank(K:I, I)."""
    K = ideal.canonical_ideal()
    image = K.colon(ideal).multiply(ideal)
    return K.quotient_length(image.add(K.maximal_ideal().multiply(K)))


def quotient_type_reference(ideal):
    """r(R/I) = len((K:I) / (m(K:I) + K)) for a proper ideal I, with the sum
    built: the reference for mu(K:I) - (K:I).top_rank(K, R)."""
    K = ideal.canonical_ideal()
    dual = K.colon(ideal)
    return dual.quotient_length(dual.maximal_ideal().multiply(dual).add(K))


def parameter_socle_reference(R, a):
    """(t^a R : m) meet R, the socle of R/t^a R, built by a colon and a meet."""
    return R.shift(a).colon(R.maximal_ideal()).intersect(R)


def socle_excess_reference(ideal, a):
    """len((Soc meet ((t^a I : I) meet R)) / t^a R) with the parameter socle
    Soc = (t^a R : m) meet R and the annihilator built afresh: the socle
    excess by its definition, the reference for I.endo_meet_dim(PF(H))."""
    R = ideal.unit_ideal()
    annihilator = ideal.shift(a).colon(ideal).intersect(R)
    return parameter_socle_reference(R, a).intersect(annihilator).quotient_length(R.shift(a))


def ulrich_module_reference(module, ideal):
    """M Ulrich for an ideal I <= R by the definition: the reference for
    typecalc.is_ulrich_module_wrt.

    Takes x of order delta_I (t^delta on the monomial engine and for c = 0,
    else the lowest basis row), confirms that (x) is a reduction of I
    by iterating I^(n+1) = x I^n (v(I^n) - n delta_I can grow at most c
    times), then tests IM = xM and len(M/IM) = mu(M) len(R/I).
    """
    if isinstance(ideal, RelativeIdeal):
        x = ideal.unit_ideal().shift(ideal.delta)
    else:
        rows, F = ideal.matrix.rows, ideal.field
        gen = ideal._as_series(rows[0]) if rows else TruncatedSeries.monomial(F, ideal.delta)
        x = FractionalIdeal.from_generators(ideal.semigroup, F, [gen])
    power = ideal
    for _ in range(ideal.semigroup.conductor + 1):
        following = power.multiply(ideal)
        if following == x.multiply(power):
            break
        power = following
    else:
        raise AssertionError(f"(x) is no reduction of {ideal.describe()} within c + 1 steps")
    IM = ideal.multiply(module)
    colength = module.unit_ideal().quotient_length(ideal)
    return IM == x.multiply(module) and module.quotient_length(IM) == module.mu() * colength


def reduction_search_reference(ideal):
    """A principal (x) with I^2 = xI among a few candidates, or None: the
    reference for find_reduction.

    Monomial engine: x = t^delta.  Series engine: the stored generators of
    order delta, then the lowest basis row, then t^delta when c = 0.
    """
    squared = ideal.multiply(ideal)
    if isinstance(ideal, RelativeIdeal):
        if squared == ideal.shift(ideal.delta):
            return ideal.unit_ideal().shift(ideal.delta)
        return None
    candidates = [g for g in ideal.generators or () if g.order == ideal.delta]
    if ideal.matrix.rows and ideal.matrix.pivots[0] == 0:
        candidates.append(ideal._as_series(ideal.matrix.rows[0]))
    if ideal.semigroup.conductor == 0:
        candidates.append(TruncatedSeries.monomial(ideal.field, ideal.delta))
    for x in dict.fromkeys(candidates):
        principal = FractionalIdeal.from_generators(ideal.semigroup, ideal.field, [x])
        if principal.multiply(ideal) == squared:
            return principal
    return None
