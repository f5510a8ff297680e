"""Property tests of the whole-mask monomial engine and the Apery-based
semigroup invariants against explicit-set oracles, at conductors up to 80.

The oracles know H only through brute-force sums of the given generators
and an ideal only through its given generators, so they share nothing with
the member mask, the Apery set or the minimal generators they check.  The
counts read off generator masks (mu, top_rank, endo_meet_dim) are checked
against those oracles here, and against the series engine, which computes
them as ranks of coefficient rows, by the agreement law of
test_ideal_laws.py.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype.relideal import RelativeIdeal, _offsets
from cmtype.semigroup import NumericalSemigroup, _set_bits
from helpers import MAX_GENERATOR, semigroups

# The Frobenius number is below a_1 a_2 <= 24 * 24, so every larger
# integer is in H and the brute-force table need not reach further.
TABLE = MAX_GENERATOR * MAX_GENERATOR


def brute_members(gens, limit):
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for x in range(limit + 1):
        if reachable[x]:
            for g in gens:
                if x + g <= limit:
                    reachable[x + g] = True
    return reachable


class Oracle:
    """H as a table of sums of its given generators."""

    def __init__(self, gens):
        self.table = brute_members(gens, TABLE)

    def in_h(self, z):
        return z >= 0 and (z > TABLE or self.table[z])

    def in_ideal(self, gens, z):
        """z in the union of the g + H."""
        return any(self.in_h(z - g) for g in gens)


@st.composite
def ideal_pairs(draw):
    """(gens, H, ge, gf): the given exponents of two monomial ideals, which
    the set oracles read, a shape ideal_cases does not draw."""
    gens, H = draw(semigroups())
    c = max(H.conductor, 2)
    exponents = st.lists(st.integers(-c, 2 * c), min_size=1, max_size=5)
    return gens, H, draw(exponents), draw(exponents)


def members(E, lo, hi):
    return {z for z in range(lo, hi) if E.contains(z)}


def oracle_generators(E, oracle, c):
    """Members of E that are no member of E plus a nonzero element of H,
    increasing; none lies at or past delta + c."""
    below = sorted(members(E, E.delta, E.delta + c + 3))
    return tuple(
        x for i, x in enumerate(below)
        if not any(oracle.in_h(x - y) for y in below[:i])
    )


@settings(max_examples=100, deadline=None)
@given(ideal_pairs())
@example(([1], NumericalSemigroup([1]), [-1, 1], [0]))  # the DVR <1>: c = 0
@example(([1], NumericalSemigroup([1]), [1], [0, -1]))
def test_ideal_operations_against_sets(case):
    gens, H, ge, gf = case
    oracle = Oracle(gens)
    c = H.conductor
    # every result below has delta >= -3c and contains all z >= 5c
    lo, hi = -4 * c - 2, 6 * c + 2
    window = range(lo, hi)

    def expect(ideal_gens):
        return {z for z in window if oracle.in_ideal(ideal_gens, z)}

    E = RelativeIdeal.from_exponents(H, ge)
    F = RelativeIdeal.from_exponents(H, gf)
    assert members(E, lo, hi) == expect(ge)
    assert members(E.add(F), lo, hi) == expect(ge + gf)
    assert members(E.multiply(F), lo, hi) == expect([x + y for x in ge for y in gf])
    assert members(E.intersect(F), lo, hi) == expect(ge) & expect(gf)
    # z + F <= E iff z + g in E for each given generator g of F
    colon = {z for z in window if all(oracle.in_ideal(ge, z + g) for g in gf)}
    assert members(E.colon(F), lo, hi) == colon
    # every ideal here holds all of [hi, oo) and nothing below lo, so the
    # window decides containment and holds all of E / (E meet F)
    assert E.contains_ideal(F) == (expect(gf) <= expect(ge))
    assert F.contains_ideal(E) == (expect(ge) <= expect(gf))
    assert E.quotient_length(E.intersect(F)) == len(expect(ge) - expect(gf))

    minimal = oracle_generators(E, oracle, c)
    assert E.minimal_generators() == minimal
    assert E.mu() == len(minimal)


@settings(max_examples=100, deadline=None)
@given(ideal_pairs(), st.integers(-40, 40))
@example(([1], NumericalSemigroup([1]), [-1, 1], [0]), 3)
def test_kept_generators_match_the_oracle(case, s):
    """The generator mask each result keeps, read as positions and as mu,
    after every operation and after shifting each result, against the set
    oracle; and the set-bit offsets of that mask, kept once read, against a
    fresh read of the mask."""
    gens, H, ge, gf = case
    oracle = Oracle(gens)
    c = H.conductor
    E = RelativeIdeal.from_exponents(H, ge)
    F = RelativeIdeal.from_exponents(H, gf)
    results = [E.shift(s), E.add(F), E.multiply(F), F.multiply(E), E.colon(F),
               E.intersect(F), E.canonical_dual()]
    for X in [E, F] + results + [X.shift(-s) for X in results]:
        expected = oracle_generators(X, oracle, c)
        assert X.minimal_generators() == expected
        assert X.mu() == len(expected)
        # the offsets kept since the first walk, read again as generators
        assert X._gen_offsets == _offsets(X._gen_mask)
        assert X.minimal_generators() == expected


@settings(max_examples=100, deadline=None)
@given(ideal_pairs(), st.integers(-40, 40))
@example(([1], NumericalSemigroup([1]), [-1, 1], [0]), -2)
def test_shift_is_the_ideal_of_the_moved_generators(case, s):
    _, H, ge, _ = case
    E = RelativeIdeal.from_exponents(H, ge)
    plain = E.shift(s)  # before E's generator set is read
    moved = RelativeIdeal.from_exponents(H, [g + s for g in E.minimal_generators()])
    carried = E.shift(s)  # with E's set kept, moved along
    for X in (plain, carried):
        assert X == moved and hash(X) == hash(moved)
        assert X.minimal_generators() == moved.minimal_generators()
        assert X.shift(-s) == E


def set_generators(oracle, member, lo, c):
    """The minimal generators of the ideal {z >= lo : member(z)} by their
    definition: the members that are no member plus a nonzero element of H.
    None lies at or past delta + c."""
    delta = lo
    while not member(delta):
        delta += 1
    below = [z for z in range(delta, delta + c + 1) if member(z)]
    return {x for i, x in enumerate(below) if not any(oracle.in_h(x - y) for y in below[:i])}


@st.composite
def rank_cases(draw):
    """X, Y and the exponents of a third ideal M = X Y + Z, so X Y <= M: a
    shape ideal_cases does not draw."""
    gens, H = draw(semigroups())
    c = max(H.conductor, 2)
    exponents = st.lists(st.integers(-c, 2 * c), min_size=1, max_size=4)
    gx, gy = draw(exponents), draw(exponents)
    gz = draw(st.lists(st.integers(-2 * c, 4 * c), max_size=3))
    return gens, H, gx, gy, [x + y for x in gx for y in gy] + gz


DVR_RANK_CASE = ([1], NumericalSemigroup([1]), [-1, 2], [0, 3], [-1, 4])


@settings(max_examples=100, deadline=None)
@given(rank_cases())
@example(DVR_RANK_CASE)
@example(([3, 7], NumericalSemigroup([3, 7]), [0], [0], [0]))  # M = X Y = R
def test_top_rank_against_sums(case):
    """M.top_rank(X, Y) = |{g + h} meet gens(M)| over the generators g of X and
    h of Y, for M = X Y + Z and for the cokernel term's K, K : Y and Y."""
    gens, H, gx, gy, gm = case
    oracle = Oracle(gens)
    c = H.conductor
    X, Y, M = (RelativeIdeal.from_exponents(H, g) for g in (gx, gy, gm))
    mx, my, mm = (
        set_generators(oracle, lambda z, g=g: oracle.in_ideal(g, z), min(g), c)
        for g in (gx, gy, gm)
    )
    assert M.top_rank(X, Y) == len({g + h for g in mx for h in my} & mm)

    F = H.frobenius

    def in_k(z):  # K = {z : F - z not in H}
        return z >= 0 and not oracle.in_h(F - z)

    # K : Y, tested on the given generators of Y, as K is H-stable
    dual = set_generators(oracle, lambda z: all(in_k(z + y) for y in gy), -min(gy), c)
    K = H.canonical_relative_ideal()
    mk = set_generators(oracle, in_k, 0, c)
    assert K.top_rank(K.colon(Y), Y) == len({g + h for g in dual for h in my} & mk)


@st.composite
def endo_cases(draw):
    """An ideal's generators, exponents with repeats, negative numbers and
    numbers >= c, and a shift: exponent lists ideal_cases does not draw."""
    gens, H, ge, _ = draw(ideal_pairs())
    c = max(H.conductor, 2)
    exponents = draw(st.lists(st.integers(-2 * c, 3 * c), max_size=10))
    return gens, H, ge, exponents + exponents[:3], draw(st.integers(-c, c))


@settings(max_examples=100, deadline=None)
@given(endo_cases())
@example(([1], NumericalSemigroup([1]), [-1, 1], [-1, 0, 5, 0], 2))
def test_endo_meet_dim_against_its_definition(case):
    """E.endo_meet_dim(F) = |{f in F : f + E <= E}|, for the drawn F, PF(H)
    and the Apery differences that classify passes, on E and on a shift."""
    gens, H, ge, drawn, s = case
    oracle = Oracle(gens)
    e = H.multiplicity
    E = RelativeIdeal.from_exponents(H, ge)
    for F in (drawn, H.pseudo_frobenius(), [w - e for w in H.apery(e) if w]):
        # f + E <= E iff f + g is in E for each given generator g of E
        endo = {f for f in F if all(oracle.in_ideal(ge, f + g) for g in ge)}
        assert E.endo_meet_dim(F) == len(endo), F
        assert E.shift(s).endo_meet_dim(F) == len(endo), F


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_apery_invariants_against_scans(case):
    gens, H = case
    oracle = Oracle(gens)
    F, c, e = H.frobenius, H.conductor, H.multiplicity

    assert F == max(z for z in range(TABLE) if not oracle.in_h(z))
    assert [z for z in range(c + e) if H.contains(z)] == [
        z for z in range(c + e) if oracle.in_h(z)
    ]
    gaps = [z for z in range(c) if not oracle.in_h(z)]
    assert H.gaps() == gaps

    # PF by the gap-scan definition: x + h in H for every nonzero h in H
    # (the given generators suffice, since they generate H)
    pf = tuple(x for x in gaps if all(oracle.in_h(x + g) for g in gens))
    assert H.pseudo_frobenius() == pf
    assert H.type() == len(pf)

    assert H.is_symmetric() == all(oracle.in_h(z) != oracle.in_h(F - z) for z in range(F + 1))
    dual = tuple(x for x in range(c) if not oracle.in_h(F - x))
    assert H.canonical_exponents() == dual

    K = H.canonical_relative_ideal()
    assert K == RelativeIdeal.from_exponents(H, set(dual) | {c})
    assert K.minimal_generators() == tuple(sorted(F - x for x in pf))


@settings(max_examples=100, deadline=None)
@given(semigroups())
def test_minimal_generators_against_sums(case):
    gens, H = case
    oracle = Oracle(gens)
    # every x >= c + e is e plus a member, so the atoms of H lie below c + e
    nonzero = [z for z in range(1, H.conductor + H.multiplicity) if oracle.in_h(z)]
    atoms = tuple(x for x in nonzero if not any(oracle.in_h(x - y) for y in nonzero if y < x))
    assert H.generators == atoms
    assert H.embedding_dimension == len(atoms)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**4000 - 1)
    | st.sets(st.integers(min_value=0, max_value=3999)).map(lambda bits: sum(1 << i for i in bits))
)
@example(0)
@example(1)
@example(2**64 - 1)
@example(2**4000 - 1)
def test_set_bits_against_shifts(mask):
    assert _set_bits(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]
