"""Property tests of the whole-mask monomial engine and the Apery-based
semigroup invariants against explicit-set oracles, at conductors up to 80.

The oracles know H only through brute-force sums of the given generators
and an ideal only through its given generators, so they share nothing with
the member mask, the Apery set or the minimal generators they check.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype.relideal import RelativeIdeal
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
    """The generator set an ideal keeps, read before and after its operands'
    sets are kept, and the set a shift carries, against the set oracle."""
    gens, H, ge, gf = case
    oracle = Oracle(gens)
    c = H.conductor
    E = RelativeIdeal.from_exponents(H, ge)
    F = RelativeIdeal.from_exponents(H, gf)
    fresh = [E.shift(s), E.add(F), E.multiply(F), F.multiply(E), E.colon(F), E.intersect(F)]
    E.mu(), F.mu()
    kept = [E.shift(s), E.add(F), E.multiply(F), F.multiply(E), E.colon(F), E.intersect(F)]
    assert fresh == kept
    for X in [E, F] + fresh + kept + [X.shift(-s) for X in kept]:
        expected = oracle_generators(X, oracle, c)
        assert X.minimal_generators() == expected
        assert X.minimal_generators() == expected  # the kept set, read again
        assert X.mu() == len(expected)


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
