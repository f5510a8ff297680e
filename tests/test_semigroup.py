import math
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cmtype.errors import ArgumentError, ConsistencyError, ResourceLimitError
from cmtype.semigroup import SEMIGROUP_CONDUCTOR_LIMIT, NumericalSemigroup, _apery_by_shortest_path
from helpers import MAX_CONDUCTOR, brute_members, random_semigroup, semigroups


class TestCreate:
    def test_dvr(self):
        H = NumericalSemigroup([1])
        assert H.generators == (1,)
        assert H.frobenius == -1
        assert H.conductor == 0

    def test_3_7_against_brute_force(self):
        H = NumericalSemigroup([3, 7])
        assert H.generators == (3, 7)
        oracle = brute_members([3, 7], 2 * 3 * 7)
        assert H.frobenius == max(x for x in range(2 * 3 * 7) if x not in oracle) == 11
        assert H.conductor == 12
        for z in range(30):
            assert H.contains(z) == (z in oracle)

    def test_redundant_generator_removed(self):
        H = NumericalSemigroup([4, 5, 6, 9])
        assert H.generators == (4, 5, 6)

    def test_gcd_error(self):
        with pytest.raises(ArgumentError, match="not a numerical semigroup"):
            NumericalSemigroup([4, 6])

    def test_empty_error(self):
        with pytest.raises(ArgumentError):
            NumericalSemigroup([])

    def test_nonpositive_error(self):
        with pytest.raises(ArgumentError):
            NumericalSemigroup([0, 3])


class TestContains:
    def test_examples(self):
        H = NumericalSemigroup([3, 7])
        assert H.contains(0)
        assert not H.contains(11)  # 11 = 3a + 7b has no solution
        assert H.contains(12)
        assert not H.contains(-3)


class TestApery:
    def test_3_7(self):
        assert NumericalSemigroup([3, 7]).apery(3) == (0, 7, 14)

    def test_dvr(self):
        assert NumericalSemigroup([1]).apery(1) == (0,)

    def test_4_5_6(self):
        assert NumericalSemigroup([4, 5, 6]).apery(4) == (0, 5, 6, 11)

    def test_rejects_non_member(self):
        H = NumericalSemigroup([3, 7])
        with pytest.raises(ArgumentError):
            H.apery(5)
        with pytest.raises(ArgumentError):
            H.apery(0)


class TestPseudoFrobenius:
    def test_3_7_by_gap_scan(self):
        H = NumericalSemigroup([3, 7])
        gaps = H.gaps()
        assert gaps == [1, 2, 4, 5, 8, 11]
        oracle = [
            x for x in gaps if all(H.contains(x + h) for h in range(1, 30) if H.contains(h))
        ]
        assert H.pseudo_frobenius() == tuple(oracle) == (11,)

    def test_3_4_5(self):
        assert NumericalSemigroup([3, 4, 5]).pseudo_frobenius() == (1, 2)

    def test_4_5_6_symmetric(self):
        H = NumericalSemigroup([4, 5, 6])
        assert H.pseudo_frobenius() == (7,)
        assert H.is_symmetric()


class TestInvariants:
    def test_3_4_5(self):
        inv = NumericalSemigroup([3, 4, 5]).invariants()
        assert (inv["multiplicity"], inv["embedding_dimension"], inv["frobenius"]) == (3, 3, 2)
        assert (inv["conductor"], inv["type"]) == (3, 2)
        assert not inv["gorenstein"] and inv["med"] and not inv["dvr"]

    def test_3_7_symmetric(self):
        inv = NumericalSemigroup([3, 7]).invariants()
        assert inv["type"] == 1 and inv["gorenstein"] and not inv["med"]

    def test_dvr(self):
        inv = NumericalSemigroup([1]).invariants()
        assert inv["dvr"] and inv["multiplicity"] == 1 and inv["gorenstein"]


class TestCanonicalIdeal:
    def test_gorenstein_k_equals_h(self):
        H = NumericalSemigroup([4, 5, 6])
        K = H.canonical_relative_ideal()
        assert K == K.unit_ideal()

    def test_3_4_5(self):
        H = NumericalSemigroup([3, 4, 5])
        K = H.canonical_relative_ideal()
        assert K.contains(0) and K.contains(1) and not K.contains(2)
        assert all(K.contains(x) for x in range(3, 10))

    def test_9_10_11_12_15(self):
        H = NumericalSemigroup([9, 10, 11, 12, 15])
        K = H.canonical_relative_ideal()
        assert K.minimal_generators() == (0, 1, 3, 4)
        assert K.mu() == 4

    def test_wrong_apery_pf_caught_by_gap_dual(self, monkeypatch):
        # PF is (13, 14, 16, 17).  A lost element also lowers the cached
        # type, so mu(K) == type still holds and only the gap-dual set,
        # computed without PF, can see it.
        monkeypatch.setattr(NumericalSemigroup, "_maximal_apery_pf", lambda self: (13, 14, 17))
        H = NumericalSemigroup([9, 10, 11, 12, 15])
        with pytest.raises(ConsistencyError, match=r"<9,10,11,12,15>.*gap-dual set .* at 1$"):
            H.canonical_relative_ideal()

    @pytest.mark.parametrize("pf, wrong", [
        ((13, 16, 17), 3),  # loses generator F - 14 = 3; the lowest gap 1 stays in K
        ((14, 16, 17), 4),  # loses generator F - 13 = 4
        ((12, 13, 14, 16, 17), 5),  # 12 is in H, so K gains 5 = F - 12
        ((13, 14, 16), 0),  # max PF below F: K starts at 1, not 0
    ])
    def test_gap_dual_check_names_the_first_wrong_exponent(self, monkeypatch, pf, wrong):
        monkeypatch.setattr(NumericalSemigroup, "_maximal_apery_pf", lambda self: pf)
        H = NumericalSemigroup([9, 10, 11, 12, 15])
        with pytest.raises(ConsistencyError, match=rf"gap-dual set .* at {wrong}$"):
            H.canonical_relative_ideal()


def test_random_invariant_properties():
    rng = random.Random(42)
    for _ in range(40):
        H = random_semigroup(rng, hi=28)
        pf = H.pseudo_frobenius()
        assert max(pf) == H.frobenius
        assert (len(pf) == 1) == H.is_symmetric()
        n = H.multiplicity
        ap = H.apery(n)
        assert len(ap) == n
        assert len({x % n for x in ap}) == n
        assert max(ap) == H.frobenius + n
        if H.invariants()["med"] and H.multiplicity >= 2:
            assert len(pf) == H.multiplicity - 1
        K = H.canonical_relative_ideal()
        assert K.colon(K) == K.unit_ideal()  # K : K = R
        assert K.mu() == len(pf)
        assert (K == K.unit_ideal()) == H.is_symmetric()


class TestLargeConductor:
    """The mask-built semigroup at the conductors `semigroup info` scans (hundreds
    to thousands), where the set oracles of test_mask_properties do not reach."""

    @pytest.mark.parametrize("a, b", [(17, 29), (31, 45), (47, 61), (50, 73)])
    def test_two_generators(self, a, b):
        H = NumericalSemigroup([a, b])
        F = a * b - a - b
        assert H.frobenius == F and H.conductor == F + 1
        assert H.pseudo_frobenius() == (F,)
        assert H.is_symmetric()
        assert len(H.gaps()) == (a - 1) * (b - 1) // 2

    @pytest.mark.parametrize("e", [64, 300])
    def test_maximal_embedding_dimension(self, e):
        H = NumericalSemigroup(range(e, 2 * e))
        assert H.conductor == e
        assert H.pseudo_frobenius() == tuple(range(1, e))
        assert H.type() == e - 1

    @pytest.mark.parametrize("gens", [(29, 47, 83), (53, 59, 61), (40, 57, 91),
                                      (61, 67, 101), (47, 58, 87), (101, 203, 261)])
    def test_three_generators_against_definitions(self, gens):
        H = NumericalSemigroup(gens)
        e, c = H.multiplicity, H.conductor
        assert 700 <= c <= 4200
        # the mask, residue by residue: z in H iff z >= the Apery element of its class
        ap = _apery_by_shortest_path(sorted(gens), e)
        assert all(H.contains(z) == (z >= ap[z % e]) for z in range(c + e))
        # PF(H) by its definition: gaps x with x + a in H for every generator a
        pf = tuple(x for x in H.gaps() if all(H.contains(x + a) for a in gens))
        assert H.pseudo_frobenius() == pf


@given(st.integers(2, 40), st.integers(3, 120), st.sets(st.integers(2, 5), max_size=3))
@example(3, 7, {2})  # "3,6,7": 6 is a redundant multiple of e
def test_two_generator_apery_in_closed_form(e, b, multiples):
    # one step that is not a multiple of e: Ap(H, e) is {k b : k < e}, with no search
    assume(b > e and math.gcd(e, b) == 1)
    gens = sorted({e, b} | {e * j for j in multiples})
    closed = _apery_by_shortest_path(gens, e)
    # e + b is redundant and a second step, so the same set comes off the heap
    assert closed == _apery_by_shortest_path(sorted({e, b, e + b}), e)
    members = brute_members(gens, (e - 1) * b)
    assert closed == [min(x for x in members if x % e == r) for r in range(e)]
    assert NumericalSemigroup(gens).frobenius == e * b - e - b


DVR = ([1], NumericalSemigroup([1]))


@given(semigroups(), st.sampled_from(["e", "largest", "2e"]) | st.integers(0, 98))
@example(DVR, "e")
@example(DVR, "2e")
@example(DVR, 6)
@example(([3, 6, 7], NumericalSemigroup([3, 6, 7])), "2e")  # 2e is a redundant generator
def test_apery_is_the_least_member_in_each_class(drawn, which):
    # n is e, the largest minimal generator, 2e, or the which-th positive member
    gens, H = drawn
    e = H.multiplicity
    named = {"e": e, "largest": H.generators[-1], "2e": 2 * e}
    n = named[which] if which in named else H.members(1, H.conductor + 100)[which]
    # each class mod n has a member in [c, c + n)
    members = brute_members(gens, H.conductor + n)
    least = [min(x for x in members if x % n == r) for r in range(n)]
    assert H.apery(n) == tuple(sorted(least))


BOUNDS = st.integers(-30, MAX_CONDUCTOR + 30)  # below 0 and past every c <= 80


@given(semigroups(), BOUNDS, BOUNDS)
@example(DVR, -5, 3)
@example(DVR, 2, -1)
@example(([3, 5], NumericalSemigroup([3, 5])), -4, 8)  # across the conductor 8
@example(([3, 5], NumericalSemigroup([3, 5])), 9, 4)
def test_members_match_the_contains_loop(drawn, start, stop):
    _, H = drawn
    assert H.members(start, stop) == [z for z in range(max(start, 0), stop) if H.contains(z)]


@pytest.mark.parametrize("e", [SEMIGROUP_CONDUCTOR_LIMIT + 1, 20_000_003])
def test_a_multiplicity_above_the_cap_allocates_nothing_of_its_size(e):
    # c >= e, so H is refused before its e-entry Apery list
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=f"multiplicity {e}\\)"):
            NumericalSemigroup([e, e + 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
