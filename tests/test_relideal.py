import math
import random

import pytest

from cmtype.errors import ArgumentError, ConsistencyError, ContainmentError
from cmtype.fracideal import FractionalIdeal
from cmtype.linalg import QQ
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from helpers import random_relative_ideal, random_semigroup, stability_error_reference

H345 = NumericalSemigroup([3, 4, 5])
H456 = NumericalSemigroup([4, 5, 6])


def members(E, lo, hi):
    return {z for z in range(lo, hi) if E.contains(z)}


class TestFromExponents:
    def test_ring_itself(self):
        E = RelativeIdeal.from_exponents(H345, {0})
        assert members(E, -2, 10) == {0, 3, 4, 5, 6, 7, 8, 9}

    def test_union_of_shifts(self):
        E = RelativeIdeal.from_exponents(H345, {3, 5})
        assert members(E, 0, 10) == {3, 5, 6, 7, 8, 9}

    def test_gap_in_window(self):
        E = RelativeIdeal.from_exponents(H345, {3, 4})
        assert members(E, 0, 10) == {3, 4, 6, 7, 8, 9}

    def test_empty_rejected(self):
        with pytest.raises(ArgumentError):
            RelativeIdeal.from_exponents(H345, set())


class TestProductAndSum:
    def test_unit_acts_trivially(self):
        R = RelativeIdeal.from_exponents(H345, {0})
        for gens in ({3, 4}, {0, 1}, {-2, 0}):
            E = RelativeIdeal.from_exponents(H345, gens)
            assert R.multiply(E) == E

    def test_closed_ideal_recovers_canonical(self):
        # (K : I) * I = K for I = (t^3, t^4): the closed-ideal criterion
        K = H345.canonical_relative_ideal()
        E = RelativeIdeal.from_exponents(H345, {3, 4})
        assert K.colon(E).multiply(E) == K

    def test_sum_is_union(self):
        a = RelativeIdeal.from_exponents(H345, {3, 5})
        b = RelativeIdeal.from_exponents(H345, {3, 4})
        assert a.add(b) == RelativeIdeal.from_exponents(H345, {3, 4, 5})


class TestColon:
    def test_k_colon_k_is_ring(self):
        for gens in ([3, 4, 5], [3, 7], [4, 5, 6], [9, 10, 11, 12, 15], [1]):
            H = NumericalSemigroup(gens)
            K = H.canonical_relative_ideal()
            assert K.colon(K) == K.unit_ideal()

    def test_k_colon_m(self):
        K = H345.canonical_relative_ideal()
        m = RelativeIdeal.from_exponents(H345, {3, 4, 5})
        d = K.colon(m)
        assert members(d, -3, 6) == set(range(0, 6))
        assert d.mu() == 3  # r_R(m) = r(R) + 1

    def test_non_closed_endomorphisms(self):
        J = RelativeIdeal.from_exponents(H345, {3, 5})
        end = J.colon(J)
        assert members(end, -2, 6) == {0, 2, 3, 4, 5}
        assert end != J.unit_ideal()


class TestGeneratorsAndLengths:
    def test_mu_of_ring(self):
        R = RelativeIdeal.from_exponents(H345, {0})
        assert R.minimal_generators() == (0,)
        assert R.mu() == 1 and R.is_principal()

    def test_mu_of_canonical_9_15(self):
        H = NumericalSemigroup([9, 10, 11, 12, 15])
        assert H.canonical_relative_ideal().mu() == 4
        assert RelativeIdeal.from_exponents(H, {0, 1}).mu() == 2

    def test_quotient_length_examples(self):
        E = RelativeIdeal.from_exponents(H456, {8, 9})
        R = RelativeIdeal.from_exponents(H456, {0})
        # E = {8, 9, 12, 13, ...}: 10 and 11 are out, as 10-8, 10-9, 11-8
        # and 11-9 are gaps of <4,5,6>, so R \ E = {0, 4, 5, 6, 10, 11}
        assert members(R, 0, 16) - members(E, 0, 16) == {0, 4, 5, 6, 10, 11}
        assert R.quotient_length(E) == 6
        assert E.quotient_length(E) == 0
        m = RelativeIdeal.from_exponents(H345, {3, 4, 5})
        assert RelativeIdeal.from_exponents(H345, {0}).quotient_length(m) == 1

    def test_containment_error(self):
        R = RelativeIdeal.from_exponents(H345, {0})
        K = H345.canonical_relative_ideal()
        with pytest.raises(ContainmentError):
            R.quotient_length(K)  # K is strictly bigger than R

    def test_top_rank_refuses_a_product_below_the_ideal(self):
        # delta_X + delta_Y = 3 < delta_M = 4: X Y is not in M, on both engines
        X, Y, M = (RelativeIdeal.from_exponents(H345, {d}) for d in (1, 2, 4))
        for field in (None, QQ):
            ideals = [E if field is None else FractionalIdeal.from_relative(E, field)
                      for E in (X, Y, M)]
            with pytest.raises(ContainmentError, match="is not in"):
                ideals[2].top_rank(ideals[0], ideals[1])


class TestMalformedMasks:
    """Each rejected mask names the semigroup, delta and the offending exponent."""

    # H456 on [0, 8) is {0, 4, 5, 6}
    @pytest.mark.parametrize(
        "delta, mask, named",
        [
            (0, H456._member_mask | 0b10, "1 + 6 = 7 escapes"),  # 7 is a gap of H
            (2, 0b1110000, "does not contain 2"),
            (0, H456._member_mask | 1 << 8, "exponent 8"),
            (0, H456._member_mask | -1 << 9, "lacks exponent 8"),  # a hole past the window
        ],
    )
    def test_message_names_input(self, delta, mask, named):
        with pytest.raises(ConsistencyError, match="<4,5,6>") as err:
            RelativeIdeal(H456, delta, mask)
        assert f"delta {delta}" in str(err.value)
        assert named in str(err.value)

    @pytest.mark.parametrize("gens", [[2, 5], [3, 5], [4, 5, 6], [3, 7, 11], [5, 6, 7, 9]], ids=str)
    def test_every_unstable_window_mask_is_named_as_the_reference_names_it(self, gens):
        H = NumericalSemigroup(gens)
        c = H.conductor
        unstable = 0
        for window in range(1 << c - 1):
            mask = window << 1 | 1
            for delta in (-3, 0, 2):
                expected = stability_error_reference(H, delta, mask)
                if expected is None:
                    assert RelativeIdeal(H, delta, mask).contains(delta)
                    continue
                unstable += 1
                with pytest.raises(ConsistencyError) as err:
                    RelativeIdeal(H, delta, mask)
                assert str(err.value) == expected
        assert unstable > 0

    def test_colon_names_a_hole_past_the_window(self):
        # H456 without 13 = 8 + 5 is not an ideal, so it is built without __init__
        E = object.__new__(RelativeIdeal)
        E.semigroup, E.delta, E._mask = H456, 0, (H456._member_mask | -1 << 8) & ~(1 << 13)
        F = RelativeIdeal.from_exponents(H456, {2})
        # E - F starts at -2, so its window is [-2, 6) and 13 - 2 = 11 lies 5 past it
        with pytest.raises(ConsistencyError, match="z = 11 lies past the window") as err:
            E.colon(F)
        assert "z + 2 = 13 is not in E" in str(err.value)


def test_operands_over_another_semigroup_are_refused():
    E, F = RelativeIdeal.from_exponents(H345, {3}), RelativeIdeal.from_exponents(H456, {4})
    for op in (E.add, E.multiply, E.colon, E.intersect, E.contains_ideal):
        with pytest.raises(ArgumentError, match=r"semigroup mismatch: <3,4,5> vs <4,5,6>"):
            op(F)


class TestCanonicalDual:
    def test_dual_of_ring_and_canonical(self):
        R = RelativeIdeal.from_exponents(H345, {0})
        K = H345.canonical_relative_ideal()
        assert R.canonical_dual() == K
        assert K.canonical_dual() == R

    def test_dual_of_j(self):
        J = RelativeIdeal.from_exponents(H345, {3, 5})
        d = J.canonical_dual()
        assert members(d, -4, 5) == {-2, 0, 1, 2, 3, 4}
        assert d.mu() == 2


class TestStructuralInvariants:
    def test_round_trip_and_window_bounds(self):
        rng = random.Random(9)
        for _ in range(150):
            H = random_semigroup(rng)
            E = random_relative_ideal(rng, H)
            gens = E.minimal_generators()
            assert RelativeIdeal.from_exponents(H, gens) == E
            c = H.conductor
            assert all(E.delta <= g < E.delta + max(c, 1) for g in gens)
            assert E.contains(E.delta)
            assert all(E.contains(E.delta + c + i) for i in range(3))

    def test_colon_product_adjunction(self):
        # K - (E + F) = (K - E) - F
        rng = random.Random(10)
        for _ in range(100):
            H = random_semigroup(rng)
            K = H.canonical_relative_ideal()
            E = random_relative_ideal(rng, H)
            F = random_relative_ideal(rng, H)
            assert K.colon(E.multiply(F)) == K.colon(E).colon(F)

    def test_bidual_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            H = random_semigroup(rng)
            E = random_relative_ideal(rng, H)
            assert E.canonical_dual().canonical_dual() == E

    def test_length_additive_along_chains(self):
        rng = random.Random(12)
        for _ in range(60):
            H = random_semigroup(rng)
            E = random_relative_ideal(rng, H)
            G = E.multiply(RelativeIdeal.from_exponents(H, {0, 1}))  # E <= G
            F = E.multiply(RelativeIdeal.from_exponents(H, set(H.generators)))  # F <= E
            assert G.contains_ideal(E) and E.contains_ideal(F)
            assert G.quotient_length(F) == G.quotient_length(E) + E.quotient_length(F)

    def test_shift_is_isomorphism(self):
        E = RelativeIdeal.from_exponents(H345, {3, 5})
        assert E.shift(4).shift(-4) == E
        assert E.shift(3).mu() == E.mu()


class TestSetOracle:
    """Acceptance criterion: brute-force set-definition oracle, 100 instances."""

    def test_colon_product_mu_against_sets(self):
        rng = random.Random(13)
        checked = 0
        while checked < 100:
            H = random_semigroup(rng)
            c = max(H.conductor, 1)
            E = random_relative_ideal(rng, H)
            F = random_relative_ideal(rng, H)
            lo = E.delta + F.delta - 2 * c
            hi = E.delta + F.delta + 4 * c

            # product: Minkowski sums agree below the tail
            P = E.multiply(F)
            sums = {
                x + y
                for x in members(E, E.delta, E.delta + 2 * c + 1)
                for y in members(F, F.delta, F.delta + 2 * c + 1)
            }
            assert {z for z in sums if z < P.delta + c} == members(P, lo, P.delta + c)

            # colon: z + F <= E checked against explicit sets; the f-window
            # is wide enough that every omitted f lands in E's tail
            C = E.colon(F)
            zlo, zhi = E.delta - F.delta - c - 2, E.delta - F.delta + c + 2
            f_window = members(F, F.delta, F.delta + 4 * c + 5)
            oracle = {
                z
                for z in range(zlo, zhi)
                if all(E.contains(z + f) for f in f_window)
            }
            assert oracle == members(C, zlo, zhi)

            # minimal generators: window elements not reachable from others
            window = members(E, E.delta, E.delta + c)
            oracle_gens = {
                x
                for x in window
                if not any(x != y and H.contains(x - y) for y in window)
            }
            assert set(E.minimal_generators()) == oracle_gens
            assert E.mu() == len(oracle_gens)
            checked += 1
