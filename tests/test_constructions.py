"""The families, the blow-up ring, the enumeration and sup_search, against brute force."""

import itertools

import pytest

from cmtype import constructions
from cmtype.constructions import (
    blowup_ring,
    dual_family_ideal,
    enumerate_monomial_ideals,
    med_family_ideal,
    pf_family_ideal,
    sup_search,
)
from cmtype.errors import ArgumentError, ConsistencyError, ResourceLimitError
from cmtype.semigroup import NumericalSemigroup
from cmtype.typecalc import idealization_type
from helpers import SERIES_POOL

POOL = [NumericalSemigroup(gens) for gens in SERIES_POOL]


def window_set(ideal, lo, hi):
    return {x for x in range(lo, hi) if ideal.contains(x)}


def brute_force_ideals(H, span_bound):
    """Exponent sets in [0, c) of H + S over every H-stable set S of gaps <= span_bound."""
    c = H.conductor
    members = set(H.members(0, c))
    gaps = [g for g in H.gaps() if g <= span_bound]
    out = []
    for k in range(len(gaps) + 1):
        for chosen in itertools.combinations(gaps, k):
            E = members | set(chosen)
            if all(x + a >= c or x + a in E for x in E for a in H.generators):
                out.append(frozenset(E))
    return out


@pytest.mark.parametrize("H", POOL, ids=str)
def test_enumeration_matches_brute_force(H):
    c = H.conductor
    assert c <= 12
    for span_bound in range(1, c + 1):
        ideals = list(enumerate_monomial_ideals(H, span_bound))
        assert all(I.delta == 0 for I in ideals)
        got = [frozenset(window_set(I, 0, c)) for I in ideals]
        assert len(got) == len(set(got))  # each ideal once
        assert set(got) == set(brute_force_ideals(H, span_bound))


@pytest.mark.parametrize("H", POOL, ids=str)
def test_enumeration_stops_past_max_count(H):
    total = len(brute_force_ideals(H, H.conductor))
    assert len(list(enumerate_monomial_ideals(H, H.conductor, max_count=total))) == total
    with pytest.raises(ResourceLimitError):
        list(enumerate_monomial_ideals(H, H.conductor, max_count=total - 1))


@pytest.mark.parametrize("H", POOL + [NumericalSemigroup([4, 9, 11])], ids=str)
def test_blowup_is_the_closed_form(H):
    """R[m/t^e] is generated by t^e and the t^(a - e): its exponents, by reachability."""
    e, hi = H.multiplicity, 2 * H.conductor + 2
    steps = [e] + [a - e for a in H.generators]
    reached = {0}
    for x in range(hi):
        if x in reached:
            reached |= {x + s for s in steps if s > 0}
    assert window_set(blowup_ring(H), -hi, hi) == {x for x in reached if x < hi}


def test_blowup_rejects_a_wrong_closed_form(monkeypatch):
    # the closed form of a DVR, wrong for <3,7>, whose blow-up is <3,4>
    monkeypatch.setattr(constructions, "NumericalSemigroup", lambda gens: NumericalSemigroup([1]))
    with pytest.raises(ConsistencyError, match="closed form"):
        blowup_ring(NumericalSemigroup([3, 7]))


def test_families_reject_p_out_of_range():
    H = NumericalSemigroup([5, 6, 7, 8, 9])  # maximal embedding dimension
    r, ell = H.type(), len(H.generators)
    for p in (1, r):
        pf_family_ideal(H, p)
        dual_family_ideal(H, p)
    for p in (2, ell):
        med_family_ideal(H, p)
    for p in (0, r + 1):
        with pytest.raises(ArgumentError, match="p must lie"):
            pf_family_ideal(H, p)
        with pytest.raises(ArgumentError, match="p must lie"):
            dual_family_ideal(H, p)
    for p in (1, ell + 1):
        with pytest.raises(ArgumentError, match="p must lie"):
            med_family_ideal(H, p)


@pytest.mark.parametrize("H", POOL, ids=str)
def test_sup_search_witness_attains_the_value(H):
    bound = H.conductor + H.multiplicity
    value, witness = sup_search(H, bound)
    assert idealization_type(witness).value == value
    assert value == max(idealization_type(I).value for I in enumerate_monomial_ideals(H, bound))
