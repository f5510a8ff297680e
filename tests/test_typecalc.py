"""The type formulas and the work one report does, on both ideal engines."""

import re
from collections import Counter

import pytest

from cmtype import typecalc
from cmtype.errors import ConsistencyError
from cmtype.fracideal import FractionalIdeal, from_relative, ideal_from_generators
from cmtype.linalg import GF, QQ
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import parse_series

H345 = NumericalSemigroup([3, 4, 5])
H37 = NumericalSemigroup([3, 7])


def ulrich_ideal(field=GF(5)):
    gens = [parse_series(s, field) for s in ("t^6 - t^7", "t^10")]
    return ideal_from_generators(H37, field, gens)


def cases():
    m = RelativeIdeal.from_exponents(H345, H345.generators)
    K = H345.canonical_relative_ideal()
    out = [("monomial m", m), ("monomial K", K)]
    for field in (QQ, GF(5)):
        out += [(f"series m {field}", from_relative(m, field)),
                (f"series K {field}", from_relative(K, field))]
    out.append(("series Ulrich", ulrich_ideal()))
    return out


CASES = cases()


@pytest.mark.parametrize("name, ideal", CASES, ids=[name for name, _ in CASES])
class TestFormulas:
    def test_idealization_type_agrees_with_the_public_routes(self, name, ideal):
        e = ideal.semigroup.multiplicity
        itype = typecalc.idealization_type(ideal)
        excess, socle_value = typecalc.socle_formula(ideal, e)
        mu_coker, coker_value = typecalc.cokernel_formula(ideal)
        r_mod = typecalc.module_type(ideal)
        assert (itype.socle_excess, itype.socle_value) == (excess, socle_value)
        assert (itype.cokernel_mu, itype.cokernel_value) == (mu_coker, coker_value)
        assert itype.module_type == r_mod == socle_value - excess
        assert itype.value == socle_value == coker_value

    def test_cached_parameter_socle_matches_a_fresh_one(self, name, ideal):
        H = ideal.semigroup
        R, m = ideal.unit_ideal(), ideal.maximal_ideal()
        other = next(a for a in H.members(H.multiplicity + 1, H.conductor + 2))
        for a in (H.multiplicity, other):
            q = R.shift(a)
            socle = q.colon(m).intersect(R)
            annihilator = ideal.shift(a).colon(ideal).intersect(R)
            fresh = socle.intersect(annihilator).quotient_length(q)
            typecalc.socle_formula(ideal, a)  # fills the cache if it was empty
            hits = typecalc._parameter_socle.cache_info().hits
            assert typecalc.socle_formula(ideal, a)[0] == fresh
            assert typecalc._parameter_socle.cache_info().hits == hits + 1
            assert typecalc._parameter_socle(R, a) == socle

    @pytest.mark.parametrize("route", ["_socle_excess", "_cokernel_mu"])
    def test_a_route_off_by_one_is_caught(self, name, ideal, monkeypatch, route):
        original = getattr(typecalc, route)
        monkeypatch.setattr(typecalc, route, lambda *args: original(*args) + 1)
        with pytest.raises(ConsistencyError, match=re.escape(ideal.describe())):
            typecalc.idealization_type(ideal)


def count_calls(monkeypatch, cls, name, record):
    """Wrap cls.name so each call appends its arguments to ``record``."""
    original = getattr(cls, name)

    def wrapper(*args):
        record.append(args)
        return original(*args)

    monkeypatch.setattr(cls, name, wrapper)


class TestWorkCounts:
    """One report computes each shared ideal once; no time is measured."""

    def test_series_classify_shares_squares_and_maximal_products(self, monkeypatch):
        I = ulrich_ideal()
        m = I.maximal_ideal()
        products, mus = [], []
        count_calls(monkeypatch, FractionalIdeal, "multiply", products)
        count_calls(monkeypatch, FractionalIdeal, "mu", mus)
        report = typecalc.classify(I)
        assert report.consistent and report.flags["is_ulrich_ideal"]
        pairs = Counter((a is I, a is m, b is I) for a, b in products)
        assert pairs[(True, False, True)] <= 1  # I I
        assert pairs[(False, True, True)] <= 1  # m I
        assert sum(1 for (a,) in mus if a is I) > 1

    def test_monomial_idealization_type_makes_two_colons(self, monkeypatch):
        H = NumericalSemigroup([10, 13, 17])
        I = RelativeIdeal.from_exponents(H, {0, 13, 21})
        a = H.multiplicity
        typecalc._parameter_socle(I.unit_ideal(), a)
        colons = []
        count_calls(monkeypatch, RelativeIdeal, "colon", colons)
        typecalc.idealization_type(I, a)
        assert len(colons) == 2
