"""The type formulas and the work one report does, on both ideal engines."""

import inspect
import re
from collections import Counter

import pytest

from cmtype import typecalc
from cmtype.errors import ConsistencyError
from cmtype.fracideal import FractionalIdeal
from cmtype.linalg import GF, QQ
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import parse_series

H345 = NumericalSemigroup([3, 4, 5])
H37 = NumericalSemigroup([3, 7])


def ulrich_ideal(field=GF(5)):
    gens = [parse_series(s, field) for s in ("t^6 - t^7", "t^10")]
    return FractionalIdeal.from_generators(H37, field, gens)


def cases():
    m = RelativeIdeal.from_exponents(H345, H345.generators)
    K = H345.canonical_relative_ideal()
    out = [("monomial m", m), ("monomial K", K)]
    for field in (QQ, GF(5)):
        out += [(f"series m {field}", FractionalIdeal.from_relative(m, field)),
                (f"series K {field}", FractionalIdeal.from_relative(K, field))]
    out.append(("series Ulrich", ulrich_ideal()))
    return out


CASES = cases()

# Every operation typecalc and constructions call on an ideal, whichever the engine.
ENGINE_CONTRACT = (
    "add", "multiply", "colon", "intersect", "shift", "contains_ideal", "quotient_length",
    "mu", "is_principal", "find_reduction", "unit_ideal", "canonical_ideal", "maximal_ideal",
    "describe",
)


@pytest.mark.parametrize("name", ENGINE_CONTRACT)
def test_both_engines_define_the_contract_alike(name):
    params = []
    for cls in (RelativeIdeal, FractionalIdeal):
        assert name in vars(cls), f"{cls.__name__} lacks {name}"
        params.append(list(inspect.signature(vars(cls)[name]).parameters))
    assert params[0] == params[1]


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

    def test_two_series_reports_make_one_maximal_canonical_product(self, monkeypatch):
        field = GF(5)
        ideals = [
            FractionalIdeal.from_generators(H345, field, [parse_series(s, field) for s in exprs])
            for exprs in (("t^3 - t^4", "t^5"), ("t^4 + 2*t^5", "t^6"))
        ]
        K, m = ideals[0].canonical_ideal(), ideals[0].maximal_ideal()
        K.mu()  # K's own m K, built here, outside the count
        typecalc._maximal_canonical.cache_clear()
        products = []
        count_calls(monkeypatch, FractionalIdeal, "multiply", products)
        for I in ideals:
            assert typecalc.classify(I).consistent
        assert sum(1 for a, b in products if a is m and b is K) == 1

    @pytest.mark.parametrize("gens, exprs, colons", [
        ([3, 7], ("t^6 - t^7", "t^10"), 4),  # symmetric: R : I is the K : I already built
        ([3, 4, 5], ("t^3 - t^4", "t^5"), 5),
    ])
    def test_series_classify_computes_each_colon_once(self, monkeypatch, gens, exprs, colons):
        H, field = NumericalSemigroup(gens), GF(5)
        I = FractionalIdeal.from_generators(H, field, [parse_series(s, field) for s in exprs])
        typecalc._parameter_socle(I.unit_ideal(), H.multiplicity)
        record = []
        count_calls(monkeypatch, FractionalIdeal, "colon", record)
        assert typecalc.classify(I).consistent
        # K:I, (t^e I):I, I:m, I:I, and R:I unless K = R; none of them twice
        assert len(record) == colons
        assert max(Counter(record).values()) == 1

    def test_monomial_idealization_type_makes_two_colons(self, monkeypatch):
        H = NumericalSemigroup([10, 13, 17])
        I = RelativeIdeal.from_exponents(H, {0, 13, 21})
        a = H.multiplicity
        typecalc._parameter_socle(I.unit_ideal(), a)
        colons = []
        count_calls(monkeypatch, RelativeIdeal, "colon", colons)
        typecalc.idealization_type(I, a)
        assert len(colons) == 2
