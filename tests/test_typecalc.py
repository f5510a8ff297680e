"""The type formulas and the work one report does, on both ideal engines."""

import itertools
import random
import re
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings

from cmtype import relideal, typecalc
from cmtype.constructions import enumerate_monomial_ideals
from cmtype.errors import ArgumentError, ConsistencyError, ContainmentError
from cmtype.fracideal import FractionalIdeal
from cmtype.linalg import GF, QQ
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import NumericalSemigroup
from cmtype.series import parse_series
from helpers import (
    random_relative_ideal,
    reduction_search_reference,
    series_ideals,
    socle_excess_reference,
    ulrich_module_reference,
)

H345 = NumericalSemigroup([3, 4, 5])
H37 = NumericalSemigroup([3, 7])
H35 = NumericalSemigroup([3, 5])
H1 = NumericalSemigroup([1])  # the DVR k[[t]]: c = 0, PF(H) = {-1}
# semigroups with ideals I <= m whose I^2 is not xI, so (x) reduces only a higher power
REDUCTION_POOL = ([3, 5], [3, 7], [4, 5, 6], [4, 6, 9], [5, 6, 7], [3, 4, 5])


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

def proper_ideals(H, field, rng):
    """Proper monomial ideals (enumerated, shifted into R) and random series ideals."""
    R = RelativeIdeal.from_exponents(H, {0})
    shifts = H.members(1, H.conductor + 1)
    out = [E.shift(a) for E in enumerate_monomial_ideals(H, H.conductor) for a in shifts]
    out = [E for E in out if R.contains_ideal(E) and E != R]
    elements = H.members(1, H.conductor + 2 * H.multiplicity)
    for _ in range(12):
        exprs = [
            " + ".join(f"{rng.randint(1, field.characteristic - 1)}*t^{x}"
                       for x in rng.sample(elements, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        gens = [parse_series(s, field) for s in exprs]
        out.append(FractionalIdeal.from_generators(H, field, gens))
    return out


def test_ulrich_by_length_matches_the_reduction_search():
    # _is_ulrich_ideal decides I^2 = xI by len(I/I^2) = delta_I; find_reduction
    # searches for such an x among candidates that include one of order delta_I
    rng = random.Random(11)
    outcomes = set()
    for gens in ([3, 4, 5], [3, 5], [4, 5, 6], [3, 7]):
        for I in proper_ideals(NumericalSemigroup(gens), GF(3), rng):
            length = I.quotient_length(I.multiply(I))
            reduced = I.find_reduction() is not None
            assert (length == I.delta) == reduced, I.describe()
            free = length == I.mu() * I.unit_ideal().quotient_length(I)
            assert typecalc.is_ulrich_ideal(I) == (I.mu() >= 2 and reduced and free)
            outcomes.add((I.engine, reduced, free))
    engines, flags = ("monomial", "series"), (True, False)
    assert outcomes == set(itertools.product(engines, flags, flags))


def test_find_reduction_matches_the_candidate_search():
    # the reference tries several candidates for x; find_reduction tests one by values
    rng = random.Random(13)
    outcomes = set()
    for gens in REDUCTION_POOL + ([1],):
        H = NumericalSemigroup(gens)
        ideals = proper_ideals(H, GF(3), rng) if H.conductor else []
        ideals += [random_relative_ideal(rng, H) for _ in range(6)]
        ideals += [FractionalIdeal.from_relative(E, GF(3)) for E in ideals[-3:]]
        ideals += [FractionalIdeal.from_generators(H, GF(3), [parse_series(s, GF(3))])
                   for s in ("t^-2 + t^5", "t^2 + 2*t^3")]
        for I in ideals:
            P = I.find_reduction()
            assert (P is None) == (reduction_search_reference(I) is None), I.describe()
            if P is not None:
                assert P.is_principal() and P.delta == I.delta
                assert P.multiply(I) == I.multiply(I)
            outcomes.add((I.engine, P is None))
    assert outcomes == set(itertools.product(("monomial", "series"), (True, False)))


def test_ulrich_module_test_matches_the_definition():
    # 82 of these 271 ideals have I^2 != xI
    rng = random.Random(12)
    outcomes = set()
    for gens in REDUCTION_POOL:
        for I in proper_ideals(NumericalSemigroup(gens), GF(3), rng):
            for M in (I.unit_ideal(), I, I.maximal_ideal(), I.canonical_ideal()):
                ulrich = typecalc.is_ulrich_module_wrt(M, I)
                assert ulrich == ulrich_module_reference(M, I), (M.describe(), I.describe())
                outcomes.add((I.engine, ulrich))
    assert outcomes == set(itertools.product(("monomial", "series"), (True, False)))


@pytest.mark.parametrize("lift", [lambda E: E, lambda E: FractionalIdeal.from_relative(E, QQ)],
                         ids=["monomial", "series"])
def test_ulrich_module_pinned_cases(lift):
    R, m, K = (lift(E) for E in (
        RelativeIdeal.from_exponents(H35, {0}),
        RelativeIdeal.from_exponents(H35, {3, 5}),
        H35.canonical_relative_ideal(),
    ))
    assert typecalc.is_ulrich_module_wrt(R, m) is False  # mR = m is not t^3 R
    for M in (R, m, K):
        assert typecalc.is_ulrich_module_wrt(M, R) is True
    # M = I = (t^4, t^5) has IM <= M and len(M/IM) = 3, not delta_I = 4
    for exps in ({-1, 3}, {-3}, {1, 3}, {4, 5}):
        I = lift(RelativeIdeal.from_exponents(H35, exps))
        for M in (R, I):
            with pytest.raises(ContainmentError):
                typecalc.is_ulrich_module_wrt(M, I)


def test_ulrich_wrt_m_is_the_length_formula():
    # mu(M) = e, against len(M/mM) = mu(M) = len(M/t^e M) and the test with I = m
    rng = random.Random(14)
    outcomes = set()
    for gens in REDUCTION_POOL:
        H = NumericalSemigroup(gens)
        for I in proper_ideals(H, GF(3), rng)[::4] + [random_relative_ideal(rng, H)]:
            ulrich = typecalc.is_ulrich_module_wrt(I)
            assert ulrich == (I.mu() == I.quotient_length(I.shift(H.multiplicity)))
            assert ulrich == typecalc.is_ulrich_module_wrt(I, I.maximal_ideal())
            outcomes.add(ulrich)
    assert outcomes == {True, False}


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
        # the socle excess by its definition, with the parameter socle built
        # afresh, against socle_formula, which reads it off PF(H)
        H = ideal.semigroup
        for a in (H.multiplicity, H.members(H.multiplicity + 1, H.conductor + 2)[0]):
            assert typecalc.socle_formula(ideal, a)[0] == socle_excess_reference(ideal, a)

    def test_a_parameter_outside_h_is_refused(self, name, ideal):
        H = ideal.semigroup
        for a in (0, -H.multiplicity, H.frobenius):  # the Frobenius number is a gap
            for route in (typecalc.socle_formula, typecalc.idealization_type):
                with pytest.raises(ArgumentError, match=f"got {a}$"):
                    route(ideal, a)

    def test_classify_matches_the_public_predicates(self, name, ideal):
        report = typecalc.classify(ideal)
        if report["proper"]:
            assert report["quotient_type"] == typecalc.quotient_type(ideal)
            assert report["flags"]["is_ulrich_ideal"] == typecalc.is_ulrich_ideal(ideal)
        for target in [ideal.unit_ideal()] + ([] if report["proper"] else [ideal]):
            for public in (typecalc.quotient_type, typecalc.is_ulrich_ideal):
                with pytest.raises(ArgumentError):
                    public(target)

    @pytest.mark.parametrize("route", ["_socle_excess", "_cokernel_mu"])
    def test_a_route_off_by_one_is_caught(self, name, ideal, monkeypatch, route):
        # socle_formula and cokernel_formula read one idealization_type call, so
        # they raise too
        original = getattr(typecalc, route)
        monkeypatch.setattr(typecalc, route, lambda *args: original(*args) + 1)
        e = ideal.semigroup.multiplicity
        for call in (typecalc.idealization_type, typecalc.cokernel_formula,
                     lambda I: typecalc.socle_formula(I, e)):
            with pytest.raises(ConsistencyError, match=re.escape(ideal.describe())):
                call(ideal)

    @pytest.mark.parametrize("method", ["top_rank", "endo_meet_dim"])
    def test_an_engine_rank_off_by_one_is_caught(self, name, ideal, monkeypatch, method):
        # the cokernel route reads top_rank and the socle route endo_meet_dim,
        # so one wrong rank on either engine breaks their agreement
        cls = type(ideal)
        original = getattr(cls, method)
        monkeypatch.setattr(cls, method, lambda *args: original(*args) + 1)
        with pytest.raises(ConsistencyError, match=re.escape(ideal.describe())):
            typecalc.idealization_type(ideal)


def report_without_label(ideal):
    doc = typecalc.classify(ideal)
    del doc["ideal"]  # the generators the ideal was built from, printed as given
    return doc


@settings(max_examples=60, deadline=None)
@given(series_ideals)
@example(FractionalIdeal.from_generators(H1, QQ, [parse_series("t^-2 + 3*t^4", QQ)]))
@example(FractionalIdeal.from_generators(H37, GF(2), [parse_series(s, GF(2)) for s in
                                                       ("t^3 + t^4", "t^7 + t^8", "t^6")]))
def test_the_report_does_not_depend_on_the_presentation(I):
    # the engine reads the rows it picks off the values, not the given
    # generators: a minimal presentation, and one with a redundant t^e g,
    # report alike in everything but the label
    H, field, gens = I.semigroup, I.field, I.generators
    expected = report_without_label(I)
    minimal = FractionalIdeal.from_generators(H, field, I.module_generators())
    redundant = FractionalIdeal.from_generators(H, field, [*gens, gens[-1].shift(H.multiplicity)])
    for other in (minimal, redundant):
        assert other == I
        assert report_without_label(other) == expected, (I.describe(), other.describe())


@pytest.mark.parametrize("lift", [lambda E: E, lambda E: FractionalIdeal.from_relative(E, QQ)],
                         ids=["monomial", "series"])
def test_classify_flags_match_the_definitions(lift):
    # classify reads the annihilator and r(R/I) off I:I and K:I; the public
    # functions compute them by their definitions
    outcomes = set()
    for gens in ([3, 7], [4, 6, 9], [5, 6, 7]):
        H = NumericalSemigroup(gens)
        R, c = RelativeIdeal.from_exponents(H, {0}), H.conductor
        for E in enumerate_monomial_ideals(H, c):
            a = next(a for a in H.members(1, c + 1) if R.contains_ideal(E.shift(a)))
            for I in (lift(E), lift(E.shift(a))):
                report = typecalc.classify(I)
                expected = {
                    "is_closed": typecalc.is_closed(I),
                    "is_trace": typecalc.is_trace(I),
                    "is_residually_faithful": typecalc.is_residually_faithful(I),
                    "is_ulrich_ideal": report["proper"] and typecalc.is_ulrich_ideal(I),
                    "is_ulrich_module_wrt_m": typecalc.is_ulrich_module_wrt(I),
                    "is_principal": I.is_principal(),
                }
                assert {k: report["flags"][k] for k in expected} == expected, I.describe()
                r_quot = typecalc.quotient_type(I) if report["proper"] else None
                assert report["quotient_type"] == r_quot, I.describe()
                outcomes.add((report["flags"]["is_residually_faithful"], r_quot))
    assert {faithful for faithful, _ in outcomes} == {True, False}
    assert len({r for _, r in outcomes if r is not None}) > 2


@pytest.mark.parametrize("lift", [lambda E: E, lambda E: FractionalIdeal.from_relative(E, GF(3))],
                         ids=["monomial", "series"])
@pytest.mark.parametrize("exps, step", [({0}, 1), ({3, 7}, -1)], ids=["R plus one", "m minus one"])
def test_a_faithfulness_rank_off_by_one_is_reported(monkeypatch, lift, exps, step):
    # over <3,7> the flag's exponents {4, 11} differ from PF(H) = {11}; only
    # the flag's rank is off, so classify sees closed != faithful
    I = lift(RelativeIdeal.from_exponents(H37, exps))
    assert typecalc.classify(I)["consistent"]
    pf, cls = set(H37.pseudo_frobenius()), type(I)
    original = cls.endo_meet_dim
    monkeypatch.setattr(cls, "endo_meet_dim",
                        lambda self, f: original(self, f) + (0 if set(f) == pf else step))
    report = typecalc.classify(I)
    assert not report["consistent"]
    failed = [v["name"] for v in report["verdicts"] if not v["passed"]]
    assert failed == ["closed-iff-residually-faithful"], I.describe()


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
        assert report["consistent"] and report["flags"]["is_ulrich_ideal"]
        pairs = Counter((a is I, a is m, b is I) for a, b in products)
        assert pairs[(True, False, True)] <= 1  # I I
        assert pairs[(False, True, True)] <= 1  # m I
        assert sum(1 for (a,) in mus if a is I) > 1

    @pytest.mark.parametrize("gens, exprs", [
        ([3, 7], ("t^6 - t^7", "t^10")),
        ([3, 4, 5], ("t^3 - t^4", "t^5")),
        ([5, 6, 7], ("t^5", "t^13", "t^14")),
        ([4, 6, 9], ("t^-3 + 2*t^4", "t^6")),
    ])
    def test_series_classify_builds_no_maximal_product_meet_or_shift(
        self, monkeypatch, gens, exprs
    ):
        H, field = NumericalSemigroup(gens), GF(5)
        I = FractionalIdeal.from_generators(H, field, [parse_series(s, field) for s in exprs])
        m = I.maximal_ideal()
        products, meets, shifts = [], [], []
        count_calls(monkeypatch, FractionalIdeal, "multiply", products)
        count_calls(monkeypatch, FractionalIdeal, "intersect", meets)
        count_calls(monkeypatch, FractionalIdeal, "shift", shifts)
        assert typecalc.classify(I)["consistent"]
        # m I and m (K:I) are spans on their own windows; the faithful flag is a rank
        assert not any(m in pair for pair in products)
        assert meets == [] and shifts == []

    def test_series_reports_make_no_maximal_canonical_product(self, monkeypatch):
        field = GF(5)
        ideals = [
            FractionalIdeal.from_generators(H345, field, [parse_series(s, field) for s in exprs])
            for exprs in (("t^3 - t^4", "t^5"), ("t^4 + 2*t^5", "t^6"))
        ]
        K, m = ideals[0].canonical_ideal(), ideals[0].maximal_ideal()
        K.mu()  # K's own m K, which K keeps, built here, outside the count
        products = []
        count_calls(monkeypatch, FractionalIdeal, "multiply", products)
        for I in ideals:
            assert typecalc.classify(I)["consistent"]
        # no m K: the cokernel route reduces modulo the m K that K keeps; and no
        # (K:I) I: the only products with I are m I and, for the Ulrich test, I I
        assert not any(b is K for _, b in products)
        for I in ideals:
            assert all(a is m or a is I for a, b in products if b is I)

    def test_series_classify_tests_containment_once(self, monkeypatch):
        field = GF(5)
        gens = [parse_series(s, field) for s in ("t^3 - t^4", "t^5")]
        I = FractionalIdeal.from_generators(H345, field, gens)
        record, lengths = [], []
        count_calls(monkeypatch, FractionalIdeal, "contains_ideal", record)
        count_calls(monkeypatch, FractionalIdeal, "quotient_length", lengths)
        report = typecalc.classify(I)
        assert report["proper"] and report["consistent"]
        # R >= I alone, besides the containment each length checks first: the
        # trace pre-test R:m <= I:I is the rank excess = r(R)
        assert [sub for _, sub in record] == [I] + [sub for _, sub in lengths]

    @pytest.mark.parametrize("gens, exprs, ulrich", [
        ([3, 7], ("t^6 - t^7", "t^10"), True),
        ([3, 4, 5], ("t^3 - t^4", "t^5"), False),  # I^2 = xI, but I/I^2 is not free
    ])
    def test_series_classify_decides_ulrich_without_a_reduction_search(
        self, monkeypatch, gens, exprs, ulrich
    ):
        H, field = NumericalSemigroup(gens), GF(5)
        I = FractionalIdeal.from_generators(H, field, [parse_series(s, field) for s in exprs])
        searches, products = [], []
        count_calls(monkeypatch, FractionalIdeal, "find_reduction", searches)
        count_calls(monkeypatch, FractionalIdeal, "multiply", products)
        report = typecalc.classify(I)
        assert report["consistent"] and report["flags"]["is_ulrich_ideal"] is ulrich
        assert searches == []
        assert sum(1 for a, b in products if a is I and b is I) <= 1

    @pytest.mark.parametrize("cls", [RelativeIdeal, FractionalIdeal])
    def test_ulrich_module_test_makes_no_reduction_search(self, monkeypatch, cls):
        I, square = ulrich_ideal(), True
        if cls is RelativeIdeal:  # its value set (t^6, t^10, t^14) needs three generators
            I, square = I.support_ideal(), False
        searches, products = [], []
        count_calls(monkeypatch, cls, "find_reduction", searches)
        count_calls(monkeypatch, cls, "multiply", products)
        R = I.unit_ideal()
        for M, built in ((R, False), (I, square), (I.canonical_ideal(), False)):
            typecalc.is_ulrich_module_wrt(M, I)
            # I M is built exactly when delta_I = mu(M) len(R/I) allows it
            assert built == (I.delta == M.mu() * R.quotient_length(I))
            assert sum(1 for a, b in products if a is I and b is M) == built
        assert searches == []

    @pytest.mark.parametrize("gens, exprs, built", [
        ([3, 7], ("t^6 - t^7", "t^10"), 2),  # symmetric: R : I is the K : I already built
        ([3, 4, 5], ("t^3", "t^4", "t^5"), 2),  # I = m = K m: R : m is the K : m already built
        ([3, 4, 5], ("t^3 - t^4", "t^5"), 2),  # R : m is not in I : I, so no R : I
        ([5, 6, 7], ("t^5", "t^13", "t^14"), 3),  # R : m <= I : I and K I != I
    ])
    def test_series_classify_computes_each_colon_once(self, monkeypatch, gens, exprs, built):
        H, field = NumericalSemigroup(gens), GF(5)
        I = FractionalIdeal.from_generators(H, field, [parse_series(s, field) for s in exprs])
        colons, duals = [], []
        count_calls(monkeypatch, FractionalIdeal, "colon", colons)
        count_calls(monkeypatch, FractionalIdeal, "canonical_dual", duals)
        assert typecalc.classify(I)["consistent"]
        # I:I is the one colon; K:I = I^perp and, only when K != R, R:m <= I:I
        # and K I != I, R:I = (K I)^perp are canonical duals; none of them twice
        assert colons == [(I, I)]
        assert len(colons) + len(duals) == built
        assert max(Counter(duals).values()) == 1

    @pytest.mark.parametrize("gens, exps, colons", [
        ([3, 7], {6, 10}, 2), ([3, 4, 5], {3, 4, 5}, 2), ([3, 4, 5], {3, 5}, 2),
        ([5, 6, 7], {5, 13, 14}, 3),
    ])
    def test_monomial_classify_computes_each_colon_once(self, monkeypatch, gens, exps, colons):
        H = NumericalSemigroup(gens)
        I = RelativeIdeal.from_exponents(H, exps)
        record = []
        count_calls(monkeypatch, RelativeIdeal, "colon", record)
        assert typecalc.classify(I)["consistent"]
        # K:I, I:I, and R:I = K:(K I) only when K != R, R:m <= I:I and K I != I
        assert len(record) == colons
        assert max(Counter(record).values()) == 1

    def test_monomial_idealization_type_builds_one_ideal(self, monkeypatch):
        H = NumericalSemigroup([10, 13, 17])
        I = RelativeIdeal.from_exponents(H, {0, 13, 21})
        typecalc.idealization_type(I)  # builds the companions
        inits, positions = [], []
        count_calls(monkeypatch, RelativeIdeal, "__init__", inits)
        count_calls(monkeypatch, RelativeIdeal, "minimal_generators", positions)
        typecalc.idealization_type(I)
        # K:I alone, and only __init__ computes a generator mask, so one is
        # computed; mu, top_rank and endo_meet_dim are bit counts of masks
        # and read no generator position, of I, K or K:I
        assert len(inits) == 1
        assert positions == []

    def test_monomial_idealization_type_reads_generator_offsets_once(self, monkeypatch):
        H = NumericalSemigroup([4, 5, 11])
        ideals = enumerate_monomial_ideals(H, H.conductor + H.multiplicity)
        typecalc.idealization_type(next(ideals))  # builds the companions
        reads = []
        original = relideal._offsets
        monkeypatch.setattr(relideal, "_offsets", lambda mask: reads.append(mask) or original(mask))
        for I in ideals:
            reads.clear()
            typecalc.idealization_type(I)
            # the colon K:I, endo_meet_dim and K.top_rank(K:I, I) each walk the
            # generators of I, which I keeps after the first walk
            assert reads == [I._gen_mask]

    def test_monomial_idealization_type_makes_one_colon(self, monkeypatch):
        H = NumericalSemigroup([10, 13, 17])
        I = RelativeIdeal.from_exponents(H, {0, 13, 21})
        typecalc.idealization_type(I)  # builds the companions
        colons = []
        count_calls(monkeypatch, RelativeIdeal, "colon", colons)
        typecalc.idealization_type(I, 13)
        # K:I alone: neither I:I nor the parameter socle (t^13 R : m) meet R
        assert len(colons) == 1


@pytest.mark.parametrize("build", [
    lambda H: RelativeIdeal.from_exponents(H, {4, 7}),
    lambda H: FractionalIdeal.from_generators(
        H, QQ, [parse_series("t^4 - t^5", QQ), parse_series("t^7", QQ)]),
], ids=["monomial", "series"])
def test_public_functions_take_orders_far_apart(build):
    # no mask or window may grow with the distance of two orders
    I = build(NumericalSemigroup([4, 5, 7]))
    far, near, low = I.shift(10**20), I.shift(10**6), I.shift(-10**20)
    tracemalloc.start()
    try:
        assert typecalc.quotient_type(far) == typecalc.quotient_type(near)
        faithful = [typecalc.is_residually_faithful(J) for J in (I, far, low)]
        assert faithful[0] == faithful[1] == faithful[2]
        assert I.add(far) == far.add(I) == I and low.add(far) == low
        assert I.intersect(far) == far.intersect(I) == far and low.intersect(far) == far
        assert I.contains_ideal(far) and low.contains_ideal(far)
        assert not far.contains_ideal(I) and not far.contains_ideal(low)
        assert I.quotient_length(far) == low.quotient_length(I) == 10**20  # len(I/xI) = v(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
