"""The laws the type formulas rely on, as one suite over every ideal engine.

Each test checks one law on the five engine configurations of
``helpers.ENGINES``: ``monomial``, ``series-QQ``, ``series-F2``,
``series-F3`` and ``series-F32003``, one test id each.  Its explicit
example runs ``helpers.ideal_examples`` (the DVR <1> and ideals of negative
order), and its drawn examples ``helpers.ideal_cases``: a fractional ideal
I, a proper ideal J of R drawn independently of I, a positive a in H and a
shift s.  ``law(monomial_examples, series_examples)`` sets how many cases
the monomial id and each series id draw.  K is the canonical ideal, m the
maximal ideal, l the length and mu the number of generators.

Laws, with their sources; every one runs on all five configurations:

  * (I:J) J <= I: the definition of the colon.
  * ``canonical_dual()`` = K:I and K:(K:I) = I: canonical duality, K = R^perp
    under <x, y> = the coefficient of t^F in xy (Herzog & Kunz, Der
    kanonische Modul eines Cohen-Macaulay-Rings, LNM 238, 1971; Jaeger 1977).
  * K:(IJ) = (K:I):J: the colon-product adjunction, (M:I):J = M:(IJ).
  * l(I/L) = l(I/J) + l(J/L) along L <= J <= I (mJ <= J <= R, the meet with
    I, and t^a I <= I, where l(I/t^a I) = a): length is additive.
  * ``multiply``, ``add``, ``colon``, ``intersect``, ``contains_ideal`` and
    ``mu`` commute with the shift by t^s, and shift(s).shift(-s) = I: t^s is
    a unit of k((t)).
  * mu(I) = l(I/mI): Nakayama's lemma.
  * The rank routes, the colon identities, the socle excess, classify's
    decisions, R:m and the parameter socle: the identities the ``typecalc``
    docstring derives, each against its definition by built ideals.
  * On monomial inputs ``from_relative`` commutes with every operation, with
    ``mu``, ``top_rank`` and ``endo_meet_dim``: the engines agree.  The
    monomial id checks the monomial engine against all four fields.
"""

import inspect

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cmtype import typecalc
from cmtype.fracideal import FractionalIdeal
from cmtype.relideal import RelativeIdeal
from helpers import (
    ENGINES,
    SERIES_ENGINES,
    cokernel_mu_reference,
    ideal_cases,
    ideal_examples,
    parameter_socle_reference,
    quotient_type_reference,
    socle_excess_reference,
)

# The operations both engines define with one signature.  typecalc, cli,
# verify and constructions call all but two on an ideal; add and
# find_reduction are kept for the benchmark tracer's LAYERS and this suite.
ENGINE_CONTRACT = (
    "add", "multiply", "colon", "intersect", "shift", "contains_ideal", "quotient_length",
    "mu", "is_principal", "find_reduction", "unit_ideal", "canonical_ideal",
    "maximal_ideal", "describe", "top_rank", "endo_meet_dim", "canonical_dual",
)


@pytest.mark.parametrize("name", ENGINE_CONTRACT)
def test_both_engines_define_the_contract_alike(name):
    params = []
    for cls in (RelativeIdeal, FractionalIdeal):
        assert name in vars(cls), f"{cls.__name__} lacks {name}"
        params.append(list(inspect.signature(vars(cls)[name]).parameters))
    assert params[0] == params[1]


def law(monomial_examples, series_examples, monomial_inputs=False):
    """Make ``check(engine, I, J, a, s)`` a test with one id per engine.  The
    explicit example (data None) runs it on ideal_examples(engine).  Each
    drawn example runs it on one case of ideal_cases(engine, monomial_inputs)
    on a series engine, and on several on the monomial engine, whose one id
    stands beside four series ids: monomial_examples cases in all, against
    series_examples on each field."""
    rounds = -(-monomial_examples // series_examples)

    def decorate(check):
        @pytest.mark.parametrize("engine", ENGINES, ids=[e.name for e in ENGINES])
        @settings(max_examples=series_examples, deadline=None)
        @given(data=st.data())
        @example(data=None)
        def test(engine, data):
            if data is None:
                cases = ideal_examples(engine, monomial_inputs)
            else:
                strategy = ideal_cases(engine, monomial_inputs)
                cases = [data.draw(strategy) for _ in range(rounds if engine.field is None else 1)]
            for case in cases:
                check(engine, *case)

        test.__name__ = test.__qualname__ = check.__name__
        test.__doc__ = check.__doc__
        return test
    return decorate


@law(50, 8)
def test_the_colon_times_its_divisor_lies_in_the_ideal(engine, I, J, a, s):
    """(I:J) J <= I, (J:I) I <= J and (K:I) I <= K."""
    K = I.canonical_ideal()
    for X, Y in ((I, J), (J, I), (K, I)):
        assert X.contains_ideal(X.colon(Y).multiply(Y)), (X.describe(), Y.describe())


@law(100, 10)
def test_the_canonical_dual_is_the_colon_into_K_and_an_involution(engine, I, J, a, s):
    """canonical_dual() = K:X and K:(K:X) = X for X = I, J."""
    K = I.canonical_ideal()
    for X in (I, J):
        dual = X.canonical_dual()
        assert dual == K.colon(X), X.describe()
        assert K.colon(dual) == X == dual.canonical_dual(), X.describe()


@law(100, 10)
def test_K_colon_a_product_is_the_iterated_colon(engine, I, J, a, s):
    """K:(IJ) = (K:I):J = (K:J):I."""
    K = I.canonical_ideal()
    expected = K.colon(I.multiply(J))
    assert K.colon(I).colon(J) == expected == K.colon(J).colon(I), (I.describe(), J.describe())


@law(60, 8)
def test_length_is_additive_along_chains(engine, I, J, a, s):
    """l(X/L) = l(X/Y) + l(Y/L) for L <= Y <= X along mJ <= J <= R,
    m(I meet J) <= I meet J <= I and t^a I <= I, and l(I/t^a I) = a."""
    R, m = I.unit_ideal(), I.maximal_ideal()
    meet = I.intersect(J)
    for X, Y, L in ((R, J, m.multiply(J)), (I, meet, m.multiply(meet)),
                    (I, I.shift(a), I.shift(a).multiply(m))):
        assert X.contains_ideal(Y) and Y.contains_ideal(L)
        assert X.quotient_length(L) == X.quotient_length(Y) + Y.quotient_length(L)
    assert I.quotient_length(I.shift(a)) == a


@law(48, 8)
def test_operations_commute_with_the_shift(engine, I, J, a, s):
    """t^s moves products, sums, colons and meets and keeps containment and mu."""
    Is, Js = I.shift(s), J.shift(s)
    assert Is.shift(-s) == I and hash(Is.shift(-s)) == hash(I) and Js.shift(-s) == J
    assert Is.multiply(J) == I.multiply(J).shift(s) == I.multiply(Js)
    assert Is.add(Js) == I.add(J).shift(s)
    assert Is.colon(J) == I.colon(J).shift(s) == I.colon(J.shift(-s))
    assert Is.intersect(Js) == I.intersect(J).shift(s)
    assert Is.contains_ideal(Js) == I.contains_ideal(J)
    assert Js.contains_ideal(Is) == J.contains_ideal(I)
    assert (Is.mu(), Js.mu()) == (I.mu(), J.mu())


@law(48, 8)
def test_mu_is_the_length_modulo_m(engine, I, J, a, s):
    """mu(X) = l(X/mX) for X = I, J and K:I."""
    m = I.maximal_ideal()
    for X in (I, J, I.canonical_dual()):
        assert X.mu() == X.quotient_length(m.multiply(X)), X.describe()


# -- the identities typecalc computes by, against their definitions ----------


@law(50, 15)
def test_ranks_match_the_built_ideals(engine, I, J, a, s):
    """For L = I, J: mu(K) - K.top_rank(K:L, L) against len(K / ((K:L)L + mK)),
    and L.endo_meet_dim(PF(H)) against the socle excess by its definition at
    a and at e; for the proper ideal J, mu(K:J) - (K:J).top_rank(K, R)
    against len((K:J) / (m(K:J) + K))."""
    H = I.semigroup
    K, R = I.canonical_ideal(), I.unit_ideal()
    for L in (I, J):
        assert K.mu() - K.top_rank(K.colon(L), L) == cokernel_mu_reference(L), L.describe()
        excess = L.endo_meet_dim(H.pseudo_frobenius())
        for b in (a, H.multiplicity):
            assert excess == socle_excess_reference(L, b), (L.describe(), b)
    dual = K.colon(J)
    assert dual.mu() - dual.top_rank(K, R) == quotient_type_reference(J), J.describe()


@law(150, 15)
def test_the_colon_identities_hold(engine, I, J, a, s):
    """For L = I, J, the residually faithful flag as a rank,
    L.endo_meet_dim({w - e : w in Ap(H, e), w != 0}) = 0, against
    (t^e L : L) meet R = t^e R by its definition; and for the proper ideal
    J, r(R/J) by its definition = len((K:J) / (m(K:J) + K))."""
    H = I.semigroup
    e = H.multiplicity
    for L in (I, J):
        faithful = L.endo_meet_dim([w - e for w in H.apery(e) if w]) == 0
        assert faithful == typecalc.is_residually_faithful(L), L.describe()
    r_quot = typecalc._quotient_type(J.canonical_ideal(), J.canonical_dual(), J.unit_ideal())
    assert r_quot == typecalc.quotient_type(J)


@law(50, 15)
def test_the_socle_excess_matches_its_definition(engine, I, J, a, s):
    """For L = I, J and a parameter b = e and b = a: the socle excess by its
    definition, with the parameter socle Soc = (t^b R : m) meet R built
    afresh, against socle_formula, which reads it off PF(H) with no Soc built."""
    for L in (I, J):
        for b in (L.semigroup.multiplicity, a):
            assert typecalc.socle_formula(L, b)[0] == socle_excess_reference(L, b), (L.describe(), b)


def ulrich_by_the_old_chain(M, I):
    """len(M/IM) = delta_I = mu(M) len(R/I), with the product IM built first."""
    length = M.quotient_length(I.multiply(M))
    return length == I.delta == M.mu() * M.unit_ideal().quotient_length(I)


@law(30, 12)
def test_decisions_match_their_definitions(engine, I, J, a, s):
    """For J, R and m: _is_ulrich against the old chain for M in R, I, K, m,
    is_trace against R : I = I : I, and classify's trace pre-test, the socle
    excess I.endo_meet_dim(PF(H)) = r(R), against R : m <= I : I."""
    H = J.semigroup
    R, m = J.unit_ideal(), J.maximal_ideal()
    maximal_colon = R.colon(m)
    for L in (J, R, m):
        for M in (R, L, L.canonical_ideal(), m):
            assert typecalc._is_ulrich(M, L) == ulrich_by_the_old_chain(M, L), M.describe()
        assert typecalc.is_trace(L) == (R.colon(L) == L.colon(L)), L.describe()
        full = L.endo_meet_dim(H.pseudo_frobenius()) == H.type()
        assert full == L.colon(L).contains_ideal(maximal_colon), L.describe()


@law(30, 10, monomial_inputs=True)
def test_the_maximal_colon_is_the_parameter_socle_moved_back(engine, I, J, a, s):
    """R : m by its colon is the ideal with exponents H union PF(H), and the
    parameter socle (t^e R : m) meet R moved back by t^e."""
    R = I.unit_ideal()
    H = R.semigroup
    colon = R.colon(R.maximal_ideal())
    assert colon == engine.lift(RelativeIdeal.from_exponents(H, {0, *H.pseudo_frobenius()})), H
    assert colon == parameter_socle_reference(R, H.multiplicity).shift(-H.multiplicity)


@law(30, 10, monomial_inputs=True)
def test_the_parameter_socle_is_spanned_by_the_pseudo_frobenius_monomials(engine, I, J, a, s):
    """(t^b R : m) meet R = t^b R + span{t^(b+f) : f in PF(H)} for b = a, e,
    the next members of H, c + e and the largest generator."""
    R = I.unit_ideal()
    H = R.semigroup
    e, c = H.multiplicity, H.conductor
    for b in {a, e, *H.members(e + 1, c + e + 1)[:2], c + e, max(H.generators)}:
        expected = RelativeIdeal.from_exponents(H, {b} | {b + f for f in H.pseudo_frobenius()})
        assert parameter_socle_reference(R, b) == engine.lift(expected), (H, b)


# -- the two engines on monomial inputs ---------------------------------------


@law(64, 8, monomial_inputs=True)
def test_from_relative_commutes_with_every_operation(engine, I, J, a, s):
    """For monomial I and J, each series result is the monomial engine's
    result lifted: every operation on I and J, and mu, top_rank (on
    M = I J + t^s (K:I) and on the cokernel term) and endo_meet_dim (at PF(H)
    and the Apery differences) on I, J, M and K:I."""
    if engine.field is None:
        E, F, lifts = I, J, SERIES_ENGINES
    else:
        E, F, lifts = I.support_ideal(), J.support_ideal(), [engine]
        assert engine.lift(E) == I and engine.lift(F) == J
    H = E.semigroup
    K = E.canonical_ideal()
    apery = [w - H.multiplicity for w in H.apery(H.multiplicity) if w]
    dual = K.colon(E)
    M = E.multiply(F).add(dual.shift(s))  # E F <= M, with a third ideal
    for target in lifts:
        S, T, sM, sK, sdual = (target.lift(X) for X in (E, F, M, K, dual))
        for X, Y, sX, sY in ((E, F, S, T), (F, E, T, S)):
            for op in ("add", "multiply", "colon", "intersect"):
                assert getattr(sX, op)(sY) == target.lift(getattr(X, op)(Y)), op
            assert sX.contains_ideal(sY) == X.contains_ideal(Y)
            if X.contains_ideal(Y):
                assert sX.quotient_length(sY) == X.quotient_length(Y)
            assert sX.shift(s) == target.lift(X.shift(s))
            assert sX.canonical_dual() == target.lift(X.canonical_dual())
            reduction = X.find_reduction()
            assert sX.find_reduction() == (None if reduction is None else target.lift(reduction))
        for X, sX in ((E, S), (F, T), (M, sM), (dual, sdual)):
            assert (sX.mu(), sX.is_principal()) == (X.mu(), X.is_principal())
            assert sX.endo_meet_dim(H.pseudo_frobenius()) == X.endo_meet_dim(H.pseudo_frobenius())
            assert sX.endo_meet_dim(apery) == X.endo_meet_dim(apery)
        assert sM.top_rank(S, T) == M.top_rank(E, F)
        assert sK.top_rank(sdual, S) == K.top_rank(dual, E)
        for companion in ("unit_ideal", "canonical_ideal", "maximal_ideal"):
            assert getattr(S, companion)() == target.lift(getattr(E, companion)())
