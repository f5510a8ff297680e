"""Cohen-Macaulay types of idealizations and ideal classifications.

Everything here is generic over the two ideal engines: RelativeIdeal and
FractionalIdeal expose the same operation surface, and
tests/test_ideal_laws.py checks the laws this module relies on, one suite
over both engines (the series one over four fields).  The central quantity
is the type of the idealization ring built from R and a fractional ideal I,
computed by two independent routes:

  * the socle route: pick a principal parameter (t^a), a in H; the type is
    the length of [socle of R/(t^a)] meet [annihilator of I/t^a I] plus the
    type of I as a module;
  * the cokernel route: the type of I plus the number of generators of
    K / (K:I)I, with K the canonical ideal.

Both must agree; a mismatch raises ConsistencyError rather than returning
anything.

``classify`` builds K, K:I and I:I once each and hands them to the plain
functions that read them.  The type itself builds only K:I: every other
term, and classify's residually faithful flag and trace pre-test, is the
rank of a few vectors, by five exact identities.  ``M.top_rank(X, Y)`` is
dim_k of the image of X Y in M/mM (X Y <= M), the rank of the products of
generators modulo mM, as m kills M/mM; ``I.endo_meet_dim(F)`` is
dim_k(span{t^f : f in F} meet (I:I)), read off I's generators.

  * mu(K / (K:I)I) = dim K/((K:I)I + mK) = mu(K) - K.top_rank(K:I, I).
  * For a proper ideal I of R, r(R/I) = len((K:I) / (m(K:I) + K)), since
    the canonical module of R/I is Ext^1(R/I, K) = (K:I)/K (Bruns-Herzog,
    Cohen-Macaulay Rings, 3.3) and its generator count is the type of R/I;
    K <= K:I, so that is mu(K:I) - (K:I).top_rank(K, R).
  * The socle excess len((Soc meet (t^a I : I) meet R) / t^a R), with
    Soc = (t^a R : m) meet R the parameter socle, is
    I.endo_meet_dim(PF(H)), whatever the positive a in H.  First,
    (xI : I) = x (I:I) for a nonzerodivisor x, and Soc <= R, so the meet
    is Soc meet t^a (I:I).  Second, Soc = t^a R + V with
    V = t^a span{t^f : f in PF(H)}: the s in H with s + (H minus 0) inside
    a + H are a + (H union PF(H)) (Rosales & Garcia-Sanchez, Numerical
    Semigroups, 2009, ch. 2), and V meets t^a R in 0 as each f is a gap.
    As t^a R <= t^a (I:I), the modular law gives
    Soc meet t^a (I:I) = (V meet t^a (I:I)) + t^a R, so the excess is
    dim(V meet t^a (I:I)) = dim(span{t^f} meet (I:I)).
  * R : m <= I : I iff the socle excess is r(R) = |PF(H)|.  By the same
    chapter, the x with x + (H minus 0) inside H are H union PF(H), so
    R : m = R + span{t^f : f in PF(H)}; and R <= I:I, so R : m <= I:I iff
    every t^f lies in I:I, iff span{t^f} meet (I:I) has dimension |PF(H)|.
  * I is residually faithful, (t^e I : I) meet R = t^e R, iff
    I.endo_meet_dim({w - e : w in Ap(H, e), w != 0}) = 0.  The meet is
    t^e ((I:I) meet t^(-e) R), and as R <= I:I <= k[[t]] the modular law
    gives (I:I) meet t^(-e) R = R + ((I:I) meet span{t^g : g a gap,
    g + e in H}); those gaps are the w - e.

The colons come from canonical duality.  Under the pairing <x, y> = the
coefficient of t^F in x y, K = {x : F - x not in H} is R^perp, so
K : I = I^perp, and as K : K = R, R : I = (K : K) : I = K : (K I)
(Herzog & Kunz, Der kanonische Modul eines Cohen-Macaulay-Rings, LNM 238,
1971; Jaeger 1977).  ``canonical_dual`` is I^perp: K - E on the monomial
engine, read off I's reduced basis with no reduction on the series one.
And R <= I:I always, so the series colon solves I:I on the gaps of H
alone.  So a report makes one colon, I:I, and the dual K:I, plus
R:I = (K I)^perp when K != R, the socle excess is r(R) and K I != I (see
``_is_trace``), and builds no other ideal.  The public ``module_type``,
``is_closed``, ``is_trace`` and ``is_residually_faithful`` compute their
colons by the definitions.
"""

import collections

from .errors import ArgumentError, ConsistencyError, ContainmentError


def module_type(ideal) -> int:
    """r_R(I): minimal generator count of K : I."""
    K = ideal.canonical_ideal()
    return K.colon(ideal).mu()


def quotient_type(ideal) -> int:
    """r(R/I): socle dimension of R/I, for a proper nonzero ideal I of R,
    by its definition len(((I:m) meet R)/I)."""
    if not _is_proper(ideal):
        raise ArgumentError("quotient type needs a proper ideal contained in R")
    socle = ideal.colon(ideal.maximal_ideal()).intersect(ideal.unit_ideal())
    return socle.quotient_length(ideal)


def _is_proper(ideal) -> bool:
    R = ideal.unit_ideal()
    return R.contains_ideal(ideal) and ideal != R


def _quotient_type(K, dual, R):
    """r(R/I) = len((K:I) / (m(K:I) + K)) = mu(K:I) minus the rank of
    K = K R in (K:I)/m(K:I), for a proper ideal I, with dual = K : I."""
    return dual.mu() - dual.top_rank(K, R)


def _is_trace(ideal, K, dual, endo, excess):
    """R : I = I : I for I <= R, with dual = K : I, endo = I : I and the
    socle excess; R : I is K : I when K = R.

    Otherwise a proper I lies in m, so R : I contains R : m, and R : I = I : I
    forces R : m <= I : I, that is excess = r(R) (module docstring), tested
    before R : I is built.  R : I is (K : K) : I = K : (K I), the canonical
    dual of K I, a product of shifted copies of I as K is monomial; when
    K I = I it is the K : I already built.
    """
    R = ideal.unit_ideal()
    if K == R:
        return dual == endo
    if ideal != R and excess != ideal.semigroup.type():
        return False
    product = K.multiply(ideal)
    ring_colon = dual if product == ideal else product.canonical_dual()
    return ring_colon == endo


def socle_formula(ideal, a: int):
    """(excess, type of idealization) with the parameter (t^a), a in H.

    excess = length of [ (t^a : m) meet R ] meet [ (t^a I : I) meet R ]
    modulo (t^a); the idealization type is excess + r_R(I).  The excess is
    dim_k(span{t^f : f in PF(H)} meet (I:I)), which does not depend on a
    (module docstring).  Both numbers are the socle terms of one
    ``idealization_type(ideal, a)`` call, so a disagreement with the
    cokernel route raises ConsistencyError.
    """
    itype = idealization_type(ideal, a)
    return itype.socle_excess, itype.socle_value


def _socle_excess(ideal, a):
    """len((Soc meet t^a (I:I)) / t^a R) = dim(span{t^f : f in PF(H)} meet (I:I))."""
    H = ideal.semigroup
    if a <= 0 or not H.contains(a):
        raise ArgumentError(f"parameter exponent must be a positive member of {H}, got {a}")
    return ideal.endo_meet_dim(H.pseudo_frobenius())


def cokernel_formula(ideal):
    """(generator count of the cokernel, type of idealization).

    The evaluation image of Hom(I, K) x I in K is (K:I)I, so the cokernel
    needs mu(K / (K:I)I) = dim K / ((K:I)I + mK) generators.  Both numbers
    are the cokernel terms of one ``idealization_type(ideal)`` call, so a
    disagreement with the socle route raises ConsistencyError.
    """
    itype = idealization_type(ideal)
    return itype.cokernel_mu, itype.cokernel_value


def _cokernel_mu(ideal, K, dual):
    """mu(K / (K:I)I): mu(K) minus the rank of (K:I)I in K/mK, with dual = K : I."""
    return K.mu() - K.top_rank(dual, ideal)


# A named tuple: a frozen dataclass's __init__ sets each field through
# object.__setattr__, and a sweep builds one record per enumerated ideal, with
# tuple.__new__ and no hop through the generated __new__.
IdealizationType = collections.namedtuple(
    "IdealizationType",
    ["value", "module_type", "socle_excess", "cokernel_mu", "socle_value", "cokernel_value"],
)


def idealization_type(ideal, a: int | None = None) -> IdealizationType:
    """Both formulas, cross-checked, with the general bounds asserted."""
    if a is None:
        a = ideal.semigroup.multiplicity
    return _idealization_type(ideal, ideal.canonical_ideal(), ideal.canonical_dual(), a)


def _idealization_type(ideal, K, dual, a):
    """idealization_type with K and dual = K : I built by the caller."""
    # r_R(I) = mu(K:I) is shared; the two routes' own terms are not.
    r_mod = dual.mu()
    excess = _socle_excess(ideal, a)
    mu_coker = _cokernel_mu(ideal, K, dual)
    socle_value, coker_value = excess + r_mod, mu_coker + r_mod
    if socle_value != coker_value:
        raise ConsistencyError(
            f"socle formula gives {socle_value} but cokernel formula gives "
            f"{coker_value} for {ideal.describe()}"
        )
    r_ring = ideal.semigroup.type()
    if not r_mod <= socle_value <= r_ring + r_mod:
        raise ConsistencyError(
            f"type {socle_value} escapes [{r_mod}, {r_ring + r_mod}] for {ideal.describe()}"
        )
    # in field order: with six keywords the call takes about twice as long
    return tuple.__new__(
        IdealizationType, (socle_value, r_mod, excess, mu_coker, socle_value, coker_value)
    )


# -- predicates ---------------------------------------------------------------


def is_closed(ideal) -> bool:
    """I : I = R."""
    return ideal.colon(ideal) == ideal.unit_ideal()


def is_trace(ideal) -> bool:
    """I is an ideal of R with R : I = I : I, both colons by their definition."""
    R = ideal.unit_ideal()
    return R.contains_ideal(ideal) and R.colon(ideal) == ideal.colon(ideal)


def is_residually_faithful(ideal) -> bool:
    """I/t^e I is faithful over R/(t^e): the annihilator (t^e I : I) meet R
    is exactly (t^e), computed by this definition."""
    e = ideal.semigroup.multiplicity
    R = ideal.unit_ideal()
    return ideal.shift(e).colon(ideal).intersect(R) == R.shift(e)


def is_ulrich_ideal(ideal) -> bool:
    """Non-principal I <= R with I^2 = xI and I/I^2 free over R/I.

    That is, mu(I) >= 2 and I is an Ulrich module for itself, decided as
    in is_ulrich_module_wrt.
    """
    if not _is_proper(ideal):
        raise ArgumentError("Ulrich ideals are proper ideals of R")
    return ideal.mu() >= 2 and _is_ulrich(ideal, ideal)


def is_ulrich_module_wrt(module, ideal=None) -> bool:
    """Ulrich property of a rank-one module M (fractional ideal) for an ideal I of R.

    M is Ulrich for I when IM = xM for a minimal reduction (x) of I and
    M/IM is free over R/I.  In k[[t^H]] every x in I of order delta_I
    generates a minimal reduction: v(I^n) - n delta_I grows with n and is
    bounded, so I^(n+1) = xI^n for large n.  As v(xM) = delta_I + v(M),
    xM <= IM <= M and len(M/xM) = delta_I, so IM = xM iff len(M/IM) =
    delta_I, and x is never built.  Freeness is decided by lengths: the
    surjection from a free module of rank mu(M) is an isomorphism iff
    len(M/IM) = mu(M) len(R/I).  That second equation needs no product, so
    it is tested first and IM is built only when it holds; as both must
    hold, the answer is the same.  An I not contained in R raises
    ContainmentError.

    With respect to the maximal ideal (ideal=None), len(M/mM) = mu(M),
    delta_m = e and len(R/m) = 1, so the test is mu(M) = e.
    """
    if ideal is None:
        return module.mu() == module.semigroup.multiplicity
    R = module.unit_ideal()
    if not R.contains_ideal(ideal):
        raise ContainmentError(f"{ideal.describe()} is not contained in {R.describe()}")
    return _is_ulrich(module, ideal)


def _is_ulrich(module, ideal) -> bool:
    """is_ulrich_module_wrt for an ideal I <= R: len(M/IM) = delta_I = mu(M) len(R/I).

    The second equation reads cached generator counts and ranks, so it is
    tested first; the product IM is built only if it holds.  Both equations
    must hold, so the order does not change the answer.
    """
    if ideal.delta != module.mu() * module.unit_ideal().quotient_length(ideal):
        return False
    return module.quotient_length(ideal.multiply(module)) == ideal.delta


# -- the full report ----------------------------------------------------------


def classify(ideal) -> dict:
    """The ``"report"`` object of the ``ideal analyze --json`` document:
    the semigroup and its invariants, both type computations, the predicate
    flags, and every applicable identity as a ``{"name", "passed",
    "detail"}`` verdict; ``consistent`` is whether every verdict passed."""
    H = ideal.semigroup
    inv = H.invariants()
    K = ideal.canonical_ideal()
    R = ideal.unit_ideal()
    m = ideal.maximal_ideal()
    # R >= I is tested once; the private functions skip the public precondition.
    in_ring = R.contains_ideal(ideal)
    proper = in_ring and ideal != R

    mu = ideal.mu()
    e = H.multiplicity
    dual = ideal.canonical_dual()
    itype = _idealization_type(ideal, K, dual, e)
    r_mod = itype.module_type
    value = itype.value
    r_quot = _quotient_type(K, dual, R) if proper else None
    r_ring = inv["type"]

    endo = ideal.colon(ideal)
    closed = endo == R
    faithful = ideal.endo_meet_dim([w - e for w in H.apery(e) if w]) == 0  # module docstring
    trace = in_ring and _is_trace(ideal, K, dual, endo, itype.socle_excess)
    ulrich_ideal = proper and mu >= 2 and _is_ulrich(ideal, ideal)
    ulrich_wrt_m = is_ulrich_module_wrt(ideal)
    principal = ideal.is_principal()
    canonical = value == 1  # Reiten: the idealization is Gorenstein iff I = K up to units

    flags = {
        "is_closed": closed,
        "is_trace": trace,
        "is_residually_faithful": faithful,
        "is_ulrich_ideal": ulrich_ideal,
        "is_ulrich_module_wrt_m": ulrich_wrt_m,
        "is_canonical": canonical,
        "is_principal": principal,
    }

    verdicts = []

    def check(name, passed, detail):
        verdicts.append({"name": name, "passed": passed, "detail": detail})

    check(
        "type-bounds",
        r_mod <= value <= r_ring + r_mod,
        f"{r_mod} <= {value} <= {r_ring} + {r_mod}",
    )
    check(
        "two-method-agreement",
        itype.socle_value == itype.cokernel_value,
        f"socle {itype.socle_value}, cokernel {itype.cokernel_value}",
    )
    check(
        "closed-iff-residually-faithful",
        closed == faithful == (itype.socle_excess == 0),
        f"closed={closed}, faithful={faithful}, excess={itype.socle_excess}",
    )
    check(
        "closed-iff-type-drop",
        closed == (value == r_mod) and (not (closed and proper) or value == r_quot),
        f"closed={closed}, r(idealization)={value}, r_R={r_mod}, r(R/I)={r_quot}",
    )
    if ulrich_ideal:
        check(
            "ulrich-ideal-type",
            value == (2 * mu - 1) * r_quot,
            f"{value} == (2*{mu} - 1) * {r_quot}",
        )
    if ulrich_wrt_m and not inv["dvr"]:
        check(
            "ulrich-wrt-m-type",
            r_mod == mu and value == r_ring + r_mod,
            f"r_R={r_mod}, mu={mu}, value={value}, r(R)={r_ring}",
        )
    gorenstein = inv["gorenstein"]
    if gorenstein and proper:
        check(
            "gorenstein-bounds",
            r_quot <= r_mod <= 1 + r_quot and (mu <= 1 or value == 1 + r_mod),
            f"{r_quot} <= {r_mod} <= 1 + {r_quot}; mu={mu}, value={value}",
        )
    if gorenstein and trace and proper:
        check(
            "gorenstein-trace-type",
            r_mod == 1 + r_quot and value == 2 + r_quot,
            f"r_R={r_mod}, value={value}, r(R/I)={r_quot}",
        )
    if ideal == m and not inv["dvr"]:
        check(
            "maximal-ideal-type",
            r_mod == r_ring + 1 and value == 2 * r_ring + 1,
            f"r_R(m)={r_mod}, value={value}, r(R)={r_ring}",
        )
    if gorenstein:
        check(
            "gorenstein-closed-principal",
            (not closed) or principal,
            f"closed={closed}, principal={principal}",
        )

    return {
        "semigroup": {"generators": list(H.generators), **inv},
        "engine": ideal.engine,
        "ideal": ideal.describe(),
        "in_ring": in_ring,
        "proper": proper,
        "mu": mu,
        "module_type": r_mod,
        "quotient_type": r_quot,
        "r_idealization": value,
        "methods": {"socle": itype.socle_value, "cokernel": itype.cokernel_value},
        "socle_excess": itype.socle_excess,
        "flags": flags,
        "verdicts": verdicts,
        "consistent": all(v["passed"] for v in verdicts),
    }
