"""Cohen-Macaulay types of idealizations and ideal classifications.

Everything here is generic over the two ideal engines (RelativeIdeal and
FractionalIdeal expose the same operation surface).  The central quantity
is the type of the idealization ring built from R and a fractional ideal I,
computed by two independent routes:

  * the socle route: pick a principal parameter (t^a), a in H; the type is
    the length of [socle of R/(t^a)] meet [annihilator of I/t^a I] plus the
    type of I as a module;
  * the cokernel route: the type of I plus the number of generators of
    K / (K:I)I, with K the canonical ideal.

Both must agree; a mismatch raises ConsistencyError rather than returning
anything.
"""

import functools
from dataclasses import dataclass

from .errors import ArgumentError, ConsistencyError, UndecidableError


def module_type(ideal) -> int:
    """r_R(I): minimal generator count of K : I."""
    K = ideal.canonical_ideal()
    return K.colon(ideal).mu()


def quotient_type(ideal) -> int:
    """r(R/I): socle dimension of R/I, for a proper nonzero ideal I of R."""
    R = ideal.unit_ideal()
    if not R.contains_ideal(ideal) or ideal == R:
        raise ArgumentError("quotient type needs a proper ideal contained in R")
    socle = ideal.colon(ideal.maximal_ideal()).intersect(R)
    return socle.quotient_length(ideal)


def socle_formula(ideal, a: int):
    """(excess, type of idealization) with the parameter (t^a), a in H.

    excess = length of [ (t^a : m) meet R ] meet [ (t^a I : I) meet R ]
    modulo (t^a); the idealization type is excess + r_R(I).
    """
    R = ideal.unit_ideal()
    excess = _socle_excess(R, a, _annihilator(ideal, a, R))
    return excess, excess + module_type(ideal)


def _annihilator(ideal, a, R):
    """(t^a I : I) meet R, the annihilator of I/t^a I, for a positive a in H."""
    H = ideal.semigroup
    if a <= 0 or not H.contains(a):
        raise ArgumentError(f"parameter exponent must be a positive member of {H}, got {a}")
    return ideal.shift(a).colon(ideal).intersect(R)


def _socle_excess(R, a, annihilator):
    socle = _parameter_socle(R, a)
    return socle.intersect(annihilator).quotient_length(R.shift(a))


@functools.cache
def _parameter_socle(R, a):
    """(t^a : m) meet R: it depends only on the companions R, m and on a."""
    return R.shift(a).colon(R.maximal_ideal()).intersect(R)


def cokernel_formula(ideal):
    """(generator count of the cokernel, type of idealization).

    The evaluation image of Hom(I, K) x I in K is (K:I)I, so the cokernel
    needs mu(K / (K:I)I) = dim K / ((K:I)I + mK) generators.
    """
    dual = ideal.canonical_ideal().colon(ideal)
    mu_coker = _cokernel_mu(ideal, dual)
    return mu_coker, mu_coker + dual.mu()


def _cokernel_mu(ideal, dual):
    K = ideal.canonical_ideal()
    image = dual.multiply(ideal)
    return K.quotient_length(image.add(_maximal_canonical(K)))


@functools.cache
def _maximal_canonical(K):
    """m K: it depends only on the companions K and m."""
    return K.maximal_ideal().multiply(K)


@dataclass(frozen=True)
class IdealizationType:
    value: int
    module_type: int
    socle_excess: int
    cokernel_mu: int
    socle_value: int
    cokernel_value: int


def idealization_type(ideal, a: int | None = None) -> IdealizationType:
    """Both formulas, cross-checked, with the general bounds asserted."""
    if a is None:
        a = ideal.semigroup.multiplicity
    return _idealization_type(ideal, a, ideal.canonical_ideal().colon(ideal))


def _idealization_type(ideal, a, dual, annihilator=None):
    """idealization_type from K:I; classify also hands in (t^a I : I) meet R."""
    R = ideal.unit_ideal()
    if annihilator is None:
        annihilator = _annihilator(ideal, a, R)
    # r_R(I) = mu(K:I) is shared; the two routes' own terms are not.
    r_mod = dual.mu()
    excess = _socle_excess(R, a, annihilator)
    mu_coker = _cokernel_mu(ideal, dual)
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
    return IdealizationType(
        value=socle_value,
        module_type=r_mod,
        socle_excess=excess,
        cokernel_mu=mu_coker,
        socle_value=socle_value,
        cokernel_value=coker_value,
    )


# -- predicates ---------------------------------------------------------------


def is_closed(ideal) -> bool:
    """I : I = R."""
    return ideal.colon(ideal) == ideal.unit_ideal()


def is_trace(ideal) -> bool:
    """I is an ideal of R with R : I = I : I."""
    R = ideal.unit_ideal()
    if not R.contains_ideal(ideal):
        return False
    return _is_trace(ideal, ideal.colon(ideal))


def _is_trace(ideal, endo, dual=None):
    """R : I = I : I for I <= R, given endo = I : I.

    ``dual`` is K : I when the caller has it; it is R : I when K = R.
    """
    R = ideal.unit_ideal()
    if dual is None or ideal.canonical_ideal() != R:
        dual = R.colon(ideal)
    return dual == endo


def is_residually_faithful(ideal) -> bool:
    """I/t^e I is faithful over R/(t^e): the annihilator is exactly (t^e)."""
    e = ideal.semigroup.multiplicity
    return _is_residually_faithful(ideal, _annihilator(ideal, e, ideal.unit_ideal()))


def _is_residually_faithful(ideal, annihilator):
    """The annihilator (t^e I : I) meet R is exactly (t^e)."""
    return annihilator == ideal.unit_ideal().shift(ideal.semigroup.multiplicity)


def is_ulrich_ideal(ideal) -> bool:
    """Non-principal I <= R with I^2 = xI and I/I^2 free over R/I.

    Freeness is decided by lengths: the natural surjection from a free
    module of rank mu(I) is an isomorphism iff len(I/I^2) = mu(I) len(R/I).
    """
    R = ideal.unit_ideal()
    if not R.contains_ideal(ideal) or ideal == R:
        raise ArgumentError("Ulrich ideals are proper ideals of R")
    squared = ideal.multiply(ideal)
    if ideal.find_reduction(squared) is None or ideal.mu() < 2:
        return False
    return ideal.quotient_length(squared) == ideal.mu() * R.quotient_length(ideal)


def is_ulrich_module_wrt(module, ideal=None) -> bool:
    """Ulrich property of a rank-one module (fractional ideal).

    With respect to the maximal ideal (ideal=None): m M = t^e M, decided
    as len(M/mM) = mu(M) = len(M/t^e M) since t^e M <= m M.  With
    respect to an m-primary ideal I: I M = x M for a reduction x of I and
    M/IM is free over R/I (length criterion).
    """
    if ideal is None:
        e = module.semigroup.multiplicity
        return module.mu() == module.quotient_length(module.shift(e))
    principal = ideal.find_reduction()
    if principal is None:
        raise UndecidableError(
            f"no reduction found for {ideal.describe()}; the search tries the "
            "given generators and the lowest basis row of minimal order"
        )
    IM = ideal.multiply(module)
    if IM != principal.multiply(module):
        return False
    R = module.unit_ideal()
    return module.quotient_length(IM) == module.mu() * R.quotient_length(ideal)


# -- the full report ----------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: str

    def to_dict(self):
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class IdealReport:
    semigroup: object
    invariants: object
    engine: str
    ideal: str
    in_ring: bool
    proper: bool
    mu: int
    module_type: int
    quotient_type: int | None
    idealization: IdealizationType
    flags: dict
    verdicts: list
    consistent: bool

    def to_dict(self):
        return {
            "semigroup": {
                "generators": list(self.semigroup.generators),
                **self.invariants.to_dict(),
            },
            "engine": self.engine,
            "ideal": self.ideal,
            "in_ring": self.in_ring,
            "proper": self.proper,
            "mu": self.mu,
            "module_type": self.module_type,
            "quotient_type": self.quotient_type,
            "r_idealization": self.idealization.value,
            "methods": {
                "socle": self.idealization.socle_value,
                "cokernel": self.idealization.cokernel_value,
            },
            "socle_excess": self.idealization.socle_excess,
            "flags": dict(self.flags),
            "verdicts": [v.to_dict() for v in self.verdicts],
            "consistent": self.consistent,
        }


def classify(ideal) -> IdealReport:
    """Full report: invariants, both type computations, predicate flags, and
    every applicable identity recorded as a named verdict."""
    H = ideal.semigroup
    inv = H.invariants()
    R = ideal.unit_ideal()
    m = ideal.maximal_ideal()
    in_ring = R.contains_ideal(ideal)
    proper = in_ring and ideal != R

    mu = ideal.mu()
    # K:I, (t^e I : I) meet R and I:I are each computed once for the report.
    e = H.multiplicity
    dual = ideal.canonical_ideal().colon(ideal)
    annihilator = _annihilator(ideal, e, R)
    itype = _idealization_type(ideal, e, dual, annihilator)
    r_mod = itype.module_type
    value = itype.value
    r_quot = quotient_type(ideal) if proper else None
    r_ring = inv.type

    endo = ideal.colon(ideal)
    closed = endo == R
    faithful = _is_residually_faithful(ideal, annihilator)
    trace = in_ring and _is_trace(ideal, endo, dual)
    ulrich_ideal = is_ulrich_ideal(ideal) if proper else False
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

    verdicts = [
        Verdict(
            "type-bounds",
            r_mod <= value <= r_ring + r_mod,
            f"{r_mod} <= {value} <= {r_ring} + {r_mod}",
        ),
        Verdict(
            "two-method-agreement",
            itype.socle_value == itype.cokernel_value,
            f"socle {itype.socle_value}, cokernel {itype.cokernel_value}",
        ),
        Verdict(
            "closed-iff-residually-faithful",
            closed == faithful == (itype.socle_excess == 0),
            f"closed={closed}, faithful={faithful}, excess={itype.socle_excess}",
        ),
    ]

    ok_v = (closed == (value == r_mod)) and (
        not (closed and proper) or value == r_quot
    )
    verdicts.append(
        Verdict(
            "closed-iff-type-drop",
            ok_v,
            f"closed={closed}, r(idealization)={value}, r_R={r_mod}, r(R/I)={r_quot}",
        )
    )
    if ulrich_ideal:
        verdicts.append(
            Verdict(
                "ulrich-ideal-type",
                value == (2 * mu - 1) * r_quot,
                f"{value} == (2*{mu} - 1) * {r_quot}",
            )
        )
    if ulrich_wrt_m and not inv.is_dvr:
        verdicts.append(
            Verdict(
                "ulrich-wrt-m-type",
                r_mod == mu and value == r_ring + r_mod,
                f"r_R={r_mod}, mu={mu}, value={value}, r(R)={r_ring}",
            )
        )
    if inv.is_symmetric and proper:
        ok = r_quot <= r_mod <= 1 + r_quot and (mu <= 1 or value == 1 + r_mod)
        verdicts.append(
            Verdict(
                "gorenstein-bounds",
                ok,
                f"{r_quot} <= {r_mod} <= 1 + {r_quot}; mu={mu}, value={value}",
            )
        )
    if inv.is_symmetric and trace and proper:
        verdicts.append(
            Verdict(
                "gorenstein-trace-type",
                r_mod == 1 + r_quot and value == 2 + r_quot,
                f"r_R={r_mod}, value={value}, r(R/I)={r_quot}",
            )
        )
    if ideal == m and not inv.is_dvr:
        verdicts.append(
            Verdict(
                "maximal-ideal-type",
                r_mod == r_ring + 1 and value == 2 * r_ring + 1,
                f"r_R(m)={r_mod}, value={value}, r(R)={r_ring}",
            )
        )
    if inv.is_symmetric:
        verdicts.append(
            Verdict(
                "gorenstein-closed-principal",
                (not closed) or principal,
                f"closed={closed}, principal={principal}",
            )
        )

    return IdealReport(
        semigroup=H,
        invariants=inv,
        engine=ideal.engine,
        ideal=ideal.describe(),
        in_ring=in_ring,
        proper=proper,
        mu=mu,
        module_type=r_mod,
        quotient_type=r_quot,
        idealization=itype,
        flags=flags,
        verdicts=verdicts,
        consistent=all(v.passed for v in verdicts),
    )
