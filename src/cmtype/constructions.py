"""Explicit ideal families, the blow-up ring, and monomial ideal enumeration.

The families here realize the classification results numerically: the
pseudo-Frobenius family (t^e) + (t^{alpha_j + e} : j >= p) and its canonical
dual, the maximal-embedding-dimension family (t^{a_1}) + (t^{a_p}, ...),
the blow-up ring as both an endomorphism fixpoint and its closed form, and
an exhaustive stream of shift-normalized monomial ideals used to search
for the supremum of the idealization type.
"""

from .errors import ArgumentError, ConsistencyError, ResourceLimitError
from .relideal import RelativeIdeal, _maximal, _unit
from .semigroup import NumericalSemigroup
from .typecalc import idealization_type, is_ulrich_module_wrt

# The enumeration raises ResourceLimitError past this many ideals, which caps its
# walk too; it is the default of `sup-search --limit` and `enumerate --limit`.
ENUMERATION_LIMIT = 200_000


def pf_family_ideal(H: NumericalSemigroup, p: int) -> RelativeIdeal:
    """(t^e) + (t^{alpha_j + e} : p <= j <= r), PF(H) = {alpha_1 < ... < alpha_r}.

    Its square equals t^e times itself; that identity is verified on
    construction since the downstream type formula depends on it.
    """
    e = H.multiplicity
    if e < 2:
        raise ArgumentError("the family needs e >= 2 (R not a DVR)")
    pf = H.pseudo_frobenius()
    r = len(pf)
    if not 1 <= p <= r:
        raise ArgumentError(f"p must lie in [1, {r}], got {p}")
    exponents = {e} | {pf[j] + e for j in range(p - 1, r)}
    ideal = RelativeIdeal.from_exponents(H, exponents)
    if ideal.multiply(ideal) != ideal.shift(e):
        raise ConsistencyError(f"I^2 != t^e I for the family ideal at p={p} over {H}")
    return ideal


def med_family_ideal(H: NumericalSemigroup, p: int) -> RelativeIdeal:
    """(t^{a_1}) + (t^{a_p}, ..., t^{a_l}) for maximal embedding dimension."""
    inv = H.invariants()
    if not inv["med"] or inv["multiplicity"] < 2:
        raise ArgumentError(f"{H} does not have maximal embedding dimension >= 2")
    gens = H.generators
    ell = len(gens)
    if not 2 <= p <= ell:
        raise ArgumentError(f"p must lie in [2, {ell}], got {p}")
    return RelativeIdeal.from_exponents(H, {gens[0]} | set(gens[p - 1:]))


def dual_family_ideal(H: NumericalSemigroup, p: int) -> RelativeIdeal:
    """Canonical dual K : I of the pseudo-Frobenius family ideal."""
    return pf_family_ideal(H, p).canonical_dual()


def blowup_ring(H: NumericalSemigroup) -> RelativeIdeal:
    """The blow-up of the maximal ideal, as a relative ideal.

    Fixpoint route: A_n = m^n : m^n, stopping once m^{n+1} = t^e m^n (from
    then on the colons are constant).  Oracle route: the exponent set of
    R[m/t^e] is the numerical semigroup generated by e and the a_i - e.
    Both are computed and must agree.
    """
    e = H.multiplicity
    m = _maximal(H)
    power = _unit(H)
    fixpoint = None
    for _ in range(H.conductor + 2):
        nxt = power.multiply(m)
        if nxt == power.shift(e):
            fixpoint = power.colon(power)
            break
        power = nxt
    if fixpoint is None:
        raise ConsistencyError(f"blow-up iteration did not stabilize over {H}")

    if e == 1:
        closed_gens = [1]
    else:
        closed_gens = [e] + [a - e for a in H.generators[1:]]
    lipman = NumericalSemigroup(closed_gens)
    closed_form = RelativeIdeal.from_exponents(
        H, set(lipman.members(0, H.conductor)) | {H.conductor}
    )
    if fixpoint != closed_form:
        raise ConsistencyError(f"blow-up fixpoint and closed form disagree over {H}")

    if fixpoint.mu() != e:
        raise ConsistencyError(f"blow-up of {H} has {fixpoint.mu()} generators, not e={e}")
    if not is_ulrich_module_wrt(fixpoint):
        raise ConsistencyError(f"blow-up of {H} is not Ulrich with respect to m")
    return fixpoint


def enumerate_monomial_ideals(
    H: NumericalSemigroup, span_bound: int, max_count: int = ENUMERATION_LIMIT
):
    """All relative ideals with delta = 0 whose chosen gaps lie in [0, span_bound].

    Each contains H (hence all of the conductor tail), so it is H plus a set
    of gaps closed under adding the generators, and each comes once.  Such a
    nonempty set holds its maximal elements under <=_H, which are
    pseudo-Frobenius numbers, so a span bound below min PF(H) yields R alone.
    The walk takes the gaps <= min(span_bound, c) from the top, on whole
    masks.  An open (not yet passed) gap h with some gap h + a outside the
    mask, a a generator, stays out in every branch below, so a node passes
    over such gaps to the top open gap g left, or is a leaf if there is none:
    it yields the ideals without g, then those with g, keeping the gaps
    below g open.  The walk goes on down "without g" itself and pushes only
    "with g", so each node it pops ends in one leaf: N ideals cost N pops of
    O(e) mask operations and N - 1 pushes, and max_count bounds the work as
    well.  The masks come in strictly increasing order: below a node, they
    agree above g, and those without g lack bit g while those with g have it.
    """
    if span_bound < 1:
        raise ArgumentError("span bound must be at least 1")
    if max_count < 1:
        raise ArgumentError("enumeration cap must be at least 1")
    base_mask = H._member_mask
    gap_mask = ((1 << H.conductor) - 1) & ~base_mask
    count = 0
    # on a stack, as recursion overflows near a thousand gaps
    stack = [(base_mask, gap_mask & ((2 << min(span_bound, H.conductor)) - 1))]
    while stack:
        mask, open_gaps = stack.pop()
        # every node down the "without g" branches shares this mask, so the
        # blocked gaps and the free ones below each g are read off it once
        outside, blocked = gap_mask & ~mask, 0
        for a in H.generators:
            blocked |= outside >> a
        free = open_gaps & ~blocked
        while free:
            top = 1 << (free.bit_length() - 1)  # the top gap g that the node branches on
            free ^= top
            stack.append((mask | top, open_gaps & (top - 1)))
        count += 1
        if count > max_count:
            raise ResourceLimitError(
                f"more than {max_count} ideals below span bound {span_bound}"
            )
        yield RelativeIdeal(H, 0, mask)


def sup_search(H: NumericalSemigroup, span_bound: int, max_count: int = ENUMERATION_LIMIT):
    """(max idealization type, witness) over the delta-0 monomial ideals.

    Every enumerated ideal is a shift of an m-primary ideal of R, and
    shifting does not change the idealization type.  The maximum never
    exceeds r(R) + e; whether the witness is the blow-up is reported by the
    caller, not assumed here.
    """
    bound = H.type() + H.multiplicity
    best_value = 0
    best_witness = None
    for ideal in enumerate_monomial_ideals(H, span_bound, max_count=max_count):
        value = idealization_type(ideal).value
        if value > bound:
            raise ConsistencyError(
                f"idealization type {value} exceeds r(R) + e = {bound} "
                f"for {ideal.describe()}"
            )
        if value > best_value:
            best_value = value
            best_witness = ideal
    return best_value, best_witness
