"""Relative ideals of a numerical semigroup: the monomial ideal engine.

A relative ideal is a set E of integers, bounded below, with E + H <= E.
It models the monomial fractional ideal spanned by {t^x : x in E}.  The
representation is canonical: delta = min(E) plus one int whose bit i says
whether delta + i is in E, for every i >= 0.  Every integer >= delta + c
belongs to E (c the conductor of H), so all bits from c on are set: the
int is negative in two's complement, ``window | -1 << c``.  Two relative
ideals are equal iff their (delta, mask) pairs coincide.

Every operation is whole-int arithmetic on these infinite-tail ints, with
h the mask of H (tail included), _at(s) the mask of an ideal shifted to
origin s (a left or an arithmetic right shift), and the generator mask of
E, E minus (E + M) with M = H minus 0, whose bit j is the minimal generator
delta_E + j:

  * H-stability: (OR of mask << a over the generators a) & ~mask == 0;
  * the ideal generated by g_1 < ... < g_k: OR of h << (g_i - g_1);
  * E + F, E meet F: OR, AND of both masks at min, max of the deltas,
    with a left shift cut at c (past c the lower ideal holds every bit);
  * E F: OR of F's mask << j over the set bits j of E's generator mask,
    at origin delta_E + delta_F;
  * E - F: AND of E's mask >> j over the set bits j of F's generator mask,
    at origin delta_E - delta_F; the members of E - E among given
    exponents are the bit count of that AND for F = E against their mask,
    with no ideal built;
  * the image of X Y in M/mM: the OR of X's generator mask << (d0 + j)
    over the set bits j of Y's, d0 = delta_X + delta_Y - delta_M, ANDed
    with M's generator mask; its dimension is the bit count, 0 with no
    shift when d0 passes M's last generator;
  * F <= E: delta_F >= delta_E and F's mask AND NOT E._at(delta_F) is
    zero, and the length of E/F is delta_F - delta_E plus the bit count of
    ~F's mask minus that of ~E's;
  * minimal generators: the generator mask, mask & ~OR of mask << a over
    the generators a of H; mu is its bit count;
  * normalization to the least member j of a mask: mask >> j, done in
    place by ``colon`` and ``intersect``.

``__init__`` checks every mask it is given: the bit of delta is set, the
bits past the window match the tail, and the mask is H-stable.  The
stability check ORs the shifts of the mask by the generators of H, which
is the mask of E + M, and tests it against the mask once; only a mask that
fails is walked again, generator by generator, to name the exponent that
escapes.  So a RelativeIdeal keeps its generator mask in a slot from the
start.  The set bits j of that mask (the minimal generators delta + j) are
read off it the first time ``multiply``, ``colon``, ``top_rank``,
``endo_meet_dim`` or ``minimal_generators`` walks them, and kept in a
second slot: a sweep's K : I, endo_meet_dim and K.top_rank(K : I, I) all
walk the generators of I, which is read once.  Every construction,
``shift`` included, goes through ``__init__`` and its checks.

A binary operation calls ``_check_same`` only when the operands' semigroups
are not one object, so over one H it compares nothing, and a mismatch still
raises ArgumentError.  The companions R, K and m of H (``_unit``,
``_canonical``, ``_maximal``) live in a slot of the NumericalSemigroup, each
built on first use: a lookup hashes nothing, and they live exactly as long
as H does.
"""

from .errors import ArgumentError, ConsistencyError, ContainmentError
from .semigroup import NumericalSemigroup


class RelativeIdeal:
    __slots__ = ("semigroup", "delta", "_mask", "_gen_mask", "_gen_offsets")

    engine = "monomial"

    def __init__(self, semigroup: NumericalSemigroup, delta: int, mask: int):
        """Internal; use from_exponents.  ``mask`` bit i <-> delta + i.

        ``mask`` is either a window on [0, c) or an int whose bits from c
        on are all set; it is stored as ``mask | -1 << c``.
        """
        self.semigroup = semigroup
        self.delta = delta
        c = semigroup.conductor
        bits = mask | -1 << c
        self._mask = bits
        if not bits & 1:
            raise ConsistencyError(
                f"ideal over {semigroup} with delta {delta} does not contain {delta}: "
                f"mask {mask:#x} does not start at its minimum"
            )
        stray = (mask if mask >= 0 else ~mask) >> c
        if stray:
            x = delta + c + (stray & -stray).bit_length() - 1
            raise ConsistencyError(
                f"ideal over {semigroup} with delta {delta} {'has' if mask >= 0 else 'lacks'} "
                f"exponent {x} in its mask, past the window [{delta}, {delta + c})"
            )
        covered = 0  # the mask of E + M, M = H \ {0}
        for a in semigroup.generators:
            covered |= bits << a
        if covered & ~bits:
            _raise_unstable(semigroup, delta, mask, bits)
        self._gen_mask = bits & ~covered
        self._gen_offsets = None

    @classmethod
    def from_exponents(cls, semigroup: NumericalSemigroup, gens) -> "RelativeIdeal":
        """The relative ideal generated by a set of integers: union of g + H."""
        gens = sorted(set(int(g) for g in gens))
        if not gens:
            raise ArgumentError("a relative ideal needs at least one generator")
        delta = gens[0]
        c = semigroup.conductor
        h = semigroup._member_mask | -1 << c
        mask = 0
        for g in gens:
            if g - delta < c:
                mask |= h << (g - delta)
        return cls(semigroup, delta, mask)

    def _at(self, start: int) -> int:
        """The mask shifted to origin ``start``: bit i <-> start + i."""
        s = self.delta - start
        return self._mask << s if s >= 0 else self._mask >> -s

    # -- queries ----------------------------------------------------------

    def contains(self, x: int) -> bool:
        return x >= self.delta and bool(self._mask >> (x - self.delta) & 1)

    def members_mask(self, start: int, length: int) -> int:
        """Membership bitmask over [start, start + length)."""
        if length <= 0:
            return 0
        return self._at(start) & ((1 << length) - 1)

    def _generator_offsets(self) -> list:
        """The set bits j of the generator mask, increasing (the minimal
        generators are the delta + j), read on first use and kept."""
        offsets = self._gen_offsets
        if offsets is None:
            offsets = self._gen_offsets = _offsets(self._gen_mask)
        return offsets

    def minimal_generators(self):
        """E \\ (E + M) with M = H \\ {0}, increasing; always inside [delta, delta + c)."""
        delta = self.delta
        return tuple(delta + j for j in self._generator_offsets())

    def mu(self) -> int:
        """dim_k E/mE, the number of minimal generators: the bit count of
        the generator mask, with no position read."""
        return self._gen_mask.bit_count()

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "RelativeIdeal"):
        """Raise ArgumentError unless both semigroups are equal; the callers
        skip it when they are one object."""
        if self.semigroup != other.semigroup:
            raise ArgumentError(
                f"semigroup mismatch: {self.semigroup} vs {other.semigroup}"
            )

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Set union: the fractional ideal sum E + F (as R-modules)."""
        if other.semigroup is not self.semigroup:
            self._check_same(other)
        low, high = (self, other) if self.delta <= other.delta else (other, self)
        # low holds every integer from delta_low + c on, so a shift of high past
        # c adds nothing there and is cut at c: no mask grows with the orders
        shift = min(high.delta - low.delta, self.semigroup.conductor)
        return RelativeIdeal(self.semigroup, low.delta, low._mask | high._mask << shift)

    def multiply(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Minkowski sum {x + y}: the ideal product."""
        if other.semigroup is not self.semigroup:
            self._check_same(other)
        mask, bits = other._mask, 0
        for j in self._generator_offsets():  # the generator delta_E + j of E
            bits |= mask << j
        return RelativeIdeal(self.semigroup, self.delta + other.delta, bits)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """E - F = {z : z + F <= E}.

        Testing z against the minimal generators of F suffices (H-stability
        of E covers the rest), so at origin start = delta_E - delta_F the
        mask is the AND of E's mask >> j over the generators delta_F + j of
        F.  No z < start can pass, and every z >= start + c must: the bound
        check covers each of them, and names the least z that fails and a
        generator g of F it fails on.
        """
        H = self.semigroup
        if other.semigroup is not H:
            self._check_same(other)
        c = H.conductor
        start = self.delta - other.delta
        mask, bits = self._mask, -1
        for j in other._generator_offsets():
            bits &= mask >> j
        missing = ~bits >> c
        if missing:
            gens = other.minimal_generators()
            z = start + c + (missing & -missing).bit_length() - 1
            g = next(g for g in gens if not self.contains(z + g))
            raise ConsistencyError(
                f"colon window bound violated over {H}: E has delta {self.delta}, "
                f"F has delta {other.delta} and generators {list(gens)}; "
                f"z = {z} lies past the window [{start}, {start + c}) of E - F "
                f"but z + {g} = {z + g} is not in E"
            )
        j = (bits & -bits).bit_length() - 1
        return RelativeIdeal(H, start + j, bits >> j)

    def top_rank(self, X: "RelativeIdeal", Y: "RelativeIdeal") -> int:
        """dim_k of the image of X Y in M/mM, M this ideal, for X Y <= M.

        M/mM has the minimal generators of M as a basis, and X Y is spanned
        by the t^(g + h) over the generators g of X and h of Y; each lies
        in M, so in m M unless g + h is a minimal generator of M.  On M's
        origin, the sums for the generator h = delta_Y + j of Y are X's
        generator mask << (d0 + j), d0 = delta_X + delta_Y - delta_M, so the
        rank is the bit count of their OR over h ANDed with M's generator
        mask, and no generator position is read.  X Y <= M needs d0 >= 0,
        so every shift is a left shift.
        """
        if X.semigroup is not self.semigroup:
            self._check_same(X)
        if Y.semigroup is not self.semigroup:
            self._check_same(Y)
        d0 = X.delta + Y.delta - self.delta
        if d0 < 0:
            raise ContainmentError(
                f"the product of {X.describe()} and {Y.describe()} is not in {self.describe()}"
            )
        if d0 >= self._gen_mask.bit_length():
            return 0  # every sum lies past the last generator of M
        gx, sums = X._gen_mask, 0
        for j in Y._generator_offsets():
            sums |= gx << (d0 + j)
        return (sums & self._gen_mask).bit_count()

    def endo_meet_dim(self, exponents) -> int:
        """dim_k(span{t^f : f in exponents} meet (E - E)), without building E - E.

        The mask of E - E at origin 0 is the AND of E's mask >> j over the
        generators delta + j of E (``colon``).  E - E has no negative
        member, and it holds R, so every f >= c: those count once each, with
        no bit set, and the answer adds the bit count of that AND against
        the mask of the f in [0, c), where a repeated f sets one bit.
        """
        mask, bits = self._mask, -1
        for j in self._generator_offsets():
            bits &= mask >> j
        c = self.semigroup.conductor
        wanted, tail = 0, set()
        for f in exponents:
            if f >= c:
                tail.add(f)
            elif f >= 0:
                wanted |= 1 << f
        return (bits & wanted).bit_count() + len(tail)

    def intersect(self, other: "RelativeIdeal") -> "RelativeIdeal":
        if other.semigroup is not self.semigroup:
            self._check_same(other)
        start = max(self.delta, other.delta)
        bits = self._at(start) & other._at(start)
        j = (bits & -bits).bit_length() - 1  # normalized to the least member
        return RelativeIdeal(self.semigroup, start + j, bits >> j)

    def shift(self, s: int) -> "RelativeIdeal":
        """Multiplication by t^s: E + s, the same mask at delta + s."""
        return RelativeIdeal(self.semigroup, self.delta + s, self._mask)

    def quotient_length(self, sub: "RelativeIdeal") -> int:
        """The k-dimension of E/F for F <= E (finite: they share a tail):
        delta_F - delta_E + g(F) - g(E), g(X) the count of the integers
        above delta_X outside X, the set bits of ~X's mask."""
        if not self.contains_ideal(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        return sub.delta - self.delta + (~sub._mask).bit_count() - (~self._mask).bit_count()

    def contains_ideal(self, sub: "RelativeIdeal") -> bool:
        if sub.semigroup is not self.semigroup:
            self._check_same(sub)
        if sub.delta < self.delta:
            return False
        return sub._mask & ~self._at(sub.delta) == 0

    # -- companions in the same engine --------------------------------------

    def unit_ideal(self) -> "RelativeIdeal":
        return _unit(self.semigroup)

    def canonical_ideal(self) -> "RelativeIdeal":
        return _canonical(self.semigroup)

    def maximal_ideal(self) -> "RelativeIdeal":
        return _maximal(self.semigroup)

    def canonical_dual(self) -> "RelativeIdeal":
        """K - E, with K the canonical relative ideal."""
        return _canonical(self.semigroup).colon(self)

    def find_reduction(self):
        """(t^delta) if E^2 = t^delta E, else None.

        Whether E^2 = x E does not depend on the choice of x in E of order
        delta (the value argument of typecalc.is_ulrich_module_wrt).
        """
        if self.multiply(self) == self.shift(self.delta):
            return self.unit_ideal().shift(self.delta)
        return None

    # -- plumbing -----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RelativeIdeal)
            and (self.semigroup is other.semigroup or self.semigroup == other.semigroup)
            and self.delta == other.delta
            and self._mask == other._mask
        )

    def __hash__(self):
        return hash((self.semigroup, self.delta, self._mask))

    def describe(self) -> str:
        gens = ", ".join(f"t^{g}" for g in self.minimal_generators())
        return f"({gens}) over {self.semigroup}"

    def __repr__(self):
        return f"RelativeIdeal({self.describe()})"


def _raise_unstable(semigroup, delta, mask, bits):
    """Raise the H-stability error for a mask that failed ``__init__``'s
    test: the first generator a of H that moves a member out of E, and the
    least member x it moves out."""
    for a in semigroup.generators:
        escaped = bits << a & ~bits
        if escaped:
            x = delta + (escaped & -escaped).bit_length() - 1 - a
            raise ConsistencyError(
                f"ideal over {semigroup} with delta {delta} and mask {mask:#x} "
                f"is not H-stable: {x} + {a} = {x + a} escapes it"
            )


def _offsets(mask: int) -> list:
    """Positions of the set bits of a nonnegative mask, increasing.

    A generator mask has at most e set bits, so one step per bit beats
    ``semigroup._set_bits``, whose cost grows with the mask's width.
    """
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# The companions of H, kept in H's own slot (module docstring).
def _unit(H: NumericalSemigroup) -> RelativeIdeal:
    companions = H._relative_companions
    R = companions[0]
    if R is None:
        R = companions[0] = RelativeIdeal.from_exponents(H, {0})
    return R


def _canonical(H: NumericalSemigroup) -> RelativeIdeal:
    companions = H._relative_companions
    K = companions[1]
    if K is None:
        K = companions[1] = H.canonical_relative_ideal()
    return K


def _maximal(H: NumericalSemigroup) -> RelativeIdeal:
    companions = H._relative_companions
    m = companions[2]
    if m is None:
        m = companions[2] = RelativeIdeal.from_exponents(H, H.generators)
    return m
