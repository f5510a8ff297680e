"""Relative ideals of a numerical semigroup: the monomial ideal engine.

A relative ideal is a set E of integers, bounded below, with E + H <= E.
It models the monomial fractional ideal spanned by {t^x : x in E}.  The
representation is canonical: delta = min(E) plus one int whose bit i says
whether delta + i is in E, for every i >= 0.  Every integer >= delta + c
belongs to E (c the conductor of H), so all bits from c on are set: the
int is negative in two's complement, ``window | -1 << c``.  Two relative
ideals are equal iff their (delta, mask) pairs coincide.

Every operation is whole-int arithmetic on these infinite-tail ints, with
h the mask of H (tail included) and _at(s) the mask of an ideal shifted to
origin s (a left or an arithmetic right shift):

  * H-stability: (mask << a) & ~mask == 0 for each generator a;
  * the ideal generated by g_1 < ... < g_k: OR of h << (g_i - g_1);
  * E + F, E meet F: OR, AND of both masks at min, max of the deltas;
  * E F: OR of F._at(delta_E + delta_F - g) over the generators g of E;
  * E - F: AND of E._at(delta_E - delta_F + g) over the generators g of F,
    and the members f of E - E among given exponents are bit tests of the
    AND for F = E, with no ideal built;
  * the image of X Y in M/mM: the sums g + h of generators that are
    minimal generators of M;
  * F <= E: F's mask AND NOT E._at(delta_F) is zero, and the length of
    E/F counts the bits of E's mask AND NOT F._at(delta_E);
  * minimal generators: mask & ~OR of mask << a over the generators a of
    H, read off the set bits;
  * normalization to the least member j of a mask: mask >> j.

A RelativeIdeal is immutable, so it keeps its minimal generators in a slot
once they are read off, and every later ``mu``, ``multiply`` or ``colon``
reuses them.  ``__init__`` checks every mask it is given: the bit of delta
is set, the bits past the window match the tail, and the mask is H-stable.
Those three checks read the mask alone, never delta, so ``shift`` copies a
checked mask to a new delta without running them again (and moves the
kept generators along); every other construction runs them.
"""

import functools

from .errors import ArgumentError, ConsistencyError, ContainmentError
from .semigroup import NumericalSemigroup


class RelativeIdeal:
    __slots__ = ("semigroup", "delta", "_mask", "_gens")

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
        self._gens = None
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
        for a in semigroup.generators:
            escaped = (bits << a) & ~bits
            if escaped:
                x = delta + (escaped & -escaped).bit_length() - 1 - a
                raise ConsistencyError(
                    f"ideal over {semigroup} with delta {delta} and mask {mask:#x} "
                    f"is not H-stable: {x} + {a} = {x + a} escapes it"
                )

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

    @classmethod
    def _normalized(cls, semigroup, start, bits) -> "RelativeIdeal":
        """Build from the mask ``bits`` of an ideal at origin ``start``."""
        j = (bits & -bits).bit_length() - 1
        return cls(semigroup, start + j, bits >> j)

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

    def minimal_generators(self):
        """E \\ (E + M) with M = H \\ {0}; always inside [delta, delta + c).

        E + M is the union of the E + a over the generators a of H, whose
        mask is mask << a.  Computed on the first call and kept.
        """
        if self._gens is None:
            mask = self._mask
            covered = 0
            for a in self.semigroup.generators:
                covered |= mask << a
            free = mask & ~covered
            out = []
            while free:
                low = free & -free
                out.append(self.delta + low.bit_length() - 1)
                free ^= low
            self._gens = tuple(out)
        return self._gens

    def mu(self) -> int:
        return len(self.minimal_generators())

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "RelativeIdeal"):
        if self.semigroup is not other.semigroup and self.semigroup != other.semigroup:
            raise ArgumentError(
                f"semigroup mismatch: {self.semigroup} vs {other.semigroup}"
            )

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Set union: the fractional ideal sum E + F (as R-modules)."""
        self._check_same(other)
        start = min(self.delta, other.delta)
        return RelativeIdeal(self.semigroup, start, self._at(start) | other._at(start))

    def multiply(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Minkowski sum {x + y}: the ideal product."""
        self._check_same(other)
        start = self.delta + other.delta
        bits = 0
        for g in self.minimal_generators():
            bits |= other._at(start - g)
        return RelativeIdeal(self.semigroup, start, bits)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """E - F = {z : z + F <= E}.

        Testing z against the minimal generators of F suffices (H-stability
        of E covers the rest), so the mask is the AND of the masks of E at
        start + g, start = delta_E - delta_F.  No z < start can pass, and
        every z >= start + c must: the bound check covers each of them, and
        names the least z that fails and a generator g of F it fails on.
        """
        self._check_same(other)
        H = self.semigroup
        c = H.conductor
        gens = other.minimal_generators()
        start = self.delta - other.delta
        bits = -1
        for g in gens:
            bits &= self._at(start + g)
        missing = ~bits >> c
        if missing:
            z = start + c + (missing & -missing).bit_length() - 1
            g = next(g for g in gens if not self.contains(z + g))
            raise ConsistencyError(
                f"colon window bound violated over {H}: E has delta {self.delta}, "
                f"F has delta {other.delta} and generators {list(gens)}; "
                f"z = {z} lies past the window [{start}, {start + c}) of E - F "
                f"but z + {g} = {z + g} is not in E"
            )
        return RelativeIdeal._normalized(H, start, bits)

    def top_rank(self, X: "RelativeIdeal", Y: "RelativeIdeal") -> int:
        """dim_k of the image of X Y in M/mM, M this ideal, for X Y <= M.

        M/mM has the minimal generators of M as a basis, and X Y is spanned
        by the t^(g + h) over the generators g of X and h of Y; each lies
        in M, so in m M unless g + h is a minimal generator of M.
        """
        self._check_same(X)
        self._check_same(Y)
        sums = {g + h for g in X.minimal_generators() for h in Y.minimal_generators()}
        return len(sums.intersection(self.minimal_generators()))

    def endo_meet_dim(self, exponents) -> int:
        """dim_k(span{t^f : f in exponents} meet (E - E)), without building E - E.

        The mask of E - E at origin 0 is the AND of E's masks at the
        generators g of E (``colon``), so each f is one bit test; E - E has
        no negative member.
        """
        bits = -1
        for g in self.minimal_generators():
            bits &= self._at(g)
        return sum(1 for f in set(exponents) if f >= 0 and bits >> f & 1)

    def intersect(self, other: "RelativeIdeal") -> "RelativeIdeal":
        self._check_same(other)
        start = max(self.delta, other.delta)
        return RelativeIdeal._normalized(
            self.semigroup, start, self._at(start) & other._at(start)
        )

    def shift(self, s: int) -> "RelativeIdeal":
        """Multiplication by t^s: E + s, the same mask at delta + s.

        The checks of ``__init__`` read only the mask, which passed them
        when E was built, so the copy skips them.
        """
        out = object.__new__(RelativeIdeal)
        out.semigroup, out.delta, out._mask = self.semigroup, self.delta + s, self._mask
        out._gens = None if self._gens is None else tuple(g + s for g in self._gens)
        return out

    def quotient_length(self, sub: "RelativeIdeal") -> int:
        """The k-dimension of E/F for F <= E (finite: they share a tail)."""
        if not self.contains_ideal(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        return (self._mask & ~sub._at(self.delta)).bit_count()

    def contains_ideal(self, sub: "RelativeIdeal") -> bool:
        self._check_same(sub)
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
            and self.semigroup == other.semigroup
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


@functools.cache
def _unit(H: NumericalSemigroup) -> RelativeIdeal:
    return RelativeIdeal.from_exponents(H, {0})


@functools.cache
def _canonical(H: NumericalSemigroup) -> RelativeIdeal:
    return H.canonical_relative_ideal()


@functools.cache
def _maximal(H: NumericalSemigroup) -> RelativeIdeal:
    return RelativeIdeal.from_exponents(H, H.generators)
