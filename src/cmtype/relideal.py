"""Relative ideals of a numerical semigroup: the monomial ideal engine.

A relative ideal is a set E of integers, bounded below, with E + H <= E.
It models the monomial fractional ideal spanned by {t^x : x in E}.  The
representation is canonical: delta = min(E) plus a membership bitmask on
the window [delta, delta + c) where c is the conductor of H; every integer
>= delta + c belongs to E automatically (delta + c - delta >= c lies in H).
Two relative ideals are equal iff their (delta, mask) pairs coincide.

Every operation is whole-mask integer arithmetic, with full = 2**c - 1,
h the mask of H on [0, c) and W(s) = members_mask(s, c) the window of an
ideal starting at s:

  * H-stability: (mask << a) & ~mask & full == 0 for each generator a;
  * the ideal generated by g_1 < ... < g_k: OR of h << (g_i - g_1);
  * E + F, E meet F: OR, AND of both windows at min, max of the deltas;
  * E F: OR of W_F(delta_E + delta_F - g) over the generators g of E;
  * E - F: AND of W_E(delta_E - delta_F + g) over the generators g of F;
  * minimal generators: mask & ~OR of mask << a over the generators a of
    H, read off the set bits;
  * normalization to the least member j of a window: mask >> j with the
    tail past the window filled in.
"""

import functools

from .errors import ArgumentError, ConsistencyError, ContainmentError
from .semigroup import NumericalSemigroup


class RelativeIdeal:
    __slots__ = ("semigroup", "delta", "_mask")

    engine = "monomial"

    def __init__(self, semigroup: NumericalSemigroup, delta: int, mask: int):
        """Internal; use from_exponents.  ``mask`` bit i <-> delta + i."""
        self.semigroup = semigroup
        self.delta = delta
        self._mask = mask
        c = semigroup.conductor
        if c > 0 and not mask & 1:
            raise ConsistencyError(
                f"ideal over {semigroup} with delta {delta} does not contain {delta}: "
                f"mask {mask:#x} does not start at its minimum"
            )
        if mask >> c:
            raise ConsistencyError(
                f"ideal over {semigroup} with delta {delta} has exponent "
                f"{delta + mask.bit_length() - 1} in its mask, past the window "
                f"[{delta}, {delta + c})"
            )
        full = (1 << c) - 1
        for a in semigroup.generators:
            escaped = (mask << a) & ~mask & full
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
        h = semigroup._member_mask
        mask = 0
        for g in gens:
            if g - delta < c:
                mask |= h << (g - delta)
        return cls(semigroup, delta, mask & ((1 << c) - 1))

    @classmethod
    def _normalized(cls, semigroup, start, mask, width) -> "RelativeIdeal":
        """Build from any window [start, start+width) whose complement is
        guaranteed to be a subset of [start, start+width) (tail implied)."""
        j = (mask & -mask).bit_length() - 1 if mask else width
        tail = -(1 << (width - j))
        return cls(semigroup, start + j, ((mask >> j) | tail) & ((1 << semigroup.conductor) - 1))

    # -- queries ----------------------------------------------------------

    def contains(self, x: int) -> bool:
        if x < self.delta:
            return False
        if x >= self.delta + self.semigroup.conductor:
            return True
        return bool(self._mask >> (x - self.delta) & 1)

    def members_mask(self, start: int, length: int) -> int:
        """Membership bitmask over [start, start + length)."""
        if length <= 0:
            return 0
        s = self.delta - start
        window = self._mask << s if s >= 0 else self._mask >> -s
        t = s + self.semigroup.conductor
        tail = -(1 << t) if t > 0 else -1
        return (window | tail) & ((1 << length) - 1)

    def minimal_generators(self):
        """E \\ (E + M) with M = H \\ {0}; always inside [delta, delta + c).

        E + M is the union of the E + a over the generators a of H, whose
        window part is mask << a.
        """
        H = self.semigroup
        if H.conductor == 0:
            return (self.delta,)
        mask = self._mask
        covered = 0
        for a in H.generators:
            covered |= mask << a
        free = mask & ~covered
        out = []
        while free:
            low = free & -free
            out.append(self.delta + low.bit_length() - 1)
            free ^= low
        return tuple(out)

    def mu(self) -> int:
        return len(self.minimal_generators())

    def is_principal(self) -> bool:
        return self.mu() == 1

    def maximal_product(self) -> "RelativeIdeal":
        """m E, the product with the maximal ideal."""
        return _maximal(self.semigroup).multiply(self)

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "RelativeIdeal"):
        if self.semigroup is not other.semigroup and self.semigroup != other.semigroup:
            raise ArgumentError(
                f"semigroup mismatch: {self.semigroup} vs {other.semigroup}"
            )

    def add(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Set union: the fractional ideal sum E + F (as R-modules)."""
        self._check_same(other)
        c = self.semigroup.conductor
        start = min(self.delta, other.delta)
        mask = self.members_mask(start, c) | other.members_mask(start, c)
        return RelativeIdeal._normalized(self.semigroup, start, mask, c)

    def multiply(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """Minkowski sum {x + y}: the ideal product."""
        self._check_same(other)
        c = self.semigroup.conductor
        start = self.delta + other.delta
        mask = 0
        for g in self.minimal_generators():
            mask |= other.members_mask(start - g, c)
        return RelativeIdeal._normalized(self.semigroup, start, mask, c)

    def colon(self, other: "RelativeIdeal") -> "RelativeIdeal":
        """E - F = {z : z + F <= E}.

        Testing z against the minimal generators of F suffices (H-stability
        of E covers the rest), so the mask is the AND of the windows of E at
        start + g, start = delta_E - delta_F.  No z < start can pass, and
        every z >= start + c must: the two z just past the window, whose
        bits the mask carries, are spot-checked.
        """
        self._check_same(other)
        H = self.semigroup
        c = H.conductor
        gens = other.minimal_generators()
        start = self.delta - other.delta
        mask = (1 << (c + 2)) - 1
        for g in gens:
            mask &= self.members_mask(start + g, c + 2)
        if mask >> c != 0b11:
            z = start + c + (mask >> c & 1)
            g = next(g for g in gens if not self.contains(z + g))
            raise ConsistencyError(
                f"colon window bound violated over {H}: E has delta {self.delta}, "
                f"F has delta {other.delta} and generators {list(gens)}; "
                f"z = {z} lies past the window [{start}, {start + c}) of E - F "
                f"but z + {g} = {z + g} is not in E"
            )
        return RelativeIdeal._normalized(H, start, mask, c + 2)

    def intersect(self, other: "RelativeIdeal") -> "RelativeIdeal":
        self._check_same(other)
        c = self.semigroup.conductor
        start = max(self.delta, other.delta)
        mask = self.members_mask(start, c) & other.members_mask(start, c)
        return RelativeIdeal._normalized(self.semigroup, start, mask, c)

    def shift(self, s: int) -> "RelativeIdeal":
        """Multiplication by t^s: E + s."""
        return RelativeIdeal(self.semigroup, self.delta + s, self._mask)

    def quotient_length(self, sub: "RelativeIdeal") -> int:
        """The k-dimension of E/F for F <= E (finite: they share a tail)."""
        if not self.contains_ideal(sub):
            raise ContainmentError(f"{sub.describe()} is not contained in {self.describe()}")
        c = self.semigroup.conductor
        length = sub.delta + c - self.delta
        diff = self.members_mask(self.delta, length) & ~sub.members_mask(self.delta, length)
        return diff.bit_count()

    def contains_ideal(self, sub: "RelativeIdeal") -> bool:
        self._check_same(sub)
        if sub.delta < self.delta:
            return False
        c = self.semigroup.conductor
        length = max(sub.delta + c, self.delta + c) - sub.delta
        a = sub.members_mask(sub.delta, length)
        b = self.members_mask(sub.delta, length)
        return not a & ~b

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
