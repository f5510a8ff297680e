"""Relative ideals of a numerical semigroup: the monomial ideal engine.

A relative ideal is a set E of integers, bounded below, with E + H <= E.
It models the monomial fractional ideal spanned by {t^x : x in E}.  The
representation is canonical: delta = min(E) plus a membership bitmask on
the window [delta, delta + c) where c is the conductor of H; every integer
>= delta + c belongs to E automatically (delta + c - delta >= c lies in H).

All operations are exact set combinatorics on these masks, so two relative
ideals are equal iff their (delta, mask) pairs coincide.
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
            raise ConsistencyError("window does not start at its minimum")
        if mask >> c:
            raise ConsistencyError("mask wider than the conductor window")
        for i in range(c):
            if mask >> i & 1:
                for a in semigroup.generators:
                    if not self.contains(delta + i + a):
                        raise ConsistencyError(
                            f"{delta + i} + {a} escapes the ideal: not H-stable"
                        )

    @classmethod
    def from_exponents(cls, semigroup: NumericalSemigroup, gens) -> "RelativeIdeal":
        """The relative ideal generated by a set of integers: union of g + H."""
        gens = sorted(set(int(g) for g in gens))
        if not gens:
            raise ArgumentError("a relative ideal needs at least one generator")
        delta = gens[0]
        c = semigroup.conductor
        mask = 0
        for i in range(c):
            x = delta + i
            if any(g <= x and semigroup.contains(x - g) for g in gens):
                mask |= 1 << i
        return cls(semigroup, delta, mask)

    @classmethod
    def _normalized(cls, semigroup, start, mask, width) -> "RelativeIdeal":
        """Build from any window [start, start+width) whose complement is
        guaranteed to be a subset of [start, start+width) (tail implied)."""
        c = semigroup.conductor
        if mask:
            j = (mask & -mask).bit_length() - 1
        else:
            j = width
        delta = start + j
        out = 0
        for i in range(c):
            pos = delta + i
            if pos >= start + width or (0 <= pos - start and mask >> (pos - start) & 1):
                out |= 1 << i
        return cls(semigroup, delta, out)

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
        delta = self.delta
        end = start + length
        tail_from = delta + self.semigroup.conductor
        result = 0
        t0 = max(start, tail_from)
        if t0 < end:
            result |= ((1 << (end - t0)) - 1) << (t0 - start)
        w0 = max(start, delta)
        w1 = min(end, tail_from)
        if w0 < w1:
            seg = (self._mask >> (w0 - delta)) & ((1 << (w1 - w0)) - 1)
            result |= seg << (w0 - start)
        return result

    def minimal_generators(self):
        """E \\ (E + M) with M = H \\ {0}; always inside [delta, delta + c)."""
        H = self.semigroup
        c = H.conductor
        if c == 0:
            return (self.delta,)
        covered = 0
        for a in H.generators:
            covered |= self.members_mask(self.delta - a, c)
        free = self._mask & ~covered
        return tuple(self.delta + i for i in range(c) if free >> i & 1)

    def mu(self) -> int:
        return len(self.minimal_generators())

    def is_principal(self) -> bool:
        return self.mu() == 1

    # -- arithmetic --------------------------------------------------------

    def _check_same(self, other: "RelativeIdeal"):
        if self.semigroup != other.semigroup:
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
        of E covers the rest).  Every z >= delta_E - delta_F + c passes,
        and no z < delta_E - delta_F can; both bounds are spot-checked.
        """
        self._check_same(other)
        c = self.semigroup.conductor
        gens = other.minimal_generators()
        start = self.delta - other.delta
        mask = 0
        for i in range(c):
            z = start + i
            if all(self.contains(z + g) for g in gens):
                mask |= 1 << i
        for z in (start + c, start + c + 1):
            if not all(self.contains(z + g) for g in gens):
                raise ConsistencyError("colon window bound violated")
        return RelativeIdeal._normalized(self.semigroup, start, mask, c)

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
        """A principal (x) <= E with E^2 = x E, or None.

        For a monomial ideal the only candidate is x = t^delta: E + E and
        x + E have the same exponent sets exactly when delta + E works.
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
