"""Numerical semigroup combinatorics.

A numerical semigroup H = <a_1, ..., a_l> (gcd 1) is the exponent
monoid of the monomial curve ring R = k[[t^{a_1}, ..., t^{a_l}]].  Every
invariant is read off the Apery set Ap(H, e) of the multiplicity e, the
least member of H in each residue class mod e, or off the membership
bitmask of [0, c) that it determines (Rosales & Garcia-Sanchez, Numerical
Semigroups, 2009, ch. 1-4):

  * the Frobenius number F = max Ap(H, e) - e and the conductor c = F + 1;
  * the pseudo-Frobenius numbers PF(H) = {w - e : w maximal in Ap(H, e)
    under <=_H}, whose count is the Cohen-Macaulay type of R;
  * symmetry (the Gorenstein property): the mask of H on [0, F] is the
    complement of its own bit reversal;
  * maximal embedding dimension, and the gap-dual set K = {x : F - x not
    in H}, a fractional canonical ideal generated by F - PF(H).
"""

import heapq
import math
from dataclasses import dataclass

from .errors import ArgumentError, ConsistencyError


class NumericalSemigroup:
    """Immutable; membership queries on [0, conductor) hit a bit table."""

    __slots__ = (
        "generators",
        "multiplicity",
        "embedding_dimension",
        "frobenius",
        "conductor",
        "_apery_mod_e",
        "_member_mask",
        "_pseudo_frobenius",
    )

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise ArgumentError("at least one generator is required")
        if gens[0] <= 0:
            raise ArgumentError("generators must be positive")
        if math.gcd(*gens) != 1:
            raise ArgumentError(f"gcd({', '.join(map(str, gens))}) != 1: not a numerical semigroup")

        e = gens[0]
        self.multiplicity = e
        self._apery_mod_e = _apery_by_shortest_path(gens, e)
        self.frobenius = max(self._apery_mod_e) - e
        c = self.conductor = self.frobenius + 1

        # H on [0, c) is w, w + e, w + 2e, ... for each Apery element w.
        stride = int(("0" * (e - 1) + "1") * (c // e + 1), 2)
        mask = 0
        for w in self._apery_mod_e:
            if w < c:
                mask |= stride << w
        self._member_mask = mask & ((1 << c) - 1)

        # g is redundant iff g = a + h with a < g a given generator, h in H
        self.generators = tuple(
            g for g in gens if not any(a < g and self.contains(g - a) for a in gens)
        )
        self.embedding_dimension = len(self.generators)
        self._pseudo_frobenius = self._maximal_apery_pf()

    def contains(self, z: int) -> bool:
        if z < 0:
            return False
        if z >= self.conductor:
            return True
        return bool(self._member_mask >> z & 1)

    def members(self, start: int, stop: int):
        """Members of H in [start, stop)."""
        return [z for z in range(max(start, 0), stop) if self.contains(z)]

    def gaps(self):
        """All nonnegative integers not in H, in increasing order."""
        return _set_bits(((1 << self.conductor) - 1) & ~self._member_mask)

    def apery(self, n: int):
        """Ap(H, n): for each residue class mod n, the least member of H."""
        if n <= 0 or not self.contains(n):
            raise ArgumentError(f"Apery set needs a positive member of H, got {n}")
        if n == self.multiplicity:
            return tuple(sorted(self._apery_mod_e))
        out = []
        for r in range(n):
            x = r
            while not self.contains(x):
                x += n
            out.append(x)
        return tuple(sorted(out))

    def _maximal_apery_pf(self):
        # w in Ap(H, e) is maximal under <=_H iff no w + a (a a minimal
        # generator) is in Ap(H, e), i.e. iff every w + a - e lies in H.
        e = self.multiplicity
        if e == 1:
            return (-1,)
        return tuple(sorted(
            w - e
            for w in self._apery_mod_e
            if w and all(self.contains(w + a - e) for a in self.generators)
        ))

    def pseudo_frobenius(self):
        """PF(H): gaps x with x + h in H for every nonzero h in H.

        Computed once, at construction, as {w - e : w in Ap(H, e) maximal
        under <=_H} (Rosales & Garcia-Sanchez, ch. 2): O(e l) instead
        of a scan of the gaps.  For H equal to the whole of Z>=0 this is
        {-1} (= Frobenius number), giving type 1 for the DVR.  An error
        here is caught by canonical_relative_ideal, which checks the ideal
        generated by F - PF(H) against the gap-dual set.
        """
        return self._pseudo_frobenius

    def type(self) -> int:
        return len(self._pseudo_frobenius)

    def is_symmetric(self) -> bool:
        """For every z in [0, F] exactly one of z, F - z lies in H.

        That is, the mask of H on [0, F] equals the gap-dual mask, the
        complement of its bit reversal.
        """
        return self._member_mask == self._gap_dual_mask()

    def _gap_dual_mask(self) -> int:
        """Bit x set, for x in [0, c), iff F - x is not in H."""
        c = self.conductor
        if c == 0:
            return 0
        reversed_mask = int(format(self._member_mask, f"0{c}b")[::-1], 2)
        return ((1 << c) - 1) & ~reversed_mask

    def invariants(self) -> "SemigroupInvariants":
        pf = self.pseudo_frobenius()
        r = len(pf)
        sym = self.is_symmetric()
        if sym != (r == 1):
            raise ConsistencyError(
                f"symmetry scan ({sym}) disagrees with type {r} for {self}"
            )
        if max(pf) != self.frobenius:
            raise ConsistencyError(
                f"max PF {max(pf)} != Frobenius {self.frobenius} for {self}"
            )
        e, v = self.multiplicity, self.embedding_dimension
        med = v == e
        if med and e >= 2 and r != e - 1:
            raise ConsistencyError(f"MED semigroup {self} has type {r} != e - 1 = {e - 1}")
        return SemigroupInvariants(
            multiplicity=e,
            embedding_dimension=v,
            frobenius=self.frobenius,
            conductor=self.conductor,
            type=r,
            is_symmetric=sym,
            is_med=med,
            is_dvr=e == 1,
        )

    def canonical_exponents(self):
        """Window part of the gap-dual set K = {x : F - x not in H}.

        K is a fractional canonical ideal with R <= K <= normalization;
        its full exponent set is these values plus every integer >= c.
        Read off the bit reversal of H's mask on [0, F], independently of
        PF(H).
        """
        return tuple(_set_bits(self._gap_dual_mask()))

    def canonical_relative_ideal(self):
        """K = {x : F - x not in H}, built from its r generators F - PF(H).

        Each generator contributes one shifted copy of H's mask, so this
        costs O(r c) bit operations.  Two checks guard it: K must equal
        the gap-dual set of canonical_exponents, computed from the
        reversed mask without PF(H), and mu(K) must equal the type.
        """
        from .relideal import RelativeIdeal

        F = self.frobenius
        K = RelativeIdeal.from_exponents(self, {F - x for x in self.pseudo_frobenius()})
        dual = self.canonical_exponents()
        window = tuple(_set_bits(K.members_mask(0, self.conductor)))
        if K.delta != 0 or window != dual:
            wrong = min(set(window).symmetric_difference(dual), default=K.delta)
            raise ConsistencyError(
                f"canonical ideal of {self} generated by F - PF(H) = "
                f"{sorted(F - x for x in self.pseudo_frobenius())} differs from the "
                f"gap-dual set {{x : {F} - x not in H}} at {wrong}"
            )
        if K.mu() != self.type():
            raise ConsistencyError(
                f"canonical ideal of {self} has {K.mu()} generators but type is {self.type()}"
            )
        return K

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"<{','.join(map(str, self.generators))}>"


@dataclass(frozen=True)
class SemigroupInvariants:
    multiplicity: int
    embedding_dimension: int
    frobenius: int
    conductor: int
    type: int
    is_symmetric: bool
    is_med: bool
    is_dvr: bool

    def to_dict(self):
        return {
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
            "frobenius": self.frobenius,
            "conductor": self.conductor,
            "type": self.type,
            "gorenstein": self.is_symmetric,
            "med": self.is_med,
            "dvr": self.is_dvr,
        }


def _set_bits(mask: int):
    """Positions of the set bits of a nonnegative mask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _apery_by_shortest_path(gens, e):
    """Least member of H in each residue class mod e, via Dijkstra on Z/e."""
    dist = [None] * e
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None and d > dist[r]:
            continue
        for a in gens:
            nd = d + a
            nr = nd % e
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist
