"""Numerical semigroup combinatorics.

A numerical semigroup H = <a_1, ..., a_l> (gcd 1) is the exponent
monoid of the monomial curve ring R = k[[t^{a_1}, ..., t^{a_l}]].  Every
invariant is read off the Apery set Ap(H, e) of the multiplicity e, the
least member of H in each residue class mod e, or off the membership
bitmask of [0, c) that it determines (Rosales & Garcia-Sanchez, Numerical
Semigroups, 2009, ch. 1-4):

  * the Frobenius number F = max Ap(H, e) - e and the conductor c = F + 1;
  * the pseudo-Frobenius numbers PF(H) = {w - e : w maximal in Ap(H, e)
    under <=_H}, whose count is the Cohen-Macaulay type of R, found with
    one mask AND per minimal generator;
  * symmetry (the Gorenstein property): the mask of H on [0, F] is the
    complement of its own bit reversal;
  * maximal embedding dimension, and the gap-dual set K = {x : F - x not
    in H}, a fractional canonical ideal generated by F - PF(H).
"""

import heapq
import itertools
import math

from .errors import ArgumentError, ConsistencyError, ResourceLimitError

# H's member mask and every conductor-wide step after it grow with the
# conductor c: on a 2-vCPU machine, c = 999,000 (<1000,1001>) builds in about
# 0.2 s, and `semigroup info`, which lists every gap, takes 0.4 s and 77 MB and
# writes 6.9 MB of --json; at c = 36 M it takes 62 s, 2.2 GB and 278 MB.  Above
# the cap the constructor refuses H once c is read off the Apery set, before
# the mask is built, and a multiplicity e above it (c >= e) before the Apery set.
SEMIGROUP_CONDUCTOR_LIMIT = 10**6


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
        "_relative_companions",
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
        if e > SEMIGROUP_CONDUCTOR_LIMIT:
            # 1, ..., e - 1 are gaps, so c >= e: refused before the e-entry Apery set
            raise _over_the_cap(f"conductor (at least the multiplicity {e})", gens)
        self.multiplicity = e
        self._apery_mod_e = _apery_by_shortest_path(gens, e)
        self.frobenius = max(self._apery_mod_e) - e
        c = self.conductor = self.frobenius + 1
        if c > SEMIGROUP_CONDUCTOR_LIMIT:
            raise _over_the_cap(f"conductor {c}", gens)

        # H on [0, c) is w, w + e, w + 2e, ... for each Apery element w;
        # the stride sets bits 0, e, ..., (n - 1)e, a geometric series in 2^e.
        n = c // e + 1
        stride = ((1 << e * n) - 1) // ((1 << e) - 1)
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
        # R, K and m as relative ideals, each built by ``relideal`` on first use
        self._relative_companions = [None, None, None]

    def contains(self, z: int) -> bool:
        if z < 0:
            return False
        if z >= self.conductor:
            return True
        return bool(self._member_mask >> z & 1)

    def members(self, start: int, stop: int):
        """Members of H in [start, stop), ascending: the set bits of the
        member mask in [start, min(stop, c)), then every integer from c on."""
        start, c = max(start, 0), self.conductor
        window = self._member_mask >> start << start & ((1 << min(max(stop, 0), c)) - 1)
        return _set_bits(window) + list(range(max(start, c), stop))

    def gaps(self):
        """All nonnegative integers not in H, in increasing order."""
        return _set_bits(((1 << self.conductor) - 1) & ~self._member_mask)

    def apery(self, n: int):
        """Ap(H, n), ascending: the least member of H in each class mod n.
        Ap(H, e) is kept from construction; any other n is one shortest-path
        search on Z/n (``_apery_by_shortest_path``)."""
        if n <= 0 or not self.contains(n):
            raise ArgumentError(f"Apery set needs a positive member of H, got {n}")
        if n == self.multiplicity:
            return tuple(sorted(self._apery_mod_e))
        return tuple(sorted(_apery_by_shortest_path(self.generators, n)))

    def _maximal_apery_pf(self):
        # w in Ap(H, e) is maximal under <=_H iff no w + a (a a minimal
        # generator) is in Ap(H, e), i.e. iff every w + a - e lies in H.
        # With h the mask of H (its tail set to infinity), bit w of
        # h >> (a - e) says whether w + a - e is in H, so one AND per
        # generator marks every such w at once.
        e = self.multiplicity
        if e == 1:
            return (-1,)
        h = self._member_mask | -(1 << self.conductor)
        keep = -1
        for a in self.generators:
            keep &= h >> (a - e)
        return tuple(sorted(w - e for w in self._apery_mod_e if w and keep >> w & 1))

    def pseudo_frobenius(self):
        """PF(H): gaps x with x + h in H for every nonzero h in H.

        Computed once, at construction, as {w - e : w in Ap(H, e) maximal
        under <=_H} (Rosales & Garcia-Sanchez, ch. 2): one mask AND per
        minimal generator, then one bit test per Apery element.  For H
        equal to the whole of Z>=0 this is {-1} (= Frobenius number),
        giving type 1 for the DVR.  An error
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

    def invariants(self) -> dict:
        """The eight invariant keys of the ``"semigroup"`` object that
        ``semigroup info --json`` and ``ideal analyze --json`` print, after
        three consistency checks: symmetric iff type 1, max PF(H) = F, and
        type e - 1 for maximal embedding dimension."""
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
        return {
            "multiplicity": e,
            "embedding_dimension": v,
            "frobenius": self.frobenius,
            "conductor": self.conductor,
            "type": r,
            "gorenstein": sym,
            "med": med,
            "dvr": e == 1,
        }

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
        the gap-dual set, compared as two masks on [0, c) (K's window and
        the complement of H's reversed mask, which needs no PF(H)), and
        mu(K) must equal the type.  The first wrong exponent reported is
        the lowest set bit of the masks' XOR.
        """
        from .relideal import RelativeIdeal

        F = self.frobenius
        K = RelativeIdeal.from_exponents(self, {F - x for x in self.pseudo_frobenius()})
        diff = K.members_mask(0, self.conductor) ^ self._gap_dual_mask()
        if K.delta != 0 or diff:
            wrong = (diff & -diff).bit_length() - 1 if diff else K.delta
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


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _set_bits(mask: int):
    """Positions of the set bits of a nonnegative mask, ascending.

    The reversed binary digits become a bytes object of 0s and 1s, which
    selects from range(bit_length) in C: no Python step per bit.
    """
    flags = bin(mask)[:1:-1].encode().translate(_BIT_BYTES)
    return list(itertools.compress(range(len(flags)), flags))


def _over_the_cap(what, gens):
    # the minimal generators are read off the mask, so name the input
    return ResourceLimitError(
        f"{what} of <{','.join(map(str, gens))}> exceeds the cap "
        f"SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT}"
    )


def _apery_by_shortest_path(gens, n):
    """Least member of H in each residue class mod n, via Dijkstra on Z/n.

    With one step b (the other generators multiples of n), gcd(b, n) = 1, as
    gcd(H) = 1, and a member i n + j b lies in the class of k b iff j = k mod
    n, so for k < n the least member of that class is k b: no search.
    """
    steps = [a for a in gens if a % n]  # a multiple of n stays in its class
    if len(steps) == 1:
        b = steps[0]
        dist = [0] * n
        for k in range(1, n):
            dist[k * b % n] = k * b
        return dist
    dist = [None] * n
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > dist[r]:  # a popped class has a distance
            continue
        for a in steps:
            nd = d + a
            nr = nd % n
            if dist[nr] is None or nd < dist[nr]:
                dist[nr] = nd
                heapq.heappush(heap, (nd, nr))
    return dist
