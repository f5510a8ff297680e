"""Seeded input streams and output checks for the four benchmark workloads.

Every workload is a deterministic stream of CLI argument lists drawn from
``random.Random(f"{name}:{seed}")``; the program only ever sees the
generated arguments.  The series and scan streams are endless and stratified
(round-robin over a fixed semigroup pool or fixed conductor bands) so that
the cost mix of a run barely depends on the seed, which keeps run-to-run
spreads small while the inputs themselves differ.  The monomial stream is one
seeded pass over a fixed set of semigroups and then ends, so no input repeats.

The semigroup arithmetic needed to *choose* inputs is done here with a few
lines of independent code, so generating inputs neither calls nor warms
anything inside ``cmtype``.

Why each workload exists (the layer it is meant to move is in README.md):

* ``monomial-sweep``: ``sup-search --bound c+e`` on distinct 3-generator
  semigroups; exercises the monomial bitmask engine (``relideal``) and the
  enumeration in ``constructions``, with no series or linear algebra.
* ``series-fp``: ``ideal analyze --field fp:32003`` on non-monomial proper
  ideals over a small pool of semigroups; exercises ``series``, ``linalg``,
  the rref kernel and ``fracideal``, with companions reused.
* ``series-qq``: the same generator over ``--field qq`` (the CLI's default)
  at small conductors, where ``Fraction`` arithmetic dominates; a change to
  F_p rows that slows QQ, or one that helps only QQ, shows here.
* ``semigroup-scan``: ``semigroup info`` on distinct semigroups with
  conductors in the hundreds to thousands; exercises the conductor-scaling
  paths of ``semigroup`` (gaps, PF, symmetry, the canonical ideal) and the
  JSON output of ``cli``, and never hits a companion cache.
"""

import functools
import heapq
import math
import random

FP_PRIME = 32003


class Semigroup:
    """Just enough numerical-semigroup arithmetic to pick inputs."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        e = gens[0]
        dist = [None] * e
        dist[0] = 0
        heap = [(0, 0)]
        while heap:
            d, r = heapq.heappop(heap)
            if d > dist[r]:
                continue
            for a in gens:
                nd = d + a
                nr = nd % e
                if dist[nr] is None or nd < dist[nr]:
                    dist[nr] = nd
                    heapq.heappush(heap, (nd, nr))
        self.multiplicity = e
        self._apery = dist
        self.conductor = max(dist) - e + 1
        self.generators = tuple(
            g for g in gens if not any(a < g and self.contains(g - a) for a in gens)
        )

    def contains(self, x):
        return x >= 0 and x >= self._apery[x % self.multiplicity]

    def gaps(self):
        return [x for x in range(1, self.conductor) if not self.contains(x)]

    def arg(self):
        return ",".join(map(str, self.generators))


def count_ideals(sg, cap):
    """Number of ideals ``sup-search --bound c+e`` enumerates, or None above cap.

    Those are H plus an upward-closed set of gaps, exactly the sets the
    enumeration walks; counting them here needs no ``cmtype`` call.
    """
    desc = sorted(sg.gaps(), reverse=True)
    index = {g: i for i, g in enumerate(desc)}
    need = []
    for g in desc:
        mask = 0
        for a in sg.generators:
            if g + a in index:
                mask |= 1 << index[g + a]
        need.append(mask)
    n = len(desc)
    count = 0

    def walk(i, chosen):
        nonlocal count
        if count > cap:
            return
        if i == n:
            count += 1
            return
        walk(i + 1, chosen)
        if not need[i] & ~chosen:
            walk(i + 1, chosen | 1 << i)

    walk(0, 0)
    return count if count <= cap else None


# -- monomial-sweep ---------------------------------------------------------

MONOMIAL_CONDUCTOR = (26, 38)
MONOMIAL_IDEALS = (150, 2000)


@functools.cache
def monomial_semigroups():
    """Every 3-generator semigroup with conductor 26-37 whose sweep at bound
    c+e enumerates 150-2000 ideals, sorted by generators.

    A minimal generator is at most F(H) + e, so the loops cover them all.
    143 semigroups qualify, with 63,677 ideals: 35-60 s of work at the seed
    commit on the baseline machine, so a 30 s run covers half or more.  The
    set is finite so that no input repeats.  The narrow conductor
    band keeps the per-ideal cost nearly unimodal; with four bands from 20 to
    60 the median item latency moved up to 30% between runs while the 90th
    percentile moved 10%.
    """
    lo, hi = MONOMIAL_CONDUCTOR
    found = []
    for e in range(3, hi):
        for a in range(e + 1, hi + e):
            for b in range(a + 1, hi + e):
                if math.gcd(e, a, b) != 1:
                    continue
                sg = Semigroup((e, a, b))
                if len(sg.generators) != 3 or not lo <= sg.conductor < hi:
                    continue
                n = count_ideals(sg, MONOMIAL_IDEALS[1])
                if n is not None and n >= MONOMIAL_IDEALS[0]:
                    found.append(sg)
    return tuple(found)


def monomial_sweep(seed):
    """One pass over monomial_semigroups() in a seeded order; then the stream ends.

    No semigroup repeats, so nothing a run measures can come from a cache
    keyed by the whole input.  A program fast enough to finish the pass
    within ``--seconds`` ends the run early.
    """
    semigroups = list(monomial_semigroups())
    random.Random(f"monomial-sweep:{seed}").shuffle(semigroups)
    for sg in semigroups:
        bound = sg.conductor + sg.multiplicity
        yield Item(
            ["sup-search", "--semigroup", sg.arg(), "--bound", str(bound), "--json"], sg
        )


def check_monomial(item, doc):
    """The blow-up of m is enumerated at bound c+e and attains r(R)+e."""
    return doc.get("sup") == doc.get("bound_r_plus_e") and doc.get("witness") is not None


# -- series-fp, series-qq -------------------------------------------------------

# Fixed pools, so that a seed changes the ideals but not the semigroups: the
# cost of an item depends mostly on the conductor, and a seeded pool made the
# run-to-run spread several times larger.  F_p: conductors 14-36, 2-4
# generators.  QQ: conductors 10-15, 2-5 generators, since Fraction arithmetic
# makes the same conductor several times slower.
SERIES_POOL = [(6, 8, 9, 11), (4, 9, 11), (5, 8, 11), (7, 9, 11), (5, 9), (6, 13, 28)]
SERIES_QQ_POOL = [(3, 7), (4, 6, 9), (5, 7, 9), (4, 9, 11), (5, 6, 7), (6, 7, 8, 9, 10)]


def series_fp(seed):
    return series_items("series-fp", SERIES_POOL, f"fp:{FP_PRIME}", seed)


def series_qq(seed):
    return series_items("series-qq", SERIES_QQ_POOL, "qq", seed)


def series_items(name, pool, field, seed):
    """Non-monomial proper ideals over ``field``, round-robin over the pool.

    Every term's exponent lies in H minus {0}, so the ideal sits inside m and
    is proper.  The shape cycles with the round (2 or 3 generators; the first
    has 2 or 3 terms, so the series engine is used; the others 1 or 2 terms),
    and the seed draws exponents and coefficients (1 to p-1, over QQ too), so
    every seed gets the same mix of shapes.
    """
    pool = [Semigroup(gens) for gens in pool]
    rng = random.Random(f"{name}:{seed}")
    i = 0
    while True:
        sg = pool[i % len(pool)]
        rnd = i // len(pool)
        i += 1
        e = sg.multiplicity
        elems = [x for x in range(1, sg.conductor + 2 * e) if sg.contains(x)]
        ngens = 2 + rnd % 2
        gens = []
        for j in range(ngens):
            nterms = 2 + rnd // 2 % 2 if j == 0 else 1 + (rnd // 4 + j) % 2
            exps = sorted(rng.sample(elems, nterms))
            gens.append(" + ".join(f"{rng.randint(1, FP_PRIME - 1)}*t^{x}" for x in exps))
        text = ", ".join(gens)
        yield Item(
            ["ideal", "analyze", "--semigroup", sg.arg(), "--gens", text,
             "--field", field, "--json"],
            sg,
        )


def check_series(item, doc):
    return doc.get("report", {}).get("consistent") is True


# -- semigroup-scan -----------------------------------------------------------

SCAN_CONDUCTOR = (300, 3000)
SCAN_BANDS = 10


def _scan_semigroup(rng, k, lo, hi, seen):
    """A random k-generator semigroup with conductor in [lo, hi), unseen if possible.

    The 2-generator semigroups of a band are a few hundred; once a long run
    has drawn them all, repeats are allowed rather than searching forever.
    ``seen`` holds the generators drawn so far, which distinctness needs.
    """
    drawn = None
    for _ in range(10000):
        if k == 2:
            # <a, b> has conductor (a-1)(b-1): draw b inside the band directly.
            a = rng.randint(3, math.isqrt(hi) + 1)
            b_lo = max(a + 1, -(-lo // (a - 1)) + 1)
            b_hi = (hi - 1) // (a - 1) + 1
            if b_lo > b_hi:
                continue
            gens = [a, rng.randint(b_lo, b_hi)]
        else:
            e = rng.randint(12, 90)
            gens = [e, rng.randint(e + 1, 2 * e), rng.randint(e + 1, 2 * e)]
        if math.gcd(*gens) != 1:
            continue
        sg = Semigroup(gens)
        if len(sg.generators) == k and lo <= sg.conductor < hi:
            drawn = sg
            if sg.generators not in seen:
                break
    seen.add(drawn.generators)
    return drawn


def semigroup_scan(seed):
    """Distinct 2-3-generator semigroups, conductors log-spread over 300-3000.

    Item i takes band i mod 10 and alternates 2 and 3 generators per round,
    so every run sees the same mix of sizes and shapes.
    """
    rng = random.Random(f"semigroup-scan:{seed}")
    lo, hi = SCAN_CONDUCTOR
    edges = [round(lo * (hi / lo) ** (j / SCAN_BANDS)) for j in range(SCAN_BANDS + 1)]
    seen = set()
    i = 0
    while True:
        band = i % SCAN_BANDS
        k = 2 + (i // SCAN_BANDS + i) % 2
        i += 1
        sg = _scan_semigroup(rng, k, edges[band], edges[band + 1], seen)
        yield Item(["semigroup", "info", sg.arg(), "--json"], sg)


def check_scan(item, doc):
    """type == |PF(H)| and the canonical ideal needs exactly type generators."""
    info = doc.get("semigroup", {})
    r = info.get("type")
    return (
        r == len(info.get("pseudo_frobenius", ()))
        and r == len(info.get("canonical_ideal_generators", ()))
        and info.get("conductor") == item.semigroup.conductor
    )


# -- registry -----------------------------------------------------------------


class Item:
    """One CLI invocation and the semigroup it was generated from."""

    __slots__ = ("argv", "semigroup")

    def __init__(self, argv, semigroup):
        self.argv = argv
        self.semigroup = semigroup


class Workload:
    def __init__(self, name, items, check, pool=(), field="qq", trace_commands=100):
        self.name = name
        self.items = items  # seed -> iterator of Item
        self.check = check  # (item, --json document) -> bool
        self.pool = pool  # generators of the semigroups whose companions set-up builds
        self.field = field  # field of those companions: "qq" or "fp:<prime>"
        self.trace_commands = trace_commands  # commands in a traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("monomial-sweep", monomial_sweep, check_monomial, trace_commands=8),
        Workload("series-fp", series_fp, check_series, pool=SERIES_POOL,
                 field=f"fp:{FP_PRIME}"),
        Workload("series-qq", series_qq, check_series, pool=SERIES_QQ_POOL),
        Workload("semigroup-scan", semigroup_scan, check_scan),
    )
}
