"""Set-up of a benchmark process: import ``cmtype`` and build companions.

Run as a script, it is exactly the set-up that ``setup_s`` times, in a fresh
interpreter that loads nothing of the benchmark's own:

    python3 -S -E perfbench/warm.py SRC FIELD [GENERATORS ...]

e.g. ``... src fp:32003 4,9,11 5,9``.  It imports ``cmtype.cli`` from SRC,
builds the unit, canonical and maximal companions of each semigroup (as
relative ideals and as fractional ideals over FIELD, ``qq`` or
``fp:<prime>``), and prints ``time.perf_counter()`` when done.  On Linux
that clock is CLOCK_MONOTONIC, shared with the process that spawned it.
"""

import sys
import time


def warm_companions(generators, field):
    """Fill the companion caches of ``relideal`` and ``fracideal`` for each semigroup."""
    from cmtype.fracideal import FractionalIdeal
    from cmtype.linalg import GF, QQ
    from cmtype.relideal import RelativeIdeal
    from cmtype.semigroup import NumericalSemigroup

    field = QQ if field == "qq" else GF(int(field.removeprefix("fp:")))
    for gens in generators:
        unit = RelativeIdeal.from_exponents(NumericalSemigroup(gens), {0})
        for ideal in (unit, FractionalIdeal.from_relative(unit, field)):
            ideal.unit_ideal()
            ideal.canonical_ideal()
            ideal.maximal_ideal()


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import cmtype.cli  # noqa: F401

    warm_companions([tuple(map(int, g.split(","))) for g in sys.argv[3:]], sys.argv[2])
    print(repr(time.perf_counter()))
