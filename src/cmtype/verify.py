"""Built-in verification suite: every numeric statement reproduced exactly.

Each group bundles the cases around one worked example or one identity
family.  Cases compare computed integers and booleans against the stated
values with exact equality; a group passes only if all its cases do.
"""

import math
import random

from .constructions import (
    blowup_ring,
    dual_family_ideal,
    med_family_ideal,
    pf_family_ideal,
    sup_search,
)
from .fracideal import FractionalIdeal
from .linalg import GF
from .relideal import RelativeIdeal
from .semigroup import NumericalSemigroup
from .series import parse_series
from .typecalc import (
    classify,
    idealization_type,
    is_residually_faithful,
    is_trace,
    is_ulrich_ideal,
    is_ulrich_module_wrt,
    module_type,
    quotient_type,
)


def _case(group, case, expected, computed):
    """One ``cases`` entry of the ``verify paper --json`` document; it passes
    when the raw values are equal, before both are printed as strings."""
    return {
        "group": group,
        "case": case,
        "expected": str(expected),
        "computed": str(computed),
        "passed": expected == computed,
    }


def random_non_dvr_semigroup(rng: random.Random, max_gen: int = 30) -> NumericalSemigroup:
    while True:
        k = rng.randint(2, 4)
        gens = sorted(rng.sample(range(2, max_gen + 1), k))
        if math.gcd(*gens) == 1:
            return NumericalSemigroup(gens)


def _closing_example():
    H = NumericalSemigroup([3, 4, 5])
    out = [_case("closing-example", "r(R)", 2, H.type())]
    I = RelativeIdeal.from_exponents(H, {3, 4})
    J = RelativeIdeal.from_exponents(H, {3, 5})
    m = RelativeIdeal.from_exponents(H, {3, 4, 5})
    ri = classify(I)
    out += [
        _case("closing-example", "I=(t3,t4) r(RxI)", 1, ri["r_idealization"]),
        _case("closing-example", "I=(t3,t4) r_R(I)", 1, ri["module_type"]),
        _case("closing-example", "I=(t3,t4) closed", True, ri["flags"]["is_closed"]),
    ]
    rj = classify(J)
    out += [
        _case("closing-example", "J=(t3,t5) r(RxJ)", 3, rj["r_idealization"]),
        _case("closing-example", "J=(t3,t5) r_R(J)", 2, rj["module_type"]),
    ]
    rm = classify(m)
    out += [
        _case("closing-example", "m r_R(m)", 3, rm["module_type"]),
        _case("closing-example", "m r(Rxm)", 5, rm["r_idealization"]),
    ]
    return out


def _remark_456():
    H = NumericalSemigroup([4, 5, 6])
    I = RelativeIdeal.from_exponents(H, {8, 9})
    rep = classify(I)
    return [
        _case("remark-4-5-6", "r(R/I)", 2, rep["quotient_type"]),
        _case("remark-4-5-6", "r_R(I)", 2, rep["module_type"]),
        _case("remark-4-5-6", "r(RxI)", 3, rep["r_idealization"]),
    ]


def _trace_456():
    H = NumericalSemigroup([4, 5, 6])
    F5 = GF(5)
    out = []
    monomials = {
        "(t8,t9,t10,t11)": {8, 9, 10, 11},
        "(t6,t8,t9)": {6, 8, 9},
        "(t5,t6,t8)": {5, 6, 8},
        "m": {4, 5, 6},
    }
    ideals = {name: RelativeIdeal.from_exponents(H, exps) for name, exps in monomials.items()}
    family = {}
    for a in range(5):
        gens = [parse_series(f"t^4 - {a}*t^5", F5), parse_series("t^6", F5)]
        family[f"I_{a}"] = FractionalIdeal.from_generators(H, F5, gens)
    ideals["I_0 (monomial engine)"] = RelativeIdeal.from_exponents(H, {4, 6})
    ideals.update({k: v for k, v in family.items() if k != "I_0"})
    for name, I in ideals.items():
        out.append(_case("trace-4-5-6", f"{name} trace", True, is_trace(I)))
        out.append(
            _case(
                "trace-4-5-6",
                f"{name} r(RxI) = 2 + r(R/I)",
                2 + quotient_type(I),
                idealization_type(I).value,
            )
        )
    distinct = all(
        family[f"I_{a}"] != family[f"I_{b}"] for a in range(5) for b in range(a + 1, 5)
    )
    out.append(_case("trace-4-5-6", "I_a pairwise distinct (a=0..4)", True, distinct))
    return out


def _ulrich_37():
    H = NumericalSemigroup([3, 7])
    F5 = GF(5)
    out = []
    for a in range(1, 5):
        gens = [parse_series(f"t^6 - {a}*t^7", F5), parse_series("t^10", F5)]
        I = FractionalIdeal.from_generators(H, F5, gens)
        out.append(_case("ulrich-3-7", f"a={a} Ulrich", True, is_ulrich_ideal(I)))
        out.append(_case("ulrich-3-7", f"a={a} r(RxI)", 3, idealization_type(I).value))
    mono = RelativeIdeal.from_exponents(H, {6, 10})
    out.append(_case("ulrich-3-7", "(t6,t10) not Ulrich", False, is_ulrich_ideal(mono)))
    return out


def _ulrich_6_13_28():
    H = NumericalSemigroup([6, 13, 28])
    F3 = GF(3)
    tail = ["t^24", "t^26", "t^28"]
    reps = {
        "(i) a=1": "t^6 + 1*t^13",
        "(ii) a=1,b=2": "t^12 + 1*t^13 + 2*t^19",
        "(iii) a=2": "t^18 + 2*t^25",
    }
    out = []
    for name, head in reps.items():
        gens = [parse_series(s, F3) for s in [head] + tail]
        I = FractionalIdeal.from_generators(H, F3, gens)
        out += [
            _case("ulrich-6-13-28", f"{name} Ulrich", True, is_ulrich_ideal(I)),
            _case("ulrich-6-13-28", f"{name} mu", 3, I.mu()),
            _case("ulrich-6-13-28", f"{name} r(R/I)", 1, quotient_type(I)),
            _case("ulrich-6-13-28", f"{name} r(RxI)", 5, idealization_type(I).value),
        ]
    mono = RelativeIdeal.from_exponents(H, {6, 24, 26, 28})
    out += [
        _case("ulrich-6-13-28", "(i) a=0 Ulrich", True, is_ulrich_ideal(mono)),
        _case("ulrich-6-13-28", "(i) a=0 mu", 3, mono.mu()),
        _case("ulrich-6-13-28", "(i) a=0 r(RxI)", 5, idealization_type(mono).value),
    ]
    return out


def _module_9_15():
    H = NumericalSemigroup([9, 10, 11, 12, 15])
    K = H.canonical_relative_ideal()
    I = RelativeIdeal.from_exponents(H, {0, 1})
    out = [
        _case("module-9-10-11-12-15", "mu(K)", 4, K.mu()),
        _case("module-9-10-11-12-15", "mu(I)", 2, I.mu()),
        _case("module-9-10-11-12-15", "(K:I)I = K", True, K.colon(I).multiply(I) == K),
        _case(
            "module-9-10-11-12-15",
            "residually faithful",
            True,
            is_residually_faithful(I),
        ),
        _case(
            "module-9-10-11-12-15",
            "r(RxI) = r_R(I)",
            module_type(I),
            idealization_type(I).value,
        ),
    ]
    return out


def _maximal_ideal_random():
    rng = random.Random(20260809)
    out = []
    for i in range(25):
        H = random_non_dvr_semigroup(rng)
        m = RelativeIdeal.from_exponents(H, H.generators)
        r = H.type()
        rep = classify(m)
        out.append(
            _case(
                "maximal-ideal-random",
                f"#{i} {H} r_R(m) = r+1 and r(Rxm) = 2r+1",
                (r + 1, 2 * r + 1),
                (rep["module_type"], rep["r_idealization"]),
            )
        )
    return out


def _blowup_sup():
    out = []
    for gens in [[3, 4, 5], [3, 7], [4, 5, 6], [6, 13, 28]]:
        H = NumericalSemigroup(gens)
        e, r = H.multiplicity, H.type()
        A = blowup_ring(H)
        out += [
            _case("blowup-sup", f"{H} mu(A) = e", e, A.mu()),
            _case("blowup-sup", f"{H} A Ulrich wrt m", True, is_ulrich_module_wrt(A)),
            _case("blowup-sup", f"{H} r(RxA)", r + e, idealization_type(A).value),
        ]
        value, _ = sup_search(H, H.conductor + e)
        out.append(_case("blowup-sup", f"{H} sup over bound c+e", r + e, value))
    H1 = NumericalSemigroup([1])
    value, witness = sup_search(H1, 1)
    out.append(_case("blowup-sup", "<1> sup", 1, value))
    out.append(_case("blowup-sup", "<1> witness is R", True, witness == witness.unit_ideal()))
    return out


def _families():
    out = []
    for gens in [[3, 4, 5], [5, 6, 7, 8, 9]]:
        H = NumericalSemigroup(gens)
        r = H.type()
        for p in range(1, r + 1):
            I = pf_family_ideal(H, p)
            it = idealization_type(I)
            out.append(
                _case(
                    "pf-family",
                    f"{H} p={p} r(RxI) = (r-p+1) + r_R",
                    (r - p + 1) + it.module_type,
                    it.value,
                )
            )
            D = dual_family_ideal(H, p)
            out.append(
                _case(
                    "dual-family",
                    f"{H} p={p} r(RxI^v) = 2r-2p+3",
                    2 * r - 2 * p + 3,
                    idealization_type(D).value,
                )
            )
        ell = H.embedding_dimension
        for p in range(2, ell + 1):
            I = med_family_ideal(H, p)
            it = idealization_type(I)
            out.append(
                _case(
                    "med-family",
                    f"{H} p={p} r_R(I_p)",
                    ell if p == 2 else ell - 1,
                    it.module_type,
                )
            )
            out.append(
                _case(
                    "med-family",
                    f"{H} p={p} r(RxI_p) = (l-p+1) + r_R",
                    (ell - p + 1) + it.module_type,
                    it.value,
                )
            )
    return out


GROUPS = {
    "closing-example": _closing_example,
    "remark-4-5-6": _remark_456,
    "trace-4-5-6": _trace_456,
    "ulrich-3-7": _ulrich_37,
    "ulrich-6-13-28": _ulrich_6_13_28,
    "module-9-10-11-12-15": _module_9_15,
    "maximal-ideal-random": _maximal_ideal_random,
    "blowup-sup": _blowup_sup,
    "families": _families,
}


def available_groups():
    return sorted(GROUPS)


def run(name_filter: str | None = None):
    """All cases whose group name contains the filter substring."""
    results = []
    for name, fn in GROUPS.items():
        if name_filter and name_filter not in name:
            continue
        results.extend(fn())
    return results
