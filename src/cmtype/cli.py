"""Command-line front end.

Subcommands: `semigroup info`, `ideal analyze`, `verify paper`,
`sup-search`, `enumerate`.  Exit codes: 0 success, 1 mathematical
inconsistency (a disagreement between the two type formulas, or a failed
built-in verification case), 2 input error.  With --json the output is a
deterministic report document (sorted keys) that round-trips through the
json module byte-identically.
"""

import argparse
import json
import sys
import time

from . import verify
from .constructions import enumerate_monomial_ideals, sup_search
from .errors import ArgumentError, CmtypeError, ConsistencyError, ParseError
from .fracideal import FractionalIdeal
from .linalg import GF, QQ
from .relideal import RelativeIdeal
from .semigroup import NumericalSemigroup
from .series import parse_generators
from .typecalc import classify

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2

# `enumerate` yields the delta-0 shift of each ideal, which contains R, so only
# the flags that do not change under a shift mean anything there: is_trace
# holds only for R itself and is_ulrich_ideal never does.
_FILTER_FLAGS = {
    "closed": "is_closed",
    "residually-faithful": "is_residually_faithful",
    "ulrich-wrt-m": "is_ulrich_module_wrt_m",
    "canonical": "is_canonical",
    "principal": "is_principal",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmtype",
        description="Cohen-Macaulay types of idealizations over numerical semigroup rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sg = sub.add_parser("semigroup", help="numerical semigroup queries")
    sg_sub = p_sg.add_subparsers(dest="subcommand", required=True)
    p_info = sg_sub.add_parser("info", help="invariants of a numerical semigroup")
    p_info.add_argument("generators", help="comma-separated generators, e.g. 3,7")
    p_info.add_argument("--json", action="store_true")

    p_ideal = sub.add_parser("ideal", help="fractional ideal analysis")
    ideal_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p_an = ideal_sub.add_parser("analyze", help="classify an ideal and compute its types")
    p_an.add_argument("--semigroup", required=True, help="comma-separated generators")
    p_an.add_argument("--gens", required=True, help="comma-separated series expressions")
    p_an.add_argument("--field", default="qq", help="qq or fp:<prime> (default qq)")
    p_an.add_argument("--engine", default="auto", choices=["auto", "monomial", "series"])
    p_an.add_argument("--json", action="store_true")

    p_ver = sub.add_parser("verify", help="verification suites")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    p_paper = ver_sub.add_parser("paper", help="run the built-in example suite")
    p_paper.add_argument("--filter", default=None, help="substring of a group name")
    p_paper.add_argument("--json", action="store_true")

    p_sup = sub.add_parser("sup-search", help="maximize the idealization type")
    p_sup.add_argument("--semigroup", required=True)
    p_sup.add_argument("--bound", type=int, required=True)
    p_sup.add_argument("--limit", type=int, default=200000, help="enumeration cap")
    p_sup.add_argument("--json", action="store_true")

    p_enum = sub.add_parser("enumerate", help="list shift-normalized monomial ideals")
    p_enum.add_argument("--semigroup", required=True)
    p_enum.add_argument("--bound", type=int, required=True)
    p_enum.add_argument("--filter", default=None, choices=sorted(_FILTER_FLAGS),
                        help="keep only ideals with this flag")
    p_enum.add_argument("--limit", type=int, default=200000, help="enumeration cap")
    p_enum.add_argument("--json", action="store_true")

    return parser


def _parse_semigroup(text: str) -> NumericalSemigroup:
    try:
        gens = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ArgumentError(f"could not read generators from {text!r}") from None
    if not gens:
        raise ArgumentError("no generators given")
    return NumericalSemigroup(gens)


def _parse_field(text: str):
    text = text.strip().lower()
    if text == "qq":
        return QQ
    if text.startswith("fp:"):
        try:
            p = int(text[3:])
        except ValueError:
            raise ArgumentError(f"bad modulus in {text!r}") from None
        return GF(p)
    raise ArgumentError(f"unknown field {text!r}; use qq or fp:<prime>")


def _build_ideal(H, field, gens, engine: str):
    """Engine selection: monomial exponent sets when every generator is a
    single term, the series engine otherwise (or when forced)."""
    monomial = all(len(g.coeffs) == 1 for g in gens)
    if engine == "auto":
        engine = "monomial" if monomial else "series"
    if engine == "monomial":
        if not monomial:
            raise ArgumentError("the monomial engine needs single-term generators")
        return RelativeIdeal.from_exponents(H, {g.order for g in gens})
    return FractionalIdeal.from_generators(H, field, gens)


def _document(command: str, input_echo: dict, body: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "input": input_echo,
        "timing_ms": round((time.perf_counter() - started) * 1000, 3),
        **body,
    }


def _emit(doc: dict, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _cmd_semigroup_info(args) -> int:
    started = time.perf_counter()
    H = _parse_semigroup(args.generators)
    inv = H.invariants()
    body = {
        "semigroup": {
            "generators": list(H.generators),
            **inv.to_dict(),
            "pseudo_frobenius": list(H.pseudo_frobenius()),
            "apery_of_multiplicity": list(H.apery(H.multiplicity)),
            "gaps": H.gaps(),
            "canonical_ideal_generators": list(
                H.canonical_relative_ideal().minimal_generators()
            ),
        }
    }
    doc = _document("semigroup-info", {"generators": args.generators}, body, started)
    lines = [f"H = {H}"]
    lines += [f"  {k}: {v}" for k, v in body["semigroup"].items() if k != "generators"]
    _emit(doc, args.json, lines)
    return EXIT_OK


def _report_lines(rep) -> list:
    lines = [
        f"H = {rep.semigroup}  (e={rep.invariants.multiplicity}, "
        f"r(R)={rep.invariants.type}, gorenstein={rep.invariants.is_symmetric})",
        f"ideal  {rep.ideal}  [{rep.engine} engine]",
        f"  mu = {rep.mu}   r_R(I) = {rep.module_type}   r(R/I) = {rep.quotient_type}",
        f"  r(R x I) = {rep.idealization.value}  "
        f"(socle {rep.idealization.socle_value}, cokernel {rep.idealization.cokernel_value}, "
        f"excess {rep.idealization.socle_excess})",
        "  flags: " + ", ".join(k for k, v in rep.flags.items() if v),
    ]
    for v in rep.verdicts:
        lines.append(f"  [{'ok' if v.passed else 'FAIL'}] {v.name}: {v.detail}")
    return lines


def _cmd_ideal_analyze(args) -> int:
    started = time.perf_counter()
    H = _parse_semigroup(args.semigroup)
    field = _parse_field(args.field)
    gens = parse_generators(args.gens, field)
    ideal = _build_ideal(H, field, gens, args.engine)
    rep = classify(ideal)
    doc = _document(
        "ideal-analyze",
        {
            "semigroup": args.semigroup,
            "gens": args.gens,
            "field": str(field),
            "engine": args.engine,
        },
        {"report": rep.to_dict()},
        started,
    )
    _emit(doc, args.json, _report_lines(rep))
    return EXIT_OK if rep.consistent else EXIT_INCONSISTENT


def _cmd_verify_paper(args) -> int:
    started = time.perf_counter()
    results = verify.run(args.filter)
    if not results:
        raise ArgumentError(
            f"no verification group matches {args.filter!r}; "
            f"available: {', '.join(verify.available_groups())}"
        )
    failures = [r for r in results if not r.passed]
    doc = _document(
        "verify-paper",
        {"filter": args.filter},
        {
            "cases": [r.to_dict() for r in results],
            "total": len(results),
            "failed": len(failures),
        },
        started,
    )
    lines = [
        f"[{'ok' if r.passed else 'FAIL'}] {r.group} :: {r.case} "
        f"(expected {r.expected}, computed {r.computed})"
        for r in results
    ]
    lines.append(f"{len(results) - len(failures)}/{len(results)} cases passed")
    _emit(doc, args.json, lines)
    return EXIT_OK if not failures else EXIT_INCONSISTENT


def _cmd_sup_search(args) -> int:
    started = time.perf_counter()
    H = _parse_semigroup(args.semigroup)
    value, witness = sup_search(H, args.bound, max_count=args.limit)
    body = {
        "sup": value,
        "witness": witness.describe() if witness else None,
        "witness_mu": witness.mu() if witness else None,
        "bound_r_plus_e": H.type() + H.multiplicity,
    }
    doc = _document(
        "sup-search", {"semigroup": args.semigroup, "bound": args.bound}, body, started
    )
    _emit(
        doc,
        args.json,
        [
            f"sup r(R x I) over {H} (span bound {args.bound}) = {value}",
            f"witness: {body['witness']} with mu = {body['witness_mu']}",
        ],
    )
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    started = time.perf_counter()
    H = _parse_semigroup(args.semigroup)
    flag = _FILTER_FLAGS[args.filter] if args.filter else None
    entries = []
    for ideal in enumerate_monomial_ideals(H, args.bound, max_count=args.limit):
        rep = classify(ideal)
        if flag and not rep.flags[flag]:
            continue
        entries.append(
            {
                "generators": list(ideal.minimal_generators()),
                "mu": rep.mu,
                "r_idealization": rep.idealization.value,
                "flags": {k: v for k, v in rep.flags.items()
                          if v and k in _FILTER_FLAGS.values()},
            }
        )
    doc = _document(
        "enumerate",
        {"semigroup": args.semigroup, "bound": args.bound, "filter": args.filter},
        {"count": len(entries), "ideals": entries},
        started,
    )
    lines = [
        f"(t^{', t^'.join(map(str, e['generators']))})  mu={e['mu']}  "
        f"r(RxI)={e['r_idealization']}  {','.join(sorted(e['flags']))}"
        for e in entries
    ]
    lines.append(f"{len(entries)} ideals")
    _emit(doc, args.json, lines)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "semigroup":
            return _cmd_semigroup_info(args)
        if args.command == "ideal":
            return _cmd_ideal_analyze(args)
        if args.command == "verify":
            return _cmd_verify_paper(args)
        if args.command == "sup-search":
            return _cmd_sup_search(args)
        if args.command == "enumerate":
            return _cmd_enumerate(args)
        parser.error(f"unknown command {args.command}")
    except ParseError as exc:
        gens = getattr(args, "gens", "")
        print(f"error: {exc}", file=sys.stderr)
        if gens:
            print(f"  {gens}", file=sys.stderr)
            print("  " + " " * exc.position + "^", file=sys.stderr)
        return EXIT_INPUT
    except ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except CmtypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
