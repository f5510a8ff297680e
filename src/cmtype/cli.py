"""Command-line front end.

Subcommands: `semigroup info`, `ideal analyze`, `verify paper`,
`sup-search`, `enumerate`.  Exit codes: 0 success, 1 mathematical
inconsistency (a disagreement between the two type formulas, or a failed
built-in verification case), 2 input error.  With --json the output is a
deterministic report document (sorted keys) that round-trips through the
json module byte-identically.

The document is written by ``_to_json``, whose bytes equal those of
``json.dumps(doc, sort_keys=True, indent=2)``.  It exists because CPython
(3.11) runs its C encoder only when ``indent`` is None, and the pure-Python
one it falls back to costs about a quarter of a `semigroup info` call and
leaves reference cycles of closures behind.  ``_to_json`` walks dicts and
lists itself and joins each list of one scalar type with ``map`` of a
C-level encoder, so the per-item work stays in C.

Each subcommand is a function ``run(args)`` of its parsed arguments that
returns ``(input echo, body, text lines, consistent)``, the text lines an
iterable that is read only when they are printed; it neither times,
prints nor exits, and it raises ``ArgumentError`` on bad input and
``ConsistencyError`` when two computations disagree.  ``main`` alone times
the call, wraps the body in the document envelope (``schema_version``,
``command`` from the parsed command and subcommand names, ``input``,
``timing_ms``), prints the document or the text lines and maps
``consistent`` and the exceptions to exit codes.

``build_parser`` declares the whole grammar.  ``main`` hands argv straight
to the leaf parser its command words name (``semigroup info``,
``sup-search``, ...), since the outer parsers would only pick that leaf;
every other argv, and a leaf parse with arguments left over, goes to the
full parser, so help and error text stay argparse's own.

Only ``_cmd_verify_paper`` imports ``verify``, when it runs: the module and
the ``random`` it loads cost every other command start-up time for nothing.
A ``python -S -E`` process that imports this module loads no ``dataclasses``,
``inspect``, ``ast``, ``dis``, ``tokenize`` or ``random``, which
``tests/test_package.py`` holds.
"""

import argparse
import functools
import itertools
import json
import sys
import time
from json.encoder import encode_basestring_ascii

from .constructions import ENUMERATION_LIMIT, enumerate_monomial_ideals, sup_search
from .errors import ArgumentError, CmtypeError, ConsistencyError, ParseError, ResourceLimitError
from .fracideal import FractionalIdeal
from .linalg import GF, QQ
from .relideal import RelativeIdeal
from .semigroup import SEMIGROUP_CONDUCTOR_LIMIT, NumericalSemigroup
from .series import parse_generators
from .typecalc import classify

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_INPUT = 2

# The series engine row-reduces matrices about c columns wide, c the conductor,
# so the time of `ideal analyze` on it grows about as c^2.2: on (t^a + t^b, t^2b)
# over <a,b> and F_32003, a 2-vCPU machine takes under 1 s at c = 570 and about
# 4 s at c = 1,160.  Above the cap it refuses the input.  The monomial engine
# has no cap.
SERIES_CONDUCTOR_LIMIT = 600

# Every command refuses a semigroup whose conductor exceeds
# SEMIGROUP_CONDUCTOR_LIMIT; `semigroup` defines it, and its constructor raises
# ResourceLimitError as soon as the Apery set gives c, before H's member mask.

# `sup-search` and `enumerate` raise ResourceLimitError past ENUMERATION_LIMIT
# ideals unless --limit sets another cap, which bounds the enumeration's walk
# too; `constructions` defines it, as the default of its enumeration.

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


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter, with its sections unlinked once the text is built.

    A section refers to the formatter and to its parent section, and a
    parent's items hold the bound ``format_help`` of its children, so every
    usage error and ``--help`` would leave a reference cycle for the cyclic
    collector.
    """

    def format_help(self):
        text = super().format_help()
        sections = [self._root_section]
        while sections:
            section = sections.pop()
            for func, _ in section.items:
                if isinstance(func.__self__, argparse.HelpFormatter._Section):
                    sections.append(func.__self__)
            section.items.clear()
            section.formatter = section.parent = None
        self._root_section = self._current_section = None
        return text


# argparse reads a separate argument that starts with '-', such as -1*t^3, as
# an option, so it never reaches --gens
_GENS_HINT = "a list that starts with '-' must be attached with '=', as in --gens=-1*t^3"


class _Parser(argparse.ArgumentParser):
    """argparse's parser with ``_HelpFormatter``, for the root parser and,
    as argparse makes each subparser of its parent's class, for every
    subparser; a usage error for a missing --gens value names the '=' form.
    The leaf parsers that ``main`` calls directly print the same error."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_HelpFormatter, **kwargs)

    def error(self, message):
        if message == "argument --gens: expected one argument":
            message = f"{message}; {_GENS_HINT}"
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call."""
    parser = _Parser(
        prog="cmtype",
        description="Cohen-Macaulay types of idealizations over numerical semigroup rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sg = sub.add_parser("semigroup", help="numerical semigroup queries")
    sg_sub = p_sg.add_subparsers(dest="subcommand", required=True)
    p_info = sg_sub.add_parser("info", help="invariants of a numerical semigroup")
    semigroup_help = (
        "comma-separated generators, e.g. 3,7; conductors above "
        f"SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT} are refused"
    )
    p_info.add_argument("generators", help=semigroup_help)
    p_info.set_defaults(run=_cmd_semigroup_info)

    p_ideal = sub.add_parser("ideal", help="fractional ideal analysis")
    ideal_sub = p_ideal.add_subparsers(dest="subcommand", required=True)
    p_an = ideal_sub.add_parser("analyze", help="classify an ideal and compute its types")
    p_an.add_argument("--semigroup", required=True, help=semigroup_help)
    p_an.add_argument(
        "--gens", required=True, help=f"comma-separated series expressions; {_GENS_HINT}"
    )
    p_an.add_argument("--field", default="qq", help="qq or fp:<prime> (default qq)")
    p_an.add_argument(
        "--engine", default="auto", choices=["auto", "monomial", "series"],
        help="the series engine refuses conductors above "
        f"SERIES_CONDUCTOR_LIMIT = {SERIES_CONDUCTOR_LIMIT}",
    )
    p_an.set_defaults(run=_cmd_ideal_analyze)

    p_ver = sub.add_parser("verify", help="verification suites")
    ver_sub = p_ver.add_subparsers(dest="subcommand", required=True)
    p_paper = ver_sub.add_parser("paper", help="run the built-in example suite")
    p_paper.add_argument("--filter", default=None, help="substring of a group name")
    p_paper.set_defaults(run=_cmd_verify_paper)

    bound_help = (
        "the largest gap an ideal may add to R; a bound below the least "
        "pseudo-Frobenius number of H enumerates R alone, since every nonempty "
        "H-stable set of gaps contains a pseudo-Frobenius number"
    )
    limit_help = f"enumeration cap (default ENUMERATION_LIMIT = {ENUMERATION_LIMIT})"

    p_sup = sub.add_parser("sup-search", help="maximize the idealization type")
    p_sup.add_argument("--semigroup", required=True, help=semigroup_help)
    p_sup.add_argument("--bound", type=int, required=True, help=bound_help)
    p_sup.add_argument("--limit", type=int, default=ENUMERATION_LIMIT, help=limit_help)
    p_sup.set_defaults(run=_cmd_sup_search)

    p_enum = sub.add_parser("enumerate", help="list shift-normalized monomial ideals")
    p_enum.add_argument("--semigroup", required=True, help=semigroup_help)
    p_enum.add_argument("--bound", type=int, required=True, help=bound_help)
    p_enum.add_argument("--filter", default=None, choices=sorted(_FILTER_FLAGS),
                        help="keep only ideals with this flag")
    p_enum.add_argument("--limit", type=int, default=ENUMERATION_LIMIT, help=limit_help)
    p_enum.set_defaults(run=_cmd_enumerate)

    leaves = (p_info, p_an, p_paper, p_sup, p_enum)
    for leaf in leaves:
        leaf.add_argument("--json", action="store_true")
    # the command words that select each leaf, read off its prog "cmtype semigroup info"
    parser.leaves = {tuple(leaf.prog.split()[1:]): leaf for leaf in leaves}
    return parser


def _parse_args(parser, argv):
    """``parser.parse_args(argv)``, with argv handed straight to the leaf parser
    its command words name.

    The outer parsers only pick the leaf, so skipping them gives the same
    namespace once ``command`` (and ``subcommand``) are set as argparse sets
    them.  Any other argv, and a leaf parse that leaves arguments over, goes
    to the full parser, which reports errors with its own usage line.
    """
    for n in (1, 2):
        leaf = parser.leaves.get(tuple(argv[:n]))
        if leaf is not None:
            args, extras = leaf.parse_known_args(argv[n:])
            if extras:
                break
            args.command = argv[0]
            if n == 2:
                args.subcommand = argv[1]
            return args
    return parser.parse_args(argv)


def _parse_semigroup(text: str) -> NumericalSemigroup:
    """Comma-separated integers; an empty entry between or after them is
    refused at its offset into ``text``, as ``parse_generators`` does."""
    entries = text.split(",")
    if not any(entry.strip() for entry in entries):
        raise ArgumentError("no generators given")
    gens, position = [], 0
    for entry in entries:
        if not entry.strip():
            raise ArgumentError(f"empty generator at position {position} of {text!r}")
        try:
            gens.append(int(entry))
        except ValueError:
            raise ArgumentError(f"could not read generators from {text!r}") from None
        position += len(entry) + 1
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
    """Engine selection, once zero generators are dropped: monomial exponent
    sets when every generator is a single term, the series engine otherwise
    (or when forced)."""
    gens = [g for g in gens if g.order is not None]
    if not gens:
        raise ArgumentError("need at least one nonzero generator")
    monomial = all(len(g.coeffs) == 1 for g in gens)
    if engine == "auto":
        engine = "monomial" if monomial else "series"
    if engine == "monomial":
        if not monomial:
            raise ArgumentError("the monomial engine needs single-term generators")
        return RelativeIdeal.from_exponents(H, {g.order for g in gens})
    c = H.conductor
    if c > SERIES_CONDUCTOR_LIMIT:
        orders = [g.order for g in gens]
        # the translates t^h g, h > 0, that from_generators row-reduces first
        rows = sum(len(H.members(1, min(orders) + c - o)) for o in orders)
        raise ResourceLimitError(
            f"conductor {c} of {H} exceeds the series engine's cap "
            f"SERIES_CONDUCTOR_LIMIT = {SERIES_CONDUCTOR_LIMIT}: its first matrix "
            f"alone is {rows} x {c}"
        )
    return FractionalIdeal.from_generators(H, field, gens)


def _cmd_semigroup_info(args):
    H = _parse_semigroup(args.generators)
    body = {
        "semigroup": {
            "generators": list(H.generators),
            **H.invariants(),
            "pseudo_frobenius": list(H.pseudo_frobenius()),
            "apery_of_multiplicity": list(H.apery(H.multiplicity)),
            "gaps": H.gaps(),
            "canonical_ideal_generators": list(
                H.canonical_relative_ideal().minimal_generators()
            ),
        }
    }
    # formatted only if printed: str() of the gaps is O(c) and --json drops it
    lines = itertools.chain(
        [f"H = {H}"],
        (f"  {k}: {v}" for k, v in body["semigroup"].items() if k != "generators"),
    )
    return {"generators": args.generators}, body, lines, True


def _report_lines(rep):
    """The text report of the ``classify`` document ``rep``, line by line; a
    generator, so --json formats none of it."""
    sg = rep["semigroup"]
    yield (
        f"H = <{','.join(map(str, sg['generators']))}>  (e={sg['multiplicity']}, "
        f"r(R)={sg['type']}, gorenstein={sg['gorenstein']})"
    )
    yield f"ideal  {rep['ideal']}  [{rep['engine']} engine]"
    yield f"  mu = {rep['mu']}   r_R(I) = {rep['module_type']}   r(R/I) = {rep['quotient_type']}"
    yield (
        f"  r(R x I) = {rep['r_idealization']}  (socle {rep['methods']['socle']}, "
        f"cokernel {rep['methods']['cokernel']}, excess {rep['socle_excess']})"
    )
    yield "  flags: " + ", ".join(k for k, v in rep["flags"].items() if v)
    for v in rep["verdicts"]:
        yield f"  [{'ok' if v['passed'] else 'FAIL'}] {v['name']}: {v['detail']}"


def _cmd_ideal_analyze(args):
    H = _parse_semigroup(args.semigroup)
    field = _parse_field(args.field)
    gens = parse_generators(args.gens, field)
    ideal = _build_ideal(H, field, gens, args.engine)
    rep = classify(ideal)
    echo = {
        "semigroup": args.semigroup,
        "gens": args.gens,
        "field": str(field),
        "engine": args.engine,
    }
    return echo, {"report": rep}, _report_lines(rep), rep["consistent"]


def _cmd_verify_paper(args):
    from . import verify

    results = verify.run(args.filter)
    if not results:
        raise ArgumentError(
            f"no verification group matches {args.filter!r}; "
            f"available: {', '.join(verify.available_groups())}"
        )
    failures = [r for r in results if not r["passed"]]
    body = {
        "cases": results,
        "total": len(results),
        "failed": len(failures),
    }
    lines = [
        f"[{'ok' if r['passed'] else 'FAIL'}] {r['group']} :: {r['case']} "
        f"(expected {r['expected']}, computed {r['computed']})"
        for r in results
    ]
    lines.append(f"{len(results) - len(failures)}/{len(results)} cases passed")
    return {"filter": args.filter}, body, lines, not failures


def _cmd_sup_search(args):
    H = _parse_semigroup(args.semigroup)
    value, witness = sup_search(H, args.bound, max_count=args.limit)
    body = {
        "sup": value,
        "witness": witness.describe() if witness else None,
        "witness_mu": witness.mu() if witness else None,
        "bound_r_plus_e": H.type() + H.multiplicity,
    }
    lines = [
        f"sup r(R x I) over {H} (span bound {args.bound}) = {value}",
        f"witness: {body['witness']} with mu = {body['witness_mu']}",
    ]
    return {"semigroup": args.semigroup, "bound": args.bound}, body, lines, True


def _cmd_enumerate(args):
    H = _parse_semigroup(args.semigroup)
    flag = _FILTER_FLAGS[args.filter] if args.filter else None
    entries = []
    for ideal in enumerate_monomial_ideals(H, args.bound, max_count=args.limit):
        rep = classify(ideal)
        flags = rep["flags"]
        if flag and not flags[flag]:
            continue
        entries.append(
            {
                "generators": list(ideal.minimal_generators()),
                "mu": rep["mu"],
                "r_idealization": rep["r_idealization"],
                "flags": {k: v for k, v in flags.items() if v and k in _FILTER_FLAGS.values()},
            }
        )
    lines = [
        f"(t^{', t^'.join(map(str, e['generators']))})  mu={e['mu']}  "
        f"r(RxI)={e['r_idealization']}  {','.join(sorted(e['flags']))}"
        for e in entries
    ]
    lines.append(f"{len(entries)} ideals")
    echo = {"semigroup": args.semigroup, "bound": args.bound, "filter": args.filter}
    return echo, {"count": len(entries), "ideals": entries}, lines, True


# Encoders of the JSON scalars by exact type, all but json.dumps in C
_SCALAR_JSON = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: json.dumps,  # keeps the NaN and Infinity spelling
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _to_json(x, indent="") -> str:
    """The bytes of ``json.dumps(x, sort_keys=True, indent=2)``, for dicts with
    str keys, lists, tuples and the scalars of ``_SCALAR_JSON``; any other
    type raises TypeError."""
    if type(x) is dict:
        if not x:
            return "{}"
        inner = indent + "  "
        # a scalar value is encoded in place, saving a call per key
        items = (
            encode_basestring_ascii(k) + ": "
            + (enc(v) if (enc := _SCALAR_JSON.get(type(v))) else _to_json(v, inner))
            for k, v in sorted(x.items())
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    if type(x) is list or type(x) is tuple:
        if not x:
            return "[]"
        inner = indent + "  "
        kinds = set(map(type, x))
        scalar = _SCALAR_JSON.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(scalar, x) if scalar else (_to_json(v, inner) for v in x)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    scalar = _SCALAR_JSON.get(type(x))
    if scalar is None:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
    return scalar(x)


def main(argv=None) -> int:
    args = _parse_args(build_parser(), sys.argv[1:] if argv is None else argv)
    started = time.perf_counter()
    try:
        echo, body, lines, consistent = args.run(args)
    except ParseError as exc:
        gens = getattr(args, "gens", "")
        print(f"error: {exc}", file=sys.stderr)
        if gens:
            print(f"  {gens}", file=sys.stderr)
            print("  " + " " * exc.position + "^", file=sys.stderr)
        return EXIT_INPUT
    except ConsistencyError as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except CmtypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": "-".join(filter(None, [args.command, getattr(args, "subcommand", None)])),
            "input": echo,
            "timing_ms": round((time.perf_counter() - started) * 1000, 3),
            **body,
        }
        print(_to_json(doc))
    else:
        for line in lines:
            print(line)
    return EXIT_OK if consistent else EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
