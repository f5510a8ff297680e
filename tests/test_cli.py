"""The command-line contract: exit codes, JSON documents, error carets."""

import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cmtype
from cmtype import cli, constructions, semigroup, typecalc
from cmtype.fracideal import FractionalIdeal
from cmtype.linalg import QQ
from cmtype.relideal import RelativeIdeal
from cmtype.semigroup import SEMIGROUP_CONDUCTOR_LIMIT, NumericalSemigroup
from cmtype.series import parse_series

DOCUMENT_KEYS = {"schema_version", "command", "input", "timing_ms"}
KEPT_FLAGS = {
    "is_closed",
    "is_residually_faithful",
    "is_ulrich_module_wrt_m",
    "is_canonical",
    "is_principal",
}


def run_json(capsys, argv):
    code = cli.main(argv + ["--json"])
    return code, json.loads(capsys.readouterr().out)


def test_semigroup_info_json(capsys):
    code, doc = run_json(capsys, ["semigroup", "info", "4,5,6"])
    assert code == cli.EXIT_OK
    assert doc["schema_version"] == 1
    assert set(doc) == DOCUMENT_KEYS | {"semigroup"}
    assert doc["command"] == "semigroup-info"
    assert doc["semigroup"]["generators"] == [4, 5, 6]
    assert doc["semigroup"]["pseudo_frobenius"] == [7]


@pytest.mark.pin
def test_ideal_analyze_json(capsys):
    argv = ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"]
    code, doc = run_json(capsys, argv)
    assert code == cli.EXIT_OK
    assert doc["schema_version"] == 1
    assert set(doc) == DOCUMENT_KEYS | {"report"}
    report = doc["report"]
    assert report["engine"] == "series" and report["consistent"]
    assert report["methods"]["socle"] == report["methods"]["cokernel"] == report["r_idealization"]


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(3):
        code, _ = run_json(capsys, ["semigroup", "info", "3,5"])
        assert code == cli.EXIT_OK
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def without_timing(doc):
    return {k: v for k, v in doc.items() if k != "timing_ms"}


def test_shared_parser_carries_no_state_between_calls(capsys):
    info = ["semigroup", "info", "3,5"]
    analyze = ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"]
    cli.build_parser.cache_clear()
    assert cli.main(info) == cli.EXIT_OK
    fresh_text = capsys.readouterr().out
    cli.build_parser.cache_clear()
    _, fresh_doc = run_json(capsys, analyze)

    # a --json call, then a plain call
    run_json(capsys, info)
    assert cli.main(info) == cli.EXIT_OK
    assert capsys.readouterr().out == fresh_text
    # an argparse error (exit 2) and an input error, each followed by a valid call
    with pytest.raises(SystemExit) as exc:
        cli.main(["ideal", "analyze", "--semigroup", "4,5,6"])
    assert exc.value.code == cli.EXIT_INPUT
    _, doc = run_json(capsys, analyze)
    assert without_timing(doc) == without_timing(fresh_doc)
    assert cli.main(analyze + ["--field", "fp:4"]) == cli.EXIT_INPUT
    _, doc = run_json(capsys, analyze)
    assert without_timing(doc) == without_timing(fresh_doc)
    assert cli.build_parser.cache_info().misses == 1


# argv that parse: the leaf parser alone must give the full parser's namespace
PARSED_ARGV = [
    ["semigroup", "info", "4,5,6"],
    ["semigroup", "info", "4,5,6", "--json"],
    ["semigroup", "info", "--json", "4,5,6"],
    ["semigroup", "info", "4,5,6", "--json", "--json"],
    ["semigroup", "info", "4,5,6", "--js"],
    ["semigroup", "info", "--", "4,5,6"],
    ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"],
    ["ideal", "analyze", "--sem", "4,5,6", "--gens=t^6", "--field", "fp:5", "--engine", "series"],
    ["ideal", "analyze", "--semigroup=3,7", "--gens", "t^4 +", "--engine=monomial", "--json"],
    ["verify", "paper"],
    ["verify", "paper", "--filter=remark", "--json"],
    ["sup-search", "--semigroup", "4,5,6", "--bound", "8"],
    ["sup-search", "--bound=8", "--semigroup", "4,5,6", "--lim", "10", "--json"],
    ["enumerate", "--semigroup", "4,5,6", "--bound", "8", "--filter", "closed"],
    ["enumerate", "--json", "--semigroup=4,5,6", "--bound", "8", "--limit", "5"],
]

# argv that exit in argparse: usage errors and --help at every level
EXITING_ARGV = [
    [], ["-h"], ["--help"], ["nope"], ["--json", "semigroup", "info", "4,5,6"],
    ["semigroup"], ["semigroup", "-h"], ["semigroup", "nope"],
    ["semigroup", "--json", "info", "4,5,6"], ["semigroup", "--", "info", "4,5,6"],
    ["semigroup", "info"], ["semigroup", "info", "-h"], ["semigroup", "info", "--help"],
    ["semigroup", "info", "-3,5"],
    ["ideal"], ["ideal", "-h"], ["ideal", "analyze", "-h"],
    ["ideal", "analyze", "--semigroup", "4,5,6"],
    ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4", "--engine", "fast"],
    ["verify", "-h"], ["verify", "paper", "--filter"],
    ["sup-search"], ["sup-search", "-h"],
    ["sup-search", "--semigroup", "4,5,6", "--bound", "x"],
    ["enumerate", "--help"],
    ["enumerate", "--semigroup", "4,5,6", "--bound", "8", "--filter", "trace"],
    # one unrecognised argument per leaf: the root parser's usage line, not the leaf's
    ["semigroup", "info", "4,5,6", "extra"],
    ["semigroup", "info", "4,5,6", "-j"],
    ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4", "--bogus", "1"],
    ["verify", "paper", "extra"],
    ["sup-search", "--semigroup", "4,5,6", "--bound", "8", "--nope"],
    ["enumerate", "--semigroup", "4,5,6", "--bound", "8", "extra"],
]


@pytest.mark.parametrize("argv", PARSED_ARGV, ids=" ".join)
def test_dispatch_parses_as_the_full_parser(argv):
    parser = cli.build_parser.__wrapped__()  # uncached, so it may be patched
    expected = vars(parser.parse_args(argv))

    def refuse(*_):
        raise AssertionError("the root parser ran")

    parser.parse_known_args = refuse
    assert vars(cli._parse_args(parser, argv)) == expected


@pytest.mark.parametrize("argv", EXITING_ARGV, ids=" ".join)
def test_dispatch_fails_as_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as dispatched:
        cli.main(argv)
    assert dispatched.value.code == full.value.code
    assert capsys.readouterr() == expected


# sha256 of stdout with the "timing_ms" line dropped, text mode then --json.
# Any change to an output byte must update these on purpose.
BYTE_STABLE = [
    (["semigroup", "info", "4,5,6"],
     "808dbd7bb19fe8928cadc1ae8fe0b472756f06450ddd275793ccb279665517de",
     "64e45400fa1cdad5f2535c6a3dfffcb1dc1dd7d5bf4c831019a09685d533b463"),
    (["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"],
     "bc6bc0d5e0346da3e82b2ebc93f6cc12e4050356e200d41f57336a52dfea9fc8",
     "20df5feeb73baff4e19d28766b492b79f287cdb171d4c8830e15226f0ac153f9"),
    (["ideal", "analyze", "--semigroup", "3,7", "--gens", "t^6, t^10"],
     "d717095c4cd23de60919756a6d95244cc06a29e06fcc2ae12ade1cdb6b2f4ce9",
     "49c73a7514cdf53e020c08b468eeb804dde0ea861e68cc9c68b642fcce4794fc"),
    (["verify", "paper", "--filter", "remark"],
     "97b07572bddf9c4eed5d0ac43fd1ad76438d9527667590b43877c1f611c15d04",
     "aac34c5f87b39c5161170ef3f184bc9524d000c96ac34c7ee3662d8812b552b7"),
    (["sup-search", "--semigroup", "4,5,6", "--bound", "8"],
     "c276939342848f41c31348d92f5b8ba95139756a24b46700be58e6f8429ae8e8",
     "95e068650c2fe9c92990bea14c4ce177b97889eb637c291ad22be385ab7b7dcf"),
    (["enumerate", "--semigroup", "4,5,6", "--bound", "8", "--filter", "closed"],
     "1672ac31ec328c98433b308fa45361e955e07f58730ff2e1fbe238cb918d4242",
     "17334d8bad6aca6fc8f3eda63af3a4b6a64a6f1c69a8cd34ea8493e49d6a7f62"),
]


COMMAND_IDS = [
    "semigroup-info", "ideal-analyze-series", "ideal-analyze-monomial",
    "verify-paper", "sup-search", "enumerate",
]
COMMANDS = [argv for argv, _, _ in BYTE_STABLE]


@pytest.mark.pin
@pytest.mark.parametrize("argv, text_sha, json_sha", BYTE_STABLE, ids=COMMAND_IDS)
def test_documents_are_byte_stable(capsys, argv, text_sha, json_sha):
    for extra, expected in (([], text_sha), (["--json"], json_sha)):
        assert cli.main(argv + extra) == cli.EXIT_OK
        out = capsys.readouterr().out.splitlines(keepends=True)
        kept = "".join(line for line in out if '"timing_ms"' not in line)
        assert hashlib.sha256(kept.encode()).hexdigest() == expected, extra


@pytest.mark.parametrize("argv", COMMANDS, ids=COMMAND_IDS)
def test_documents_round_trip_through_the_json_module(capsys, argv):
    # timing_ms included: the float is written as json writes it
    assert cli.main(argv + ["--json"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_json_commands_leave_no_reference_cycles(capsys):
    for argv in COMMANDS:  # warm-up: the parser and the companion caches
        cli.main(argv + ["--json"])
    capsys.readouterr()
    gc.collect()
    seen = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for _ in range(3):
            for argv in COMMANDS:
                assert cli.main(argv + ["--json"]) == cli.EXIT_OK
                capsys.readouterr()
        gc.collect()
        kinds = sorted(type(o).__name__ for o in gc.garbage[seen:])
    finally:
        gc.set_debug(0)
        del gc.garbage[seen:]
    assert not {"JSONEncoder", "function", "cell"} & set(kinds), kinds


@pytest.mark.parametrize("argv, code", [
    (["ideal", "analyze", "--semigroup", "4,5,6"], cli.EXIT_INPUT),  # no --gens
    (["ideal", "analyze", "--help"], cli.EXIT_OK),
])
def test_usage_errors_and_help_leave_no_formatter_cycles(capsys, argv, code):
    def run():
        with pytest.raises(SystemExit) as caught:
            cli.main(argv)
        capsys.readouterr()
        assert caught.value.code == code

    run()  # warm-up: the parser
    gc.collect()
    seen = len(gc.garbage)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        kinds = sorted(type(o).__name__ for o in gc.garbage[seen:])
    finally:
        gc.set_debug(0)
        del gc.garbage[seen:]
    assert not {"HelpFormatter", "_HelpFormatter", "_Section"} & set(kinds), kinds


# text with quotes, backslashes, control and non-ASCII characters: runs of
# st.characters() and of the listed ones, joined.  A run is one draw, where a
# text over the union of the two alphabets draws each character on its own.
JSON_SPECIALS = '"\\\x00\x1f\x7f\u00e9\u2028'
JSON_TEXT = st.lists(st.text() | st.text(JSON_SPECIALS), max_size=3).map("".join)
# dict keys of at most 8 characters, from the same two alphabets: a key equal
# to one already drawn is drawn again, so keys are kept cheap
JSON_KEYS = st.lists(
    st.text(max_size=4) | st.text(JSON_SPECIALS, max_size=4), max_size=2
).map("".join)
JSON_SCALARS = [
    st.none(),
    st.booleans(),
    st.integers() | st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(),
    JSON_TEXT,
]
JSON_VALUES = st.recursive(
    st.one_of(JSON_SCALARS),
    lambda kids: st.one_of(
        st.lists(kids),
        st.lists(kids).map(tuple),
        st.one_of([st.lists(scalar, min_size=1) for scalar in JSON_SCALARS]),
        st.dictionaries(JSON_KEYS, kids),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"a": [True, 1, None, 1.5, "a"], "": {}, "b": [], "c": (), "d": [[], {}]})
@example([-0.0, 1e300, -(2**70), 2**64 + 1, -1])
@example(["\"\\\n\x00", "\u00e9\U0001f600"])
@example([float("nan"), float("inf"), -float("inf")])
def test_writer_matches_the_json_module(value):
    assert cli._to_json(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [
    {1, 2}, object(), [1, {2}], {"a": object()}, b"bytes", {1: "int key"},
])
def test_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._to_json(value)


def test_parse_error_caret(capsys):
    gens = "t^4+t^"
    code = cli.main(["ideal", "analyze", "--semigroup", "4,5,6", "--gens", gens])
    assert code == cli.EXIT_INPUT
    lines = capsys.readouterr().err.splitlines()
    echo = lines.index(f"  {gens}")
    caret = lines[echo + 1]
    assert caret.strip() == "^"
    assert caret.index("^") - len("  ") == 6


def test_verify_filter_without_match(capsys):
    assert cli.main(["verify", "paper", "--filter", "nomatch"]) == cli.EXIT_INPUT
    assert "no verification group matches" in capsys.readouterr().err


def test_enumerate_rejects_shift_dependent_filter(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--semigroup", "4,5,6", "--bound", "8", "--filter", "trace"])
    assert exc.value.code == cli.EXIT_INPUT


def test_enumerate_prints_only_shift_invariant_flags(capsys):
    code, doc = run_json(capsys, ["enumerate", "--semigroup", "4,5,6", "--bound", "8"])
    assert code == cli.EXIT_OK
    assert doc["count"] == len(doc["ideals"]) > 0
    assert set(cli._FILTER_FLAGS.values()) == KEPT_FLAGS
    for entry in doc["ideals"]:
        assert set(entry["flags"]) <= KEPT_FLAGS


def test_enumerate_walks_a_thousand_gaps(capsys):
    # <2,2001>: the ideals are R and R plus each tail of its 1,000 odd gaps,
    # 1,001 in all.  The mask walk branches on the top open gap (skip it: a
    # leaf; take it: the next gap down), so it is 1,000 levels deep, past
    # Python's recursion limit, and makes 2 * 1,001 - 1 nodes.
    code, doc = run_json(capsys, ["enumerate", "--semigroup", "2,2001", "--bound", "2001"])
    assert code == cli.EXIT_OK and doc["count"] == 1001


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "info", "3,x"], "could not read generators from '3,x'"),
    (["semigroup", "info", ","], "no generators given"),
    (["semigroup", "info", "3,,5"], "empty generator at position 2 of '3,,5'"),
    (["semigroup", "info", "3,5,"], "empty generator at position 4 of '3,5,'"),
    (["ideal", "analyze", "--semigroup", "3,5", "--gens", "t^3", "--field", "fp:x"],
     "bad modulus in 'fp:x'"),
    (["ideal", "analyze", "--semigroup", "3,5", "--gens", "t^3", "--field", "gf7"],
     "unknown field 'gf7'; use qq or fp:<prime>"),
    (["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 + t^5", "--engine", "monomial"],
     "the monomial engine needs single-term generators"),
    (["sup-search", "--semigroup", "3,5", "--bound", "0"], "span bound must be at least 1"),
    (["sup-search", "--semigroup", "3,5", "--bound", "11", "--limit", "0"],
     "enumeration cap must be at least 1"),
    (["sup-search", "--semigroup", "3,5", "--bound", "11", "--limit", "-5"],
     "enumeration cap must be at least 1"),
    (["enumerate", "--semigroup", "3,5", "--bound", "11", "--limit", "-5"],
     "enumeration cap must be at least 1"),
])
def test_input_errors_exit_2_with_their_message(capsys, argv, message):
    assert cli.main(argv) == cli.EXIT_INPUT == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["sup-search", "enumerate"])
def test_a_huge_bound_costs_what_the_conductor_does(capsys, command):
    # every gap of <3,5> is below c + e = 11, so a larger bound adds no ideal;
    # the bound must not size a mask of its own width (10**9 bits is 125 MB)
    def document(bound):
        code, doc = run_json(capsys, [command, "--semigroup", "3,5", "--bound", str(bound)])
        assert code == cli.EXIT_OK
        del doc["input"], doc["timing_ms"]
        return doc

    expected = document(11)
    tracemalloc.start()
    try:
        huge = document(10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == expected
    assert peak < 10 * 1024 * 1024


@pytest.mark.parametrize("command", ["sup-search", "enumerate"])
def test_the_enumeration_cap_bounds_the_walk(capsys, command):
    # <101,102> has 5,050 gaps below the bound; the walk makes under two nodes
    # per ideal, so the cap is reached in time that does not grow with them
    argv = [command, "--semigroup", "101,102", "--bound", "10201", "--limit", "5000", "--json"]
    started = time.perf_counter()
    assert cli.main(argv) == cli.EXIT_INPUT
    elapsed = time.perf_counter() - started
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: more than 5000 ideals below span bound 10201\n"
    assert elapsed < 3


@pytest.mark.parametrize("engine, gens", [
    ("monomial", lambda x: f"t^{x}"),
    ("monomial", lambda x: f"t^{x}, t^{x + 1}"),
    ("series", lambda x: f"t^{x}"),
    ("series", lambda x: f"t^{x} + t^{x + 1}, t^{x + 3}"),
], ids=["monomial", "monomial-2", "series", "series-2"])
@pytest.mark.parametrize("order, near", [(10**20, 10**6), (10**9, 10**6), (-10**20, -10**6)])
def test_a_huge_order_costs_what_the_conductor_does(capsys, engine, gens, order, near):
    # the report of an ideal does not change under a shift that keeps it in or
    # out of R, and no mask or window may grow with the order
    def report(x):
        argv = ["ideal", "analyze", "--semigroup", "4,5,7", "--gens", gens(x), "--engine", engine]
        code, doc = run_json(capsys, argv)
        assert code == cli.EXIT_OK
        del doc["report"]["ideal"]
        return doc["report"]

    expected = report(near)
    tracemalloc.start()
    try:
        huge = report(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert huge == expected
    assert peak < 10 * 1024 * 1024


FAR_TERMS = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-10**20, 10**20)), min_size=1, max_size=2
)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["2,3", "3,5", "4,5,7", "3,4,5", "5,6,7"]),
    st.sampled_from(["qq", "fp:32003"]),
    st.lists(FAR_TERMS, min_size=1, max_size=3),
)
@example("3,5", "qq", [[(1, 10**20)], [(1, -10**20)]])
@example("4,5,7", "fp:32003", [[(1, 10**20), (2, 10**20 + 1)], [(1, -10**20)]])
def test_ideal_analyze_exits_0_or_2_at_any_order(semigroup, field, terms):
    gens = ", ".join(" + ".join(f"{c}*t^{x}" for c, x in gen) for gen in terms)
    # one argument, as a leading "-" would read as an option
    argv = ["ideal", "analyze", "--semigroup", semigroup, f"--gens={gens}", "--field", field,
            "--json"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), err.getvalue()
    if code == cli.EXIT_OK:
        assert json.loads(out.getvalue())["report"]["consistent"]


@pytest.mark.parametrize("gens, build", [
    ("t^4 - t^5, t^6", lambda H: FractionalIdeal.from_generators(
        H, QQ, [parse_series("t^4 - t^5", QQ), parse_series("t^6", QQ)])),
    ("t^8, t^9", lambda H: RelativeIdeal.from_exponents(H, {8, 9})),
], ids=["series", "monomial"])
def test_classify_returns_the_report_that_json_prints(capsys, gens, build):
    H = NumericalSemigroup([4, 5, 6])
    code, doc = run_json(capsys, ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", gens])
    assert code == cli.EXIT_OK
    assert typecalc.classify(build(H)) == doc["report"]


@pytest.mark.parametrize("gens", ["4,5,6", "3,4,5", "1"])
def test_invariants_are_a_part_of_the_semigroup_info_document(capsys, gens):
    inv = NumericalSemigroup(map(int, gens.split(","))).invariants()
    code, doc = run_json(capsys, ["semigroup", "info", gens])
    assert code == cli.EXIT_OK
    assert len(inv) == 8 and inv.items() <= doc["semigroup"].items()


def test_sup_search_json(capsys):
    code, doc = run_json(capsys, ["sup-search", "--semigroup", "4,5,6", "--bound", "8"])
    assert code == cli.EXIT_OK and doc["command"] == "sup-search"
    assert doc["sup"] == doc["bound_r_plus_e"] == 5  # r(R) + e, reached at the blow-up
    assert doc["witness"] == "(t^0, t^1, t^2, t^3) over <4,5,6>"


def test_ideal_analyze_over_large_prime(capsys):
    argv = ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"]
    code, doc = run_json(capsys, argv + ["--field", "fp:65537"])
    assert code == cli.EXIT_OK
    assert doc["input"]["field"] == "F_65537"
    assert doc["report"]["consistent"] is True


@pytest.mark.parametrize("dropped", [0, -1])
def test_wrong_pseudo_frobenius_exits_inconsistent(capsys, monkeypatch, dropped):
    # PF(<9,10,11,12,15>) = (13, 14, 16, 17); losing one must not pass silently
    original = NumericalSemigroup.pseudo_frobenius

    def lossy(self):
        pf = list(original(self))
        del pf[dropped]
        return tuple(pf)

    monkeypatch.setattr(NumericalSemigroup, "pseudo_frobenius", lossy)
    code = cli.main(["semigroup", "info", "9,10,11,12,15", "--json"])
    assert code == cli.EXIT_INCONSISTENT
    err = capsys.readouterr().err
    assert err.startswith("inconsistency:")
    assert "<9,10,11,12,15>" in err


def test_semigroup_info_at_large_conductor(capsys):
    # c = 89,700: any O(c^2) step would run for minutes; no time is asserted
    code, doc = run_json(capsys, ["semigroup", "info", "300,301"])
    assert code == cli.EXIT_OK
    info = doc["semigroup"]
    assert info["conductor"] == 89_700
    assert info["type"] == 1 and info["gorenstein"] is True
    assert info["pseudo_frobenius"] == [89_699]
    assert len(info["gaps"]) == 44_850
    assert info["canonical_ideal_generators"] == [0]


def test_semigroup_info_refuses_conductors_above_the_cap(capsys, monkeypatch):
    # <1001,1002> has conductor 1000 * 1001 = 1,001,000, the least above the
    # cap of any <a,a+1>; it is refused once the Apery set gives c, before
    # H's mask and its gap list
    gap_lists = []
    monkeypatch.setattr(NumericalSemigroup, "gaps", lambda H: gap_lists.append(H))
    started = time.perf_counter()
    assert cli.main(["semigroup", "info", "1001,1002", "--json"]) == cli.EXIT_INPUT
    assert time.perf_counter() - started < 3
    out, err = capsys.readouterr()
    assert out == "" and gap_lists == []
    assert "conductor 1001000 of <1001,1002>" in err
    assert f"SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT}" in err
    monkeypatch.undo()
    # <4,5> has conductor 12: refused at c = limit + 1, reported at c = limit
    monkeypatch.setattr(semigroup, "SEMIGROUP_CONDUCTOR_LIMIT", 11)
    assert cli.main(["semigroup", "info", "4,5"]) == cli.EXIT_INPUT
    assert "SEMIGROUP_CONDUCTOR_LIMIT = 11" in capsys.readouterr().err
    monkeypatch.setattr(semigroup, "SEMIGROUP_CONDUCTOR_LIMIT", 12)
    code, doc = run_json(capsys, ["semigroup", "info", "4,5"])
    assert code == cli.EXIT_OK and doc["semigroup"]["conductor"] == 12


@pytest.mark.parametrize("argv", [
    ["semigroup", "info", "10000,10001"],
    ["sup-search", "--semigroup", "10000,10001", "--bound", "3"],
    ["ideal", "analyze", "--semigroup", "10000,10001", "--gens", "t^10000"],
])
def test_every_command_refuses_a_large_conductor_before_the_mask(capsys, argv):
    # <10000,10001> has conductor 9999 * 10000 = 99,990,000; its member mask
    # alone ran for minutes, the Apery set gives c in milliseconds
    started = time.perf_counter()
    assert cli.main(argv + ["--json"]) == cli.EXIT_INPUT
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "conductor 99990000 of <10000,10001> exceeds the cap" in err
    assert f"SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT}" in err


def test_a_large_multiplicity_is_refused_before_the_apery_set(capsys, monkeypatch):
    # 1, ..., e - 1 are gaps, so c >= e; an e-entry Apery list at e = 20,000,003
    # had taken 3.5 s and 781 MB before the conductor was refused
    started = time.perf_counter()
    assert cli.main(["semigroup", "info", "20000003,20000004", "--json"]) == cli.EXIT_INPUT
    assert time.perf_counter() - started < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert ("conductor (at least the multiplicity 20000003) of <20000003,20000004> exceeds "
            f"the cap SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT}") in err
    # <4,5>: e = 4 above a cap of 3 is refused before c = 12 is known
    monkeypatch.setattr(semigroup, "SEMIGROUP_CONDUCTOR_LIMIT", 3)
    monkeypatch.setattr(semigroup, "_apery_by_shortest_path", None)
    assert cli.main(["semigroup", "info", "4,5"]) == cli.EXIT_INPUT
    assert "multiplicity 4) of <4,5>" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["semigroup", "info"], ["ideal", "analyze"], ["sup-search"], ["enumerate"],
])
def test_every_semigroup_help_names_the_conductor_cap(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    with pytest.raises(SystemExit):
        cli.main(command + ["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"SEMIGROUP_CONDUCTOR_LIMIT = {SEMIGROUP_CONDUCTOR_LIMIT} are refused" in help_text


def test_series_engine_refuses_conductors_above_the_cap(capsys):
    # <40,41> has conductor 1560; the series engine would run for minutes
    H = ["--semigroup", "40,41", "--gens"]
    assert cli.main(["ideal", "analyze", *H, "t^40 + t^41, t^80"]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert f"SERIES_CONDUCTOR_LIMIT = {cli.SERIES_CONDUCTOR_LIMIT}" in err
    # 779 + 740 translates t^h g with h > 0, the rows reduced first; 1560 columns
    assert "1519 x 1560" in err
    code, doc = run_json(capsys, ["ideal", "analyze", *H, "t^40, t^41"])
    assert code == cli.EXIT_OK and doc["report"]["engine"] == "monomial"
    with pytest.raises(SystemExit):
        cli.main(["ideal", "analyze", "--help"])
    assert f"SERIES_CONDUCTOR_LIMIT = {cli.SERIES_CONDUCTOR_LIMIT}" in capsys.readouterr().out


def test_series_cap_refuses_without_scanning_the_members(capsys, monkeypatch):
    # <100,101> has conductor 9900; the message counts the rows without a
    # contains call per integer below c
    H = NumericalSemigroup([100, 101])
    c = H.conductor
    rows = sum(1 for o in (100, 200) for z in range(1, 100 + c - o) if H.contains(z))
    calls = []
    contains = NumericalSemigroup.contains
    monkeypatch.setattr(NumericalSemigroup, "contains",
                        lambda self, z: calls.append(z) or contains(self, z))
    argv = ["ideal", "analyze", "--semigroup", "100,101", "--gens", "t^100 + t^101, t^200"]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: conductor {c} of <100,101> exceeds the series engine's cap "
        f"SERIES_CONDUCTOR_LIMIT = {cli.SERIES_CONDUCTOR_LIMIT}: its first matrix "
        f"alone is {rows} x {c}\n"
    )
    assert len(calls) < 100


@pytest.mark.parametrize("engine", ["auto", "monomial"])
def test_a_zero_generator_does_not_change_the_engine(capsys, engine):
    analyze = ["ideal", "analyze", "--semigroup", "3,5", "--engine", engine, "--gens"]
    code, with_zero = run_json(capsys, analyze + ["t^3, 0"])
    assert code == cli.EXIT_OK
    assert with_zero["report"] == run_json(capsys, analyze + ["t^3"])[1]["report"]
    assert with_zero["report"]["engine"] == "monomial"


@pytest.mark.parametrize("engine", ["auto", "monomial", "series"])
@pytest.mark.parametrize("semigroup", ["3,4", "30,31"])
def test_all_zero_generators_are_named_at_every_conductor(capsys, semigroup, engine):
    # <30,31> has conductor 870, above the series engine's cap
    argv = ["ideal", "analyze", "--semigroup", semigroup, "--gens", "0", "--engine", engine]
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "error: need at least one nonzero generator\n"


def test_a_generator_list_that_starts_with_a_minus_is_attached_with_equals(capsys, monkeypatch):
    # argparse reads a separate "-1*t^3" as an option; the help says how to write it
    code, doc = run_json(capsys, ["ideal", "analyze", "--semigroup", "3,5", "--gens=-1*t^3"])
    assert code == cli.EXIT_OK and doc["report"]["ideal"] == "(t^3) over <3,5>"
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    with pytest.raises(SystemExit):
        cli.main(["ideal", "analyze", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "a list that starts with '-' must be attached with '=', as in --gens=-1*t^3" in text


@pytest.mark.parametrize("command", ["sup-search", "enumerate"])
def test_enumeration_help_names_its_limit_and_the_bound_that_gives_R_alone(
    capsys, monkeypatch, command
):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"ENUMERATION_LIMIT = {cli.ENUMERATION_LIMIT}" in text
    assert "a bound below the least pseudo-Frobenius number of H enumerates R alone" in text
    # one cap: the default of --limit and of the enumeration it reaches
    args = cli.build_parser().parse_args([command, "--semigroup", "3,4", "--bound", "2"])
    assert args.limit == cli.ENUMERATION_LIMIT == 200_000
    for func in (constructions.enumerate_monomial_ideals, constructions.sup_search):
        assert inspect.signature(func).parameters["max_count"].default == cli.ENUMERATION_LIMIT


def run_module(*argv):
    """``python -m cmtype *argv``: main reads sys.argv itself."""
    path = [str(Path(cmtype.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)), "COLUMNS": "80"}
    return subprocess.run(
        [sys.executable, "-m", "cmtype", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_python_dash_m_runs_the_cli():
    proc = run_module("verify", "paper", "--json")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["command"] == "verify-paper"


def test_python_dash_m_output_matches_the_in_process_call(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the help text wraps at the terminal width
    argv = ["semigroup", "info", "4,5,6", "--json"]
    proc = run_module(*argv)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert cli.main(argv) == cli.EXIT_OK

    def drop_timing(out):
        return [line for line in out.splitlines(keepends=True) if '"timing_ms"' not in line]

    assert drop_timing(proc.stdout) == drop_timing(capsys.readouterr().out)

    proc = run_module("ideal", "--help")
    with pytest.raises(SystemExit) as caught:
        cli.main(["ideal", "--help"])
    assert proc.returncode == caught.value.code == cli.EXIT_OK
    assert proc.stdout == capsys.readouterr().out
