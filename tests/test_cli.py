"""The command-line contract: exit codes, JSON documents, error carets."""

import json

import pytest

from cmtype import cli

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


def test_ideal_analyze_json(capsys):
    argv = ["ideal", "analyze", "--semigroup", "4,5,6", "--gens", "t^4 - t^5, t^6"]
    code, doc = run_json(capsys, argv)
    assert code == cli.EXIT_OK
    assert doc["schema_version"] == 1
    assert set(doc) == DOCUMENT_KEYS | {"report"}
    report = doc["report"]
    assert report["engine"] == "series" and report["consistent"]
    assert report["methods"]["socle"] == report["methods"]["cokernel"] == report["r_idealization"]


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
