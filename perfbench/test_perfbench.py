"""Tests of the benchmark itself: inputs, digests, tracing and layer separation.

Run with ``python -m pytest -q perfbench``.  Each test runs a handful of items
only; the benchmark runs themselves are not part of the test suite.
"""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402

CLI = bench.import_cmtype()

from cmtype import constructions, cli, typecalc  # noqa: E402
from cmtype.fracideal import FractionalIdeal  # noqa: E402
from cmtype.linalg import GF, QQ  # noqa: E402
from cmtype.semigroup import NumericalSemigroup  # noqa: E402
from cmtype.series import parse_generators  # noqa: E402

# Items per workload for the digest and layer tests: enough to touch every
# layer the workload uses, few enough to keep the suite quick.
SMALL = {"monomial-sweep": 1, "series-fp": 3, "series-qq": 3, "semigroup-scan": 3}


def first(name, seed, n):
    return list(itertools.islice(W.WORKLOADS[name].items(seed), n))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    argvs = [item.argv for item in first(name, 3, 12)]
    assert argvs == [item.argv for item in first(name, 3, 12)]
    assert argvs != [item.argv for item in first(name, 4, 12)]


def test_monomial_sweep_inputs():
    items = list(W.WORKLOADS["monomial-sweep"].items(5))
    assert len({item.semigroup.generators for item in items}) == len(items)
    assert sorted(item.semigroup.generators for item in items) == [
        sg.generators for sg in W.monomial_semigroups()
    ]
    for item in items[:2]:
        H = NumericalSemigroup(item.semigroup.generators)
        assert H.embedding_dimension == 3
        assert W.MONOMIAL_CONDUCTOR[0] <= H.conductor < W.MONOMIAL_CONDUCTOR[1]
        bound = H.conductor + H.multiplicity
        assert item.argv[item.argv.index("--bound") + 1] == str(bound)
        enumerated = sum(1 for _ in constructions.enumerate_monomial_ideals(H, bound))
        assert enumerated == W.count_ideals(item.semigroup, 10**6)
        assert W.MONOMIAL_IDEALS[0] <= enumerated <= W.MONOMIAL_IDEALS[1]


@pytest.mark.parametrize("name, F, pool", [
    ("series-fp", GF(W.FP_PRIME), W.SERIES_POOL),
    ("series-qq", QQ, W.SERIES_QQ_POOL),
])
def test_series_inputs_are_proper_non_monomial_ideals(name, F, pool):
    for item in first(name, 5, 12):
        argv = item.argv
        assert argv[argv.index("--field") + 1] == W.WORKLOADS[name].field
        H = NumericalSemigroup(item.semigroup.generators)
        assert H.generators in pool
        gens = parse_generators(argv[argv.index("--gens") + 1], F)
        assert 2 <= len(gens) <= 3
        assert any(len(g.coeffs) >= 2 for g in gens)
        assert all(e > 0 and H.contains(e) for g in gens for e in g.coeffs)
        ideal = FractionalIdeal.from_generators(H, F, gens)
        R = ideal.unit_ideal()
        assert R.contains_ideal(ideal) and ideal != R


def test_semigroup_scan_inputs_are_distinct():
    items = first("semigroup-scan", 5, 40)
    assert len({item.semigroup.generators for item in items}) == len(items)
    for item in items:
        H = NumericalSemigroup(item.semigroup.generators)
        assert H.generators == item.semigroup.generators
        assert H.embedding_dimension in (2, 3)
        assert W.SCAN_CONDUCTOR[0] <= H.conductor < W.SCAN_CONDUCTOR[1]
        assert H.conductor == item.semigroup.conductor


@pytest.fixture(scope="module")
def passes():
    """A traced and an untraced pass over the first items of each workload."""
    out = {}
    for name, n in SMALL.items():
        workload = W.WORKLOADS[name]
        items = first(name, 1, n)
        tr = tracing.Tracer()
        with tr:
            traced = bench.run_pass(CLI, workload, 1, items)
        plain = bench.run_pass(CLI, workload, 1, items)
        out[name] = (traced, plain, tr)
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_digests_agree_with_reference(name, passes):
    (traced, traced_digests), (plain, plain_digests), _ = passes[name]
    assert traced.failed == plain.failed == 0
    assert traced_digests == plain_digests
    assert traced_digests == bench.reference_digests(name, 1)[: len(traced_digests)]


@pytest.mark.parametrize("name", sorted(SMALL))
def test_held_out_reference_seed(name):
    workload = W.WORKLOADS[name]
    done, digests = bench.run_pass(CLI, workload, 7, first(name, 7, 1))
    assert done.failed == 0
    assert digests == bench.reference_digests(name, 7)[:1]


@pytest.mark.parametrize("name", ["monomial-sweep", "series-fp"])
def test_calibrated_pass_scales_every_time(name, monkeypatch):
    """A machine twice as slow as the reference halves every reported time."""
    monkeypatch.setattr(bench, "calibrate", lambda: 2 * bench.CALIBRATION_REF_S)
    run = bench.Pass(W.WORKLOADS[name], CLI, [], calibrated=True)
    run.command(0, first(name, 1, 1)[0])
    assert len(run.calibrations) == 2
    assert run.job_s == pytest.approx(run.wall_s / 2)
    assert 0 < sum(run.latencies) <= run.job_s * (1 + 1e-9)


def test_setup_child_imports_and_warms_only():
    """The set-up that setup_s times loads none of the benchmark's own modules."""
    argv = [sys.executable, "-S", "-E", "-c",
            "import runpy, sys; sys.argv = sys.argv[1:]; "
            "runpy.run_path(sys.argv[0], run_name='__main__'); "
            "print(sorted(m for m in sys.modules if m in ('run', 'tracer', 'workloads')))",
            str(bench.HERE / "warm.py"), str(bench.SRC), f"fp:{W.FP_PRIME}", "5,9"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout.split("\n")
    assert float(out[0]) > 0
    assert out[1] == "[]"


def test_layer_separation(passes):
    def calls(name, layer):
        return passes[name][2].layer_calls(layer)

    def fn(name, layer, function):
        return passes[name][2].fn_calls(layer, function)

    for name in ("monomial-sweep", "semigroup-scan"):
        for layer in ("series", "linalg", "kernels", "fracideal"):
            assert calls(name, layer) == 0, (name, layer)
    assert calls("monomial-sweep", "relideal") > 0
    assert passes["monomial-sweep"][2].yielded[("constructions", "enumerate_monomial_ideals")] > 0
    assert calls("semigroup-scan", "typecalc") == 0
    assert fn("semigroup-scan", "semigroup", "NumericalSemigroup.canonical_relative_ideal") == 3
    for name in ("series-fp", "series-qq"):
        for method in ("colon", "multiply"):
            assert fn(name, "relideal", f"RelativeIdeal.{method}") == 0, (name, method)
        assert calls(name, "constructions") == 0
        for layer in ("series", "linalg", "kernels", "fracideal", "typecalc"):
            assert calls(name, layer) > 0, (name, layer)
    assert fn("series-fp", "kernels", "rref_qq") == fn("series-qq", "kernels", "rref_fp") == 0
    assert fn("series-qq", "kernels", "rref_qq") > 0


def test_install_patches_names_where_they_are_called():
    original_classify = typecalc.classify
    original_type = typecalc.idealization_type
    with tracing.Tracer():
        assert cli.classify.__wrapped__ is original_classify
        assert constructions.idealization_type.__wrapped__ is original_type
        assert typecalc.classify is cli.classify
    assert cli.classify is original_classify
    assert constructions.idealization_type is original_type


def test_tracer_fails_loudly_on_a_missing_function(monkeypatch):
    monkeypatch.delattr(typecalc, "classify")
    original_main = cli.main
    with pytest.raises(tracing.TracingError, match="classify"):
        tracing.Tracer().install()
    assert cli.main is original_main


def test_tracer_fails_loudly_on_a_missing_method(monkeypatch):
    monkeypatch.delattr(FractionalIdeal, "colon")
    with pytest.raises(tracing.TracingError, match="FractionalIdeal.colon"):
        tracing.Tracer().install()


def test_item_timer_fails_loudly_when_the_call_site_moves(monkeypatch):
    monkeypatch.delattr(constructions, "idealization_type")
    with pytest.raises(tracing.TracingError, match="idealization_type"):
        tracing.ItemTimer("cmtype.constructions", "idealization_type", [])
