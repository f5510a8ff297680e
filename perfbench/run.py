#!/usr/bin/env python3
"""The cmtype benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload series-fp --seed 1 --seconds 12 --trace 0

Runs from the root of a checkout and imports ``cmtype`` from its ``src/``.
Every item goes through the in-process CLI entry point
``cmtype.cli.main([..., "--json"])`` with stdout captured; its exit code and
JSON document are checked (see workloads.py), and for the shipped reference
seeds the document's digest must match reference_digests.json.

``--trace 0`` measures the end-to-end metrics: items run back to back for
``--seconds`` after set-up (or until a finite stream ends), and ``setup_s``
is the median over several fresh interpreters of the time from process start
to the end of set-up, which is importing ``cmtype`` and building the
companions of the workload's semigroup pool (warm.py).  Latencies are kept in
an ``array('d')`` and digests are checked as they come, so what the harness
holds barely grows with the number of items and ``peak_rss_mb``, read as
soon as the timed loop ends, is the program's.  Every time it reports is
calibrated: scaled to the reference machine by a fixed loop timed between
commands (see calibrate()); the unscaled figures go on the line before the
result.

``--trace 1`` reports the per-layer metrics instead: the seed's first items
(a fixed number per workload) each run once under the tracer and once
untraced, with set-up inside the traced part so companion builds are counted;
the gap between the two gives the tracing overhead.  The number of items is
fixed so that the counts repeat exactly; ``--seconds`` does not change it.

The last line of stdout is the result object; the line before it records
the environment (kernel backend, CMTYPE_PURE_PYTHON, Python, nproc) and,
for a timed run, the unscaled wall-clock figures and the median calibration.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import warm  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
# The time calibrate() takes on the reference machine; see calibrate().
CALIBRATION_REF_S = 1e-3
REFERENCE = HERE / "reference_digests.json"


def import_cmtype():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "cmtype" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'cmtype'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cmtype.cli

    if not Path(cmtype.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported cmtype from {cmtype.__file__}, not {SRC}")
    return cmtype.cli


def warm_companions(workload):
    warm.warm_companions(workload.pool, workload.field)


def digest(doc):
    """sha256 of the --json document without its timing, sorted keys."""
    doc = {k: v for k, v in doc.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def reference_digests(workload, seed):
    if not REFERENCE.is_file():
        return []
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed), [])


def run_command(cli, argv):
    """(exit code, captured stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    failure = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code = -1
        failure = traceback.format_exc()
    dt = time.perf_counter() - t0
    if failure or code != 0:
        print(f"item failed ({code}): {' '.join(argv)}\n{failure or err.getvalue()}",
              file=sys.stderr)
    return code, out.getvalue(), dt


def calibrate():
    """Seconds a fixed pure-Python loop takes now (best of 3, collector off).

    A shared host changes speed for all code alike: on a 2-vCPU cloud VM, by
    a third or more within seconds and by 2x or more over minutes.  Times
    divided by this loop's time barely move there: the median latency of
    five repeated series-fp items per five-second window ranged over
    25-41 ms raw and 29-33 ms calibrated.  The loop touches nothing of
    ``cmtype``, so a change to the program cannot move it.
    """
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            table, acc = {}, 0
            for i in range(3000):
                acc ^= (i * 2654435761) & 0xFFFFFFFF
                table[i & 255] = [acc, i]
                acc += len(table[i & 255])
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


class Pass:
    """Latencies and failures of a sequence of CLI calls.

    A calibrated pass calls calibrate() between commands and scales each
    command's times by CALIBRATION_REF_S over the mean of the calibrations
    just before and after it: the times the command would have taken on the
    reference machine.  ``wall_s`` keeps the unscaled job time.
    """

    def __init__(self, workload, cli, reference, calibrated=False):
        self.workload = workload
        self.cli = cli
        self.reference = reference
        self.latencies = array("d")
        self.timer = item_timer(workload, self.latencies)
        self.attempted = 0
        self.failed = 0
        self.job_s = 0.0
        self.wall_s = 0.0
        self.calibrations = array("d", [calibrate()]) if calibrated else None

    def command(self, index, item):
        """Run one command, record its items, and return its document's digest."""
        first = len(self.latencies)
        with self.timer or contextlib.nullcontext():
            code, text, dt = run_command(self.cli, item.argv)
        ok, doc_digest = code == 0, None
        if ok:
            try:
                doc = json.loads(text)
            except ValueError:
                ok = False
            else:
                doc_digest = digest(doc)
                ok = self.workload.check(item, doc)
                if index < len(self.reference) and self.reference[index] != doc_digest:
                    print(f"digest mismatch at item {index}: {' '.join(item.argv)}",
                          file=sys.stderr)
                    ok = False
        if not self.timer:
            self.latencies.append(dt)
        items = len(self.latencies) - first
        if not items and code == 0:
            raise tracing.TracingError(
                "sup-search ran without calling constructions.idealization_type"
            )
        self.attempted += max(1, items)
        self.failed += 0 if ok else max(1, items)
        self.wall_s += dt
        if self.calibrations is not None:
            self.calibrations.append(calibrate())
            scale = 2 * CALIBRATION_REF_S / (self.calibrations[-2] + self.calibrations[-1])
            for i in range(first, len(self.latencies)):
                self.latencies[i] *= scale
            dt *= scale
        self.job_s += dt
        return doc_digest


def item_timer(workload, durations):
    """Times the items inside a command when a command holds many of them."""
    if workload.name == "monomial-sweep":
        return tracing.ItemTimer("cmtype.constructions", "idealization_type", durations)
    return None


def ms_quantiles(latencies):
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    return statistics.median(latencies) * 1000, p90 * 1000


def measure_setup(workload):
    """Median seconds from spawning a fresh interpreter to the end of its set-up,
    calibrated like a Pass (and unscaled)."""
    argv = [sys.executable, "-S", "-E", str(HERE / "warm.py"), str(SRC), workload.field]
    argv += [",".join(map(str, gens)) for gens in workload.pool]
    times, wall = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        # perf_counter is CLOCK_MONOTONIC on Linux: one clock for both processes.
        wall.append(float(proc.stdout.split()[-1]) - t0)
        after = calibrate()
        times.append(wall[-1] * 2 * CALIBRATION_REF_S / (before + after))
        before = after
    return statistics.median(times), statistics.median(wall)


def timed_run(cli, workload, seed, seconds):
    """(attempted, failed, metrics, unscaled wall-clock figures) of one timed run."""
    setup_s, setup_wall_s = measure_setup(workload)
    stream = workload.items(seed)
    warm_companions(workload)
    run = Pass(workload, cli, reference_digests(workload.name, seed), calibrated=True)
    deadline = time.perf_counter() + seconds
    for index, item in enumerate(stream):
        run.command(index, item)
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    p50, p90 = ms_quantiles(run.latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(run.latencies) / run.job_s, "1/s"),
        "item_ms_p50": (p50, "ms"),
        "item_ms_p90": (p90, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    wall = {
        "setup_s": setup_wall_s,
        "items_per_s": len(run.latencies) / run.wall_s,
        "calibration_ms": statistics.median(run.calibrations) * 1000,
    }
    return run.attempted, run.failed, metrics, wall


def run_pass(cli, workload, seed, items, reference=None):
    """Set up companions, then run the items once; the pass and its digests."""
    if reference is None:
        reference = reference_digests(workload.name, seed)
    run = Pass(workload, cli, reference)
    warm_companions(workload)
    return run, [run.command(index, item) for index, item in enumerate(items)]


def traced_run(cli, workload, seed):
    """Each item runs traced, then untraced, so machine drift cancels in the overhead."""
    items = list(itertools.islice(workload.items(seed), workload.trace_commands))
    reference = reference_digests(workload.name, seed)
    traced = Pass(workload, cli, reference)
    plain = Pass(workload, cli, reference)
    tr = tracing.Tracer()
    with tr:
        warm_companions(workload)
    mismatched = 0
    for index, item in enumerate(items):
        with tr:
            traced_digest = traced.command(index, item)
        mismatched += traced_digest != plain.command(index, item)
    if mismatched:
        print(f"{mismatched} items differ between traced and untraced runs", file=sys.stderr)
    overhead = ms_quantiles(traced.latencies)[0] / ms_quantiles(plain.latencies)[0] - 1
    # Kernel calls are leaves, so the tracer barely inflates their own time but
    # inflates the item time around them: take their share of untraced time.
    metrics = layer_metrics(tr, len(traced.latencies), sum(plain.latencies), overhead)
    return (traced.attempted + plain.attempted, traced.failed + plain.failed + mismatched,
            metrics, tr)


def layer_metrics(tr, n_items, untraced_s, overhead):
    m = {}
    for layer in tracing.LAYERS:
        m[f"{layer}.calls"] = (tr.layer_calls(layer), "count")
        m[f"{layer}.self_s"] = (tr.layer_self_s(layer), "s")
    sg, ri, fi = "NumericalSemigroup.", "RelativeIdeal.", "FractionalIdeal."
    enum = ("constructions", "enumerate_monomial_ideals")
    kernel_s = tr.layer_self_s("kernels")
    m.update({
        "semigroup.pseudo_frobenius.calls": (tr.fn_calls("semigroup", sg + "pseudo_frobenius"), "count"),
        "semigroup.canonical.s": (tr.incl_s[("semigroup", sg + "canonical_relative_ideal")], "s"),
        "constructions.ideals": (tr.yielded[enum], "count"),
        "constructions.enumerate.s": (tr.incl_s[enum], "s"),
        "relideal.init.calls": (tr.fn_calls("relideal", ri + "__init__"), "count"),
        "relideal.colon.calls": (tr.fn_calls("relideal", ri + "colon"), "count"),
        "relideal.multiply.calls": (tr.fn_calls("relideal", ri + "multiply"), "count"),
        "relideal.bits": (tr.counts["relideal.bits"], "bits"),
        "relideal.companion.hit_ratio": (tr.hit_ratio("relideal"), "ratio"),
        "typecalc.engine_calls_per_item": (tr.engine_calls_from_typecalc / n_items, "calls/item"),
        "fracideal.mu.calls": (tr.fn_calls("fracideal", fi + "mu"), "count"),
        "fracideal.multiply.calls": (tr.fn_calls("fracideal", fi + "multiply"), "count"),
        "fracideal.colon.calls": (tr.fn_calls("fracideal", fi + "colon"), "count"),
        "fracideal.companion.hit_ratio": (tr.hit_ratio("fracideal"), "ratio"),
        "series.objects": (tr.fn_calls("series", "TruncatedSeries.__init__"), "count"),
        "series.window_cells": (tr.counts["series.window_cells"], "cells"),
        "linalg.member.calls": (tr.fn_calls("linalg", "member"), "count"),
        "linalg.rref.calls": (tr.fn_calls("linalg", "_rref"), "count"),
        "linalg.rref.cells": (tr.counts["linalg.rref.cells"], "cells"),
        "linalg.max_cols": (tr.max_cols, "cols"),
        "kernels.s": (kernel_s, "s"),
        "kernels.cells": (tr.counts["kernels.cells"], "cells"),
        "kernels.share": (kernel_s / untraced_s, "ratio"),
        "trace.items": (n_items, "count"),
        "trace.overhead": (overhead, "ratio"),
    })
    return m


def environment():
    import cmtype.kernels

    return {
        "backend": cmtype.kernels.BACKEND,
        "pure_python_env": bool(os.environ.get("CMTYPE_PURE_PYTHON")),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = import_cmtype()
    if args.trace:
        attempted, failed, metrics, tr = traced_run(cli, workload, args.seed)
        top = sorted(tr.self_s.items(), key=lambda kv: -kv[1])[:25]
        print(json.dumps({"self_s_by_function": {f"{k[0]}:{k[1]}": round(v, 6) for k, v in top}}))
        wall = None
    else:
        attempted, failed, metrics, wall = timed_run(cli, workload, args.seed, args.seconds)
    print(json.dumps({"env": environment(), "workload": workload.name, "seed": args.seed,
                      "wall": wall}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
