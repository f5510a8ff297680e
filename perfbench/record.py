#!/usr/bin/env python3
"""Record, compare and re-derive the benchmark's reference data.

    python3 perfbench/record.py measure --runs 10 --out now.json
    python3 perfbench/record.py compare perfbench/BENCH_baseline.json now.json
    python3 perfbench/record.py digests

``measure`` runs ``run.py`` once per seed (seeds 1..N, trace off) on each
workload with the ``run_seconds`` of BENCHMARK.json, adds one traced run at
seed 1, and writes every raw result plus median, quartiles and spread
(quartile distance over median) per metric, for the calibrated metrics and
for the unscaled wall-clock figures.  ``compare`` refuses results
taken with different kernel backends and reports, per workload and metric,
the change of the median against the bound in BENCHMARK.json.  ``digests``
rewrites reference_digests.json from the current program for the shipped
seeds; only do that in a change that is meant to alter the JSON output.
"""

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE_SEEDS = (1, 7)
REFERENCE_ITEMS = {"monomial-sweep": 60}
REFERENCE_DEFAULT_ITEMS = 400


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    result["env"], result["wall"] = info["env"], info["wall"]
    result["seed"] = seed
    return result


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def measure(args):
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in SPEC["workloads"]]
    seconds = SPEC["run_seconds"]
    out = {"run_seconds": seconds, "runs_per_workload": args.runs, "workloads": {}}
    for name in workloads:
        runs = [one_run(name, seed, seconds, 0) for seed in range(1, args.runs + 1)]
        envs = {json.dumps(r["env"], sort_keys=True) for r in runs}
        if len(envs) != 1:
            raise SystemExit(f"environment changed between runs of {name}: {envs}")
        out["env"] = runs[0]["env"]
        stats = {m: summary([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        wall = {m: summary([r["wall"][m] for r in runs]) for m in runs[0]["wall"]}
        entry = {"runs": runs, "summary": stats, "wall_summary": wall,
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs)}
        traced = one_run(name, 1, seconds, 1)
        entry["layers"] = {m: v["value"] for m, v in traced["metrics"].items()}
        out["workloads"][name] = entry
        for m, s in stats.items():
            flag = "" if m == "setup_s" or s["spread"] <= bounds[m] / 3 else "  <-- above bound/3"
            print(f"{name:15} {m:12} median {s['median']:10.4f}  spread {s['spread']:.4f}"
                  f"  bound {bounds[m]}{flag}", flush=True)
        for m, s in wall.items():
            print(f"{name:15} unscaled {m:14} median {s['median']:10.4f}  spread {s['spread']:.4f}",
                  flush=True)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def compare(args):
    old, new = (json.loads(Path(p).read_text()) for p in (args.old, args.new))
    if old["env"]["backend"] != new["env"]["backend"]:
        raise SystemExit(
            f"refusing to compare: kernel backend {old['env']['backend']!r} "
            f"vs {new['env']['backend']!r}"
        )
    worse_if = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    status = 0
    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        for metric, (better, bound) in worse_if.items():
            a = old["workloads"][name]["summary"][metric]["median"]
            b = new["workloads"][name]["summary"][metric]["median"]
            change = (b - a) / a
            worse = change > bound if better == "lower" else -change > bound
            status |= worse
            print(f"{name:15} {metric:12} {a:10.4f} -> {b:10.4f}  {change:+.3f}"
                  f"  (bound {bound}){'  WORSE' if worse else ''}")
    return status


def digests(args):
    cli = bench.import_cmtype()
    table = {}
    for name, workload in bench.WORKLOADS.items():
        count = REFERENCE_ITEMS.get(name, REFERENCE_DEFAULT_ITEMS)
        table[name] = {}
        for seed in REFERENCE_SEEDS:
            items = itertools.islice(workload.items(seed), count)
            run, run_digests = bench.run_pass(cli, workload, seed, items, reference=[])
            if run.failed:
                raise SystemExit(f"{name} seed {seed}: {run.failed} items failed; not writing")
            table[name][str(seed)] = run_digests
            print(f"{name} seed {seed}: {count} digests", flush=True)
    bench.REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("measure")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", nargs="*")
    p.add_argument("--out", required=True)
    p = sub.add_parser("compare")
    p.add_argument("old")
    p.add_argument("new")
    sub.add_parser("digests")
    args = parser.parse_args()
    return {"measure": measure, "compare": compare, "digests": digests}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
