"""End-to-end benchmark of the SOP runtime and service, with a traced run.

One measured run (what ``BENCHMARK.json``'s command invokes)::

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

prints progress on stderr and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` -- the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
summary (quartiles, sample counts, environment) goes to
``results/<workload>.trace<0|1>.json`` and the spans of a traced run to
``results/trace-<workload>.json``.  Exit status is non-zero when any
operation failed or any output disagreed with the oracle.

Everything at once, as one result file two of which ``compare`` can diff::

    python benchmarks/e2e/run.py all [--quick] [--seed N] [--out FILE]
    python benchmarks/e2e/run.py compare A.json B.json

See README.md in this directory for the metric glossary and the workloads.
"""

import bootstrap  # first: stamps process start, puts src/ on sys.path

import argparse
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from compare import compare_files
from measure import Run, measure_offline, measure_serve
from workloads import WORKLOADS

IMPORT_S = perf_counter() - bootstrap.T0
SCHEMA = 1
#: ``all --quick``: tenth-size streams and a short budget, same code paths
QUICK_SCALE, QUICK_SECONDS = 0.1, 2


def contract() -> dict:
    with open(bootstrap.CONTRACT) as f:
        return json.load(f)


def environment() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    try:
        numba_version = importlib.metadata.version("numba")
    except importlib.metadata.PackageNotFoundError:
        numba_version = None
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_version,
        "REPRO_NUMBA": os.environ.get("REPRO_NUMBA"),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": os.getloadavg(),
    }


def run_one(args) -> int:
    """The contract invocation: one workload, one JSON line."""
    spec = contract()
    workload = WORKLOADS[args.workload]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    env = environment()
    run = Run(seed=args.seed, seconds=args.seconds, traced=bool(args.trace),
              records=max(1000, int(workload.records * args.scale)),
              import_s=IMPORT_S,
              units={m["name"]: m["unit"] for m in listed},
              results=results, src=bootstrap.SRC)
    print(f"[e2e] {workload.name}: seed {run.seed}, {run.records} records "
          f"per repetition, {run.seconds:g}s budget, "
          f"{'traced' if run.traced else 'untraced'}", file=sys.stderr)
    measure = measure_serve if workload.serve else measure_offline
    report = measure(workload, run)
    report = {
        "schema": SCHEMA, "workload": workload.name, "seed": run.seed,
        "seconds": run.seconds, "traced": run.traced, "scale": args.scale,
        "records": run.records, "environment": env, **report}
    with open(results / f"{workload.name}.trace{args.trace}.json", "w") as f:
        json.dump(report, f, indent=1)
    for failure in report["failures"]:
        print(f"[e2e] FAILED {failure}", file=sys.stderr)
    if not report["metrics"]:
        # nothing ran to completion: no result line, loud exit
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        # a layer that is not on this workload's path did no work: 0
        "metrics": {
            m["name"]: {
                "value": report["metrics"].get(m["name"], {"value": 0})["value"],
                "unit": m["unit"]}
            for m in listed},
    }))
    return 0 if report["correct"] else 1


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process so
    CPU and peak RSS belong to one workload; merged into one result file."""
    scale = QUICK_SCALE if args.quick else 1.0
    seconds = QUICK_SECONDS if args.quick else contract()["run_seconds"]
    results = Path(args.results)
    merged = {"schema": SCHEMA, "seed": args.seed, "scale": scale,
              "seconds": seconds, "environment": environment(),
              "workloads": {}}
    status = 0
    for name in WORKLOADS:
        entry = merged["workloads"][name] = {}
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(seconds), "--trace",
                 str(trace), "--scale", str(scale), "--results",
                 str(results)], stdout=subprocess.DEVNULL)
            status = status or done.returncode
            with open(results / f"{name}.trace{trace}.json") as f:
                report = json.load(f)
            entry[section] = report["metrics"]
            entry[f"{section}_run"] = {
                key: report[key] for key in
                ("correct", "attempted", "failed", "failures",
                 "repetitions", "records", "reference")}
    out = Path(args.out) if args.out else results / "e2e.json"
    with open(out, "w") as f:
        json.dump(merged, f, indent=1)
    print_table(merged, contract())
    print(f"\nwrote {out}; spans in {results}/trace-<workload>.json")
    return status


def print_table(merged: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in merged["workloads"].items():
        run = entry["end_to_end_run"]
        total = run["attempted"] + entry["per_layer_run"]["attempted"]
        failed = run["failed"] + entry["per_layer_run"]["failed"]
        print(f"\n== {name}: {run['records']} records x "
              f"{run['repetitions']} repetitions, failed_ops_ratio "
              f"{failed / total:g} ({failed}/{total})")
        for section in ("end_to_end", "per_layer"):
            for metric, summary in entry[section].items():
                spread = ""
                if summary.get("n", 0) > 1 and "q1" in summary:
                    spread = (f"  [q1 {summary['q1']:.6g}, q3 "
                              f"{summary['q3']:.6g}, n {summary['n']}]")
                flags = "  undersampled" if summary.get("undersampled") else ""
                if summary.get("exact_repeat") is False:
                    flags += "  NOT-REPEATING"
                print(f"  {metric:48s} {summary['value']:>14.6g} "
                      f"{units.get(metric, ''):6s}{spread}{flags}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default_results = str(bootstrap.RESULTS)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare_files(args.a, args.b, contract())
    if argv[:1] == ["all"]:
        parser = argparse.ArgumentParser(prog="run.py all")
        parser.add_argument("--quick", action="store_true",
                            help="tenth-size streams, <= 60 s in total")
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--out", help="result file (default: "
                            "results/e2e.json)")
        parser.add_argument("--results", default=default_results)
        return run_all(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream size as a share of the workload's")
    parser.add_argument("--results", default=default_results)
    return run_one(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
