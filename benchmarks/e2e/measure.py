"""One measured run of one workload.

Set-up (several times, so ``setup_s`` is a median), an untimed warm-up on a
tenth of the stream, timed repetitions until the time budget is spent, the
correctness gate, and a summary of every metric with quartiles and sample
count.  An untraced run yields the end-to-end metrics; a traced run
alternates traced and untraced repetitions (so the tracing overhead is
measured inside one process) and yields the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import statistics
from dataclasses import dataclass
from itertools import cycle, repeat
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List

import numpy as np

import loopback
from offline import run_traced, run_untraced
from oracle import differing_keys, sample_check, single_shard_reference
from workloads import Workload, make_records, to_points

#: never fewer timed repetitions than this, whatever the time budget
MIN_REPS = 3
#: set-ups per offline run (a serve run sets up once per repetition)
SETUPS = 3
#: units whose metrics are counts of work: they should repeat exactly
COUNT_UNITS = ("count", "B")
#: the serving layers' busy time that the replay accounts for
SERVE_BUSY = ("serve.protocol.decode_s", "serve.session.admit_s",
              "serve.engine.feed_s", "serve.engine.pump_s",
              "serve.protocol.encode_s")


@dataclass(frozen=True)
class Run:
    """What one invocation of the command asked for."""

    seed: int
    seconds: float
    traced: bool
    #: records offered per repetition (the workload's size times --scale)
    records: int
    #: process start to imports done; part of every ``setup_s`` sample
    import_s: float
    #: metric name -> unit, from BENCHMARK.json
    units: Dict[str, str]
    results: Path
    src: Path


def summarize(samples: List[float]) -> dict:
    """Median, quartiles and sample count of one metric."""
    if not samples:
        return {"value": 0, "q1": 0, "q3": 0, "n": 0}
    if len(samples) == 1:
        return {"value": samples[0], "q1": samples[0], "q3": samples[0],
                "n": 1}
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples)}


def best_of(samples: List[float], pick=min) -> dict:
    """The calmest repetition's value, with the median and quartiles over
    all repetitions kept on record.

    Repetitions are replicas of the same work, and interference on a shared
    box only ever slows one down (identical repetitions inside one process
    ran anywhere from 27k to 41k rec/s), so the best repetition is the
    steadiest estimate of the system's own cost -- ``timeit``'s rule.
    """
    out = summarize(samples)
    out["median"] = out["value"]
    out["value"] = pick(samples)
    return out


def percentile(per_rep: List[List[float]], p: float) -> dict:
    """The ``p``-th percentile of each repetition's samples, best repetition
    reported.  Flagged when fewer than 10 of the pooled samples lie beyond
    it."""
    out = best_of([float(np.percentile(samples, p)) for samples in per_rep])
    out["n"] = sum(len(samples) for samples in per_rep)
    if out["n"] * (100 - p) / 100 < 10:
        out["undersampled"] = True
    return out


def timed_reps(seconds: float, traced: bool,
               run_one: Callable[[bool], dict]) -> List[dict]:
    """Repeat until the next repetition would overrun the budget."""
    reps: List[dict] = []
    start, longest = perf_counter(), 0.0
    for mode in cycle([True, False]) if traced else repeat(False):
        t0 = perf_counter()
        rep = run_one(mode)
        rep["traced"] = mode
        reps.append(rep)
        longest = max(longest, perf_counter() - t0)
        if rep.get("error") or (
                len(reps) >= MIN_REPS
                and perf_counter() - start + longest > seconds):
            break
    return reps


def gate(workload: Workload, seed: int, records, reps: List[dict],
         extra_outputs=()) -> dict:
    """Count what was attempted and what failed; see ``oracle``."""
    points = to_points(records)
    good = [rep for rep in reps if not rep.get("error")]
    reference = None
    if workload.serve or workload.config.shards > 1:
        expected, wall = single_shard_reference(workload, points)
        reference = {"single_shard_records_per_s": len(points) / wall}
    else:
        expected = good[0]["outputs"] if good else {}
    attempted = failed = 0
    failures: List[str] = []
    for i, rep in enumerate(reps):
        attempted += rep["offered"] + len(expected)
        if rep.get("error"):
            failed += rep["offered"] + len(expected)
            failures.append(f"repetition {i}: {rep['error']}")
            continue
        lost = rep["offered"] - rep["admitted"]
        wrong = differing_keys(expected, rep["outputs"])
        failed += lost + wrong
        if lost:
            failures.append(f"repetition {i}: {lost} record(s) not admitted")
        if wrong:
            failures.append(f"repetition {i}: {wrong} boundary output(s) "
                            "missing or different from the reference")
    for i, outputs in enumerate(extra_outputs):
        attempted += len(expected)
        wrong = differing_keys(expected, outputs)
        failed += wrong
        if wrong:
            failures.append(f"replay {i}: {wrong} boundary output(s) differ")
    checked, mismatches = sample_check(workload, points, expected, seed)
    attempted += checked
    failed += len(mismatches)
    failures.extend(mismatches)
    return {"correct": failed == 0 and bool(good), "attempted": attempted,
            "failed": failed, "failures": failures, "reference": reference}


def end_to_end(setups: List[float], reps: List[dict], rss_mb) -> Dict:
    reps = [rep for rep in reps if not rep.get("error")]
    boundary_ms = [rep["boundary_ms"] for rep in reps]
    return {
        "setup_s": summarize(setups),
        "records_per_s": best_of(
            [rep["offered"] / rep["wall_s"] for rep in reps], max),
        "boundary_ms_p50": percentile(boundary_ms, 50),
        "boundary_ms_p95": percentile(boundary_ms, 95),
        "cpu_ms_per_krecord": best_of(
            [rep["cpu_s"] * 1e6 / rep["offered"] for rep in reps]),
        "peak_rss_mb": rss_mb,
    }


def per_layer(layer_samples: List[Dict], reps: List[dict], units: Dict
              ) -> Dict:
    """Median of each layer metric over the traced repetitions, plus the
    tracing overhead measured against this run's untraced repetitions."""
    metrics = {}
    for name in layer_samples[0] if layer_samples else ():
        samples = [layers[name] for layers in layer_samples]
        metrics[name] = summarize(samples)
        if units.get(name) in COUNT_UNITS and len(samples) > 1:
            metrics[name]["exact_repeat"] = len(set(samples)) == 1
    good = [rep for rep in reps if not rep.get("error")]
    traced = [rep["wall_s"] for rep in good if rep["traced"]]
    plain = [rep["wall_s"] for rep in good if not rep["traced"]]
    if traced and plain:
        metrics["trace.wall_s"] = summarize(traced)
        # best against best, for the reason given at best_of()
        metrics["trace.overhead_ratio"] = {
            "value": min(traced) / min(plain),
            "n": min(len(traced), len(plain))}
    return metrics


# -------------------------------------------------------------------- offline

def measure_offline(workload: Workload, run: Run) -> dict:
    seed, traced, n = run.seed, run.traced, run.records
    setups = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        records = make_records(n, seed, workload.cluster_spread,
                               workload.outlier_rate)
        inputs = records if workload.raw else to_points(records)
        setups.append(run.import_s + perf_counter() - t0)

    def run_one(mode: bool, inputs=inputs) -> dict:
        rep = (run_traced if mode else run_untraced)(workload, inputs)
        rep["rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return rep

    run_one(False, inputs[:n // 10])
    if traced:
        run_one(True, inputs[:n // 10])
    reps = timed_reps(run.seconds, traced, run_one)

    out = gate(workload, seed, records, reps)
    if traced:
        traced_reps = [rep for rep in reps if rep["traced"]]
        out["metrics"] = per_layer([rep["layers"] for rep in traced_reps],
                                   reps, run.units)
        write_trace(run, workload, traced_reps[-1]["spans"])
    else:
        # the high-water mark after the first timed repetition: later ones
        # only add what this harness retains (outputs kept for the gate)
        out["metrics"] = end_to_end(setups, reps, {
            "value": reps[0]["rss_mb"], "n": 1,
            "after_all_repetitions": reps[-1]["rss_mb"]})
    out["repetitions"] = len(reps)
    return out


# ---------------------------------------------------------------------- serve

def measure_serve(workload: Workload, run: Run) -> dict:
    seed, traced, n = run.seed, run.traced, run.records
    log_path = run.results / f"server-{workload.name}.log"
    log_path.write_bytes(b"")

    def run_one(mode: bool, size: int = n) -> dict:
        t0 = perf_counter()
        records = make_records(size, seed, workload.cluster_spread,
                               workload.outlier_rate)
        made = perf_counter() - t0
        rep = loopback.run(workload, records, run.src, log_path, poll=mode)
        rep["setup_s"] = run.import_s + made + rep.get("setup_s", 0.0)
        return rep

    warm = run_one(False, n // 10)
    reps = [warm] if warm.get("error") else timed_reps(run.seconds, traced,
                                                       run_one)
    good = [rep for rep in reps if not rep.get("error")]
    records = make_records(n, seed, workload.cluster_spread,
                           workload.outlier_rate)

    layer_samples, replayed = [], []
    if traced and good:
        spans = []
        for _ in range(2):
            layers, spans, outputs = loopback.replay(workload,
                                                     good[-1]["lines"])
            layer_samples.append(layers)
            replayed.append(outputs)
        write_trace(run, workload, spans)
    out = gate(workload, seed, records, reps, replayed)
    if traced and good:
        polled = [rep for rep in good if rep["traced"]]
        wall = statistics.median(rep["wall_s"] for rep in polled)
        service = polled[-1]["server_metrics"]["service"]["records"]
        client_side = {
            "serve.session.admitted": service["admitted"],
            "serve.session.quarantined": service["quarantined"],
            "serve.session.rejected": service["rejected"],
            "serve.server.points_rtt_ms_p50": statistics.median(
                ms for rep in polled for ms in rep["rtt_ms"]),
            "serve.server.admit_to_emit_ms_p50": statistics.median(
                ms for rep in polled for ms in rep["admit_to_emit_ms"]),
            "serve.server.queue_depth_max":
                max(rep["queue_depth_max"] for rep in polled),
            "serve.server.loadgen_lag_ms": statistics.median(
                ms for rep in polled for ms in rep["lag_ms"]),
            "serve.server.loadgen_cpu_share": statistics.median(
                rep["loadgen_cpu_share"] for rep in polled),
        }
        for layers in layer_samples:
            layers.update(client_side)
            layers["serve.server.loop_residual_s"] = wall - sum(
                layers[name] for name in SERVE_BUSY)
        out["metrics"] = per_layer(layer_samples, reps, run.units)
    elif good:
        out["metrics"] = end_to_end(
            [rep["setup_s"] for rep in good], reps,
            summarize([rep["rss_mb"] for rep in good]))
    else:
        out["metrics"] = {}
    out["repetitions"] = len(reps)
    return out


def write_trace(run: Run, workload: Workload, spans: List[dict]) -> None:
    """The last traced repetition's spans, written once the run is over."""
    with open(run.results / f"trace-{workload.name}.json", "w") as f:
        json.dump({"workload": workload.name, "seed": run.seed,
                   "clock": "seconds since the repetition started",
                   "spans": spans}, f)
