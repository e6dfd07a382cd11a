"""Offline repetitions: one finite stream through a fresh ``Runtime``.

:func:`run_untraced` is what a user runs -- ``Runtime.run`` with one
runtime-level subscriber stamping boundary ends.  :func:`run_traced` does
the same work through the public stepping API (``IngestGuard.filter`` ->
``batches_by_boundary`` -> ``Runtime.step`` -> ``finish``, exactly the loop
``Runtime.run`` contains) so that every call into a layer happens in this
file and can be timed here.
"""

from __future__ import annotations

import gc
from time import perf_counter, process_time
from typing import Dict, List

from repro.engine import ExecutorSubscriber
from repro.runtime import Runtime
from repro.streams import IngestGuard, batches_by_boundary
from repro.streams.source import stream_end_boundary

from tracing import STAGE_SPANS, Trace, instrument
from workloads import Workload


class BoundaryStamps(ExecutorSubscriber):
    """Runtime-level subscriber: when each merged boundary result exists."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.merged_seqs = 0

    def on_boundary_end(self, t, outputs):
        self.stamps.append(perf_counter())
        self.merged_seqs += sum(len(seqs) for seqs in outputs.values())


def _intervals_ms(start: float, stamps: List[float]) -> List[float]:
    edges = [start] + stamps
    return [(b - a) * 1e3 for a, b in zip(edges, edges[1:])]


def run_untraced(workload: Workload, inputs) -> dict:
    stamps = BoundaryStamps()
    runtime = Runtime(workload.group, config=workload.config,
                      subscribers=[stamps])
    gc.collect()
    cpu0, t0 = process_time(), perf_counter()
    result = runtime.run(inputs)
    wall, cpu = perf_counter() - t0, process_time() - cpu0
    work = result.work_stats_snapshot()
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "boundary_ms": _intervals_ms(t0, stamps.stamps),
        "outputs": result.outputs,
        "offered": len(inputs),
        "admitted": len(inputs) - work.get("records_quarantined", 0),
    }


def run_traced(workload: Workload, inputs) -> dict:
    """One repetition with every layer boundary stamped; see module doc."""
    trace = Trace()
    stamps = BoundaryStamps()
    config = workload.config
    guard = IngestGuard() if config.validate_ingest else None
    # the guard stage runs here, so the runtime must not run it again
    runtime = Runtime(workload.group,
                      config=config.replace(validate_ingest=False),
                      subscribers=[stamps])
    instrument(runtime, trace)
    gc.collect()
    cpu0, t0 = process_time(), perf_counter()
    points = inputs
    if guard is not None:
        points = guard.filter(inputs)
        trace.add("streams.source.guard", t0, perf_counter())
    slide, kind = runtime.swift.slide, runtime.group.kind
    until = stream_end_boundary(points, slide, kind)
    runtime.partitioner.ensure_bounds(points)
    batches = batches_by_boundary(points, slide, kind, until)
    first_batch = cursor = perf_counter()
    for t, batch in batches:
        step_start = perf_counter()
        trace.add("streams.source.batching", cursor, step_start, None, t)
        runtime.step(t, batch)
        cursor = perf_counter()
        trace.close_step(t, step_start, cursor)
    result = runtime.finish()
    wall, cpu = perf_counter() - t0, process_time() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "boundary_ms": _intervals_ms(t0, stamps.stamps),
        "outputs": result.outputs,
        "offered": len(inputs),
        "admitted": len(points),
        "layers": layer_metrics(
            trace, runtime, result, stamps.merged_seqs,
            guard_records=len(inputs) if guard else 0,
            quarantined=guard.total_quarantined if guard else 0,
            boundary_wall=cursor - first_batch),
        "spans": trace.as_json(t0),
    }


def layer_metrics(trace: Trace, runtime: Runtime, result, merged_seqs: int,
                  guard_records: int, quarantined: int,
                  boundary_wall: float) -> Dict[str, float]:
    """The runtime-and-below per-layer metrics of one traced repetition."""
    work = result.work_stats_snapshot()
    stats: Dict[str, int] = {}
    for shard in runtime.shards:
        for key, value in shard.detector.stats.items():
            stats[key] = stats.get(key, 0) + value
    routed = trace.routed_per_shard
    busy = trace.busy()
    step_s = busy["runtime.runtime.step"]
    split_s = busy["runtime.partitioner.split"]
    shard_s = busy["engine.executor.step"]
    merge_s = busy["runtime.merger.merge"]
    refresh_s = busy["engine.refresh.refresh"]
    screen_s = busy["core.prefilter.screen"]
    screened = work.get("prefilter_screened", 0)
    pruned = work.get("prefilter_pruned", 0)
    runs = stats.get("ksky_runs", 0)
    seqs_in = trace.counts.get("merge_seqs_in", 0)
    grid, per_point = _auto_boundaries(runtime, result.boundaries)
    total_routed = sum(routed)
    return {
        "streams.source.guard_s": busy["streams.source.guard"],
        "streams.source.guard_records": guard_records,
        "streams.source.quarantined": quarantined,
        "streams.source.batching_s": busy["streams.source.batching"],
        "runtime.partitioner.partition_s": split_s,
        "runtime.partitioner.routed_records": total_routed,
        "runtime.partitioner.replication_factor":
            total_routed / max(1, trace.counts.get("split_records", 0)),
        "runtime.partitioner.shard_skew":
            max(routed) * len(routed) / max(1, total_routed),
        "streams.buffer.ingest_s": busy["streams.buffer.ingest"],
        "streams.buffer.expire_s": busy["streams.buffer.expire"],
        "streams.buffer.evicted_points": trace.counts.get("evicted_points", 0),
        "core.prefilter.screen_s": screen_s,
        "core.prefilter.screened": screened,
        "core.prefilter.pruned": pruned,
        "core.prefilter.prune_ratio": pruned / screened if screened else 0.0,
        "engine.refresh.refresh_s": refresh_s,
        "engine.refresh.refresh_self_s": refresh_s - screen_s,
        "engine.refresh.ksky_runs": runs,
        "engine.refresh.points_examined": stats.get("points_examined", 0),
        "engine.refresh.distance_rows": work.get("distance_rows", 0),
        "engine.refresh.kernel_launches": work.get("kernel_launches", 0),
        "engine.refresh.python_insert_iters":
            work.get("python_insert_iters", 0),
        "engine.refresh.soa_insert_rows": work.get("soa_insert_rows", 0),
        "engine.refresh.early_termination_ratio":
            stats.get("early_terminations", 0) / runs if runs else 0.0,
        "engine.refresh.fully_safe_marked": stats.get("fully_safe_marked", 0),
        "engine.refresh.auto_grid_boundaries": grid,
        "engine.refresh.auto_perpoint_boundaries": per_point,
        "index.candidates_pruned": work.get("candidates_pruned", 0),
        "index.kernel_cells_visited": work.get("kernel_cells_visited", 0),
        "engine.evaluator.evaluate_s": busy["engine.evaluator.evaluate"],
        "engine.evaluator.eval_flatten_rebuilds":
            stats.get("eval_flatten_rebuilds", 0),
        "engine.evaluator.outlier_reports": result.total_outliers(),
        "engine.executor.meter_s": busy["engine.executor.meter"],
        "engine.executor.boundaries": result.boundaries,
        "runtime.merger.merge_s": merge_s,
        "runtime.merger.merge_seqs_in": seqs_in,
        "runtime.merger.merge_seqs_dropped": seqs_in - merged_seqs,
        "runtime.runtime.step_s": step_s,
        "runtime.runtime.step_self_s": step_s - split_s - shard_s - merge_s,
        "trace.stage_coverage":
            sum(busy[name] for name in STAGE_SPANS) / boundary_wall,
    }


def _auto_boundaries(runtime: Runtime, boundaries: int):
    """Boundaries each shard spent settled on grid / per-point, read off
    the ``AutoRefresh.decisions`` audit trail (0 for pinned strategies)."""
    grid = per_point = 0
    for shard in runtime.shards:
        decisions = getattr(shard.detector.refresh_engine, "decisions", [])
        for (at, choice, _), nxt in zip(
                decisions, [d[0] for d in decisions[1:]] + [boundaries]):
            if choice == "grid":
                grid += nxt - at
            elif choice == "per-point":
                per_point += nxt - at
    return grid, per_point
