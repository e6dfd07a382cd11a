"""Stage-major stepping of a serial sharded runtime, against the
shard-by-shard loop it replaced.

A serial :class:`~repro.runtime.Runtime` steps its shards through each
stage of a boundary together (``SOPDetector.run_boundaries``): ingest
and expire on every shard, one K-SKY tile sweep over every shard's rows,
then one evaluation pass over every shard's evidence table.  The
properties here drive it and a verbatim copy of the loop that stepped
one shard's whole pipeline after the other over the same
hypothesis-drawn streams and assert:

* equal merged outputs at every boundary;
* equal per-shard evidence tables, stats and work counters -- bar
  ``kernel_launches`` and ``python_insert_iters`` (a joint tile runs one
  kernel per shard and one interpreted resolve step for all of them) and
  what depends on the tiling of a sweep (``kernel_cells``,
  ``near_candidates``) or on a clock (``refresh_ns``);
* the same with the paper-literal ``ReferenceRefresh`` in every shard;
* the joint evaluation giving each shard its own evaluation's outputs;
* an MCOD factory still stepping shard by shard, outputs unchanged;
* per-shard hooks in stage order with the shards in turn, one CPU
  sample per shard per boundary, and merged meters that add up.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (MCODDetector, Point, QueryGroup, Runtime, SOPDetector,
                   StreamPartitioner)
from repro.bench import ScaledRanges, build_workload
from repro.engine import NULL_HOOKS, DetectorConfig, ExecutorSubscriber
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import use_reference_scans

from conftest import evidence

RANGES = {kind: ScaledRanges(
    r=(150.0, 1500.0), k=(2, 9), win=(60, 240), slide=(20, 60),
    slide_quantum=20, fixed_r=600.0, fixed_k=4, fixed_win=120,
    fixed_slide=40, kind=kind) for kind in (COUNT, TIME)}

#: work counters a joint sweep may book differently per shard
UNSHARED = {"kernel_launches", "python_insert_iters", "kernel_cells",
            "near_candidates", "refresh_ns"}


def _old_step(runtime, t, batch):
    """``Runtime._step_clean`` before stage-major stepping (verbatim
    loop, meters and history elided): one shard's whole pipeline after
    the other."""
    runtime.partitioner.ensure_bounds(batch)
    shard_batches, replicas = runtime.partitioner.split(batch)
    merger = runtime._merger
    merger.add(replicas)
    per_shard = [
        _old_run_boundary(shard.detector, t, shard_batches[shard.shard_id])
        for shard in runtime.shards
    ]
    merged = merger.merge_boundary(per_shard)
    if runtime.n_shards > 1:
        runtime._forget_expired()
    return merged


def _old_run_boundary(det, t, batch):
    """``SOPDetector.run_boundary`` before stage-major stepping (verbatim,
    hooks elided): its refresh covers its own detector alone.  Other
    detectors run their own pipeline."""
    if not isinstance(det, SOPDetector):
        return det.run_boundary(t, batch, NULL_HOOKS)
    det.ingest(t, batch)
    det.expire(t)
    due = det.group.due_members(t)
    if det.eager or due:
        det.refresh_engine.refresh(det, float(max(0, t - det.swift.win)))
    return det._evaluate_due(due, t) if due else {}


def _stream(n, seed, kind, skew):
    """Clustered 2-d points: with ``skew`` most values sit in one narrow
    band, so some shards get few points (or none) and short buffers."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 400.0, n)
    if skew:
        x = np.where(rng.random(n) < 0.9, rng.normal(0.0, 30.0, n), x)
    y = rng.normal(0.0, 400.0, n)
    t = np.cumsum(rng.integers(0, 3, n)) if kind == TIME else None
    return [Point(seq=i, values=(float(x[i]), float(y[i])),
                  time=None if t is None else float(t[i]))
            for i in range(n)]


def _drive(group, points, config, shards, reference=False, factory=None,
           bounds=None):
    """Step the stage-major runtime and the old loop side by side;
    returns both runtimes after asserting equal merged outputs."""
    new, old = (Runtime(group, factory=factory, config=config,
                        shards=shards,
                        partitioner=StreamPartitioner(shards, group.r_max,
                                                      bounds=bounds))
                for _ in range(2))
    if reference:
        for rt in (new, old):
            for shard in rt.shards:
                use_reference_scans(shard.detector)
    new.partitioner.ensure_bounds(points)
    old.partitioner.ensure_bounds(points)
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        assert new.step(t, batch) == _old_step(old, t, batch), t
    return new, old


def _assert_same_shards(new, old):
    for a, b in zip(new.shards, old.shards):
        da, db = a.detector, b.detector
        assert evidence(da) == evidence(db), a.shard_id
        assert da.stats == db.stats, a.shard_id
        wa, wb = da.work_stats(), db.work_stats()
        assert {k: v for k, v in wa.items() if k not in UNSHARED} == {
            k: v for k, v in wb.items() if k not in UNSHARED}, a.shard_id


@st.composite
def _case(draw):
    kind = draw(st.sampled_from([COUNT, TIME]))
    return (kind, draw(st.sampled_from("ABCDG")), draw(st.integers(0, 30)),
            draw(st.integers(1, 5)), draw(st.integers(8, 16)),
            draw(st.sampled_from(["none", "qn"])), draw(st.booleans()),
            draw(st.integers(120, 360)), draw(st.integers(0, 1000)))


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_case())
def test_stage_major_matches_shard_by_shard(case):
    """Outputs, evidence, stats and work counters of every shard equal
    the shard-by-shard loop's: count and time windows, 1-5 shards, empty
    shards and shards shorter than the first tile (skewed values, small
    streams), the Qn screen, and chunks of 8-16 so sweeps cross several
    tiles."""
    kind, spec, wseed, shards, chunk, prefilter, skew, n, seed = case
    group = build_workload(spec, 3, seed=wseed, ranges=RANGES[kind])
    config = DetectorConfig(chunk_size=chunk, prefilter=prefilter)
    new, old = _drive(group, _stream(n, seed, kind, skew), config, shards)
    _assert_same_shards(new, old)


def test_empty_and_short_shards():
    """Bounds far wider than the data: the top shards never receive a
    point and the one below holds fewer points than one chunk, so the
    joint sweep's tiles are wider than its buffer."""
    group = build_workload("D", 3, seed=2, ranges=RANGES[COUNT])
    config = DetectorConfig(chunk_size=16)
    new, old = _drive(group, _stream(400, 4, COUNT, True), config, 5,
                      bounds=(-1500.0, 5000.0))
    _assert_same_shards(new, old)
    sizes = [len(s.detector.buffer) for s in new.shards]
    assert sizes[-1] == 0 and 0 < sizes[2] < 16, sizes


def test_reference_refresh_in_every_shard_matches_the_engine():
    """A multi-shard run whose detectors use ``ReferenceRefresh`` (the
    literal per-row walk, run per detector inside the joint scan) equals
    the default engine, entry for entry."""
    group = build_workload("C", 4, seed=3, ranges=RANGES[COUNT])
    config = DetectorConfig(chunk_size=12)
    points = _stream(400, 5, COUNT, False)
    engine, _ = _drive(group, points, config, 3)
    ref, _ = _drive(group, points, config, 3, reference=True)
    assert engine.finish().outputs == ref.finish().outputs
    for a, b in zip(engine.shards, ref.shards):
        assert evidence(a.detector) == evidence(b.detector)
        assert a.detector.stats["points_examined"] == (
            b.detector.stats["points_examined"])
        assert a.detector.buffer.distance_rows == (
            b.detector.buffer.distance_rows)


def test_baseline_factory_steps_shard_by_shard():
    """MCOD keeps the default ``run_boundaries`` -- each shard's whole
    pipeline in turn -- with outputs unchanged."""
    group = build_workload("B", 3, seed=4, ranges=RANGES[COUNT])
    points = _stream(300, 8, COUNT, False)
    assert MCODDetector.run_boundaries.__func__ is not (
        SOPDetector.run_boundaries.__func__)
    new, _ = _drive(group, points, DetectorConfig(), 3,
                    factory=MCODDetector)
    assert any(new.finish().outputs.values())


def test_joint_evaluation_equals_each_shards_own():
    """One evaluation pass over every shard's table gives each shard
    exactly its own evaluation: empty shards, and a block cap that
    splits the due queries."""
    group = build_workload("D", 6, seed=5, ranges=RANGES[COUNT])
    runtime, _ = _drive(group, _stream(300, 6, COUNT, True),
                        DetectorConfig(chunk_size=16), 5,
                        bounds=(-1500.0, 5000.0))
    dets = [shard.detector for shard in runtime.shards]
    assert not len(dets[-1].buffer)
    t = runtime.last_boundary
    due = list(range(len(group.queries)))
    for cells in (1 << 13, 64):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.engine.evaluator._BLOCK_CELLS", cells)
            joint = dets[0].evaluator.evaluate_all(dets, due, t)
            assert joint == [det.evaluator.evaluate(due, t) for det in dets]
    assert any(any(out.values()) for out in joint)
    assert joint[-1] == {qi: frozenset() for qi in due}


class _Recorder(ExecutorSubscriber):
    def __init__(self, log, shard_id):
        self.log, self.shard_id = log, shard_id

    def _note(self, hook, t):
        self.log.append((t, self.shard_id, hook))

    def on_ingest(self, t, batch):
        self._note("ingest", t)

    def on_expire(self, t, evicted):
        self._note("expire", t)

    def on_refresh(self, t):
        self._note("refresh", t)

    def on_evaluate(self, t, outputs):
        self._note("evaluate", t)

    def on_boundary_end(self, t, outputs):
        self._note("boundary_end", t)


def test_hooks_and_meters_stay_per_shard():
    """Each shard sees ingest -> expire -> refresh -> evaluate ->
    boundary_end per boundary, the shards in turn; each shard's meter
    takes one sample per boundary; the merged CPU is the sum of the
    shards' samples and the merged refresh time fits in the wall time."""
    group = QueryGroup(build_workload("A", 3, seed=1,
                                      ranges=RANGES[COUNT]).queries)
    n_shards = 3
    runtime = Runtime(group, shards=n_shards)
    log = []
    for shard in runtime.shards:
        shard.executor.subscribe(_Recorder(log, shard.shard_id))
    points = _stream(400, 2, COUNT, False)
    runtime.partitioner.ensure_bounds(points)
    stages = ["ingest", "expire", "refresh", "evaluate", "boundary_end"]
    steps = 0
    wall = 0
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        start = time.perf_counter_ns()
        runtime.step(t, batch)
        wall += time.perf_counter_ns() - start
        steps += 1
        assert log == [(t, s, hook) for s in range(n_shards)
                       for hook in stages], t
        log.clear()
    cpu = [shard.result.cpu for shard in runtime.shards]
    assert all(meter.count == steps for meter in cpu)
    result = runtime.finish()
    assert result.cpu.count == steps
    assert result.cpu.total_ns == sum(meter.total_ns for meter in cpu)
    assert 0 < result.work["refresh_ns"] <= wall
