"""Unit tests for the sharded runtime layer.

The load-bearing property is the 1-shard oracle: a ``Runtime`` with one
shard and the serial backend must be *indistinguishable* from the classic
``StreamExecutor`` path -- identical outputs, deterministic work counters,
memory accounting, and checkpoint bytes.  Everything sharded is then
tested against that oracle (full N-shard equivalence lives in
``test_runtime_equivalence.py``).
"""

from __future__ import annotations

import json

import pytest

from repro import (
    CollectingSink,
    DetectorConfig,
    Merger,
    OutlierQuery,
    Point,
    ProcessPoolBackend,
    QueryGroup,
    Runtime,
    SOPDetector,
    SerialBackend,
    ShardedCheckpointSubscriber,
    StreamExecutor,
    StreamPartitioner,
    WindowSpec,
    batches_by_boundary,
    compare_outputs,
    detect_outliers,
    load_checkpoint,
    load_sharded_checkpoint,
    make_backend,
    make_synthetic_points,
    merge_work,
    run_with_alerts,
    save_checkpoint,
    save_sharded_checkpoint,
    stream_end_boundary,
)
from repro.metrics.meters import CpuMeter, MemoryMeter

from conftest import line_points


def small_workload():
    return QueryGroup([
        OutlierQuery(r=300, k=4, window=WindowSpec(win=200, slide=50)),
        OutlierQuery(r=700, k=9, window=WindowSpec(win=400, slide=100)),
        OutlierQuery(r=1500, k=6, window=WindowSpec(win=300, slide=75)),
    ])


def deterministic_work(work):
    """Work counters minus wall-clock timings (non-deterministic)."""
    return {k: v for k, v in work.items() if not k.endswith("_ns")}


# ---------------------------------------------------------------- partitioner


class TestStreamPartitioner:
    def test_validation(self):
        with pytest.raises(ValueError):
            StreamPartitioner(0, 1.0)
        with pytest.raises(ValueError):
            StreamPartitioner(2, -1.0)
        with pytest.raises(ValueError):
            StreamPartitioner(2, 1.0, axis=-1)
        with pytest.raises(ValueError):
            StreamPartitioner(2, 1.0, bounds=(5.0, 1.0))

    def test_bounds_learned_once(self):
        part = StreamPartitioner(4, 0.5)
        assert not part.initialized and part.bounds is None
        part.ensure_bounds(line_points([0.0, 4.0, 8.0]))
        assert part.initialized
        assert part.bounds == (0.0, 8.0)
        # idempotent: later data never re-partitions
        part.ensure_bounds(line_points([100.0]))
        assert part.bounds == (0.0, 8.0)

    def test_shard_of_is_monotone_and_clamped(self):
        part = StreamPartitioner(4, 0.0, bounds=(0.0, 8.0))
        shards = [part.shard_of((v,)) for v in
                  (-5.0, 0.0, 1.9, 2.0, 3.9, 4.0, 6.0, 7.9, 8.0, 99.0)]
        assert shards == sorted(shards)
        assert shards[0] == 0 and shards[-1] == 3
        assert part.shard_of((2.0,)) == 1
        assert part.shard_of((6.0,)) == 3

    def test_replica_span_covers_radius(self):
        part = StreamPartitioner(4, 0.5, bounds=(0.0, 8.0))
        # 2.2 is within 0.5 of the shard-0/shard-1 border at 2.0
        assert part.replica_span((2.2,)) == (0, 1)
        # 3.0 is interior to shard 1
        assert part.replica_span((3.0,)) == (1, 1)

    def test_split_owners_and_replicas(self):
        part = StreamPartitioner(2, 0.5, bounds=(0.0, 4.0))
        pts = line_points([0.5, 1.8, 2.5, 3.9])
        shard_batches, replicas = part.split(pts)
        assert [part.shard_of(p.values) for p in pts] == [0, 0, 1, 1]
        # shard 1 holds 1.8 (owned by shard 0) as a replica
        assert replicas == [[], [1]]
        # 1.8 is strictly within 0.5 of the border at 2.0 -> both shards;
        # 2.5 spans down to exactly 2.0, which is already shard 1 territory
        # (any shard-0-owned neighbor is strictly below 2.0, so strictly
        # farther than the radius -- no replication needed)
        assert [p.seq for p in shard_batches[0]] == [0, 1]
        assert [p.seq for p in shard_batches[1]] == [1, 2, 3]

    def test_every_neighbor_within_radius_lands_on_owner_shard(self):
        part = StreamPartitioner(5, 1.0, bounds=(0.0, 10.0))
        pts = line_points([i * 0.13 for i in range(77)])
        shard_batches, replicas = part.split(pts)
        holders = {p.seq: {s for s in range(5)
                           if p in shard_batches[s]} for p in pts}
        # every point is held by exactly one shard that does not list it
        # as a replica: its owner
        owners = {}
        for s in range(5):
            for p in shard_batches[s]:
                if p.seq not in replicas[s]:
                    assert p.seq not in owners
                    owners[p.seq] = s
        assert owners == {p.seq: part.shard_of(p.values) for p in pts}
        for p in pts:
            for q in pts:
                if abs(p.values[0] - q.values[0]) <= 1.0:
                    assert owners[p.seq] in holders[q.seq], (p.seq, q.seq)

    def test_empty_batch_and_degenerate_bounds(self):
        part = StreamPartitioner(3, 1.0)
        batches, replicas = part.split([])
        assert batches == [[], [], []] and replicas == [[], [], []]
        # all values equal: width 0, everything owned by shard 0
        part.ensure_bounds(line_points([5.0, 5.0, 5.0]))
        shard_batches, replicas = part.split(line_points([5.0, 5.0]))
        assert [p.seq for p in shard_batches[0]] == [0, 1]
        assert shard_batches[1] == [] and shard_batches[2] == []
        assert replicas == [[], [], []]

    def test_axis_out_of_range_is_loud(self):
        part = StreamPartitioner(2, 0.5, bounds=(0.0, 4.0), axis=3)
        with pytest.raises(ValueError, match="axis 3 out of range"):
            part.split(line_points([1.0]))

    def test_split_before_bounds_is_loud(self):
        part = StreamPartitioner(2, 0.5)
        with pytest.raises(RuntimeError, match="no bounds"):
            part.split(line_points([1.0]))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_one_shard_short_circuit(self, axis):
        """One shard skips the cell math but routes, owns and fails
        exactly as the cell path does."""
        pts = [Point(seq=i, values=(v, -v)) for i, v in
               enumerate([0.5, 9.0, -3.0, 2.0, 2.0])]
        part = StreamPartitioner(1, 0.5, axis=axis)
        part.ensure_bounds(pts)
        shard_batches, replicas = part.split(pts)
        assert shard_batches == [pts]
        assert replicas == [[]]
        assert part.split([]) == ([[]], [[]])
        with pytest.raises(ValueError, match="axis 1 out of range"):
            StreamPartitioner(1, 0.5, bounds=(0.0, 1.0), axis=1).split(
                pts + line_points([1.0], start_seq=5))
        with pytest.raises(RuntimeError, match="no bounds"):
            StreamPartitioner(1, 0.5).split(pts)


# --------------------------------------------------------------------- merger


class TestMerger:
    def test_replica_verdicts_are_dropped(self):
        merger = Merger(2)
        merger.add([[11], []])          # shard 0 holds 11 as a replica
        merged = merger.merge_boundary([
            {0: frozenset({10, 11})},   # shard 0 also reports replica 11
            {0: frozenset({11})},
        ])
        assert merged == {0: frozenset({10, 11})}

    def test_empty_shard_keeps_due_query_keys(self):
        merger = Merger(2)
        merged = merger.merge_boundary([
            {0: frozenset(), 1: frozenset()},
            {0: frozenset({5})},
        ])
        assert merged == {0: frozenset({5}), 1: frozenset()}

    def test_one_shard_boundary_is_the_shards_outputs(self):
        """One shard holds no replicas: its outputs pass through, no set
        rebuilt per query."""
        outputs = {0: frozenset({1, 2}), 3: frozenset()}
        assert Merger(1).merge_boundary([outputs]) is outputs

    def test_union_of_every_shards_differences(self):
        merger = Merger(3)
        merger.add([[2], [], [7]])
        merged = merger.merge_boundary([
            {0: frozenset({1, 2}), 1: frozenset({9})},
            {0: frozenset({2, 3})},
            {0: frozenset({7}), 2: frozenset()},
        ])
        assert merged == {0: frozenset({1, 2, 3}), 1: frozenset({9}),
                          2: frozenset()}
        assert all(type(v) is frozenset for v in merged.values())

    def test_merge_results_single_shard_is_identity(self):
        group = small_workload()
        points = make_synthetic_points(600, dim=2, seed=5)
        result = StreamExecutor(SOPDetector(group)).run(points)
        merged = Merger().merge_results([result])
        assert merged.outputs == result.outputs
        assert merged.work == result.work
        assert merged.boundaries == result.boundaries
        assert merged.memory.peak_units == result.memory.peak_units

    def test_merge_results_empty_is_loud(self):
        with pytest.raises(ValueError):
            Merger().merge_results([])


# ------------------------------------------------------------- meter merging


class TestMeterMerges:
    def test_cpu_merge_sums_boundary_aligned_samples(self):
        """Whole-stream merges sum totals and maxima over the longest
        schedule; a stepping runtime meters boundary-aligned sums."""
        a, b = CpuMeter(), CpuMeter()
        for ns in (10, 20, 30):
            a.add(ns)
        for ns in (1, 25):
            b.add(ns)
        merged = CpuMeter.merge([a, b])
        assert (merged.total_ns, merged.count, merged.max_ns) == (86, 3, 55)
        assert CpuMeter.merge([a]).max_ns == 30
        # stepped: the runtime's meter holds the per-boundary shard sums
        points = make_synthetic_points(600, dim=2, seed=2)
        rt = Runtime(small_workload(), shards=2)
        rt.partitioner.ensure_bounds(points)
        sums = []
        for t, batch in batches_by_boundary(points, rt.swift.slide,
                                            rt.group.kind):
            rt.step(t, batch)
            sums.append(sum(s.result.cpu.last_ns for s in rt.shards))
        cpu = rt.finish().cpu
        assert (cpu.total_ns, cpu.count, cpu.max_ns) == (
            sum(sums), len(sums), max(sums))

    def test_memory_merge_sums_peaks(self):
        a, b = MemoryMeter(), MemoryMeter()
        a.sample(10, 4)
        b.sample(7, 3)
        merged = MemoryMeter.merge([a, b])
        assert merged.peak_units == 17
        assert merged.peak_points == 7

    def test_merge_work_sums_keywise(self):
        assert merge_work([{"a": 1, "b": 2}, {"a": 3, "c": 4}]) == \
            {"a": 4, "b": 2, "c": 4}
        assert merge_work([]) == {}


# ------------------------------------------------------------- configuration


class TestConfig:
    def test_shard_fields_validate(self):
        with pytest.raises(ValueError):
            DetectorConfig(shards=0)
        with pytest.raises(ValueError):
            DetectorConfig(backend="threads")
        with pytest.raises(ValueError):
            DetectorConfig(replication_radius=-1.0)
        cfg = DetectorConfig(shards=4, backend="process",
                             replication_radius=2.5)
        assert cfg.shards == 4

    def test_runtime_rejects_insufficient_radius(self):
        with pytest.raises(ValueError, match="r_max"):
            Runtime(small_workload(), replication_radius=1.0)

    def test_runtime_rejects_mismatched_partitioner(self):
        with pytest.raises(ValueError, match="shards"):
            Runtime(small_workload(), shards=2,
                    partitioner=StreamPartitioner(3, 2000.0))

    def test_make_backend(self):
        assert isinstance(make_backend("serial"), SerialBackend)
        assert isinstance(make_backend("process"), ProcessPoolBackend)
        backend = SerialBackend()
        assert make_backend(backend) is backend
        with pytest.raises(ValueError):
            make_backend("threads")


# ------------------------------------------------------------ 1-shard oracle


class TestSingleShardOracle:
    def test_identical_outputs_counters_and_memory(self):
        group = small_workload()
        points = make_synthetic_points(900, dim=2, outlier_rate=0.05, seed=3)
        base = StreamExecutor(SOPDetector(group)).run(points)
        result = Runtime(small_workload()).run(points)
        assert result.outputs == base.outputs
        assert deterministic_work(result.work) == deterministic_work(base.work)
        assert result.boundaries == base.boundaries
        assert result.memory.peak_units == base.memory.peak_units
        assert result.memory.peak_points == base.memory.peak_points
        assert len(result.cpu) == len(base.cpu) == base.boundaries

    def test_checkpoint_bytes_identical(self, tmp_path):
        group = small_workload()
        points = make_synthetic_points(500, dim=2, seed=9)
        detector = SOPDetector(group)
        executor = StreamExecutor(detector)
        runtime = Runtime(small_workload())
        slide, kind = group.swift.slide, group.kind
        until = stream_end_boundary(points, slide, kind)
        runtime.partitioner.ensure_bounds(points)
        for t, batch in batches_by_boundary(points, slide, kind, until):
            executor.step(t, batch)
            runtime.step(t, batch)
        a, b = tmp_path / "classic.ckpt", tmp_path / "runtime.ckpt"
        save_checkpoint(detector, until, a)
        save_checkpoint(runtime.shards[0].detector, until, b)
        assert a.read_bytes() == b.read_bytes()

    def test_detect_outliers_api_routes_through_runtime(self):
        rows = [[float(i % 17), float((i * 7) % 5)] for i in range(300)]
        base = detect_outliers(rows, [(2.0, 3, 60, 20)])
        sharded = detect_outliers(rows, [(2.0, 3, 60, 20)], shards=2)
        assert sharded.outputs == base.outputs


# ------------------------------------------------- empty-batch regressions


class TestEmptyBatchRegressions:
    def test_quiet_slides_still_emit_due_outputs(self):
        """A boundary with no arrivals must still answer due queries."""
        # a quiet gap is impossible for COUNT windows, so use TIME
        # windows: points early, then nothing until t=40
        tgroup = QueryGroup([
            OutlierQuery(r=1.0, k=2,
                         window=WindowSpec(win=8, slide=4, kind="time")),
        ])
        pts = line_points([0.0, 0.1, 0.2, 5.0, 5.1, 40.0],
                          times=[0, 1, 2, 3, 4, 40])
        base = StreamExecutor(SOPDetector(tgroup)).run(pts)
        res = Runtime(QueryGroup(list(tgroup.queries)), shards=2).run(pts)
        assert res.outputs == base.outputs
        # the quiet boundaries are present in both (empty verdicts kept)
        quiet = [key for key in base.outputs if base.outputs[key] == frozenset()]
        for key in quiet:
            assert key in res.outputs

    def test_zero_point_shard_advances_with_the_stream(self):
        """A shard whose value range never sees data must stay aligned."""
        group = QueryGroup([
            OutlierQuery(r=0.5, k=2, window=WindowSpec(win=12, slide=4)),
        ])
        # all data in [0, 1] except one early point at 10.0 that fixes the
        # bounds; shard 2 of 3 owns a dead middle range forever after
        values = [10.0] + [((i * 37) % 100) / 100.0 for i in range(60)]
        pts = line_points(values)
        base = StreamExecutor(SOPDetector(group)).run(pts)
        res = Runtime(QueryGroup(list(group.queries)), shards=3).run(pts)
        assert res.outputs == base.outputs

    def test_executor_step_accepts_empty_batches(self):
        group = small_workload()
        executor = StreamExecutor(SOPDetector(group))
        outputs = executor.step(group.swift.slide, [])
        assert outputs == {}
        executor.step(group.swift.slide * 2, [])
        result = executor.finish()
        assert result.boundaries == 2


# ------------------------------------------------------------- run modes


class TestRunModes:
    def test_step_then_finish_equals_run(self):
        points = make_synthetic_points(700, dim=2, seed=4)
        whole = Runtime(small_workload(), shards=2).run(points)
        rt = Runtime(small_workload(), shards=2)
        slide, kind = rt.swift.slide, rt.group.kind
        until = stream_end_boundary(points, slide, kind)
        rt.partitioner.ensure_bounds(points)
        for t, batch in batches_by_boundary(points, slide, kind, until):
            rt.step(t, batch)
        stepped = rt.finish()
        assert stepped.outputs == whole.outputs

    def test_owner_map_stays_within_the_buffered_windows(self):
        """Soak: a stepped 2-shard run over 200+ boundaries.  Each
        shard's replica set forgets the seqs the shard has expired, so it
        is exactly the buffered points the shard does not own; one shard
        keeps no replicas at all.  No shard executor archives outputs at any boundary:
        ``finish`` hands back the runtime's one merged history, equal
        to the unsharded run's, and with ``keep_outputs=False`` the
        runtime holds no output keys and only counts the reports."""
        points = make_synthetic_points(5100, dim=2, outlier_rate=0.05,
                                       seed=5)
        group = small_workload()
        reference = StreamExecutor(SOPDetector(group)).run(points)
        by_boundary = {}
        for (qi, t), seqs in reference.outputs.items():
            by_boundary.setdefault(t, {})[qi] = seqs
        rt = Runtime(group, shards=2)
        bare = Runtime(group, shards=2, keep_outputs=False)
        one = Runtime(group)
        slide, kind = rt.swift.slide, rt.group.kind
        for runtime in (rt, bare, one):
            runtime.partitioner.ensure_bounds(points)
        boundaries = 0
        for t, batch in batches_by_boundary(points, slide, kind):
            want = by_boundary.get(t, {})
            assert rt.step(t, batch) == want
            assert bare.step(t, batch) == want
            assert one.step(t, batch) == want
            boundaries += 1
            for shard, held in zip(rt.shards, rt._merger.replicas):
                buf = shard.detector.buffer
                assert held == {p.seq for p in buf.points
                                if rt.partitioner.shard_of(p.values)
                                != shard.shard_id}
            assert not any(one._merger.replicas)
            for shard in rt.shards + bare.shards + one.shards:
                assert shard.result.outputs == {}
            assert bare._outputs == {}
        assert boundaries >= 200
        assert sum(map(len, rt._merger.replicas)) < len(points) // 4
        assert reference.total_outliers() > 0
        assert rt.finish().outputs == reference.outputs
        assert one.finish().outputs == reference.outputs
        done = bare.finish()
        assert done.outputs == {}
        assert done.total_outliers() == reference.total_outliers()

    def test_process_backend_cannot_step(self):
        rt = Runtime(small_workload(), shards=2, backend="process")
        with pytest.raises(RuntimeError, match="stepped"):
            rt.step(50, [])
        with pytest.raises(RuntimeError, match="worker"):
            rt.shards

    def test_process_backend_matches_serial(self):
        points = make_synthetic_points(600, dim=2, seed=8)
        serial = Runtime(small_workload(), shards=2).run(points)
        try:
            proc = Runtime(small_workload(), shards=2,
                           backend="process").run(points)
        except OSError as exc:  # pragma: no cover - restricted sandboxes
            pytest.skip(f"process pool unavailable: {exc}")
        assert proc.outputs == serial.outputs

    def test_alerts_identical_across_sharding(self):
        points = make_synthetic_points(800, dim=2, outlier_rate=0.05, seed=6)
        plain, sharded = CollectingSink(), CollectingSink()
        base = run_with_alerts(SOPDetector(small_workload()), points, [plain])
        res = run_with_alerts(Runtime(small_workload(), shards=3),
                              points, [sharded])
        assert res.outputs == base.outputs

        def key(a):
            return (a.seq, a.query_index, a.boundary, a.first_seen)

        assert list(map(key, sharded.alerts)) == list(map(key, plain.alerts))


# ------------------------------------------------------- sharded checkpoints


class TestShardedCheckpoints:
    def _run_half(self, points, stop):
        rt = Runtime(small_workload(), shards=3)
        slide, kind = rt.swift.slide, rt.group.kind
        rt.partitioner.ensure_bounds(points)
        head = [p for p in points if p.seq < stop]
        for t, batch in batches_by_boundary(head, slide, kind, stop):
            rt.step(t, batch)
        return rt

    def test_roundtrip_resumes_exactly(self, tmp_path):
        points = make_synthetic_points(800, dim=2, seed=12)
        full = Runtime(small_workload(), shards=3).run(points)
        rt = self._run_half(points, 400)
        path = tmp_path / "sharded.ckpt"
        save_sharded_checkpoint(rt, 400, path)

        restored, last = load_sharded_checkpoint(path)
        assert last == 400
        assert restored.n_shards == 3
        assert restored.partitioner.bounds == rt.partitioner.bounds
        slide, kind = restored.swift.slide, restored.group.kind
        until = stream_end_boundary(points, slide, kind)
        tail = [p for p in points if p.seq >= 400]
        for t, batch in batches_by_boundary(tail, slide, kind, until):
            if t > last:
                restored.step(t, batch)
        resumed = restored.finish()
        expect = {k: v for k, v in full.outputs.items() if k[1] > 400}
        actual = {k: v for k, v in resumed.outputs.items() if k[1] > 400}
        assert actual == expect

    def test_shard_count_change_is_loud(self, tmp_path):
        points = make_synthetic_points(300, dim=2, seed=13)
        rt = self._run_half(points, 200)
        path = tmp_path / "sharded.ckpt"
        save_sharded_checkpoint(rt, 200, path)
        with pytest.raises(ValueError, match="shard count cannot change"):
            load_sharded_checkpoint(path, shards=2)

    def test_loader_crossing_is_loud(self, tmp_path):
        points = make_synthetic_points(300, dim=2, seed=14)
        rt = self._run_half(points, 200)
        manifest = tmp_path / "sharded.ckpt"
        save_sharded_checkpoint(rt, 200, manifest)
        with pytest.raises(ValueError, match="load_sharded_checkpoint"):
            load_checkpoint(manifest)
        classic = tmp_path / "classic.ckpt"
        save_checkpoint(rt.shards[0].detector, 200, classic)
        with pytest.raises(ValueError, match="load_checkpoint"):
            load_sharded_checkpoint(classic)

    def test_tampered_manifest_is_loud(self, tmp_path):
        points = make_synthetic_points(300, dim=2, seed=15)
        rt = self._run_half(points, 200)
        path = tmp_path / "sharded.ckpt"
        save_sharded_checkpoint(rt, 200, path)
        manifest = json.loads(path.read_text())
        manifest["segments"] = manifest["segments"][:-1]
        path.write_text(json.dumps(manifest) + "\n")
        with pytest.raises(ValueError, match="segment"):
            load_sharded_checkpoint(path)

    def test_periodic_subscriber_writes_manifest(self, tmp_path):
        points = make_synthetic_points(600, dim=2, seed=16)
        path = tmp_path / "periodic.ckpt"
        sub = ShardedCheckpointSubscriber(path, interval=4)
        Runtime(small_workload(), shards=2, subscribers=[sub]).run(points)
        assert sub.checkpoints_written > 0
        restored, last = load_sharded_checkpoint(path)
        assert restored.n_shards == 2
        assert last > 0
        with pytest.raises(ValueError):
            ShardedCheckpointSubscriber(path, interval=0)


class TestPreloadAndSnapshots:
    """The serving layer's runtime hooks: retained_points / preload /
    work_stats_snapshot."""

    def test_retained_points_dedups_border_replicas(self):
        points = make_synthetic_points(500, dim=2, seed=21)
        rt = Runtime(small_workload(), shards=4)
        rt.run(points, until=400)
        retained = rt.retained_points()
        seqs = [p.seq for p in retained]
        # replicas collapse: each seq exactly once, in stream order
        assert seqs == sorted(set(seqs))
        # the retained set is exactly the union of live shard windows
        expected = {p.seq for shard in rt.shards
                    for p in shard.detector.buffer.points}
        assert set(seqs) == expected

    def test_preload_matches_straight_run(self):
        points = make_synthetic_points(600, dim=2, seed=22)
        group = small_workload()
        full = Runtime(group, shards=2).run(points)
        # run the first half, carry the window into a fresh runtime,
        # continue with the second half: outputs must line up exactly
        first = Runtime(small_workload(), shards=2)
        first.run(points, until=300)
        carried = Runtime(small_workload(), shards=2)
        carried.preload(first.retained_points())
        resumed = {}
        for t, batch in batches_by_boundary(
                points, group.swift.slide, group.kind, start=300):
            for qi, seqs in carried.step(t, batch).items():
                resumed[(qi, t)] = seqs
        expected = {key: val for key, val in full.outputs.items()
                    if key[1] > 300}
        diffs = compare_outputs(expected, resumed)
        assert not diffs, "\n".join(diffs[:10])

    @pytest.mark.parametrize("shards", [1, 2])
    def test_preload_then_step_equals_fresh_runtime(self, shards):
        """Preloading a window and stepping equals a fresh runtime that
        receives the same points in its first batch: same outputs, and
        the same evidence on every shard (preload goes through the
        detectors' ``warm_start``, so buffer and table stay aligned)."""
        from conftest import evidence

        points = make_synthetic_points(700, dim=2, seed=25)
        group = small_workload()
        slide, cut = group.swift.slide, 6 * group.swift.slide
        axis = [p.values[0] for p in points]

        def runtime():
            return Runtime(small_workload(), shards=shards,
                           partitioner=StreamPartitioner(
                               shards, group.r_max,
                               bounds=(min(axis), max(axis))))

        preloaded, fresh = runtime(), runtime()
        window = [p for p in points if p.seq < cut]
        preloaded.preload(window)
        batches = list(batches_by_boundary(points, slide, group.kind,
                                           start=cut))
        for i, (t, batch) in enumerate(batches):
            got = preloaded.step(t, batch)
            want = fresh.step(t, window + list(batch) if i == 0 else batch)
            assert got == want, f"t={t}"
            for a, b in zip(preloaded.shards, fresh.shards):
                assert evidence(a.detector) == evidence(b.detector), f"t={t}"
                assert a.detector.memory_units() == b.detector.memory_units()

    def test_work_stats_snapshot_includes_quarantine(self):
        points = make_synthetic_points(200, dim=2, seed=23)
        rt = Runtime(small_workload(), shards=2,
                     config=DetectorConfig(shards=2, validate_ingest=True))
        rt.run(list(points) + ["garbage"])
        snap = rt.work_stats_snapshot()
        assert type(snap) is dict
        assert snap["records_quarantined"] == 1
        assert snap["quarantined_malformed"] == 1
        assert snap["distance_rows"] == rt.work_stats()["distance_rows"]
