"""Runtime: the single entrypoint driving N value-partitioned shards.

The PR-2 :class:`~repro.engine.StreamExecutor` drives *one* detector.
:class:`Runtime` generalizes it to a sharded architecture::

    points ──► StreamPartitioner ──► ShardExecutor 0..N-1 ──► Merger
               (owner + border        (detector + executor     (dedup +
                replication)           per shard, global        exact union,
                                       swift schedule)          counter sums)

With ``shards=1`` (the default) the partitioner routes everything to one
shard, the merger is the identity, and the run is byte-identical to the
classic executor path -- outputs, work counters, memory accounting, and
checkpoint roundtrips.  That identity is the refactor's oracle
(``tests/test_runtime.py``); N-shard runs must then produce identical
outlier sets, which ``tests/test_runtime_equivalence.py`` pins across
the Table 1 grid.

Two drive modes:

* :meth:`run` -- a finite stream end-to-end.  Serial backends step all
  shards boundary-synchronously (live subscribers fire per boundary);
  the process backend ships each shard's slice to a worker and replays
  subscriber notifications from the merged result afterwards.
* :meth:`step` / :meth:`finish` -- push boundaries one at a time
  (long-running deployments; serial backend only).  Every shard is
  stepped at every boundary, batch or no batch, so shard windows advance
  in lockstep and due queries are answered from every shard.

Runtime-level subscribers receive the *merged* boundary outputs --
:class:`~repro.alerts.AlertSubscriber` plugs in unchanged, and
:class:`~repro.checkpoint.ShardedCheckpointSubscriber` persists per-shard
segments under one manifest.

Output history: the shard executors keep none.  A stepping runtime
records each boundary's merged outputs once, under ``(query, boundary)``
keys, and :meth:`finish` hands that dict to the returned result; with
``keep_outputs=False`` (the long-lived service) it keeps only a count of
the reports, so nothing grows per boundary.  Its CPU meter sums the
shards' per-boundary times as they happen (running totals, boundary
aligned).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from ..core.point import Point
from ..core.queries import QueryGroup
from ..core.sop import SOPDetector
from ..engine.config import DetectorConfig
from ..engine.executor import StreamExecutor
from ..metrics.meters import CpuMeter
from ..metrics.results import OutputKey, RunResult, merge_work
from ..streams.source import (IngestGuard, batches_by_boundary,
                              stream_end_boundary)
from .backends import Backend, make_backend
from .merger import Merger
from .partitioner import StreamPartitioner
from .shard import ShardExecutor

__all__ = ["Runtime"]

Outputs = Dict[int, FrozenSet[int]]


class Runtime:
    """Sharded detection runtime over one workload.

    ``group`` is the workload (a :class:`~repro.core.queries.QueryGroup`
    or a sequence of queries); ``factory(group)`` builds one detector per
    shard (default: :class:`~repro.core.sop.SOPDetector` with this
    runtime's config; must be picklable for the process backend).
    ``shards`` / ``backend`` / ``replication_radius`` override the
    corresponding :class:`~repro.engine.DetectorConfig` fields.

    The replication radius must cover the workload's largest query radius
    (``r_max``) or the sharded answer could miss cross-border neighbors;
    the auto value (0.0) resolves to exactly ``r_max`` and anything
    smaller fails loudly at construction.

    ``keep_outputs`` decides whether a stepped run keeps its merged
    output history for :meth:`finish` (the default, for finite runs) or
    only counts the reports (a service that pushes every boundary's
    outputs and must not grow with the stream).  Whole-stream backends
    always return the history their workers collected.
    """

    def __init__(
        self,
        group,
        factory=None,
        config: Optional[DetectorConfig] = None,
        shards: Optional[int] = None,
        backend=None,
        replication_radius: Optional[float] = None,
        partitioner: Optional[StreamPartitioner] = None,
        subscribers: Sequence = (),
        *,
        keep_outputs: bool = True,
    ):
        if not isinstance(group, QueryGroup):
            group = QueryGroup([q for q in group])
        self.group = group
        config = config if config is not None else DetectorConfig()
        overrides = {}
        if shards is not None:
            overrides["shards"] = int(shards)
        if replication_radius is not None:
            overrides["replication_radius"] = float(replication_radius)
        if backend is not None and not isinstance(backend, Backend):
            overrides["backend"] = backend
        if overrides:
            config = config.replace(**overrides)
        self.config = config
        self.n_shards = config.shards
        self.backend: Backend = (backend if isinstance(backend, Backend)
                                 else make_backend(config.backend,
                                                   config=config))
        self.guard = (IngestGuard(expect_dim=config.ingest_dim)
                      if config.validate_ingest else None)
        self.factory = (factory if factory is not None
                        else partial(SOPDetector, config=config))
        radius = config.replication_radius or group.r_max
        if radius < group.r_max:
            raise ValueError(
                f"replication_radius {radius:g} is smaller than the "
                f"workload's r_max {group.r_max:g}; sharded neighbor "
                "counts would miss cross-border neighbors"
            )
        if partitioner is not None:
            if partitioner.n_shards != self.n_shards:
                raise ValueError(
                    f"partitioner has {partitioner.n_shards} shards, "
                    f"config wants {self.n_shards}"
                )
            self.partitioner = partitioner
        else:
            self.partitioner = StreamPartitioner(self.n_shards, radius)
        self.subscribers: List = []
        #: per-shard replica sets (the ownership filter); empty with one
        #: shard, where the merger keeps everything anyway
        self._merger = Merger(self.n_shards)
        #: boundary-aligned CPU of a stepped run: the shards' per-boundary
        #: times summed as each boundary completes
        self._cpu = CpuMeter()
        self.keep_outputs = keep_outputs
        #: merged outputs of every stepped boundary (``keep_outputs``)
        self._outputs: Dict[OutputKey, FrozenSet[int]] = {}
        #: outlier reports of every stepped boundary (no ``keep_outputs``)
        self._reports = 0
        self._shards: Optional[List[ShardExecutor]] = None
        self.last_boundary = 0
        self.result: Optional[RunResult] = None
        for sub in subscribers:
            self.subscribe(sub)

    # -------------------------------------------------------------- wiring

    @property
    def swift(self):
        return self.group.swift

    @property
    def shards(self) -> List[ShardExecutor]:
        """The live shard executors (built on first use; serial only)."""
        if not self.backend.supports_stepping:
            raise RuntimeError(
                f"the {self.backend.name!r} backend runs shards inside "
                "worker processes; there are no live shard executors to "
                "inspect or checkpoint"
            )
        if self._shards is None:
            self._shards = [
                ShardExecutor(i, self.factory(self.group))
                for i in range(self.n_shards)
            ]
        return self._shards

    def subscribe(self, subscriber):
        """Attach a runtime subscriber (merged-output lifecycle hooks)."""
        subscriber.on_attach(self)
        self.subscribers.append(subscriber)
        return subscriber

    # ------------------------------------------------------------ stepping

    def step(self, t: int, batch: Sequence[Point]) -> Outputs:
        """Process one boundary across every shard; merged due outputs.

        All shards advance even when their sub-batch is empty -- windows
        expire, evidence refreshes, and due queries answer on every
        shard, exactly like the single-executor path on a quiet slide.
        """
        if not self.backend.supports_stepping:
            raise RuntimeError(
                f"the {self.backend.name!r} backend cannot be stepped; "
                "use run() on a finite stream or the serial backend"
            )
        if self.guard is not None:
            batch = self.guard.filter(batch)
        return self._step_clean(t, batch)

    def _step_clean(self, t: int, batch: Sequence[Point]) -> Outputs:
        """The :meth:`step` body after ingest validation.

        ``run``/``resume`` filter the whole stream up front (the guard is
        stateful -- re-filtering admitted points would quarantine them as
        regressions), so their loops enter here directly.
        """
        self.partitioner.ensure_bounds(batch)
        shard_batches, replicas = self.partitioner.split(batch)
        merger = self._merger
        merger.add(replicas)
        shards = self.shards
        per_shard = StreamExecutor.step_all(
            [shard.executor for shard in shards], t, shard_batches)
        self._cpu.add(sum(shard.result.cpu.last_ns for shard in shards))
        merged = merger.merge_boundary(per_shard)
        if self.n_shards > 1:
            self._forget_expired()
        if self.keep_outputs:
            history = self._outputs
            for qi, seqs in merged.items():
                history[(qi, t)] = seqs
        else:
            self._reports += sum(len(seqs) for seqs in merged.values())
        self.last_boundary = t
        for sub in self.subscribers:
            sub.on_boundary_end(t, merged)
        return merged

    def _forget_expired(self) -> None:
        """Drop each shard's replicas older than its oldest buffered
        point: a shard only reports points in its window."""
        for shard in self.shards:
            buffer = getattr(shard.detector, "buffer", None)
            if buffer is not None:
                self._merger.forget_before(
                    shard.shard_id,
                    int(buffer.seq_array()[0]) if len(buffer) else None)

    def finish(self) -> RunResult:
        """Finalize every shard, merge meters and work counters, attach
        the stepped boundaries' merged outputs, and fire
        ``on_stream_end``."""
        result = self._merger.merge_results(
            [shard.finish() for shard in self.shards])
        result.outputs = self._outputs
        result.cpu = self._cpu
        if not self.keep_outputs:
            result.reports = self._reports
        self.result = result
        self._note_quarantine(result)
        for sub in self.subscribers:
            sub.on_stream_end(result)
        return result

    def _note_quarantine(self, result: RunResult) -> None:
        """Surface the ingest guard's quarantine counts in the merged
        work counters (additive keys, like every other counter)."""
        if self.guard is None:
            return
        work = result.work
        work["records_quarantined"] = (
            work.get("records_quarantined", 0)
            + self.guard.total_quarantined)
        for reason, n in self.guard.counts.items():
            key = "quarantined_" + reason.replace("-", "_")
            work[key] = work.get(key, 0) + n

    # ------------------------------------------------------------- running

    def run(self, points: Sequence[Point],
            until: Optional[int] = None) -> RunResult:
        """Process a finite stream end-to-end; returns the merged result.

        ``until`` bounds the last boundary; the default is the same
        "first boundary past the last point" the single executor uses,
        applied to the *whole* stream so every shard -- even one whose
        slice ends early -- is driven to the same final boundary.
        """
        points = points if isinstance(points, (list, tuple)) \
            else list(points)
        if self.guard is not None:
            points = self.guard.filter(points)
        slide, kind = self.swift.slide, self.group.kind
        if until is None:
            until = stream_end_boundary(points, slide, kind)
        self.partitioner.ensure_bounds(points)
        if self.backend.supports_stepping:
            for t, batch in batches_by_boundary(points, slide, kind, until):
                self._step_clean(t, batch)
            return self.finish()
        # whole-stream backend: one task per shard, notifications replayed
        shard_points, replicas = self.partitioner.split(points)
        self._merger.add(replicas)
        tasks = [
            (self.factory, self.group, tuple(shard_points[i]), until)
            for i in range(self.n_shards)
        ]
        results = self.backend.run_tasks(tasks)
        merged = self._replay_and_finalize(results, slide, until)
        return merged

    def _replay_and_finalize(self, results: Sequence[RunResult],
                             slide: int, until: int) -> RunResult:
        """Merge worker results, then replay per-boundary notifications.

        Whole-stream backends cannot fire live hooks; subscribers instead
        see every boundary's merged outputs after the fact, in boundary
        order, followed by ``on_stream_end`` -- same call sequence, later.
        """
        merged_outputs: Dict[int, Outputs] = {}
        self.result = self._merger.merge_results(results)
        self._note_quarantine(self.result)
        for (qi, t), seqs in self.result.outputs.items():
            merged_outputs.setdefault(t, {})[qi] = seqs
        t = slide
        while t <= until:
            self.last_boundary = t
            for sub in self.subscribers:
                sub.on_boundary_end(t, merged_outputs.get(t, {}))
            t += slide
        for sub in self.subscribers:
            sub.on_stream_end(self.result)
        return self.result

    # ------------------------------------------------------------- restore

    def adopt_shards(self, detectors: Sequence) -> None:
        """Wrap restored (warm-started) detectors as this runtime's shards.

        Used by sharded checkpoint restore: ownership of every live
        buffered point is recomputed from the partitioner -- each shard's
        replica set -- so merging resumes exactly where the checkpointed
        runtime left off.
        """
        if len(detectors) != self.n_shards:
            raise ValueError(
                f"got {len(detectors)} detectors for {self.n_shards} shards"
            )
        if self._shards is not None:
            raise RuntimeError("runtime already has live shards")
        self._shards = [
            ShardExecutor(i, det) for i, det in enumerate(detectors)
        ]
        if self.n_shards == 1:
            return
        part = self.partitioner
        replicas: List[List[int]] = []
        for shard in self._shards:
            buffer = getattr(shard.detector, "buffer", None)
            if buffer is None or not len(buffer):
                replicas.append([])
                continue
            own = (part.cells(buffer.matrix()[:, part.axis])
                   if part.initialized else np.zeros(len(buffer), np.intp))
            replicas.append(
                buffer.seq_array()[own != shard.shard_id].tolist())
        self._merger.add(replicas)

    def resume(self, points: Sequence[Point],
               until: Optional[int] = None) -> RunResult:
        """Continue a checkpoint-restored runtime over the rest of a
        finite stream.

        ``points`` may be the *full* original stream: everything
        positioned before ``last_boundary`` is already either inside the
        restored shard windows or legitimately expired, so batching
        skips it and the first boundary processed is
        ``last_boundary + slide``.  The returned result covers exactly
        the resumed boundaries; unioned with the pre-crash outputs it is
        bit-identical to an uninterrupted run (DESIGN.md §11).
        """
        if not self.backend.supports_stepping:
            raise RuntimeError(
                f"the {self.backend.name!r} backend cannot resume; "
                "restored shards are live executors and must be stepped "
                "(serial backend)"
            )
        points = points if isinstance(points, (list, tuple)) \
            else list(points)
        if self.guard is not None:
            points = self.guard.filter(points)
        slide, kind = self.swift.slide, self.group.kind
        start = int(self.last_boundary)
        if until is None:
            until = max(stream_end_boundary(points, slide, kind), start)
        self.partitioner.ensure_bounds(points)
        for t, batch in batches_by_boundary(points, slide, kind, until,
                                            start=start):
            self._step_clean(t, batch)
        return self.finish()

    @classmethod
    def resume_from_checkpoint(
        cls, path, points: Sequence[Point], *,
        factory=None, until: Optional[int] = None,
        subscribers: Sequence = (), allow_config_mismatch: bool = False,
    ):
        """Restore a sharded checkpoint and drive the stream to its end.

        The crash-recovery entrypoint: every shard restarts from its last
        persisted segment (only the window points -- evidence rebuilds on
        the first boundary, identically, see DESIGN.md §11) and the
        stream resumes at the manifest's boundary.  Returns
        ``(runtime, result)`` where ``result`` holds the merged outputs
        of the resumed boundaries only.
        """
        from ..checkpoint import load_sharded_checkpoint

        runtime, _ = load_sharded_checkpoint(
            path, factory=factory, backend="serial",
            allow_config_mismatch=allow_config_mismatch,
        )
        for sub in subscribers:
            runtime.subscribe(sub)
        result = runtime.resume(points, until=until)
        return runtime, result

    # ----------------------------------------------------- steppable ingest

    def preload(self, points: Sequence[Point]) -> None:
        """Load already-windowed points into the live shards without
        stepping a boundary.

        The service layer's workload-rebuild hook: when the registered
        query set changes mid-stream, a fresh runtime is built for the
        new shared plan and the old runtime's retained window is carried
        over here -- partitioned, ownership-recorded, and loaded into each
        shard through ``warm_start``.  Evidence is rebuilt lazily by K-SKY
        at the next boundary, exactly like
        :meth:`~repro.core.dynamic.DynamicSOPDetector` rebuilds.  Serial
        backends only (live shard executors required).
        """
        points = [p for p in points]
        if not points:
            return
        self.partitioner.ensure_bounds(points)
        shard_batches, replicas = self.partitioner.split(points)
        self._merger.add(replicas)
        for shard in self.shards:
            batch = shard_batches[shard.shard_id]
            if batch:
                shard.detector.warm_start(batch)

    def retained_points(self) -> List[Point]:
        """The live window, deduplicated across shards, in seq order.

        Border replication stores a point in several shard buffers; this
        is the one-copy-per-seq view a workload rebuild hands to
        :meth:`preload` on the successor runtime.
        """
        seen: Dict[int, Point] = {}
        for shard in self.shards:
            buffer = getattr(shard.detector, "buffer", None)
            if buffer is None:
                continue
            for p in buffer.points:
                seen.setdefault(p.seq, p)
        return [seen[s] for s in sorted(seen)]

    # -------------------------------------------------------------- stats

    def work_stats(self) -> Dict[str, int]:
        """Merged work counters of the live shards (serial backends)."""
        return merge_work([
            shard.detector.work_stats() for shard in self.shards
        ])

    def work_stats_snapshot(self) -> Dict[str, int]:
        """Plain-dict snapshot of the live merged work counters.

        The public live-metrics API (the ``/metrics`` endpoint of
        :mod:`repro.serve` is built on it): the merged per-shard
        counters plus the ingest guard's quarantine totals, as an
        ordinary owned dict safe to serialize or mutate.  Additive
        across shards and monotone over a run, like every ``work_stats``
        counter.
        """
        snapshot = dict(self.work_stats())
        if self.guard is not None and self.guard.total_quarantined:
            snapshot["records_quarantined"] = (
                snapshot.get("records_quarantined", 0)
                + self.guard.total_quarantined)
            for reason, n in self.guard.counts.items():
                key = "quarantined_" + reason.replace("-", "_")
                snapshot[key] = snapshot.get(key, 0) + n
        return snapshot

    def memory_units(self) -> int:
        """Total evidence entries across live shards (replicas included)."""
        return sum(shard.detector.memory_units() for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Runtime(shards={self.n_shards}, "
            f"backend={self.backend.name!r}, "
            f"queries={len(self.group)})"
        )
