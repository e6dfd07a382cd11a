"""ServiceEngine: the deterministic detector core behind the server.

One engine serves every connected tenant: all registered queries share
one window and one skyband plan (the paper's sharing model), executed by
the sharded :class:`~repro.runtime.Runtime` -- so the serving layer
inherits value partitioning, border replication, the exact cross-shard
merge, prefiltering, and the atomic sharded-checkpoint machinery without
re-implementing any of it.

Determinism is the core contract: the outlier sets the service emits are
**bit-identical to an offline** ``Runtime.run`` **over the merged
stream**, no matter how client sessions interleave.  Three rules make
that true:

* *watermark gating* -- boundary ``t`` is processed only once every
  streaming session has delivered a record positioned at or past ``t``
  (or ended).  Per-session positions are monotone (each session runs an
  :class:`~repro.streams.source.IngestGuard`), so no record positioned
  before ``t`` can arrive later;
* *canonical batch order* -- each boundary's batch is in ``(position,
  seq)`` order, which is exactly the order the merged offline stream
  has.  :meth:`ServiceEngine.pump` sorts the pending records once per
  call (they arrive as already-ordered per-session blocks, so the sort
  is a merge of runs) and cuts every boundary's batch by bisection;
* *offline end-of-stream* -- when every session has ended, the trailing
  boundaries up to ``stream_end_boundary`` are flushed with empty
  batches, exactly like ``Runtime.run`` drives a finite stream out.

The engine keeps no output history: every pumped boundary's outputs
are returned to the caller (the server pushes them to subscribers) and
its runtimes are built with ``keep_outputs=False``, so a long-lived
service does not grow with the stream.

Registration changes route through the same
:class:`~repro.core.dynamic.QueryRegistry` the dynamic detector uses:
the engine rebuilds its runtime at the next boundary, carrying the
retained window over via :meth:`Runtime.preload` and folding the retired
runtime's work counters into a base so the ``/metrics`` counters stay
monotone across rebuilds.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from operator import attrgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..checkpoint import load_sharded_checkpoint, save_sharded_checkpoint
from ..core.dynamic import QueryRegistry
from ..core.point import Point
from ..core.queries import OutlierQuery
from ..engine.config import DetectorConfig
from ..metrics.results import merge_work
from ..runtime import Runtime
from ..streams.windows import COUNT

__all__ = ["ServiceEngine"]

log = logging.getLogger("repro.serve")

#: one boundary's outputs, keyed by registry handle
HandleOutputs = Dict[int, FrozenSet[int]]

#: the canonical batch order per window kind: ``(position, seq)``
_seq_of = attrgetter("seq")
_time_seq_of = attrgetter("time", "seq")


class ServiceEngine:
    """Shared detection state: registry + runtime + pending records.

    Single-threaded by design (the server's drain task is the only
    caller of :meth:`feed_block`/:meth:`pump`); registration goes through the
    registry's thread-safe boundary and takes effect at the next pumped
    boundary.
    """

    def __init__(self, config: Optional[DetectorConfig] = None,
                 queries: Sequence[OutlierQuery] = (),
                 checkpoint_path=None, checkpoint_interval: int = 0):
        config = config if config is not None else DetectorConfig()
        if config.backend != "serial":
            # the engine steps boundaries one at a time; only the serial
            # backend has live, steppable shard executors
            log.warning("serve forces backend=serial (got %r)",
                        config.backend)
            config = config.replace(backend="serial")
        self.config = config
        self.registry = QueryRegistry()
        self.runtime: Optional[Runtime] = None
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = int(checkpoint_interval)
        self.last_boundary = 0
        #: records admitted but not yet assigned to a processed boundary
        self._pending: List[Point] = []
        self._max_pos = float("-inf")
        #: work counters of retired runtimes (kept so snapshots stay
        #: monotone across workload rebuilds)
        self._work_base: Dict[str, int] = {}
        self._boundaries_since_checkpoint = 0
        # monotone service counters
        self.boundaries_processed = 0
        self.records_ingested = 0
        self.records_replay_skipped = 0
        self.checkpoints_written = 0
        for q in queries:
            self.registry.add(q)
        self._cache_kind()

    # ------------------------------------------------------------- resume

    @classmethod
    def resume(cls, checkpoint_path, *, checkpoint_interval: int = 0,
               allow_config_mismatch: bool = False) -> "ServiceEngine":
        """Rebuild an engine from the last atomic sharded checkpoint.

        The restored group's queries are re-registered in group order, so
        handles come back as ``0..n-1`` exactly as they were first
        assigned (checkpoints persist query order); resumed clients
        re-attach with ``claim``.  Replayed records positioned at or
        before the checkpoint boundary are skipped on ingest -- they are
        already inside the restored shard windows -- making the resumed
        run bit-exact versus an uninterrupted one (DESIGN.md §11).
        """
        runtime, last_boundary = load_sharded_checkpoint(
            checkpoint_path, backend="serial",
            allow_config_mismatch=allow_config_mismatch,
        )
        engine = cls(config=runtime.config,
                     checkpoint_path=checkpoint_path,
                     checkpoint_interval=checkpoint_interval)
        engine.registry.seed(list(runtime.group.queries))
        engine.registry.mark_fresh()
        engine._cache_kind()
        # nothing stepped yet: switching history off here keeps it empty
        runtime.keep_outputs = False
        engine.runtime = runtime
        engine.last_boundary = int(last_boundary)
        log.info("resumed from %s at boundary %d with %d quer(ies)",
                 checkpoint_path, last_boundary, len(engine.registry))
        return engine

    # ------------------------------------------------------------ workload

    @property
    def kind(self) -> str:
        """The workload's window kind (``count`` while none registered)."""
        return self._kind

    def _cache_kind(self) -> None:
        """Re-read :attr:`kind`; called wherever the registry changes."""
        queries = self.registry.queries()
        self._kind = (next(iter(queries.values())).kind if queries
                      else COUNT)

    @property
    def slide(self) -> Optional[int]:
        """The current swift slide (None while no queries registered)."""
        group = self.registry.group()
        return group.swift.slide if group is not None else None

    def register(self, query: OutlierQuery) -> int:
        """Register a query; effective at the next pumped boundary."""
        handle = self.registry.add(query)
        self._cache_kind()
        return handle

    def deregister(self, handle: int) -> OutlierQuery:
        """Withdraw a query; effective at the next pumped boundary."""
        query = self.registry.remove(handle)
        self._cache_kind()
        return query

    def query_of(self, handle: int) -> OutlierQuery:
        return self.registry.get(handle)

    # -------------------------------------------------------------- ingest

    def position(self, point: Point) -> float:
        """Stream position of a point under the workload's window kind."""
        return float(point.seq) if self._kind == COUNT else point.time

    def feed_block(self, points: Sequence[Point]) -> int:
        """Accept one session's admitted records into the pending set.

        ``points`` must be in that session's arrival order, so their
        positions are monotone (the session's guard enforces it).
        Records positioned before the last processed boundary are resume
        replays -- already part of the restored window or legitimately
        expired, exactly the records ``batches_by_boundary(start=...)``
        skips on an offline resume -- and monotonicity makes them a
        prefix of the block: it is skipped and counted in
        ``records_replay_skipped``.  Returns how many records were
        accepted.
        """
        if not points:
            return 0
        position = self.position
        if position(points[0]) < self.last_boundary:
            skip = bisect_left([position(p) for p in points],
                               self.last_boundary)
            self.records_replay_skipped += skip
            points = points[skip:]
            if not points:
                return 0
        self._pending.extend(points)
        last = position(points[-1])
        if last > self._max_pos:
            self._max_pos = last
        self.records_ingested += len(points)
        return len(points)

    def feed(self, point: Point) -> bool:
        """The one-record case of :meth:`feed_block`: True if accepted,
        False if it was a resume replay (skipped and counted)."""
        return self.feed_block((point,)) == 1

    @property
    def pending(self) -> int:
        """Records fed but not yet in a processed boundary's batch."""
        return len(self._pending)

    # ---------------------------------------------------------- boundaries

    def _ensure_runtime(self) -> Optional[Runtime]:
        """Rebuild the runtime if the registry changed; None if empty."""
        with self.registry.lock:
            if not self.registry.stale:
                return self.runtime
            group = self.registry.group()
            retained: List[Point] = []
            if self.runtime is not None:
                retained = self.runtime.retained_points()
                self._work_base = merge_work(
                    [self._work_base, self.runtime.work_stats_snapshot()])
            self._cache_kind()
            if group is None:
                self.runtime = None
                self.registry.mark_fresh()
                return None
            self.runtime = Runtime(group, config=self.config,
                                   keep_outputs=False)
            if retained:
                self.runtime.preload(retained)
            self.registry.mark_fresh()
            log.info("runtime rebuilt: %d quer(ies), %d shard(s), "
                     "%d retained point(s)", len(group),
                     self.runtime.n_shards, len(retained))
            return self.runtime

    def _next_boundary(self, slide: int) -> int:
        """First boundary strictly past ``last_boundary`` on this slide."""
        return (self.last_boundary // slide + 1) * slide

    def pump(self, watermark: float) -> List[Tuple[int, HandleOutputs]]:
        """Process every boundary proven complete by ``watermark``.

        ``watermark`` is the server's min-over-sessions delivered
        position: every record positioned strictly before it has been
        fed, and per-session monotonicity guarantees none positioned
        before it will arrive later.  ``float("inf")`` (every session
        ended) flushes to the offline end-of-stream boundary.  Returns
        ``[(t, {handle: outlier seqs}), ...]`` in boundary order.
        """
        with self.registry.lock:
            # runtime and handle order snapshot atomically: a concurrent
            # registration re-flags the registry and lands next pump
            runtime = self._ensure_runtime()
            handles = self.registry.handles()
        if runtime is None:
            return []
        slide = runtime.swift.slide
        until = watermark
        if watermark == float("inf"):
            if self._max_pos == float("-inf") and not self._pending:
                return []
            # the boundary an offline Runtime.run would stop at
            until = (int(self._max_pos) // slide + 1) * slide
        emitted: List[Tuple[int, HandleOutputs]] = []
        t = self._next_boundary(slide)
        if t > until:
            return emitted
        # one (position, seq) sort per call -- the pending records are
        # already-ordered per-session runs, so this is a merge -- then
        # each boundary's batch is the next slice below t
        pending = self._pending
        if self._kind == COUNT:
            pending.sort(key=_seq_of)
            keys = [p.seq for p in pending]
        else:
            pending.sort(key=_time_seq_of)
            keys = [p.time for p in pending]
        cut = 0
        try:
            while t <= until:
                start, cut = cut, bisect_left(keys, t, cut)
                raw = runtime.step(t, pending[start:cut])
                self.last_boundary = t
                self.boundaries_processed += 1
                emitted.append((t, {handles[qi]: seqs
                                    for qi, seqs in raw.items()}))
                self._maybe_checkpoint()
                t += slide
        finally:
            del pending[:cut]
        return emitted

    # ---------------------------------------------------------- checkpoint

    def _maybe_checkpoint(self) -> None:
        if not self.checkpoint_path or self.checkpoint_interval < 1:
            return
        self._boundaries_since_checkpoint += 1
        if self._boundaries_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def checkpoint(self) -> Optional[int]:
        """Write an atomic sharded checkpoint of the live runtime.

        Returns the boundary persisted, or None when there is nothing to
        save (no runtime yet, no boundary processed, or no path
        configured).  Uses the crash-safe PR-5 writer: per-shard
        segments first, manifest last, every write atomic.
        """
        if (not self.checkpoint_path or self.runtime is None
                or self.last_boundary <= 0):
            return None
        save_sharded_checkpoint(self.runtime, self.last_boundary,
                                self.checkpoint_path)
        self.checkpoints_written += 1
        self._boundaries_since_checkpoint = 0
        log.info("checkpoint written at boundary %d -> %s",
                 self.last_boundary, self.checkpoint_path)
        return self.last_boundary

    # -------------------------------------------------------------- stats

    def work_stats_snapshot(self) -> Dict[str, int]:
        """Merged live work counters, monotone across workload rebuilds.

        The retired runtimes' final counters (folded into a base at each
        rebuild) plus the live runtime's
        :meth:`~repro.runtime.Runtime.work_stats_snapshot` -- including
        the prefilter counters when a screen is configured.
        """
        live: Dict[str, int] = {}
        if self.runtime is not None and not self.registry.stale:
            live = self.runtime.work_stats_snapshot()
        return merge_work([dict(self._work_base), live])

    def stats(self) -> Dict[str, object]:
        """Plain-JSON engine statistics (the ``stat`` op / ``/metrics``)."""
        return {
            "queries": len(self.registry),
            "handles": self.registry.handles(),
            "kind": self.kind,
            "slide": self.slide,
            "shards": self.config.shards,
            "last_boundary": self.last_boundary,
            "boundaries_processed": self.boundaries_processed,
            "records_ingested": self.records_ingested,
            "records_replay_skipped": self.records_replay_skipped,
            "records_pending": self.pending,
            "checkpoints_written": self.checkpoints_written,
        }
