"""Spans recorded from outside the system, around calls into each layer.

Nothing under ``src/`` is edited: stage boundaries come from the lifecycle
hooks every :class:`~repro.engine.StreamExecutor` already fires (a
:class:`StageClock` subscribed to each shard's executor) and from instance
wrappers on public methods (``partitioner.split``, ``prefilter.prune_mask``).
Hooks and wrappers only append raw stamps; :meth:`Trace.close_step` turns one
boundary's stamps into spans with parents, so the hot path pays a clock read
and a list append per stage.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, List, Optional

from repro.engine import ExecutorSubscriber

#: the leaf spans that tile a boundary; their sum over the boundary's wall
#: time is the trace's stage coverage
STAGE_SPANS = (
    "streams.source.batching",
    "runtime.partitioner.split",
    "streams.buffer.ingest",
    "streams.buffer.expire",
    "engine.refresh.refresh",
    "engine.evaluator.evaluate",
    "engine.executor.meter",
    "runtime.merger.merge",
)


class Trace:
    """Span list plus the per-boundary stamps the hooks leave behind."""

    def __init__(self) -> None:
        #: (name, start, end, parent id or None, boundary or None, shard or None)
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = {}
        #: records ``partitioner.split`` delivered to each shard
        self.routed_per_shard: List[int] = []
        self._split: Optional[tuple] = None
        self._marks: Dict[int, Dict[str, float]] = {}
        self._screens: List[tuple] = []

    def add(self, name, start, end, parent=None, boundary=None, shard=None) -> int:
        self.spans.append((name, start, end, parent, boundary, shard))
        return len(self.spans) - 1

    def open(self, name, start, parent=None, boundary=None) -> int:
        """A span whose end is not known yet; :meth:`close` sets it."""
        return self.add(name, start, start, parent, boundary)

    def close(self, span: int, end: float) -> None:
        name, start, _, parent, boundary, shard = self.spans[span]
        self.spans[span] = (name, start, end, parent, boundary, shard)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------- wrappers

    def wrap_split(self, partitioner) -> None:
        """Time ``partitioner.split`` and count what it routes where."""
        split = partitioner.split
        routed = self.routed_per_shard = [0] * partitioner.n_shards

        def timed_split(batch):
            start = perf_counter()
            shard_batches, owners = split(batch)
            self._split = (start, perf_counter())
            self.count("split_records", len(batch))
            for i, sub in enumerate(shard_batches):
                routed[i] += len(sub)
            return shard_batches, owners

        partitioner.split = timed_split

    def wrap_screen(self, shard_id: int, screen) -> None:
        """Time the first-tier screen; its span nests inside the refresh."""
        prune_mask = screen.prune_mask

        def timed_prune_mask(det):
            start = perf_counter()
            mask = prune_mask(det)
            self._screens.append((shard_id, start, perf_counter()))
            return mask

        screen.prune_mask = timed_prune_mask

    def mark(self, shard_id: int, hook: str) -> None:
        self._marks.setdefault(shard_id, {})[hook] = perf_counter()

    # ----------------------------------------------------------------- steps

    def close_step(self, t: int, start: float, end: float,
                   parent: Optional[int] = None) -> int:
        """Build boundary ``t``'s span tree from the stamps of one
        ``Runtime.step`` call that ran from ``start`` to ``end``."""
        root = self.add("runtime.runtime.step", start, end, parent, t)
        cursor = start
        if self._split is not None:
            self.add("runtime.partitioner.split", *self._split, root, t)
            cursor = self._split[1]
        for shard_id in sorted(self._marks):
            m = self._marks[shard_id]
            shard = self.add("engine.executor.step", cursor, m["boundary_end"],
                             root, t, shard_id)
            self.add("streams.buffer.ingest", cursor, m["ingest"], shard, t,
                     shard_id)
            self.add("streams.buffer.expire", m["ingest"], m["expire"], shard,
                     t, shard_id)
            refreshed = m.get("refresh", m["expire"])
            if "refresh" in m:
                refresh = self.add("engine.refresh.refresh", m["expire"],
                                   refreshed, shard, t, shard_id)
                for sid, s0, s1 in self._screens:
                    if sid == shard_id:
                        self.add("core.prefilter.screen", s0, s1, refresh, t,
                                 shard_id)
            self.add("engine.evaluator.evaluate", refreshed, m["evaluate"],
                     shard, t, shard_id)
            self.add("engine.executor.meter", m["evaluate"], m["boundary_end"],
                     shard, t, shard_id)
            cursor = m["boundary_end"]
        self.add("runtime.merger.merge", cursor, end, root, t)
        self._split = None
        self._marks = {}
        self._screens = []
        return root

    # --------------------------------------------------------------- reading

    def busy(self) -> Dict[str, float]:
        """Total duration per span name (0.0 for names never recorded)."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, *_ in self.spans:
            totals[name] += end - start
        return totals

    def as_json(self, origin: float) -> List[dict]:
        return [
            {"id": i, "name": name, "start": start - origin,
             "end": end - origin, "parent": parent, "boundary": boundary,
             "shard": shard}
            for i, (name, start, end, parent, boundary, shard)
            in enumerate(self.spans)
        ]


class StageClock(ExecutorSubscriber):
    """Stamps each lifecycle hook of one shard's executor into a trace."""

    def __init__(self, trace: Trace, shard_id: int):
        self.trace = trace
        self.shard_id = shard_id

    def on_ingest(self, t, batch):
        self.trace.mark(self.shard_id, "ingest")

    def on_expire(self, t, evicted):
        self.trace.mark(self.shard_id, "expire")
        self.trace.count("evicted_points", len(evicted))

    def on_refresh(self, t):
        self.trace.mark(self.shard_id, "refresh")

    def on_evaluate(self, t, outputs):
        self.trace.mark(self.shard_id, "evaluate")

    def on_boundary_end(self, t, outputs):
        self.trace.mark(self.shard_id, "boundary_end")
        self.trace.count("merge_seqs_in",
                         sum(len(seqs) for seqs in outputs.values()))


def instrument(runtime, trace: Trace) -> None:
    """Attach the stage clocks and method wrappers to a fresh runtime."""
    trace.wrap_split(runtime.partitioner)
    for shard in runtime.shards:
        shard.executor.subscribe(StageClock(trace, shard.shard_id))
        screen = getattr(shard.detector, "prefilter", None)
        if screen is not None:
            trace.wrap_screen(shard.shard_id, screen)
