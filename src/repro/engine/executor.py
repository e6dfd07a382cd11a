"""StreamExecutor: the single drive loop for every detector.

One pattern used to be copy-pasted across the codebase -- iterate
boundary-aligned batches, time the step, sample memory, collect outputs --
with each consumer bolting its own concern onto its private copy
(``Detector.run`` metered, ``CheckpointedRun`` wrote checkpoints,
``run_with_alerts`` routed alerts, ``bench.runner`` swept grids).
:class:`StreamExecutor` is that loop, written once; the concerns become
:class:`ExecutorSubscriber` implementations listening to lifecycle hooks.

Hook model
----------

Detectors process a boundary as a staged pipeline (Alg. 3: ingest ->
expire -> refresh -> evaluate).  ``Detector.run_boundary`` fires a hook
*after* each stage completes, in the detector's own stage order (MCOD,
for instance, expires before it ingests -- that is its algorithm, and the
hooks report what actually happened):

* ``on_ingest(t, batch)`` -- the batch entered the detector;
* ``on_expire(t, evicted)`` -- points left the swift window;
* ``on_refresh(t)`` -- evidence was refreshed (detectors without a
  refresh stage never fire it);
* ``on_evaluate(t, outputs)`` -- due queries were classified;
* ``on_boundary_end(t, outputs)`` -- the executor finished metering the
  boundary (fired by the executor, always last);
* ``on_stream_end(result)`` -- the finite stream is exhausted
  (:meth:`StreamExecutor.finish`).

Subscriber exceptions propagate: a failing subscriber fails the run
loudly rather than silently dropping checkpoints or alerts.  Detector
state is whatever the completed stages committed -- hooks fire after
their stage, so the detector itself is never left mid-stage.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from ..core.point import Point
from ..metrics.results import RunResult
from ..streams.source import batches_by_boundary

__all__ = ["ExecutorSubscriber", "NULL_HOOKS", "StreamExecutor"]

Outputs = Dict[int, FrozenSet[int]]


class ExecutorSubscriber:
    """Base class for lifecycle-hook listeners; every hook is a no-op.

    Subclasses override the hooks they care about.  ``executor`` is set on
    attachment, giving access to ``executor.detector`` and the accumulating
    ``executor.result``.
    """

    executor: Optional["StreamExecutor"] = None

    def on_attach(self, executor: "StreamExecutor") -> None:
        self.executor = executor

    def on_ingest(self, t: int, batch: Sequence[Point]) -> None:
        """The detector ingested this boundary's batch."""

    def on_expire(self, t: int, evicted: Sequence[Point]) -> None:
        """The detector evicted these points from the swift window."""

    def on_refresh(self, t: int) -> None:
        """The detector refreshed its per-point evidence."""

    def on_evaluate(self, t: int, outputs: Outputs) -> None:
        """The detector classified the queries due at ``t``."""

    def on_boundary_end(self, t: int, outputs: Outputs) -> None:
        """The executor finished recording boundary ``t``."""

    def on_stream_end(self, result: RunResult) -> None:
        """The finite stream ended; ``result`` is complete."""


class _HookFan(ExecutorSubscriber):
    """Fans each hook out to an ordered subscriber list.

    Shares the executor's live list, so subscriptions added mid-stream
    take effect at the next hook.
    """

    def __init__(self, subscribers: List[ExecutorSubscriber]):
        self._subs = subscribers

    def on_ingest(self, t, batch):
        for s in self._subs:
            s.on_ingest(t, batch)

    def on_expire(self, t, evicted):
        for s in self._subs:
            s.on_expire(t, evicted)

    def on_refresh(self, t):
        for s in self._subs:
            s.on_refresh(t)

    def on_evaluate(self, t, outputs):
        for s in self._subs:
            s.on_evaluate(t, outputs)

    def on_boundary_end(self, t, outputs):
        for s in self._subs:
            s.on_boundary_end(t, outputs)

    def on_stream_end(self, result):
        for s in self._subs:
            s.on_stream_end(result)


#: the hook sink used when a detector is stepped outside an executor
#: (``Detector.step``): every hook is a no-op over an empty fan
NULL_HOOKS = _HookFan([])


class StreamExecutor:
    """Drive one detector through boundary-aligned batches with metering.

    The executor owns the :class:`~repro.metrics.results.RunResult`: CPU
    is metered around each boundary and memory is sampled after it --
    exactly the accounting the legacy per-consumer loops performed, so
    results are byte-identical to pre-executor runs.

    Use :meth:`run` for a finite stream, or :meth:`step` to push
    boundaries one at a time (long-running deployments); call
    :meth:`finish` after the last step to finalize work counters and fire
    ``on_stream_end``.  A step returns and dispatches its boundary's
    outputs and keeps no copy: only :meth:`run`, which owns a finite
    loop, collects them into ``result.outputs`` under ``(query_index,
    boundary)`` keys.  A stepping caller that wants the history keeps it
    (the sharded :class:`~repro.runtime.Runtime` keeps one merged copy).
    """

    def __init__(self, detector,
                 subscribers: Iterable[ExecutorSubscriber] = ()):
        self.detector = detector
        self.subscribers: List[ExecutorSubscriber] = []
        self.hooks = _HookFan(self.subscribers)
        self.result = RunResult(detector=detector.name)
        for sub in subscribers:
            self.subscribe(sub)

    def subscribe(self, subscriber: ExecutorSubscriber) -> ExecutorSubscriber:
        """Attach a lifecycle subscriber; returns it for chaining."""
        subscriber.on_attach(self)
        self.subscribers.append(subscriber)
        return subscriber

    # ------------------------------------------------------------- stepping

    def step(self, t: int, batch: Sequence[Point]) -> Outputs:
        """Process one boundary: pipeline stages, metering, hooks -- the
        one-executor case of :meth:`step_all`.

        Returns the due outputs; ``result.outputs`` is not written.
        """
        return self.step_all([self], t, [batch])[0]

    @staticmethod
    def step_all(executors: Sequence["StreamExecutor"], t: int,
                 batches: Sequence[Sequence[Point]]) -> List[Outputs]:
        """Process boundary ``t`` on several executors whose detectors
        share one class and workload (the shards of a runtime); returns
        each one's due outputs, in order.

        The detector class steps them together
        (``run_boundaries``: SOP runs each stage across all of them,
        other detectors one after another).  Each executor still meters
        one CPU sample and one memory sample per boundary and fires its
        hooks in its detector's stage order, ``on_boundary_end`` last,
        before the next executor's first hook.
        """
        detectors = [ex.detector for ex in executors]
        stages = type(detectors[0]).run_boundaries(
            detectors, t, batches, [ex.hooks for ex in executors])
        outs = []
        for ex, (outputs, ns) in zip(executors, stages):
            result = ex.result
            result.cpu.add(ns)
            result.boundaries += 1
            result.memory.sample(ex.detector.memory_units(),
                                 ex.detector.tracked_points())
            ex.hooks.on_boundary_end(t, outputs)
            outs.append(outputs)
        return outs

    def run(self, points: Sequence[Point],
            until: Optional[int] = None) -> RunResult:
        """Process a finite stream end-to-end; returns the run result.

        ``until`` bounds the last boundary (defaults to just past the
        final point so every point is delivered and evaluated at least
        once).
        """
        detector = self.detector
        archive = self.result.outputs
        for t, batch in batches_by_boundary(
            points, detector.swift.slide, detector.group.kind, until
        ):
            for qi, seqs in self.step(t, batch).items():
                archive[(qi, t)] = frozenset(seqs)
        return self.finish()

    def finish(self) -> RunResult:
        """Finalize the result (work counters) and fire ``on_stream_end``."""
        self.result.work = self.detector.work_stats()
        self.hooks.on_stream_end(self.result)
        return self.result
