"""Common detector interface shared by SOP and every baseline.

All detectors are driven on the workload's *swift schedule* (``slide = gcd``
of member slides): at each swift boundary ``t`` the runner delivers the
batch of points with position in ``[t - slide, t)``, the detector processes
it, and returns the outlier sets of exactly the member queries due at ``t``.
Driving every algorithm on the same boundaries keeps outputs key-compatible
so equivalence can be asserted verbatim.

A detector implements one of two granularities:

* :meth:`Detector.run_boundary` -- the staged pipeline form.  The detector
  executes its stages in its own algorithmic order and fires the lifecycle
  hooks (``on_ingest`` / ``on_expire`` / ``on_refresh`` / ``on_evaluate``)
  after each stage.  All built-in detectors implement this.
* :meth:`Detector.step` -- the legacy monolithic form.  Third-party
  detectors that only implement ``step`` still work everywhere: the
  default ``run_boundary`` wraps it, firing ``on_ingest`` at batch
  delivery and ``on_evaluate`` with the outputs (expire/refresh stages are
  not observable through a monolith).

The single drive loop is :class:`~repro.engine.StreamExecutor`;
:meth:`Detector.run` is a thin wrapper over it.
"""

from __future__ import annotations

import time
from abc import ABC
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from ..core.point import Point, get_metric
from ..core.queries import QueryGroup
from ..engine.executor import NULL_HOOKS, StreamExecutor
from ..metrics.results import RunResult
from ..streams.windows import TIME

__all__ = ["Detector"]


class Detector(ABC):
    """Base class: one workload, one stream, boundary-driven processing."""

    #: short name used in reports ("sop", "mcod", "leap", "naive")
    name = "detector"

    def __init__(self, group: QueryGroup, metric="euclidean"):
        self.group = group
        self.metric = get_metric(metric)
        self.swift = group.swift
        self.by_time = group.kind == TIME

    # ------------------------------------------------------------ interface

    def step(self, t: int, batch: Sequence[Point]) -> Dict[int, FrozenSet[int]]:
        """Ingest one swift batch, process boundary ``t``.

        Returns ``{query_index: outlier seqs}`` for every member query due
        at ``t`` (possibly empty sets; queries not due are absent).
        """
        return self.run_boundary(t, batch, NULL_HOOKS)

    def run_boundary(self, t: int, batch: Sequence[Point],
                     hooks) -> Dict[int, FrozenSet[int]]:
        """Process boundary ``t`` as a staged pipeline, firing ``hooks``.

        The default wraps a monolithic :meth:`step` override for
        detectors that predate the staged runtime; implement this method
        directly to expose real stage boundaries.
        """
        if type(self).step is Detector.step:
            raise NotImplementedError(
                f"{type(self).__name__} must implement step() or "
                "run_boundary()"
            )
        hooks.on_ingest(t, batch)
        outputs = self.step(t, batch)
        hooks.on_evaluate(t, outputs)
        return outputs

    @classmethod
    def run_boundaries(cls, detectors: Sequence["Detector"], t: int,
                       batches: Sequence[Sequence[Point]], hooks: Sequence
                       ) -> Iterator[Tuple[Dict[int, FrozenSet[int]], int]]:
        """Process boundary ``t`` on several detectors of this class (the
        shards of one runtime): ``batches[i]`` and ``hooks[i]`` belong to
        ``detectors[i]``.

        A generator: it yields ``(outputs, ns)`` per detector, in order
        -- the detector's due outputs and the wall time charged to it --
        and the caller (:meth:`StreamExecutor.step_all
        <repro.engine.StreamExecutor.step_all>`) meters that detector and
        fires its ``on_boundary_end`` before resuming it, so a
        detector's first hook of the boundary follows the previous
        detector's ``on_boundary_end``.  The default runs each
        :meth:`run_boundary` in turn; a detector whose stages can share
        work across detectors overrides it (SOP sweeps every shard's
        K-SKY refresh at once).
        """
        for det, batch, sink in zip(detectors, batches, hooks):
            start = time.perf_counter_ns()
            outputs = det.run_boundary(t, batch, sink)
            yield outputs, time.perf_counter_ns() - start

    def memory_units(self) -> int:
        """Current evidence-entry count (see ``repro.metrics.meters``)."""
        return 0

    def tracked_points(self) -> int:
        """Number of points with live per-point bookkeeping."""
        return 0

    def work_stats(self) -> Dict[str, int]:
        """Substrate-independent work counters.

        The universal counter is ``distance_rows``: point-to-point
        distance evaluations performed so far.  Wall-clock comparisons in
        pure Python are dominated by interpreter constants; this counter
        exposes the *algorithmic* gap the paper's complexity arguments are
        about (``benchmarks/bench_opcounts.py`` reports it per figure).
        """
        buffer = getattr(self, "buffer", None)
        rows = buffer.distance_rows if buffer is not None else 0
        return {"distance_rows": rows + self._extra_distance_rows()}

    def _extra_distance_rows(self) -> int:
        """Distance evaluations performed outside the shared buffer."""
        return 0

    # ---------------------------------------------------------------- driver

    def position(self, p: Point) -> float:
        """Stream position of a point under this workload's window kind."""
        return p.time if self.by_time else float(p.seq)

    def warm_start(self, points: Sequence[Point]) -> None:
        """Preload a retained window (checkpoint restore, rebuilds).

        The default loads the buffer and lets the detector rebuild its
        per-point evidence lazily; detectors that build state at insert
        time (MCOD) override this to run their ingestion path.
        """
        buffer = getattr(self, "buffer", None)
        if buffer is None:
            raise TypeError(f"{type(self).__name__} cannot warm start")
        buffer.extend(points)

    def run(self, points: Sequence[Point], until: Optional[int] = None) -> RunResult:
        """Process a finite stream end-to-end with metering.

        Thin wrapper over :class:`~repro.engine.StreamExecutor` (attach
        subscribers by building the executor yourself).  ``until`` bounds
        the last boundary (defaults to just past the final point so every
        point is delivered and evaluated at least once).
        """
        return StreamExecutor(self).run(points, until=until)

    # ------------------------------------------------------- stage helpers

    def _expire_swift(self, t: int) -> List[Point]:
        """Evict points that left the swift window at boundary ``t``.

        Shared expire stage for buffer-backed detectors; returns the
        evicted points so ``on_expire`` can report them.
        """
        start = max(0, t - self.swift.win)
        return self.buffer.evict_before(start, self.by_time)
