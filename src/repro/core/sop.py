"""SOP: the sharing-aware multi-query outlier detector (Alg. 3, Fig. 6).

Execution model per swift boundary ``t`` (``slide = gcd`` of member slides,
``win = max`` of member windows -- Sec. 4.3/5):

1. ingest the new batch, expire points older than the swift window;
2. for every live point that is not a *fully safe inlier*, refresh its
   skyband with K-SKY -- new points search from scratch, surviving points
   search only the new arrivals plus their unexpired skyband (Alg. 1);
3. derive safe-inlier state from the refreshed skyband; fully safe points
   drop their evidence and are never evaluated again (safe-for-all,
   Sec. 4.1/4.2);
4. for each member query due at ``t``, classify its window population by
   counting skyband entries (inlier rule + Lemma 3), vectorized across the
   population.

Since the staged-runtime refactor, that pipeline is explicit: the stages
live in :meth:`SOPDetector.run_boundaries` (driven by
:class:`~repro.engine.StreamExecutor`; lifecycle hooks fire after each
stage), which runs each stage across every shard of a serial runtime at
once -- one detector is its one-member case -- the refresh stage -- partition, scans, least-examination
merge and safe-for-all commit -- is the :class:`~repro.engine.RefreshEngine`,
the counting safe-for-all test is :class:`~repro.engine.SafetyTracker`,
and due-query classification is :class:`~repro.engine.DueQueryEvaluator`.

This module keeps the state they share: the live window
(:class:`~repro.streams.WindowBuffer`) and, aligned with its rows, the
columnar evidence table (:class:`~repro.core.evidence.EvidenceTable`):
per-row ``safe``/``seen`` flags plus every skyband entry as one row of
owner-sorted ``(owner, seq, pos, layer)`` columns.  Points enter through
:meth:`SOPDetector.warm_start` (which :meth:`~SOPDetector.ingest` calls)
and leave through :meth:`~SOPDetector.expire`, so the two never drift;
each refresh, evaluation and meter reading is an array pass over the
table, never a walk over the window's points.

**One scan path.**  Every scan a detector runs is
:class:`~repro.engine.VectorizedSkybandEngine`'s ``scan_batched``: the
rows of a group share one ``WindowBuffer.pairwise_block`` kernel and one
``RGrid.layers_of`` hash per tile, whatever the group's size.  It
replicates the reference per-point scan's candidate order, chunk
boundaries, and termination cadence exactly, so outputs, evidence arrays
and ``memory_units()`` are identical (``tests/test_sop_batched.py`` and
``tests/test_lsky_soa.py`` assert this across the Table 1 grid against
``repro.testing.ReferenceRefresh``, Alg. 1-2 as written).

Ablation switches (fields of :class:`~repro.engine.DetectorConfig`, used
by ``benchmarks/bench_ablations.py``):

* ``eager=False`` -- refresh skybands only at boundaries where some member
  query is due, instead of at every swift boundary;
* ``use_safe_inliers=False`` -- never prune fully safe points;
* ``use_least_examination=False`` -- surviving points rescan the whole
  window instead of (new arrivals + old skyband).

All switches preserve output equality; they only trade CPU/memory.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from ..baselines.base import Detector
from ..engine.config import DetectorConfig
from ..engine.evaluator import DueQueryEvaluator
from ..engine.refresh import RefreshEngine, VectorizedSkybandEngine
from ..engine.safety import SafetyTracker
from ..metrics.meters import LapClock
from ..metrics.profiling import RefreshProfile
from ..streams.buffer import WindowBuffer
from .evidence import EvidenceTable, PointState
from .parser import SkybandPlan, parse_workload
from .prefilter import QnScreen, build_prefilter
from .point import Point
from .queries import QueryGroup

__all__ = ["SOPDetector"]


class SOPDetector(Detector):
    """Sharing-aware outlier processing over a query workload.

    Configuration comes from a :class:`~repro.engine.DetectorConfig`
    (``config=``); the individual keyword arguments are the legacy
    spelling and remain supported -- an explicit ``config`` wins over
    them.  The ablation switches are mirrored as attributes for
    introspection.
    """

    name = "sop"

    def __init__(
        self,
        group: QueryGroup,
        metric="euclidean",
        chunk_size: int = 256,
        eager: bool = True,
        use_safe_inliers: bool = True,
        use_least_examination: bool = True,
        config: Optional[DetectorConfig] = None,
    ):
        if config is None:
            config = DetectorConfig(
                metric=metric,
                chunk_size=chunk_size,
                eager=eager,
                use_safe_inliers=use_safe_inliers,
                use_least_examination=use_least_examination,
            )
        super().__init__(group, config.metric)
        #: the single source of truth for every switch and knob; persisted
        #: by checkpoints and preserved across dynamic-workload rebuilds
        self.config = config
        self.plan: SkybandPlan = parse_workload(group)
        self.buffer = WindowBuffer(self.metric)
        self.eager = config.eager
        self.use_safe_inliers = config.use_safe_inliers
        self.use_least_examination = config.use_least_examination
        #: the one K-SKY scan implementation (see repro.engine.refresh)
        self.skyband_engine = VectorizedSkybandEngine(self.plan,
                                                      config.chunk_size)
        #: partitions the boundary's rows, launches their scans, commits
        self.refresh_engine = RefreshEngine()
        #: first-tier inlier screen (see repro.core.prefilter); None for
        #: prefilter="none".  The refresh engine consults it per boundary
        #: and commits certified points as fully safe, scan-free
        self.prefilter: Optional[QnScreen] = build_prefilter(
            config, self.plan)
        #: safe-for-all component (see repro.engine.safety)
        self.safety = SafetyTracker(self.plan)
        #: per-row flags + skyband entry columns, aligned with ``buffer``
        self.table = EvidenceTable(self.skyband_engine.layer_dtype)
        #: counters for ablation studies and optimality tests
        self.stats = {
            "ksky_runs": 0,
            "points_examined": 0,
            "early_terminations": 0,
            "fully_safe_marked": 0,
            "batched_scans": 0,
            "eval_flatten_rebuilds": 0,
        }
        #: per-boundary refresh observability (see repro.metrics.profiling)
        self.profile = RefreshProfile()
        #: due-query classification component (see repro.engine.evaluator)
        self.evaluator = DueQueryEvaluator(self)

    # ------------------------------------------------------------- pipeline

    def run_boundary(self, t: int, batch: Sequence[Point], hooks
                     ) -> Dict[int, FrozenSet[int]]:
        """Alg. 3 as an explicit stage pipeline, firing lifecycle hooks:
        the one-detector case of :meth:`run_boundaries`."""
        [(outputs, _)] = self.run_boundaries([self], t, [batch], [hooks])
        return outputs

    @classmethod
    def run_boundaries(cls, detectors, t, batches, hooks):
        """Alg. 3 on several detectors of one workload, stage by stage:
        ingest and expire on each, one refresh for all of them (a single
        K-SKY tile sweep over every detector's rows), then one
        evaluation pass over all of their tables -- yielding ``(outputs,
        ns)`` per detector, in order (see :meth:`Detector.run_boundaries`).

        The due set and the window start are shared (one group, one
        swift schedule).  Hooks keep each detector's own order --
        ingest, expire, refresh, evaluate -- and fire after their stage
        is done: the first detector's ingest, expire and refresh hooks
        once that stage has finished for every detector, the others' in
        their turn, just before their ``on_evaluate``.  Each detector is
        charged its own ingest and expire, the refresh time the refresh
        engine attributes to it and the evaluation's time split by its
        share of the evidence entries, so the charges sum to the
        boundary's wall time.
        """
        # the first detector's hooks are charged to it by its next lap
        laps = LapClock(len(detectors))
        lead = detectors[0]
        for i, (det, batch) in enumerate(zip(detectors, batches)):
            det.ingest(t, batch)
            laps.lap(i)
        hooks[0].on_ingest(t, batches[0])
        evicted = []
        for i, det in enumerate(detectors):
            evicted.append(det.expire(t))
            laps.lap(i)
        hooks[0].on_expire(t, evicted[0])
        due = lead.group.due_members(t)
        refreshed = bool(lead.eager or due)
        if refreshed:
            laps.lap(0)
            lead.refresh_engine.refresh_all(
                detectors, float(max(0, t - lead.swift.win)), laps)
            hooks[0].on_refresh(t)
        if due:
            laps.lap(0)
            outputs = lead.evaluator.evaluate_all(detectors, due, t)
            laps.split([len(det.table) for det in detectors])
        else:
            outputs = [{} for _ in detectors]
        for i, out in enumerate(outputs):
            if i:
                hooks[i].on_ingest(t, batches[i])
                hooks[i].on_expire(t, evicted[i])
                if refreshed:
                    hooks[i].on_refresh(t)
            hooks[i].on_evaluate(t, out)
            laps.lap(i)
            yield out, laps.ns[i]
            laps.restart()

    # ----------------------------------------------------------- the stages

    def ingest(self, t: int, batch: Sequence[Point]) -> None:
        """Stage 1a: append the boundary's batch to the live window."""
        self.warm_start(batch)

    def warm_start(self, points: Sequence[Point]) -> None:
        """The one way into the window -- ingest, checkpoint restore,
        preloads and rebuilds: buffer rows and their table rows move
        together.  Evidence is built by the next refresh."""
        before = len(self.buffer)
        self.buffer.extend(points)
        self.table.append(len(self.buffer) - before)

    def expire(self, t: int) -> List[Point]:
        """Stage 1b: evict points that left the swift window at ``t``."""
        start = max(0, t - self.swift.win)
        evicted = self.buffer.evict_before(start, self.by_time)
        if evicted:
            seqs = self.buffer.seq_array()
            self.table.drop_rows(len(evicted),
                                 int(seqs[0]) if len(seqs) else None)
        return evicted

    def _evaluate_due(
        self, due: Sequence[int], t: int
    ) -> Dict[int, FrozenSet[int]]:
        """Stage 4: classify each due query from the shared evidence."""
        return self.evaluator.evaluate(due, t)

    # -------------------------------------------------------------- metrics

    def memory_units(self) -> int:
        """Skyband entries currently stored (the paper's MEM metric): the
        table length, so metering a boundary does not walk the window."""
        return len(self.table)

    def tracked_points(self) -> int:
        return self.table.tracked

    def work_stats(self) -> Dict[str, int]:
        """Distance-row counter plus the refresh profile aggregates."""
        stats = super().work_stats()
        stats.update(self.profile.as_dict())
        return stats

    # ------------------------------------------------------------ inspection

    def state_of(self, seq: int) -> Optional[PointState]:
        """One live point's row as a read-only view (None without state)."""
        i = self.buffer.first_index_at_or_after_seq(seq)
        if i >= len(self.buffer) or self.buffer.seq_array()[i] != seq:
            return None
        return self.table.state(i, seq)
