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
live in :meth:`SOPDetector.run_boundary` (driven by
:class:`~repro.engine.StreamExecutor`, which fires lifecycle hooks after
each stage), the refresh stage delegates to the
:class:`~repro.engine.RefreshEngine`, the safe-for-all test lives in
:class:`~repro.engine.SafetyTracker`, and due-query classification in
:class:`~repro.engine.DueQueryEvaluator`.  This module
keeps what is irreducibly SOP's: the evidence arrays, their commitment
rules, and the least-examination merge.

Per-point evidence is held as numpy arrays ``(seqs, poss, layers)`` in
arrival-descending order.  The least-examination step is then three array
operations: mask out expired entries, mask out entries the new arrivals
alone over-dominate (Def. 6 condition 2 -- older entries can never
dominate younger ones, so no per-entry rescan is needed), and concatenate
the new-arrival entries in front.  Safety and due-query evaluation are
likewise vectorized.

**One scan path.**  Every scan a detector runs is
:class:`~repro.engine.VectorizedSkybandEngine`'s ``scan_batched``: the
rows of a group share one ``WindowBuffer.pairwise_block`` kernel and one
``RGrid.layers_of`` hash per chunk, whatever the group's size.  It
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

import numpy as np

from ..baselines.base import Detector
from ..engine.config import DetectorConfig
from ..engine.evaluator import DueQueryEvaluator
from ..engine.refresh import RefreshEngine, VectorizedSkybandEngine
from ..engine.safety import SafetyTracker
from ..metrics.profiling import RefreshProfile
from ..streams.buffer import WindowBuffer
from .ksky import KSkyResult
from .parser import SkybandPlan, parse_workload
from .prefilter import InlierScreen, build_prefilter
from .point import Point
from .queries import QueryGroup

__all__ = ["SOPDetector"]


class _PointState:
    """Per-live-point bookkeeping: evidence arrays + safety + horizon.

    ``seqs``/``poss``/``layers`` hold the skyband in arrival-descending
    order (``None`` once the point is fully safe and evidence is dropped).
    """

    __slots__ = ("seqs", "poss", "layers", "last_seen_seq", "fully_safe")

    def __init__(self, seqs, poss, layers, last_seen_seq: int,
                 fully_safe: bool):
        self.seqs = seqs
        self.poss = poss
        self.layers = layers
        self.last_seen_seq = last_seen_seq
        self.fully_safe = fully_safe

    def entry_count(self) -> int:
        return 0 if self.seqs is None else len(self.seqs)


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
        #: and routes certified points to :meth:`_mark_prefilter_safe`
        self.prefilter: Optional[InlierScreen] = build_prefilter(
            config, self.plan)
        #: safe-for-all component (see repro.engine.safety)
        self.safety = SafetyTracker(self.plan)
        self._states: Dict[int, _PointState] = {}
        #: skyband entries held across ``_states``, kept current by every
        #: writer of it (``expire``, ``_store``, ``_mark_prefilter_safe``)
        self._memory_units = 0
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
        # mutation generation: bumped whenever the live population or any
        # evidence array changes; the due-query evaluation cache keys on it
        self._gen = 0
        #: due-query classification component (see repro.engine.evaluator)
        self.evaluator = DueQueryEvaluator(self)

    # ------------------------------------------------------------- pipeline

    def run_boundary(self, t: int, batch: Sequence[Point], hooks
                     ) -> Dict[int, FrozenSet[int]]:
        """Alg. 3 as an explicit stage pipeline, firing lifecycle hooks."""
        self.ingest(t, batch)
        hooks.on_ingest(t, batch)
        evicted = self.expire(t)
        hooks.on_expire(t, evicted)
        due = self.group.due_members(t)
        if self.eager or due:
            self._refresh(float(max(0, t - self.swift.win)))
            hooks.on_refresh(t)
        out = self._evaluate_due(due, t) if due else {}
        hooks.on_evaluate(t, out)
        return out

    # ----------------------------------------------------------- the stages

    def ingest(self, t: int, batch: Sequence[Point]) -> None:
        """Stage 1a: append the boundary's batch to the live window."""
        self.buffer.extend(batch)
        if batch:
            self._gen += 1

    def expire(self, t: int) -> List[Point]:
        """Stage 1b: evict points that left the swift window at ``t``."""
        start = max(0, t - self.swift.win)
        evicted = self.buffer.evict_before(start, self.by_time)
        if evicted:
            self._gen += 1
            for p in evicted:
                st = self._states.pop(p.seq, None)
                if st is not None:
                    self._memory_units -= st.entry_count()
        return evicted

    def _refresh(self, window_start: float) -> None:
        """Stages 2+3: K-SKY refresh + safety, via the refresh engine."""
        self.refresh_engine.refresh(self, window_start)

    def _evaluate_due(
        self, due: Sequence[int], t: int
    ) -> Dict[int, FrozenSet[int]]:
        """Stage 4: classify each due query from the shared evidence."""
        return self.evaluator.evaluate(due, t)

    # ------------------------------------------------- evidence commitment

    def _commit_scratch(self, p: Point, st: Optional[_PointState],
                        result: KSkyResult, newest_seq: int) -> None:
        """Commit one from-scratch scan result."""
        seqs, poss, layers = result.lsky.as_arrays()
        self._store(p, st, seqs, poss, layers, result.examined,
                    result.terminated_early, newest_seq)

    def _commit_survivor(self, p: Point, st: _PointState, scan: KSkyResult,
                         window_start: float, newest_seq: int) -> None:
        """Merge one survivor's new-arrival scan with its old evidence."""
        seqs, poss, layers, examined = self._merge_survivor(
            st, scan, window_start)
        self._store(p, st, seqs, poss, layers, examined,
                    scan.terminated_early, newest_seq)

    def _merge_survivor(
        self, st: _PointState, scan: KSkyResult, window_start: float
    ):
        """Least examination, vectorized: expire old entries, trim entries
        the new arrivals alone over-dominate, concatenate new in front.

        Returns ``(seqs, poss, layers, examined)``; the returned arrays are
        the previous state's own objects when nothing changed, which the
        evaluation cache uses to skip re-flattening.
        """
        examined = scan.examined
        n_seqs, n_poss, n_layers = scan.lsky.as_arrays()
        if scan.terminated_early or st.seqs is None or not len(st.seqs):
            return n_seqs, n_poss, n_layers, examined
        keep = st.poss >= window_start
        examined += int(keep.sum())
        if len(n_layers):
            new_sorted = np.sort(n_layers)
            dominated = np.searchsorted(
                new_sorted, st.layers, side="right") >= self.plan.k_max
            keep &= ~dominated
            seqs = np.concatenate((n_seqs, st.seqs[keep]))
            poss = np.concatenate((n_poss, st.poss[keep]))
            layers = np.concatenate((n_layers, st.layers[keep]))
            return seqs, poss, layers, examined
        if keep.all():
            return st.seqs, st.poss, st.layers, examined
        return st.seqs[keep], st.poss[keep], st.layers[keep], examined

    def _store(
        self,
        p: Point,
        st: Optional[_PointState],
        seqs: np.ndarray,
        poss: np.ndarray,
        layers: np.ndarray,
        examined: int,
        terminated: bool,
        newest_seq: int,
    ) -> None:
        """Account one scan and commit the refreshed evidence."""
        stats = self.stats
        stats["ksky_runs"] += 1
        stats["points_examined"] += examined
        if terminated:
            stats["early_terminations"] += 1
        held = 0 if st is None else st.entry_count()
        if self.use_safe_inliers and self.safety.is_fully_safe(p.seq, seqs,
                                                               layers):
            stats["fully_safe_marked"] += 1
            self._states[p.seq] = _PointState(None, None, None, newest_seq,
                                              True)
            self._memory_units -= held
            self._gen += 1
        elif st is None:
            self._states[p.seq] = _PointState(seqs, poss, layers, newest_seq,
                                              False)
            self._memory_units += len(seqs)
            self._gen += 1
        else:
            if (st.seqs is not seqs or st.poss is not poss
                    or st.layers is not layers):
                st.seqs, st.poss, st.layers = seqs, poss, layers
                self._memory_units += len(seqs) - held
                self._gen += 1
            st.last_seen_seq = newest_seq

    def _mark_prefilter_safe(self, p_seq: int, newest_seq: int) -> None:
        """Commit one screen-certified point as fully safe, scan-free.

        Exact-mode certification proves the point satisfies the
        safe-for-all test for every registered query (DESIGN.md section
        14), so this is the fully-safe branch of :meth:`_store` minus the
        scan it renders unnecessary; the refresh this point skips would
        have reached the same state at this very boundary.
        """
        self.stats["fully_safe_marked"] += 1
        st = self._states.get(p_seq)
        if st is not None:
            self._memory_units -= st.entry_count()
        self._states[p_seq] = _PointState(None, None, None, newest_seq,
                                          True)
        self._gen += 1

    def _is_fully_safe(self, p_seq: int, seqs: np.ndarray,
                       layers: np.ndarray) -> bool:
        """Safe-for-all test; see :class:`~repro.engine.SafetyTracker`."""
        return self.safety.is_fully_safe(p_seq, seqs, layers)

    # -------------------------------------------------------------- metrics

    def memory_units(self) -> int:
        """Skyband entries currently stored (the paper's MEM metric): a
        running total, so metering a boundary does not walk the window."""
        return self._memory_units

    def tracked_points(self) -> int:
        return len(self._states)

    def work_stats(self) -> Dict[str, int]:
        """Distance-row counter plus the refresh profile aggregates."""
        stats = super().work_stats()
        stats.update(self.profile.as_dict())
        return stats

    # ------------------------------------------------------------ inspection

    def state_of(self, seq: int) -> Optional[_PointState]:
        """Expose one point's state (tests and the quickstart example)."""
        return self._states.get(seq)
