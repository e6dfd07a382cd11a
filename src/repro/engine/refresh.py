"""The K-SKY refresh stage: one engine, one scan path.

Every swift boundary, each live non-fully-safe point refreshes its skyband
(Alg. 3 loop): new points scan the window from scratch, surviving points
scan only the new arrivals plus their unexpired previous skyband (least
examination, Alg. 1 / Lemma 2).  *What* is scanned is fixed by the paper;
*how* the scans are launched is the boundary's **mode**, and there is one
:class:`RefreshEngine` that runs all of them:

    partition -> per row group: per-point scans | one ``scan_batched`` per
    candidate group -> commit -> one profile sample

* ``per-point`` -- one vectorized distance kernel per evaluated point
  (the paper's literal per-point loop; also what any row group smaller
  than ``batch_min_rows`` gets, where a shared launch amortizes nothing);
* ``batched`` -- the rows of a group all scan the same candidate range,
  so their evidence is one ``(rows x candidates)`` matrix computed with a
  single pairwise kernel per chunk; scan order, chunk boundaries, and
  termination cadence replicate the per-point path exactly;
* ``grid`` -- batched scans, but the candidate groups come from the
  grid-cell provider: each evaluated point's pairwise kernels see only
  the candidates in grid cells intersecting its ``r_max`` ball
  (:class:`~repro.index.GridCandidateIndex`).  Every pruned candidate is
  farther than ``r_max``, i.e. exactly a candidate ``layers_of`` would map
  past ``n_layers`` and the scan would discard without touching any state
  (Def. 5 condition 3), so outputs, evidence and termination points stay
  bit-identical while the kernel shrinks from O(rows x window) to
  O(rows x neighborhood).

``refresh_strategy`` pins the mode, or -- ``"auto"`` -- lets the
:class:`AutoRefresh` policy choose it per boundary.  Every scan is
:class:`VectorizedSkybandEngine`'s; the lockstep suites hold each mode
bit-exact against the reference runner (``repro.testing.ReferenceRefresh``
over :class:`~repro.core.ksky.KSkyRunner`).

The engine owns the partition step (scratch vs. survivors, from
``_PointState.last_seen_seq``) and the per-boundary profile sample; the
detector keeps evidence commitment (:meth:`SOPDetector._commit_scratch` /
``_commit_survivor``) because committing touches safety state and the
mutation generation.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ksky import KSkyResult, _Resolution
from ..core.lsky_soa import (
    LSkySoA,
    insert_limits,
    numba_active,
    resolve_chunk_inserts,
    resolve_chunk_inserts_numba,
)
from ..index import GridCandidateIndex

__all__ = ["RefreshEngine", "AutoRefresh", "VectorizedSkybandEngine"]


class AutoRefresh:
    """Measured mode crossover: the ``refresh_strategy="auto"`` policy.

    ``BENCH_grid.json`` showed the grid mode *regressing* at r=200 on
    small/mid windows (0.75-0.90x): the neighborhood assembly there costs
    more than the pruned kernel volume saves.  Static heuristics over
    (window, r) proved brittle, so auto measures instead: it starts on
    batched, probes the regime's alternative for a few boundaries, and
    settles on whichever mode's measured ns-per-scanned-row is lower,
    re-probing periodically in case the regime drifts.  All modes are
    bit-exact for outputs (the lockstep suites gate that), so the choice
    only moves wall time -- never results.

    Two regimes, split at ``_MIN_WINDOW`` live points:

    * **large** -- batched vs. grid.  Grid eligibility additionally
      requires the probe to show real pruning work
      (``candidates_pruned / batch_rows`` from the boundary's
      :class:`~repro.metrics.profiling.RefreshProfile` sample): a probe
      that pruned next to nothing can still come out ahead on noise, and
      the recorded r=200 regressions are exactly the regime where pruning
      volume per row is low relative to window size.
    * **small** -- batched vs. per-point.  Grid is never probed there (no
      recorded win under ~8k windows).  Unlike the large regime, the
      small-regime *choice* is counter-only: per-point is eligible exactly
      when the batched probe shows the batch tier achieving no
      amortization -- fewer than ``_PP_MAX_ROWS_PER_LAUNCH`` evaluated
      rows per kernel launch on a batched boundary.  Below one row per
      launch every launch is a fallback scan per-point would have issued
      anyway, plus partition bookkeeping, so per-point is chosen
      deterministically; otherwise batched stays.  Measured ns-per-row is
      still recorded in the decision evidence, but it never drives the
      small-regime choice: the default config routes small windows
      through auto, and the equivalence suites compare deterministic work
      counters across independent runs -- a wall-clock-driven choice
      between counter-different modes would make those counters flap with
      ambient load.

    Costs are tracked per regime (a ns-per-row measured at 2k live points
    says nothing about 100k), and a regime shift sanitizes stale state:
    queued probes for the other regime are dropped and a choice that is
    not eligible in the new regime falls back to batched until the new
    regime's probe decides otherwise.  Every decision appends its
    evidence to :attr:`decisions`.
    """

    #: boundaries on batched before any probe (cold caches)
    _WARMUP = 2
    #: boundaries per probe of a non-chosen mode
    _PROBE = 2
    #: settled boundaries between re-probes of the other mode
    _REPROBE = 64
    #: regime split: below this live-window size the alternative mode
    #: is per-point, at or above it the alternative is grid
    _MIN_WINDOW = 4096
    #: minimum pruned candidates per scanned row for grid to be eligible
    _MIN_PRUNE_PER_ROW = 64.0
    #: batched rows per kernel launch below which per-point is eligible
    #: (the batch tier is pure overhead: no launch amortizes anything)
    _PP_MAX_ROWS_PER_LAUNCH = 1.0
    #: EMA weight of the newest cost sample
    _ALPHA = 0.5

    def __init__(self):
        self._chosen = "batched"
        self._boundary = 0
        self._settled = 0
        self._small = False
        self._probe_queue: List[str] = []
        #: EMA ns-per-row, keyed "small:<mode>" / "large:<mode>"
        self._cost: Dict[str, float] = {}
        self._grid_eligible = False
        self._pp_eligible = False
        #: (boundary, chosen, evidence) per decision -- observability
        self.decisions: List[Tuple[int, str, Dict[str, object]]] = []

    def _key(self, name: str) -> str:
        return f"{'small' if self._small else 'large'}:{name}"

    def _pick(self, det) -> str:
        small = len(det.buffer) < self._MIN_WINDOW
        if small != self._small:
            # regime shift: probes queued for the other regime are stale,
            # and the settled choice may not even be eligible here
            self._small = small
            self._probe_queue = []
            if self._chosen == ("grid" if small else "per-point"):
                self._chosen = "batched"
            self._settled = 0
        if self._boundary < self._WARMUP:
            return "batched"
        if self._probe_queue:
            return self._probe_queue[0]
        other = "per-point" if small else "grid"
        if self._key(other) not in self._cost:
            self._probe_queue = [other] * self._PROBE
            return other
        self._settled += 1
        if self._settled >= self._REPROBE:
            self._settled = 0
            alt = "batched" if self._chosen != "batched" else other
            eligible = (alt == "batched"
                        or (alt == "grid" and self._grid_eligible)
                        or (alt == "per-point" and self._pp_eligible))
            if eligible:
                self._probe_queue = [alt] * self._PROBE
                return alt
        return self._chosen

    def _observe(self, name: str, ns: int, rows: int, pruned: int,
                 batch_rows: int = 0, launches: int = 0) -> None:
        if rows > 0:
            cost = ns / rows
            key = self._key(name)
            prev = self._cost.get(key)
            self._cost[key] = (cost if prev is None
                               else (1 - self._ALPHA) * prev
                               + self._ALPHA * cost)
            if name == "grid":
                self._grid_eligible = (
                    pruned / rows >= self._MIN_PRUNE_PER_ROW)
            elif name == "batched" and self._small:
                self._pp_eligible = (
                    batch_rows / max(1, launches)
                    < self._PP_MAX_ROWS_PER_LAUNCH)
        if self._probe_queue and self._probe_queue[0] == name:
            self._probe_queue.pop(0)
            if not self._probe_queue:
                self._decide()

    def _decide(self) -> None:
        b = self._cost.get(self._key("batched"))
        other = "per-point" if self._small else "grid"
        o = self._cost.get(self._key(other))
        if self._small:
            # counter-only: the measured costs below are evidence, not
            # input -- see the class docstring on determinism
            choice = "per-point" if self._pp_eligible else "batched"
        else:
            choice = (other if o is not None and b is not None
                      and self._grid_eligible and o < b else "batched")
        self._chosen = choice
        self._settled = 0
        evidence: Dict[str, object] = {
            "regime": "small" if self._small else "large",
            f"{other.replace('-', '_')}_ns_per_row": o,
            "batched_ns_per_row": b,
        }
        if self._small:
            evidence["per_point_eligible"] = self._pp_eligible
        else:
            evidence["grid_eligible"] = self._grid_eligible
        self.decisions.append((self._boundary, choice, evidence))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AutoRefresh(chosen={self._chosen!r})"


class RefreshEngine:
    """Runs the refresh stage of one boundary in the boundary's mode.

    ``strategy`` is ``DetectorConfig.refresh_strategy``: "per-point",
    "batched" or "grid" pin the mode; "auto" installs an
    :class:`AutoRefresh` :attr:`policy` that picks it per boundary and is
    fed the same sample the profile records.

    ``batch_min_rows`` is the crossover heuristic: row groups smaller
    than it run per-point in every mode, where one kernel launch
    amortizes nothing over so few rows (and tiny batches cannot amortize
    the grid's neighborhood assembly either).

    Grid mode maintains a :class:`~repro.index.GridCandidateIndex` over
    the detector's window buffer (cell size = the plan's largest radius
    ``r_max``, synced incrementally each use).  Evaluated points binned
    to the same grid cell share one candidate array and one kernel group.
    A candidate outside the neighborhood is farther than ``r_max`` on
    some axis, hence under any registered metric, so the unpruned scan
    would discard it without mutating scan state: results are
    bit-identical to batched mode and only ``distance_rows``/
    ``kernel_calls`` shrink (``scan_batched`` has the subset-scan half of
    the argument, ``benchmarks/bench_grid_refresh.py`` the measurement).
    """

    #: merge tiny per-cell groups (in sorted-cell order, so spatially
    #: adjacent cells merge first) until each scan carries at least this
    #: many rows.  The per-scan and per-chunk fixed costs then amortize;
    #: the price is a slightly larger candidate union, and the extra
    #: columns are beyond ``r_max`` for the rows of the *other* cells, so
    #: the scan discards them without state change -- the same exactness
    #: argument as the pruning itself.
    _MERGE_MIN_ROWS = 24

    def __init__(self, strategy: str = "auto", batch_min_rows: int = 8):
        #: the configured strategy, surfaced in reprs and reports
        self.name = strategy
        self.batch_min_rows = max(1, batch_min_rows)
        #: per-boundary mode policy; None pins ``strategy`` as the mode
        self.policy: Optional[AutoRefresh] = (
            AutoRefresh() if strategy == "auto" else None)
        self._grid: Optional[GridCandidateIndex] = None
        self._r_max = 0.0
        self._pruned = 0
        self._cells_seen = 0

    @property
    def decisions(self) -> List[Tuple[int, str, Dict[str, object]]]:
        """The policy's decision trace (empty for pinned strategies)."""
        return [] if self.policy is None else self.policy.decisions

    def refresh(self, det, window_start: float) -> None:
        """Run K-SKY for every live, non-fully-safe point of ``det``."""
        policy = self.policy
        mode = self.name if policy is None else policy._pick(det)
        sample = self._refresh(det, window_start, mode)
        if policy is not None:
            policy._observe(mode, *sample)
            policy._boundary += 1

    def _refresh(self, det, window_start: float, mode: str
                 ) -> Tuple[int, int, int, int, int]:
        """One boundary in ``mode``; returns what the policy observes:
        ``(ns, ksky_runs, candidates_pruned, batch_rows, launches)``."""
        buf = det.buffer
        pts = buf.points
        if not pts:
            return 0, 0, 0, 0, 0
        t0 = time.perf_counter_ns()
        kernels0 = buf.kernel_calls
        runs0 = det.stats["ksky_runs"]
        eng = det.skyband_engine
        py0, soa0 = eng.py_iters, eng.soa_rows

        newest_seq = pts[-1].seq
        states = det._states
        # first tier: the prefilter's certainly-inlier mask (None when
        # there is no screen or it sits this boundary out).  Its anchor
        # kernels run inside the timed region with kernels0 already
        # snapshotted, so the screen's own cost lands in this boundary's
        # refresh_ns / kernel_launches sample -- honest accounting.
        screen = det.prefilter
        prune = None
        if screen is not None:
            prune = screen.prune_mask(det)
            if prune is not None:
                prune = prune.tolist()
        pf_screened = pf_pruned = 0
        #: from-scratch scans, as (live index, point, state-or-None)
        scratch: List[Tuple[int, object, object]] = []
        #: new_from index -> [(live index, point, state), ...]
        survivors: Dict[int, List[Tuple[int, object, object]]] = {}
        for idx, p in enumerate(pts):
            st = states.get(p.seq)
            if st is not None and st.fully_safe:
                continue
            if prune is not None:
                pf_screened += 1
                if prune[idx]:
                    # suspect-mask short-circuit: certified points commit
                    # straight to the fully-safe state the skipped scan
                    # would have produced (exact mode; fast mode accepts
                    # the screen's statistical evidence here)
                    pf_pruned += 1
                    det._mark_prefilter_safe(p.seq, newest_seq)
                    continue
            if st is None or not det.use_least_examination:
                scratch.append((idx, p, st))
            else:
                # live index of the first arrival this survivor has not
                # scanned yet; searchsorted, not base-offset arithmetic,
                # because shard streams skip sequence numbers
                new_from = buf.first_index_at_or_after_seq(
                    st.last_seen_seq + 1)
                survivors.setdefault(new_from, []).append((idx, p, st))
        if screen is not None:
            screen.observe(pf_screened, pf_pruned)

        def commit_scratch(p, st, result):
            det._commit_scratch(p, st, result, newest_seq)

        def commit_survivor(p, st, scan):
            det._commit_survivor(p, st, scan, window_start, newest_seq)

        batch_rows = self._scan(det, mode, scratch, 0, commit_scratch)
        for new_from, group in survivors.items():
            batch_rows += self._scan(det, mode, group, new_from,
                                     commit_survivor)

        pruned, self._pruned = self._pruned, 0
        cells = 0
        if self._grid is not None:
            cells = self._grid.cells_visited - self._cells_seen
            self._cells_seen = self._grid.cells_visited
        ns = time.perf_counter_ns() - t0
        launches = buf.kernel_calls - kernels0
        # ``python_insert_iters`` is the interpreted iterations the scan
        # engine actually spent (resolve replays + fallback visits), not
        # the logical candidate count -- that is ``points_examined``
        det.profile.record(
            ns,
            launches,
            batch_rows,
            eng.py_iters - py0,
            pruned,
            cells,
            soa_insert_rows=eng.soa_rows - soa0,
            prefilter_screened=pf_screened,
            prefilter_suspects=pf_screened - pf_pruned,
            prefilter_pruned=pf_pruned,
        )
        return (ns, det.stats["ksky_runs"] - runs0, pruned, batch_rows,
                launches)

    # ---------------------------------------------------------------- scans

    def _point_scanner(self, det):
        """Who runs ``scan_new_arrivals`` for per-point rows (the hook
        ``repro.testing.ReferenceRefresh`` overrides)."""
        return det.skyband_engine

    def _scan(self, det, mode: str, rows, lo: int, commit) -> int:
        """Scan one row group over live indexes ``[lo, end)`` and commit
        each result; returns how many rows went through batched kernels.

        ``rows`` is ``[(live index, point, state), ...]``; ``lo`` is 0 for
        from-scratch rows and the group's shared first-unseen index for
        survivors (least examination: only arrivals the group has not
        scanned yet are candidates).
        """
        buf = det.buffer
        n_live = len(buf)
        if (mode == "per-point" or len(rows) < self.batch_min_rows
                or n_live <= lo):
            scanner = self._point_scanner(det)
            for _, p, st in rows:
                commit(p, st,
                       scanner.scan_new_arrivals(p.values, p.seq, buf, lo))
            return 0
        det.stats["batched_scans"] += len(rows)
        idxs = [idx for idx, _, _ in rows]
        if mode == "grid":
            groups = self._cell_groups(det, idxs)
        else:
            groups = [(None, range(len(rows)))]
        for cand, members in groups:
            if cand is not None:
                cand = cand[int(np.searchsorted(cand, lo, side="left")):]
                self._pruned += (n_live - lo - len(cand)) * len(members)
            results = det.skyband_engine.scan_batched(
                [idxs[i] for i in members],
                [rows[i][1].seq for i in members], buf, lo, cand_idx=cand)
            for i, result in zip(members, results):
                _, p, st = rows[i]
                commit(p, st, result)
        return len(rows)

    # ------------------------------------------- grid-cell candidate groups

    def _cell_groups(self, det, rows: List[int]
                     ) -> List[Tuple[np.ndarray, List[int]]]:
        """(candidate array, member positions) per unique query cell."""
        grid = self._grid
        if grid is None:
            # one cell per r_max: the neighborhood is then the 3^dim
            # Moore neighborhood, the standard grid-pruning cell choice
            self._r_max = float(det.plan.grid.values[-1])
            grid = self._grid = GridCandidateIndex(self._r_max)
        grid.sync(det.buffer)
        mat = det.buffer.matrix()
        q_rows = np.asarray(rows, dtype=np.intp)
        arrays, assign = grid.candidates_within(mat[q_rows], self._r_max)
        members: Dict[int, List[int]] = {}
        for i, g in enumerate(assign.tolist()):
            members.setdefault(g, []).append(i)
        groups = [(arrays[g], members[g]) for g in sorted(members)]
        return self._merge_small_groups(groups)

    @classmethod
    def _merge_small_groups(cls, groups):
        """Coalesce consecutive sub-``_MERGE_MIN_ROWS`` cell groups."""
        if len(groups) <= 1:
            return groups
        merged = []
        acc_arrays: List[np.ndarray] = []
        acc_idxs: List[int] = []
        for cand, idxs in groups:
            acc_arrays.append(cand)
            acc_idxs.extend(idxs)
            if len(acc_idxs) >= cls._MERGE_MIN_ROWS:
                merged.append((cls._union(acc_arrays), acc_idxs))
                acc_arrays, acc_idxs = [], []
        if acc_idxs:
            merged.append((cls._union(acc_arrays), acc_idxs))
        return merged

    @staticmethod
    def _union(arrays: List[np.ndarray]) -> np.ndarray:
        if len(arrays) == 1:
            return arrays[0]
        return np.unique(np.concatenate(arrays))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RefreshEngine({self.name!r}, "
                f"batch_min_rows={self.batch_min_rows})")


# ------------------------------------------------------------ the scan engine


class _SoaRow:
    """Per-evaluated-point scan state for :class:`VectorizedSkybandEngine`.

    Entries accumulate as bulk array segments (one per contributing
    chunk); the sorted layer multiset and per-layer counts are maintained
    incrementally so ``_Resolution`` sees exactly the state an ``LSky``
    would give it (its ``on_insert``/``check`` duck-type against
    ``_sorted_layers``/``dominator_count``).
    """

    __slots__ = ("resolution", "_sorted_layers", "counts",
                 "segs_s", "segs_p", "segs_l", "n", "thresh")

    def __init__(self, resolution: _Resolution, n_layers: int):
        self.resolution = resolution
        self._sorted_layers: List[int] = []
        self.counts = [0] * n_layers
        self.segs_s: List = []
        self.segs_p: List = []
        self.segs_l: List = []
        self.n = 0
        #: cached per-chunk insert threshold (k_max-th smallest layer)
        self.thresh = n_layers

    def dominator_count(self, layer: int) -> int:
        return bisect_right(self._sorted_layers, layer)

    def finalize(self, n_layers: int) -> LSkySoA:
        # segments may be numpy arrays (vectorized chunks) or plain lists
        # (the int fast paths); eager adoption is the right trade because
        # every result is consumed exactly once by the evidence commit
        if not self.segs_s:
            return LSkySoA(n_layers)
        return LSkySoA.from_segments(n_layers, self.segs_s, self.segs_p,
                                     self.segs_l)


class VectorizedSkybandEngine:
    """The K-SKY scan every detector runs, over flat array state.

    The contract is bit-exactness with the reference per-point
    :class:`~repro.core.ksky.KSkyRunner` (Alg. 1-2 as written): same chunk
    boundaries (anchored at the buffer top), same insert decisions, same
    termination candidates, same ``examined`` arithmetic, same
    ``distance_rows`` -- ``tests/test_lsky_soa.py`` drives both in
    lockstep over the Table 1 grid and asserts entry-for-entry equality.
    What differs is *how* the per-candidate resolve loop runs:

    * per-chunk candidate selection, the zero-candidate fold, and the
      per-row threshold gather are whole-array passes;
    * multi-layer insert sets come from
      :func:`~repro.core.lsky_soa.resolve_chunk_inserts` (the per-layer
      prefix argument; see that module's docstring) -- or, behind
      ``REPRO_NUMBA=1``, from a compiled sequential kernel -- and only the
      (small, bounded by ``k_max * n_layers``) insert sequence is replayed
      through the real ``_Resolution`` to find the exact termination cut;
    * inserted entries land in the skyband as bulk array segments
      (``soa_rows`` counts them), not per-entry appends.

    ``py_iters`` counts the interpreted iterations actually spent
    (replays, small-chunk fallback visits, per-row-chunk visits); the
    profile reports it as ``python_insert_iters``.
    """

    #: below this many selected candidates, the literal sequential
    #: insert loop beats the argsort/searchsorted passes
    _SEQ_LIMIT = 16

    def __init__(self, plan, chunk_size: int = 256):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.plan = plan
        self.chunk_size = chunk_size
        self.by_time = plan.kind == "time"
        self._pending = [(sg.min_layer, sg.k) for sg in plan.subgroups]
        self._limits = insert_limits(plan.allowed_layer, plan.k_max,
                                     plan.n_layers)
        self._allowed_arr = np.asarray(plan.allowed_layer, dtype=np.int64)
        self._numba = numba_active()
        #: interpreted resolve iterations (the profile's
        #: ``python_insert_iters``)
        self.py_iters = 0
        #: skyband entries committed through bulk array appends
        self.soa_rows = 0

    def _result(self, state: _SoaRow, examined: int, terminated: bool,
                resolved: bool) -> KSkyResult:
        return KSkyResult(
            lsky=state.finalize(self.plan.n_layers),
            examined=examined,
            terminated_early=terminated,
            resolved_all=resolved,
        )

    def _resolve_row_chunk(
        self,
        state: _SoaRow,
        j_self: int,
        block_lo: int,
        lo_s: int,
        hi_s: int,
        js_nz,
        js_all: List[int],
        ms_all: Optional[List[int]],
        lmat_row,
        cand_list: Optional[List[int]],
        cand_arr: Optional[np.ndarray],
        c_base: int,
        seq_arr: np.ndarray,
        pos_arr: np.ndarray,
        seqs_list: List[int],
        poss_list: List[float],
        single: bool,
    ) -> Tuple[bool, bool, int, int, int]:
        """Resolve one evaluated point's selected candidates of one chunk.

        The shared core of every scan: the batched sweep
        (:meth:`scan_batched`) and the per-point scan
        (:meth:`scan_new_arrivals`) both land here,
        so insert decisions, regime selection (single-layer bulk take /
        small-chunk sequential / vectorized resolve + bounded replay) and
        termination candidates are one implementation.

        ``js_all``/``ms_all`` are flat python lists of selected column
        indexes/layers with this row's span at ``[lo_s, hi_s)``; ``js_nz``
        and ``lmat_row`` are their array twins for the vectorized branch.
        ``cand_list``/``cand_arr`` map columns to live buffer indexes when
        the kernel saw a candidate subset (``None`` -> ``block_lo + j``).
        ``j_self`` is the evaluated point's own column in this chunk (-1
        when absent).  Returns ``(inserted, terminated, jt, py_iters,
        soa_rows)`` with ``jt`` the terminating candidate's chunk-relative
        index; the row's cached insert threshold is refreshed before
        returning.
        """
        plan = self.plan
        n_layers = plan.n_layers
        k_max = plan.k_max
        allowed = plan.allowed_layer
        resolution = state.resolution
        terminated = False
        inserted = False
        jt = 0
        py_iters = 1
        soa_rows = 0
        if single:
            # fixed-r bulk take.  With one layer and the exact
            # per-insert resolution regime the scan collapses: every
            # selected candidate is at layer 0, is always insertable
            # (``allowed[c] == 0`` for ``c < k_max``), and the scan
            # terminates exactly at the ``k_max``-th insert (layer 0 is
            # ``<= min_layer`` for every sub-group, so all of ``pending``
            # resolves when the dominator count reaches the largest k).
            # So: take the newest `k_max - n` selected candidates --
            # same inserts, same termination candidate, same final
            # ``pending`` as per-insert filtering would have left
            need = k_max - state.n
            take: List[int] = []
            ii = hi_s - 1
            while ii >= lo_s and len(take) < need:
                j = js_all[ii]
                if j != j_self:
                    take.append(block_lo + j if cand_list is None
                                else cand_list[c_base + j])
                ii -= 1
            if take:
                t = len(take)
                segs_s = state.segs_s
                if t > 32:
                    live = np.asarray(take, dtype=np.int64)
                    segs_s.append(seq_arr[live])
                    state.segs_p.append(pos_arr[live])
                    state.segs_l.append(
                        np.zeros(t, dtype=np.int64))
                elif segs_s and type(segs_s[-1]) is list:
                    # coalesce into the trailing list segment:
                    # rows that collect entries a few per chunk
                    # (small-r regimes) stay single-segment, so
                    # adoption is one asarray, not a concat chain
                    segs_s[-1].extend(
                        [seqs_list[x] for x in take])
                    state.segs_p[-1].extend(
                        [poss_list[x] for x in take])
                    state.segs_l[-1].extend([0] * t)
                else:
                    segs_s.append(
                        [seqs_list[x] for x in take])
                    state.segs_p.append(
                        [poss_list[x] for x in take])
                    state.segs_l.append([0] * t)
                state.n += t
                state._sorted_layers.extend([0] * t)
                state.counts[0] += t
                inserted = True
                soa_rows += t
                if t == need:
                    resolution.pending = []
                    terminated = True
                    jt = take[-1] - block_lo
        elif hi_s - lo_s <= self._SEQ_LIMIT:
            # small chunk: the sequential inner loop (Alg. 2 verbatim)
            # is cheaper than the array passes
            sl = state._sorted_layers
            counts = state.counts
            on_insert = resolution.on_insert
            app_idx: List[int] = []
            app_m: List[int] = []
            for ii in range(hi_s - 1, lo_s - 1, -1):
                j = js_all[ii]
                if j == j_self:
                    continue
                idx = (block_lo + j if cand_list is None
                       else cand_list[c_base + j])
                py_iters += 1
                m = ms_all[ii]
                c = bisect_right(sl, m)
                if c < k_max and m <= allowed[c]:
                    app_idx.append(idx)
                    app_m.append(m)
                    insort(sl, m)
                    counts[m] += 1
                    inserted = True
                    if on_insert(state, m):
                        terminated = True
                        jt = idx - block_lo
                        break
            if app_idx:
                segs_s = state.segs_s
                if segs_s and type(segs_s[-1]) is list:
                    segs_s[-1].extend(
                        [seqs_list[x] for x in app_idx])
                    state.segs_p[-1].extend(
                        [poss_list[x] for x in app_idx])
                    state.segs_l[-1].extend(app_m)
                else:
                    segs_s.append(
                        [seqs_list[x] for x in app_idx])
                    state.segs_p.append(
                        [poss_list[x] for x in app_idx])
                    state.segs_l.append(app_m)
                state.n += len(app_idx)
                soa_rows += len(app_idx)
        else:
            # vectorized resolve: compute the untruncated insert
            # set with array passes, then replay it through the
            # real _Resolution to find the exact termination cut
            js = js_nz[lo_s:hi_s]
            if j_self >= 0:
                js = js[js != j_self]
            js_desc = js[::-1]
            m_scan = lmat_row[js_desc]
            counts_arr = np.asarray(state.counts, dtype=np.int64)
            if self._numba:
                pos, ins_m = resolve_chunk_inserts_numba(
                    m_scan, counts_arr, self._allowed_arr, k_max)
            else:
                pos, ins_m = resolve_chunk_inserts(
                    m_scan, counts_arr, self._limits)
            if len(pos):
                cols = js_desc[pos]
                live = (block_lo + cols if cand_arr is None
                        else cand_arr[c_base + cols])
                sl = state._sorted_layers
                counts = state.counts
                on_insert = resolution.on_insert
                cut = len(pos)
                for t_i in range(cut):
                    m = int(ins_m[t_i])
                    insort(sl, m)
                    counts[m] += 1
                    inserted = True
                    py_iters += 1
                    if on_insert(state, m):
                        terminated = True
                        cut = t_i + 1
                        jt = int(live[t_i]) - block_lo
                        break
                live = live[:cut]
                state.segs_s.append(seq_arr[live])
                state.segs_p.append(pos_arr[live])
                state.segs_l.append(
                    np.ascontiguousarray(ins_m[:cut]))
                state.n += cut
                soa_rows += cut
        sl = state._sorted_layers
        state.thresh = (sl[k_max - 1] if k_max <= len(sl)
                        else n_layers)
        return inserted, terminated, jt, py_iters, soa_rows

    def scan_batched(
        self,
        row_indexes: Sequence[int],
        p_seqs: Sequence[int],
        buffer,
        lo: int,
        cand_idx: Optional[np.ndarray] = None,
    ) -> List[KSkyResult]:
        """Chunk-synchronous batched scans over live indexes ``[lo, end)``.

        ``row_indexes``/``p_seqs`` give the live-buffer index and seq of
        each evaluated point.  All rows share the same candidate range, so
        each chunk costs one ``pairwise_block`` kernel over the still-active
        rows and one vectorized ``layers_of`` hash -- rows that terminate
        drop out of subsequent chunks, which keeps ``distance_rows``
        identical to running :meth:`scan_new_arrivals` per row: the
        per-point scan also pays for a whole chunk before consuming it.

        Only candidates that could change a row's skyband are visited: a
        candidate at layer ``m`` is inserted only if fewer than ``k_max``
        stored entries dominate it (Def. 6 condition 2), i.e. only if
        ``m`` is below the row's ``k_max``-th smallest stored layer, and a
        rejected candidate never mutates scan state.  The below-threshold
        positions come from one vectorized comparison per chunk; skipped
        candidates are folded into ``examined`` arithmetically.

        ``cand_idx``, when given, restricts the pairwise kernels to a
        candidate *subset*: an ascending, duplicate-free array of live
        indexes (grid mode passes the cell neighborhoods from
        ``GridCandidateIndex.candidates_within``).  The scan still walks
        the full range chunk by chunk -- chunk boundaries stay anchored at
        the buffer top -- but each chunk's kernel sees only the subset
        columns falling inside it (views of one per-scan gather,
        ``pairwise_gathered``), and runs of candidate-free chunks fold
        into ``examined`` in one step: a boundary resolution check with no
        intervening insert filters ``pending`` against unchanged state,
        removes nothing and returns False for every row still active
        (the one exception, an empty pending template, terminates at the
        first boundary exactly where the unfolded walk would).  Provided
        the excluded indexes are all farther than the plan's largest
        radius, results are bit-identical to the full-range scan; only
        ``distance_rows`` shrinks.
        """
        plan = self.plan
        n_layers = plan.n_layers
        chunk = self.chunk_size
        hi = len(buffer)
        n = len(p_seqs)
        mat = buffer.matrix()
        seq_arr = buffer.seq_array()
        pos_arr = buffer.pos_array(self.by_time)
        # python-list twins for the int fast paths (cached on the buffer)
        seqs_list = buffer.seqs()
        poss_list = buffer.positions(self.by_time)
        row_idx = np.asarray(row_indexes, dtype=np.int64)

        rows = [_SoaRow(_Resolution(plan, self._pending), n_layers)
                for _ in range(n)]
        examined = [0] * n
        results: List[Optional[KSkyResult]] = [None] * n
        active = list(range(n))
        single = (n_layers == 1 and bool(self._pending)
                  and len(self._pending) <= _Resolution._EXACT_LIMIT)
        n_chunks = -(-(hi - lo) // chunk) if hi > lo else 0
        if cand_idx is None:
            offs = cand_arr = cand_mat = cand_list = None
        else:
            edges = np.maximum(hi - chunk * np.arange(n_chunks + 1), lo)
            offs = np.searchsorted(cand_idx, edges, side="left").tolist()
            cand_arr = cand_idx
            cand_list = cand_idx.tolist()
            cand_mat = mat[cand_idx] if cand_list else None
        q_mat: Optional[np.ndarray] = None
        i = 0
        while i < n_chunks and active:
            block_hi = hi - i * chunk
            block_lo = max(lo, block_hi - chunk)
            width = block_hi - block_lo
            c_base = 0
            if offs is None:
                n_cols = width
            else:
                c_base = offs[i + 1]
                n_cols = offs[i] - c_base
                if n_cols == 0:
                    # candidate-free run: no kernel and no state change
                    # (see the docstring) -- fold the whole run into
                    # examined arithmetic and jump to the next chunk
                    # holding a candidate
                    if c_base == 0:
                        nxt_i = n_chunks
                    else:
                        nxt_i = (hi - 1 - int(cand_arr[c_base - 1])) // chunk
                    run_lo = max(lo, hi - nxt_i * chunk)
                    still = []
                    for row in active:
                        self_idx = row_indexes[row]
                        if rows[row].resolution.pending:
                            examined[row] += (block_hi - run_lo) - (
                                1 if run_lo <= self_idx < block_hi else 0)
                            still.append(row)
                            continue
                        examined[row] += width - (
                            1 if block_lo <= self_idx < block_hi else 0)
                        results[row] = self._result(
                            rows[row], examined[row], True, True)
                    if len(still) != len(active):
                        q_mat = None
                    active = still
                    i = nxt_i
                    continue
            if q_mat is None:
                q_mat = mat[row_idx[active]]
            if offs is None:
                dists = buffer.pairwise_block(q_mat, block_lo, block_hi)
            else:
                dists = buffer.pairwise_gathered(
                    q_mat, cand_mat[c_base:c_base + n_cols])
            lmat = plan.grid.layers_of(dists)
            n_act = len(active)
            thresh = np.fromiter((rows[r].thresh for r in active),
                                 dtype=np.int64, count=n_act)
            rows_nz, js_nz = np.nonzero(lmat < thresh[:, None])
            seg_list = np.searchsorted(
                rows_nz, np.arange(n_act + 1)).tolist()
            js_all = js_nz.tolist()
            ms_all = None if single else lmat[rows_nz, js_nz].tolist()
            # degenerate empty sub-group template: the reference walk
            # terminates such rows at the first boundary check, which the
            # zero-selection skip below would elide -- disable the skip
            skip_empty = bool(self._pending)
            py_iters = 0
            soa_rows = 0
            still = []
            for a, row in enumerate(active):
                lo_s = seg_list[a]
                hi_s = seg_list[a + 1]
                self_idx = row_indexes[row]
                if lo_s == hi_s and skip_empty:
                    # no below-threshold candidate: rejections never
                    # mutate scan state, and without an insert the
                    # boundary resolution check is elided -- the whole
                    # chunk folds into examined arithmetic
                    examined[row] += width - (
                        1 if block_lo <= self_idx < block_hi else 0)
                    still.append(row)
                    continue
                state = rows[row]
                resolution = state.resolution
                if offs is None:
                    j_self = self_idx - block_lo
                    if not 0 <= j_self < width:
                        j_self = -1
                elif block_lo <= self_idx < block_hi:
                    p = bisect_left(cand_list, self_idx, c_base,
                                    c_base + n_cols)
                    j_self = (p - c_base if p < c_base + n_cols
                              and cand_list[p] == self_idx else -1)
                else:
                    j_self = -1
                inserted, terminated, jt, d_py, d_soa = (
                    self._resolve_row_chunk(
                        state, j_self, block_lo, lo_s, hi_s, js_nz,
                        js_all, ms_all, lmat[a], cand_list, cand_arr,
                        c_base, seq_arr, pos_arr, seqs_list, poss_list,
                        single))
                py_iters += d_py
                soa_rows += d_soa
                self_rel = self_idx - block_lo
                self_in = 0 <= self_rel < width
                if terminated:
                    examined[row] += (width - jt) - (
                        1 if self_in and self_rel > jt else 0)
                    results[row] = self._result(
                        state, examined[row], True,
                        resolution.done or resolution.check(state))
                    continue
                examined[row] += width - (1 if self_in else 0)
                if inserted:
                    if resolution.check(state):
                        results[row] = self._result(
                            state, examined[row], True,
                            resolution.done)
                        continue
                elif not resolution.pending:
                    results[row] = self._result(
                        state, examined[row], True, True)
                    continue
                still.append(row)
            self.py_iters += py_iters
            self.soa_rows += soa_rows
            if len(still) != len(active):
                q_mat = None
            active = still
            i += 1
        for row in active:
            state = rows[row]
            resolution = state.resolution
            results[row] = self._result(
                state, examined[row], False,
                resolution.done or resolution.check(state))
        return results

    # ------------------------------------------------------- per-point scan

    def scan_new_arrivals(self, p_values, p_seq: int, buffer,
                          new_from_index: int) -> KSkyResult:
        """One point's scan of live indexes ``[new_from_index, end)``: the
        whole window (0) for a new point, the unseen arrivals for a
        survivor -- ``KSkyRunner.scan_new_arrivals``, bit for bit.

        One ``distances_from`` kernel per chunk (the reference walk's
        exact kernel shape and count), candidate selection and the
        per-chunk resolve through :meth:`_resolve_row_chunk`.  Chunk
        boundaries anchor at the buffer top, as in the reference walk.
        The evaluated point's own column is located once by seq (seqs are
        unique and ascending; -1 when ``p`` is not in the buffer),
        matching the reference's per-candidate seq-equality skip.
        Boundary resolution checks run only after chunks that inserted --
        a check with no intervening insert filters ``pending`` against
        unchanged state, removes nothing, and returns False whenever
        ``pending`` is non-empty, so eliding it is state-identical
        (DESIGN.md section 13); the degenerate empty template instead
        disables the zero-selection skip and terminates at the first
        visited chunk exactly like the batched sweep.
        """
        plan = self.plan
        n_layers = plan.n_layers
        chunk = self.chunk_size
        lo = new_from_index
        state = _SoaRow(_Resolution(plan, self._pending), n_layers)
        resolution = state.resolution
        seq_arr = buffer.seq_array()
        pos_arr = buffer.pos_array(self.by_time)
        seqs_list = buffer.seqs()
        poss_list = buffer.positions(self.by_time)
        si = buffer.first_index_at_or_after_seq(p_seq)
        self_idx = (si if si < len(seqs_list) and seqs_list[si] == p_seq
                    else -1)
        single = (n_layers == 1 and bool(self._pending)
                  and len(self._pending) <= _Resolution._EXACT_LIMIT)
        skip_empty = bool(self._pending)
        examined = 0
        terminated = False
        block_hi = len(buffer)
        while block_hi > lo:
            block_lo = max(lo, block_hi - chunk)
            width = block_hi - block_lo
            dists = buffer.distances_from(p_values, block_lo, block_hi)
            lvec = plan.grid.layers_of(dists)
            js = np.nonzero(lvec < state.thresh)[0]
            j_self = self_idx - block_lo
            if not 0 <= j_self < width:
                j_self = -1
            self_in = j_self >= 0
            if not len(js) and skip_empty:
                # no below-threshold candidate: the whole chunk folds
                # into examined arithmetic, as in the batched sweep
                examined += width - (1 if self_in else 0)
                block_hi = block_lo
                continue
            js_all = js.tolist()
            ms_all = None if single else lvec[js].tolist()
            inserted, terminated, jt, d_py, d_soa = (
                self._resolve_row_chunk(
                    state, j_self, block_lo, 0, len(js_all), js, js_all,
                    ms_all, lvec, None, None, 0, seq_arr, pos_arr,
                    seqs_list, poss_list, single))
            self.py_iters += d_py
            self.soa_rows += d_soa
            if terminated:
                examined += (width - jt) - (
                    1 if self_in and j_self > jt else 0)
                break
            examined += width - (1 if self_in else 0)
            if inserted:
                terminated = resolution.check(state)
            else:
                terminated = not resolution.pending
            if terminated:
                break
            block_hi = block_lo
        return self._result(state, examined, terminated, resolution.done)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"VectorizedSkybandEngine(chunk_size={self.chunk_size}, "
                f"numba={self._numba})")
