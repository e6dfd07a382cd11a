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
from bisect import bisect_right, insort
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ksky import KSkyResult, _Resolution
from ..core.lsky_soa import (
    LSkySoA,
    insert_limits,
    tile_insert_mask,
    tile_stops,
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
      requires the probe to show real pruning work: the boundary's
      ``candidates_pruned`` divided by its ``ksky_runs`` (every scan the
      boundary ran, sub-crossover per-point rows included -- not
      ``batch_rows``) must reach ``_MIN_PRUNE_PER_ROW``.  A probe that
      pruned next to nothing can still come out ahead on noise, and the
      recorded r=200 regressions are exactly the regime where pruning
      volume per scan is low relative to window size.
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
    #: minimum pruned candidates per K-SKY run for grid to be eligible
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
        # ``python_insert_iters`` is the interpreted steps the scan engine
        # actually spent (tiles resolved + literal-loop visits), not the
        # logical candidate count -- that is ``points_examined``
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


class _ScanRow:
    """One per-point scan's stored layers, shaped for the real
    ``_Resolution`` (its ``on_insert``/``check`` duck-type against
    ``_sorted_layers``/``dominator_count``, as an ``LSky`` gives them)."""

    __slots__ = ("_sorted_layers",)

    def __init__(self):
        self._sorted_layers: List[int] = []

    def dominator_count(self, layer: int) -> int:
        return bisect_right(self._sorted_layers, layer)


class VectorizedSkybandEngine:
    """The K-SKY scan every detector runs, over flat array state.

    The contract is bit-exactness with the reference per-point
    :class:`~repro.core.ksky.KSkyRunner` (Alg. 1-2 as written): same chunk
    boundaries (anchored at the buffer top), same insert decisions, same
    termination candidates, same ``examined`` arithmetic, same
    ``distance_rows`` -- ``tests/test_lsky_soa.py`` drives both in
    lockstep over the Table 1 grid and asserts entry-for-entry equality.
    What differs is *how* the per-candidate loop runs.  There is one
    resolve (:meth:`_resolve_tile`): the insert decisions of a whole
    ``rows x candidates`` kernel tile in one array pass per layer
    (:func:`~repro.core.lsky_soa.tile_insert_mask`) and every row's
    termination point in closed form
    (:func:`~repro.core.lsky_soa.tile_stops`) -- no insert is replayed.
    :meth:`scan_batched` feeds it each chunk's tile with the row state
    (stored layer counts, exit index) held in arrays and splits the
    inserted ``(row, live index, layer)`` triples into per-row results
    once at the end; :meth:`scan_new_arrivals` feeds it one-row tiles and
    keeps the literal Alg. 2 loop for selections of at most
    ``_SEQ_LIMIT`` candidates, where array passes cost more than they
    save.

    ``py_iters`` (the profile's ``python_insert_iters``) counts the
    interpreted steps left: one per resolved tile, one per row in the
    ``_CHECK_EVERY`` cadence regime, one per per-point chunk visited and
    one per candidate of the literal loop.  ``soa_rows`` counts the
    skyband entries committed.
    """

    #: at or below this many selected candidates, a per-point chunk runs
    #: the literal sequential insert loop instead of a one-row tile
    _SEQ_LIMIT = 16

    def __init__(self, plan, chunk_size: int = 256):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.plan = plan
        self.chunk_size = chunk_size
        self.by_time = plan.kind == "time"
        #: the sub-group template ``(min_layer, k)``, as ``_Resolution``
        #: takes it and as the two columns ``tile_stops`` takes
        self._pending = [(sg.min_layer, sg.k) for sg in plan.subgroups]
        self._sub_layers = plan.subgroup_min_layers
        self._sub_ks = plan.subgroup_ks.astype(np.int32)
        self._limits = insert_limits(plan.allowed_layer, plan.k_max,
                                     plan.n_layers)
        self._layer_dtype = np.min_scalar_type(plan.n_layers)
        #: interpreted resolve steps (the profile's
        #: ``python_insert_iters``)
        self.py_iters = 0
        #: skyband entries committed
        self.soa_rows = 0

    def _resolve_tile(self, L: np.ndarray, csum: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 np.ndarray]:
        """Resolve one tile: ``L[R, W]`` candidate layers in scan order
        (``n_layers`` where a row has no candidate), ``csum[R, n_layers]``
        the rows' cumulative stored layer counts at chunk start.

        A row's pending sub-groups are exactly the ones unresolved under
        ``csum``: every chunk that inserts ends in ``check()``, and a
        chunk that does not leaves both sides unchanged.  Returns
        ``(ins, stop, stopped, pending)``: the inserted candidates up to
        and including each row's terminating one, its scan position,
        whether it has one (``stop < W``; otherwise the row consumes the
        whole tile), and what is still pending after the chunk-end check.
        """
        alive = csum[:, self._sub_layers] < self._sub_ks
        ins = tile_insert_mask(L, csum, self._limits)
        stop, pending = tile_stops(L, ins, csum, alive, self._sub_layers,
                                   self._sub_ks)
        stopped = stop < L.shape[1]
        if stopped.any():
            ins &= np.arange(L.shape[1]) <= stop[:, None]
        self.py_iters += 1
        if len(self._pending) > _Resolution._EXACT_LIMIT:
            self.py_iters += int(np.count_nonzero(
                alive.sum(axis=1) > _Resolution._EXACT_LIMIT))
        return ins, stop, stopped, pending

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
        rows, one vectorized ``layers_of`` hash and one
        :meth:`_resolve_tile` -- rows that terminate drop out of
        subsequent chunks, which keeps ``distance_rows`` identical to
        running :meth:`scan_new_arrivals` per row: the per-point scan also
        pays for a whole chunk before consuming it.

        Only rows with a candidate that could change their skyband enter
        the resolve: a candidate at layer ``m`` is inserted only if fewer
        than ``k_max`` stored entries dominate it (Def. 6 condition 2),
        i.e. only if ``m`` is below the row's ``k_max``-th smallest stored
        layer, and a rejected candidate never mutates scan state.  A row
        with none sits the chunk out; without an insert its boundary
        resolution check is a no-op.  ``examined`` needs no running
        tally: a scan examines everything newer than the live index it
        exits at (its terminating candidate, the bottom of the chunk
        whose boundary check ended it, or ``lo``), bar the point itself.

        ``cand_idx``, when given, restricts the pairwise kernels to a
        candidate *subset*: an ascending, duplicate-free array of live
        indexes (grid mode passes the cell neighborhoods from
        ``GridCandidateIndex.candidates_within``).  The scan still walks
        the full range chunk by chunk -- chunk boundaries stay anchored at
        the buffer top -- but each chunk's kernel sees only the subset
        columns falling inside it (views of one per-scan gather,
        ``pairwise_gathered``), and runs of candidate-free chunks are
        jumped in one step: a boundary resolution check with no
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
        k_max = plan.k_max
        chunk = self.chunk_size
        hi = len(buffer)
        n = len(p_seqs)
        mat = buffer.matrix()
        self_idx = np.asarray(row_indexes, dtype=np.intp)
        # degenerate empty sub-group template: the reference walk
        # terminates such rows at the first boundary check, which the
        # zero-selection and candidate-free folds would elide
        has_template = bool(self._pending)

        counts = np.zeros((n, n_layers), dtype=np.int32)
        #: live index each scan stopped at: its terminating candidate, the
        #: bottom of the chunk whose boundary check ended it, or ``lo``
        exit_at = np.full(n, min(lo, hi), dtype=np.intp)
        terminated = np.zeros(n, dtype=bool)
        act = np.arange(n)
        #: inserted entries per tile: owning row, live index, layer
        owners = [np.empty(0, dtype=np.intp)]
        lives = [np.empty(0, dtype=np.intp)]
        layers = [np.empty(0, dtype=self._layer_dtype)]
        n_chunks = -(-(hi - lo) // chunk) if hi > lo else 0
        if cand_idx is None:
            offs = cand_mat = None
        else:
            edges = np.maximum(hi - chunk * np.arange(n_chunks + 1), lo)
            offs = np.searchsorted(cand_idx, edges, side="left").tolist()
            cand_mat = mat[cand_idx] if len(cand_idx) else None
        q_mat: Optional[np.ndarray] = None
        i = 0
        while i < n_chunks and len(act):
            block_hi = hi - i * chunk
            block_lo = max(lo, block_hi - chunk)
            if offs is None:
                n_cols = block_hi - block_lo
            else:
                c_base = offs[i + 1]
                n_cols = offs[i] - c_base
                if n_cols == 0:
                    # candidate-free run: no kernel and no state change
                    # (see the docstring) -- jump to the next chunk
                    # holding a candidate
                    if not has_template:
                        exit_at[act] = block_lo
                        terminated[act] = True
                        break
                    if c_base == 0:
                        break
                    i = (hi - 1 - int(cand_idx[c_base - 1])) // chunk
                    continue
            own = self_idx[act]
            if q_mat is None:
                q_mat = mat[own]
            if offs is None:
                dists = buffer.pairwise_block(q_mat, block_lo, block_hi)
            else:
                dists = buffer.pairwise_gathered(
                    q_mat, cand_mat[c_base:c_base + n_cols])
            lmat = plan.grid.layers_of(dists)
            # a point is no candidate of its own scan (Def. 5 ranges over
            # D_W - p): lift its column out of every layer
            at = ((own >= block_lo) & (own < block_hi)).nonzero()[0]
            if len(at):
                cols = own[at] - block_lo
                if offs is not None:
                    seg = cand_idx[c_base:c_base + n_cols]
                    cols = np.minimum(np.searchsorted(seg, own[at]),
                                      n_cols - 1)
                    hit = seg[cols] == own[at]
                    at, cols = at[hit], cols[hit]
                lmat[at, cols] = n_layers
            csum = np.cumsum(counts[act], axis=1, dtype=np.int32)
            i += 1
            rows = act
            if has_template:
                thresh = (csum < k_max).sum(axis=1)
                sub = (lmat.min(axis=1) < thresh).nonzero()[0]
                if not len(sub):
                    continue
                if len(sub) < len(act):
                    lmat, csum, rows = lmat[sub], csum[sub], act[sub]
            L = lmat[:, ::-1].astype(self._layer_dtype)
            ins, stop, stopped, pending = self._resolve_tile(L, csum)
            r_nz, s_nz = ins.nonzero()
            ins_layers = L[r_nz, s_nz]
            cols = (n_cols - 1) - s_nz
            owners.append(rows[r_nz])
            lives.append(block_lo + cols if offs is None
                         else cand_idx[c_base + cols])
            layers.append(ins_layers)
            counts[rows] += np.bincount(
                r_nz * n_layers + ins_layers,
                minlength=len(rows) * n_layers).reshape(len(rows), n_layers)
            done = (stopped | ~pending.any(axis=1)).nonzero()[0]
            if len(done):
                # a row its terminating candidate stopped exits there; one
                # the boundary check ended (stop == n_cols) at the chunk
                # bottom
                cols = np.maximum((n_cols - 1) - stop[done], 0)
                exit_at[rows[done]] = np.where(
                    stopped[done],
                    block_lo + cols if offs is None
                    else cand_idx[c_base + cols],
                    block_lo)
                terminated[rows[done]] = True
                act = act[~terminated[act]]
                q_mat = None

        # everything newer than the exit point was examined, bar the
        # evaluated point itself
        examined = (hi - exit_at) - (exit_at <= self_idx)
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        live = np.concatenate(lives)[order]
        lays = np.concatenate(layers)[order]
        seq_arr = buffer.seq_array()
        pos_arr = buffer.pos_array(self.by_time)
        self.soa_rows += len(live)
        ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
        results = []
        a = 0
        for b, n_examined, term in zip(ends, examined.tolist(),
                                       terminated.tolist()):
            # per-row gathers, so every result owns its arrays: a slice of
            # one per-scan array would pin all of it for as long as any
            # row's evidence lives
            idx = live[a:b]
            results.append(KSkyResult(
                lsky=LSkySoA(n_layers, seq_arr[idx], pos_arr[idx],
                             lays[a:b].astype(np.int64)),
                examined=n_examined,
                terminated_early=term,
                resolved_all=term or not has_template,
            ))
            a = b
        return results

    # ------------------------------------------------------- per-point scan

    def scan_new_arrivals(self, p_values, p_seq: int, buffer,
                          new_from_index: int) -> KSkyResult:
        """One point's scan of live indexes ``[new_from_index, end)``: the
        whole window (0) for a new point, the unseen arrivals for a
        survivor -- ``KSkyRunner.scan_new_arrivals``, bit for bit.

        One ``distances_from`` kernel per chunk (the reference walk's
        exact kernel shape and count); chunk boundaries anchor at the
        buffer top, as in the reference walk.  A chunk's selected
        candidates (below the ``k_max``-th smallest stored layer, as in
        :meth:`scan_batched`) run the literal Alg. 2 loop against the
        real ``_Resolution`` when there are at most ``_SEQ_LIMIT`` of
        them, and go through :meth:`_resolve_tile` as a one-row tile
        otherwise.  The evaluated point's own column is located once by
        seq (seqs are unique and ascending; -1 when ``p`` is not in the
        buffer), matching the reference's per-candidate seq-equality skip.
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
        k_max = plan.k_max
        allowed = plan.allowed_layer
        chunk = self.chunk_size
        lo = new_from_index
        state = _ScanRow()
        sl = state._sorted_layers
        resolution = _Resolution(plan, self._pending)
        seq_arr = buffer.seq_array()
        si = buffer.first_index_at_or_after_seq(p_seq)
        self_idx = si if si < len(seq_arr) and seq_arr[si] == p_seq else -1
        skip_empty = bool(self._pending)
        #: inserted entries in scan order: live index, layer
        found: List[int] = []
        found_layers: List[int] = []
        #: live index the scan stops at (see :meth:`scan_batched`)
        hi = len(buffer)
        exit_at = min(lo, hi)
        terminated = False
        block_hi = hi
        while block_hi > lo:
            block_lo = max(lo, block_hi - chunk)
            dists = buffer.distances_from(p_values, block_lo, block_hi)
            lvec = plan.grid.layers_of(dists)
            if block_lo <= self_idx < block_hi:
                lvec[self_idx - block_lo] = n_layers
            thresh = sl[k_max - 1] if k_max <= len(sl) else n_layers
            js = np.flatnonzero(lvec < thresh)[::-1]
            block_hi = block_lo
            if not len(js) and skip_empty:
                # no below-threshold candidate: nothing to resolve and no
                # boundary check to run, as in the batched sweep
                continue
            self.py_iters += 1
            n_before = len(found)
            if len(js) <= self._SEQ_LIMIT:
                # small selection: the sequential inner loop (Alg. 2
                # verbatim) is cheaper than the array passes
                for j, m in zip(js.tolist(), lvec[js].tolist()):
                    self.py_iters += 1
                    c = bisect_right(sl, m)
                    if c < k_max and m <= allowed[c]:
                        found.append(block_lo + j)
                        found_layers.append(m)
                        insort(sl, m)
                        if resolution.on_insert(state, m):
                            terminated = True
                            break
            else:
                L = lvec[js].astype(self._layer_dtype)[None, :]
                csum = np.searchsorted(sl, np.arange(n_layers), side="right")
                ins, _, stopped, _ = self._resolve_tile(L, csum[None, :])
                pos = ins[0].nonzero()[0]
                taken = L[0, pos].tolist()
                found.extend((block_lo + js[pos]).tolist())
                found_layers.extend(taken)
                sl.extend(taken)
                sl.sort()
                if stopped[0]:
                    resolution.pending = []
                    terminated = True
            if terminated:
                exit_at = found[-1]
                break
            if len(found) > n_before:
                terminated = resolution.check(state)
            else:
                terminated = not resolution.pending
            if terminated:
                exit_at = block_lo
                break
        live = np.asarray(found, dtype=np.intp)
        self.soa_rows += len(found)
        return KSkyResult(
            lsky=LSkySoA(n_layers, seq_arr[live],
                         buffer.pos_array(self.by_time)[live], found_layers),
            examined=(hi - exit_at) - (exit_at <= self_idx),
            terminated_early=terminated,
            resolved_all=resolution.done,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorizedSkybandEngine(chunk_size={self.chunk_size})"
