"""The K-SKY refresh stage: one engine, one scan path, one commit.

Every swift boundary, each live non-fully-safe point refreshes its skyband
(Alg. 3 loop): new points scan the window from scratch, surviving points
scan only the new arrivals plus their unexpired previous skyband (least
examination, Alg. 1 / Lemma 2).  *What* is scanned is fixed by the paper;
*how* is ours, and every step is an array pass over the detector's
:class:`~repro.core.evidence.EvidenceTable`::

    per-row starts -> one ``scan_batched`` tile sweep -> one commit
    -> one profile sample

Every scanned row -- from scratch or a survivor -- walks down from the
buffer top to its own first candidate, so all of a boundary's evidence is
one ``(rows x candidates)`` matrix computed with a single pairwise kernel
per tile, whatever the number of rows or of distinct starts; a tile spans
one logical chunk, then twice the last tile's chunks, and a row leaves the
sweep at its own start.  Scan order, chunk boundaries and
termination cadence replicate the paper's per-point walk exactly, and the
commit merges every scanned row at once (DESIGN.md section 15); the
lockstep suites hold both bit-exact against the literal per-row refresh
(``repro.testing.ReferenceRefresh``).  The shards of a serial runtime
refresh together (:meth:`RefreshEngine.refresh_all`): each prepares its
rows, one sweep scans all of them -- every row down from its own
buffer's top, so each keeps its lone walk -- and each commits its own.
No decision reads a clock, so the work counters of a run repeat exactly.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from ..core.ksky import _Resolution
from ..core.lsky_soa import insert_limits, near_entries, resolve_entries
from ..metrics.meters import LapClock
from .safety import layer_counts

__all__ = ["RefreshEngine", "ScanBatch", "VectorizedSkybandEngine"]

#: cells of a sweep's first tile (one logical chunk per row): more rows
#: than fit are swept in blocks, so a boundary's transient memory does not
#: grow with its row count
_SWEEP_CELLS = 1 << 16


class ScanBatch(NamedTuple):
    """The flat result of one boundary's scans.

    Entries are sorted by ``owner`` (the row's index in the scanned
    rows), each row's in scan (arrival-descending) order; ``examined``
    and ``terminated`` are per row.  ``counts[row, layer]`` is how many of
    a row's entries sit at each layer -- what the scan engine kept to
    decide its inserts (``None``: the commit counts the entries).
    ``iters``, ``inserts`` and ``near`` are the scan engine's tallies for
    these rows (interpreted resolve steps, entries committed, near tile
    cells resolved -- 0 for the reference walk).
    """

    owner: np.ndarray
    seq: np.ndarray
    pos: np.ndarray
    layer: np.ndarray
    examined: np.ndarray
    terminated: np.ndarray
    counts: Optional[np.ndarray] = None
    iters: int = 0
    inserts: int = 0
    near: int = 0


class _Prepared(NamedTuple):
    """One detector's refresh between its prepare and its finish."""

    det: object
    rows: np.ndarray
    surv: np.ndarray
    lo: np.ndarray
    newest_seq: int
    kernels0: int
    cells0: int
    batched0: int
    screened: int
    pruned: int


class RefreshEngine:
    """Runs the refresh stage of one boundary -- of one detector, or of
    several detectors over one plan (the shards of a runtime) in one
    sweep: a per-detector prepare, one joint :meth:`_scan`, a
    per-detector finish."""

    def refresh(self, det, window_start: float) -> None:
        """Run K-SKY for every live, non-fully-safe point of ``det``."""
        self.refresh_all([det], window_start)

    def refresh_all(self, dets: Sequence, window_start: float,
                    laps: Optional[LapClock] = None) -> None:
        """Refresh every detector of ``dets`` (one plan, one window start)
        with one scan sweep over all of their rows.

        Each detector's outcome -- evidence, stats, profile sample -- is
        exactly what :meth:`refresh` alone gives it (the sweep keeps
        every row's walk; DESIGN.md section 12), bar what depends on how
        the joint sweep is tiled: the profile's ``python_insert_iters``
        (a joint tile is one step, booked once), ``kernel_launches`` and
        ``kernel_cells`` (one kernel per detector per joint tile) and
        ``near_candidates`` (the reach is read once per tile).  Each
        detector's refresh time -- its own prepare and finish plus its
        rows' share of the joint scan -- is its ``refresh_ns`` sample and
        is charged to it on ``laps`` (a clock over ``dets`` whose last lap
        ends where the stage starts; default: one of its own), so the
        samples sum to the stage's wall time.
        """
        if laps is None:
            laps = LapClock(len(dets))
        before = laps.ns[:]
        prepared = []
        #: the scanned detectors, their rows and starts; each detector's
        #: share of the scan, by rows
        scanned, rows, lo = [], [], []
        weights = [0] * len(dets)
        for i, det in enumerate(dets):
            prep = self._prepare(det)
            laps.lap(i)
            if prep is not None:
                prepared.append((i, prep))
                scanned.append(det)
                rows.append(prep.rows)
                lo.append(prep.lo)
                weights[i] = len(prep.rows)
        if not prepared:
            return
        scans = self._scan(scanned, rows, lo)
        laps.split(weights)
        for (i, prep), scan in zip(prepared, scans):
            self._finish(prep, scan, window_start)
            laps.lap(i)
            self._record(prep, scan, laps.ns[i] - before[i])

    def _prepare(self, det) -> Optional[_Prepared]:
        """The screen, the rows to scan and their starts (None: nothing
        buffered, no refresh)."""
        buf = det.buffer
        table = det.table
        n = len(buf)
        if not n:
            return None
        if len(table.seen) != n:
            raise RuntimeError(
                f"evidence table holds {len(table.seen)} rows for {n} "
                "buffered points; load points through warm_start()")
        kernels0, cells0 = buf.kernel_calls, buf.kernel_cells
        batched0 = det.stats["batched_scans"]
        seq_arr = buf.seq_array()
        newest_seq = int(seq_arr[-1])

        active = np.flatnonzero(~table.safe)
        # first tier: the prefilter's certainly-inlier mask (None when
        # there is no screen or it sits this boundary out).  Its anchor
        # kernels run inside the timed region with kernels0 already
        # snapshotted, so the screen's own cost lands in this boundary's
        # refresh_ns / kernel_launches / kernel_cells sample -- honest
        # accounting.
        screen = det.prefilter
        pf_screened = pf_pruned = 0
        if screen is not None:
            prune = screen.prune_mask(det)
            if prune is not None:
                hit = prune[active]
                pf_screened = len(active)
                # certified points commit straight to the fully-safe
                # state the skipped scan would have produced (DESIGN.md
                # section 14); the rebuild below drops their entries
                certified = active[hit]
                active = active[~hit]
                pf_pruned = len(certified)
                table.safe[certified] = True
                table.touch(certified, newest_seq)
                det.stats["fully_safe_marked"] += pf_pruned
            screen.observe(pf_screened, pf_pruned)

        # survivors scan from their first unseen arrival (a searchsorted,
        # not base-offset arithmetic: shard streams skip seqs); the rest
        # from scratch.  (No rows at all is one empty scan: the rebuild
        # still drops the entries of rows the screen certified.)
        rows = active
        seen = table.seen[rows]
        surv = (seen >= 0) if det.use_least_examination else (
            np.zeros(len(rows), dtype=bool))
        lo = np.zeros(len(rows), dtype=np.intp)
        lo[surv] = np.searchsorted(seq_arr, seen[surv] + 1)
        return _Prepared(det, rows, surv, lo, newest_seq, kernels0, cells0,
                         batched0, pf_screened, pf_pruned)

    def _finish(self, prep: _Prepared, scan: ScanBatch,
                window_start: float) -> None:
        """Commit one detector's scans: counters, safe flags, rebuild."""
        det, rows = prep.det, prep.rows
        table = det.table
        stats = det.stats
        examined, safe, owner, src = self._commit(det, rows, prep.surv, scan,
                                                  window_start)
        stats["ksky_runs"] += len(rows)
        stats["points_examined"] += int(examined.sum())
        stats["early_terminations"] += int(np.count_nonzero(scan.terminated))
        stats["fully_safe_marked"] += int(np.count_nonzero(safe))
        table.safe[rows[safe]] = True
        table.touch(rows, prep.newest_seq)
        table.rebuild(owner, src, scan.seq, scan.pos, scan.layer)

    @staticmethod
    def _record(prep: _Prepared, scan: ScanBatch, refresh_ns: int) -> None:
        """One detector's profile sample.  ``python_insert_iters`` is the
        interpreted steps the scan engine actually spent (tiles resolved
        + cadence-regime rows), not the logical candidate count -- that
        is ``points_examined``."""
        det = prep.det
        buf = det.buffer
        det.profile.record(
            refresh_ns,
            buf.kernel_calls - prep.kernels0,
            det.stats["batched_scans"] - prep.batched0,
            scan.iters,
            soa_insert_rows=scan.inserts,
            near_candidates=scan.near,
            prefilter_screened=prep.screened,
            prefilter_suspects=prep.screened - prep.pruned,
            prefilter_pruned=prep.pruned,
            kernel_cells=buf.kernel_cells - prep.cells0,
        )

    def _scan(self, dets: Sequence, rows: Sequence[np.ndarray],
              lo: Sequence[np.ndarray]) -> List[ScanBatch]:
        """Scan every detector's rows (live indexes ``rows[d]``), row
        ``j`` of detector ``d`` over live indexes ``[lo[d][j], end)``, in
        one sweep -- the hook ``repro.testing.ReferenceRefresh``
        overrides.  ``lo[d][j]`` is 0 for a from-scratch row and its
        first unseen arrival for a survivor.  One batch per detector."""
        for det, r in zip(dets, rows):
            det.stats["batched_scans"] += len(r)
        return dets[0].skyband_engine.scan_batched(
            rows, [det.buffer for det in dets], lo)

    def _commit(self, det, rows: np.ndarray, surv: np.ndarray,
                scan: ScanBatch, window_start: float):
        """Least examination and safe-for-all for every scanned row at
        once (the hook ``repro.testing.ReferenceRefresh`` overrides with
        the literal per-row merge).

        ``rows`` are the scanned live rows, ``surv`` flags the ones whose
        old evidence is merged, ``scan.owner`` indexes ``rows``.  Returns
        ``(examined, safe, owner, src)``: per-row examined counts and
        fully-safe flags, and the rebuilt table as its owner column plus
        each entry's index into [scan entries | current table].
        """
        plan = det.plan
        table = det.table
        seq_arr = det.buffer.seq_array()
        n_rows = len(rows)
        n_new = len(scan.owner)
        # the old entries a row re-admits: a survivor's unexpired ones,
        # unless its scan terminated (Alg. 1 lines 3-5)
        merge = surv & ~scan.terminated
        slot = np.full(len(seq_arr), -1, dtype=np.int32)
        slot[rows[merge]] = np.flatnonzero(merge)
        o_row = slot[np.searchsorted(seq_arr, table.owner)]
        o_idx = np.flatnonzero((o_row >= 0) & (table.pos >= window_start))
        o_row = o_row[o_idx]
        examined = scan.examined + np.bincount(o_row, minlength=n_rows)
        # Def. 6 condition 2 against the new arrivals alone: an old entry
        # is dominated once k_max new entries sit at or below its layer
        # (the scan engine's own per-row layer counts, when it kept them)
        new_at = (layer_counts(scan.owner, scan.layer, n_rows, plan.n_layers)
                  if scan.counts is None
                  else np.cumsum(scan.counts, axis=1, dtype=np.int32))
        kept = new_at[o_row, table.layer[o_idx]] < plan.k_max
        o_idx, o_row = o_idx[kept], o_row[kept]

        if det.use_safe_inliers:
            own = seq_arr[rows]
            s_new = scan.seq > own[scan.owner]
            s_old = table.seq[o_idx] > own[o_row]
            safe = det.safety.safe_rows(
                np.concatenate((scan.owner[s_new], o_row[s_old])),
                np.concatenate((scan.layer[s_new],
                                table.layer[o_idx[s_old]])),
                n_rows)
        else:
            safe = np.zeros(n_rows, dtype=bool)

        # fully safe rows drop their evidence; the rest keep their new
        # entries ahead of their kept old ones -- the stable sort by row
        # preserves that and each part's arrival-descending order
        n_idx = np.flatnonzero(~safe[scan.owner])
        o_live = ~safe[o_row]
        o_idx, o_row = o_idx[o_live], o_row[o_live]
        key = rows.astype(np.int32)[np.concatenate((scan.owner[n_idx],
                                                    o_row))]
        order = np.argsort(key, kind="stable")
        src = np.concatenate((n_idx, n_new + o_idx))[order]
        return examined, safe, seq_arr[key[order]], src


# ------------------------------------------------------------ the scan engine


class VectorizedSkybandEngine:
    """The K-SKY scan every detector runs, over flat array state.

    The contract is bit-exactness with the reference per-point
    :class:`~repro.core.ksky.KSkyRunner` (Alg. 1-2 as written): same chunk
    boundaries (anchored at the buffer top), same insert decisions, same
    termination candidates, same ``examined`` arithmetic, same
    ``distance_rows`` -- ``tests/test_lsky_soa.py`` drives both in
    lockstep over the Table 1 grid and asserts entry-for-entry equality.
    What differs is *how* the per-candidate loop runs: each
    ``rows x candidates`` kernel tile -- one or more logical chunks -- is
    compacted to the cells its rows can use
    (:func:`~repro.core.lsky_soa.near_entries`), and one pure function
    resolves those -- every insert decision and every row's termination
    point as order statistics of one running count per layer
    (:func:`~repro.core.lsky_soa.resolve_entries`); no insert is
    replayed.  :meth:`scan_batched` feeds it each tile with the row state
    (start, stored layer counts, exit index) held in arrays and returns
    the inserted entries flat, as one :class:`ScanBatch` per detector.

    Each batch carries its detector's share of the engine's own tallies:
    ``iters`` (the profile's ``python_insert_iters``) counts the
    interpreted steps left -- one per resolved tile, booked once, and one
    per row in the ``_CHECK_EVERY`` cadence regime; ``inserts`` the
    skyband entries committed, ``near`` the tile cells the resolve
    consumed up to each row's stop.
    """

    def __init__(self, plan, chunk_size: int = 256):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.plan = plan
        self.chunk_size = chunk_size
        self.by_time = plan.kind == "time"
        #: the sub-group template ``(min_layer, k)``, as ``_Resolution``
        #: takes it and as two columns (``resolve_entries`` takes the
        #: layers and each row's remaining ranks ``k - csum[:, layer]``)
        self._pending = [(sg.min_layer, sg.k) for sg in plan.subgroups]
        self._sub_layers = plan.subgroup_min_layers
        self._sub_ks = plan.subgroup_ks.astype(np.int32)
        self._limits = insert_limits(plan.allowed_layer, plan.k_max,
                                     plan.n_layers)
        #: a row's reach by its number of layers under ``k_max`` stored
        #: dominators: the largest such layer's ``r`` (none: ``-inf``)
        self._reach = np.concatenate(([-np.inf], plan.grid.values))
        #: narrowest dtype holding a layer index, the ``n_layers``
        #: sentinel included (scan tiles and the evidence table use it)
        self.layer_dtype = np.min_scalar_type(plan.n_layers)

    def scan_batched(self, row_indexes, buffer, lo):
        """Chunk-synchronous batched scans, row ``j`` over live indexes
        ``[lo[j], end)`` (``lo`` per row, or one start for every row);
        returns one :class:`ScanBatch`.

        Several detectors' rows share one sweep when ``row_indexes``,
        ``buffer`` and ``lo`` are lists with one item per detector -- its
        *segment*: its rows, its buffer and their starts.  The result is
        then a list with one :class:`ScanBatch` per segment, each exactly
        what the segment alone would have returned (below).

        ``row_indexes`` gives the live-buffer index of each evaluated
        point; the result's ``owner`` indexes it.  Every row walks down
        from its own buffer top, so one sweep of tiles serves them all.
        The sweep runs in *scan-position* space: position ``s`` of a row
        is live index ``top - 1 - s`` of its own buffer, and a tile spans
        the same positions for every row.  Each tile costs one
        ``pairwise_block`` kernel per segment over its still-active rows
        (a segment whose candidates end inside the tile fills the
        columns past them with ``+inf``; none of its rows reaches them),
        one compaction of the stacked tile to its near entries and one
        :func:`~repro.core.lsky_soa.resolve_entries` over them -- rows
        that terminate, and rows whose own range ends inside a tile, drop
        out of subsequent tiles.  With one segment the kernel's output is
        the tile.  A sweep takes at most ``_SWEEP_CELLS // chunk_size``
        rows; more are swept in blocks of that many, the rows with the
        longest ranges first so they share their later tiles.  A tile's
        positions past a row's start are not that row's candidates: the
        compaction drops them and the resolve reads the row's tile bottom
        at its start (DESIGN.md section 12).

        The first tile is one logical chunk (``chunk_size`` positions
        from the top); each later one spans twice the last tile's chunks,
        capped so that it never holds more cells than one chunk for every
        row whose range reaches past the first tile -- a sweep's
        transient memory never exceeds its first chunk's.  The logical
        chunk stays the unit of the paper's walk, counted from each row's
        own buffer top: the resolve runs each chunk's boundary check
        inside a wide tile (DESIGN.md section 12), and each row charges
        its own buffer's ``distance_rows`` for the chunks up to and
        including the one it stops in, the last one cut at its start,
        which keeps it identical to running
        ``KSkyRunner.scan_new_arrivals`` per row (the per-point walk pays
        for a whole chunk before consuming it); the cells a wide tile
        computed past a row's stop, or below its start, show only in
        ``kernel_cells``.

        Only cells that could change a row's skyband are compacted (and
        hashed, and counted in ``near``): a candidate at layer ``m`` is
        inserted only if fewer than ``k_max`` stored entries dominate it
        (Def. 6 condition 2), i.e. only if ``m`` is below the row's
        ``k_max``-th smallest stored layer -- a distance no farther than
        that layer's ``r`` bound, itself at most ``r_max`` (Def. 5
        condition 3) -- and a rejected candidate never mutates scan
        state.  A row with no such cell sits the tile out; without an
        insert its boundary resolution checks are no-ops (a check with no
        intervening insert filters ``pending`` against unchanged state and
        removes nothing -- DESIGN.md section 13; the one exception, an
        empty pending template, terminates at the first boundary exactly
        where the reference walk does).  ``examined`` needs no running
        tally: a scan examines everything newer than the live index it
        exits at (its terminating candidate, the bottom of the chunk
        whose boundary check ended it, or its start), bar the point
        itself.
        """
        if isinstance(buffer, (list, tuple)):
            return self._sweep(row_indexes, buffer, lo)
        return self._sweep([row_indexes], [buffer], [lo])[0]

    def _sweep(self, row_indexes, buffers, lo) -> List[ScanBatch]:
        """:meth:`scan_batched` over one segment per buffer.  Rows are
        numbered segment by segment; with one segment every per-segment
        split below is the identity and is skipped."""
        plan = self.plan
        n_layers = plan.n_layers
        k_max = plan.k_max
        chunk = self.chunk_size
        n_seg = len(buffers)
        one = n_seg == 1
        his = [len(b) for b in buffers]
        if one:
            self_idx = np.asarray(row_indexes[0], dtype=np.intp)
            n = len(self_idx)
            top = his[0]
            start = np.minimum(np.broadcast_to(
                np.asarray(lo[0], dtype=np.intp), (n,)), top)
        else:
            idx = [np.asarray(r, dtype=np.intp) for r in row_indexes]
            #: each segment's row range: ``first[s]:first[s + 1]``
            first = np.zeros(n_seg + 1, dtype=np.intp)
            np.cumsum([len(r) for r in idx], out=first[1:])
            n = int(first[-1])
            self_idx = np.concatenate(idx)
            start = np.concatenate([
                np.minimum(np.broadcast_to(np.asarray(s, dtype=np.intp),
                                           (len(r),)), h)
                for s, r, h in zip(lo, idx, his)])
            #: each row's own buffer top
            top = np.repeat(np.asarray(his, dtype=np.intp), np.diff(first))
        #: each row's candidates: scan positions ``[0, end)``
        end = top - start
        mats = [b.matrix() for b in buffers]
        # degenerate empty sub-group template: the reference walk
        # terminates such rows at the first boundary check, which the
        # zero-selection fold would elide
        has_template = bool(self._pending)
        cadence = len(self._pending) > _Resolution._EXACT_LIMIT

        counts = np.zeros((n, n_layers), dtype=np.int32)
        #: scan position each scan stopped before: its terminating
        #: candidate's, its stopping chunk's bottom's, or its end
        exit_pos = end.copy()
        terminated = np.zeros(n, dtype=bool)
        #: per segment: interpreted resolve steps and near cells resolved
        iters = [0] * n_seg
        near = [0] * n_seg
        #: rows with candidates, swept ``per_sweep`` at a time -- the
        #: longest ranges first, so they share their later tiles
        todo = (end > 0).nonzero()[0]
        per_sweep = max(1, _SWEEP_CELLS // chunk)
        if len(todo) > per_sweep:
            todo = todo[np.argsort(-end[todo], kind="stable")]
        act = todo[:0]
        #: inserted entries per tile: owning row, live index, layer
        owners = [np.empty(0, dtype=np.intp)]
        lives = [np.empty(0, dtype=np.intp)]
        layers = [np.empty(0, dtype=self.layer_dtype)]
        while len(act) or len(todo):
            if not len(act):
                # a sweep starts at the buffer tops with one logical chunk
                act, todo = todo[:per_sweep], todo[per_sweep:]
                if not one:
                    # each segment's rows contiguous, in segment order
                    act = np.sort(act)
                q_mats: Optional[list] = None
                #: cells of a later tile: at most one chunk per row whose
                #: range reaches past the first tile
                cap = chunk * int(np.count_nonzero(end[act] > chunk))
                span = 0
                p0 = 0
            # logical chunks in this tile: one, then twice the last tile's
            span = min(2 * span, cap // (len(act) * chunk)) or 1
            a_end = end[act]
            p1 = min(int(a_end.max()), p0 + span * chunk)
            #: each row's candidates in the tile: down to its own start
            widths = np.minimum(a_end, p1) - p0
            own = self_idx[act]
            if one:
                a_top = top
                if q_mats is None:
                    q_mats = [mats[0][own]]
                dists = buffers[0].pairwise_block(q_mats[0], top - p1,
                                                  top - p0)
            else:
                a_top = top[act]
                #: each segment's slice of the tile's rows
                cuts = act.searchsorted(first)
                if q_mats is None:
                    q_mats = [m[own[a:b]] for m, a, b in zip(mats, cuts,
                                                              cuts[1:])]
                dists = np.empty((len(act), p1 - p0))
                for buf, q, h, a, b in zip(buffers, q_mats, his, cuts,
                                           cuts[1:]):
                    if a == b:
                        continue
                    # the segment's columns end at its rows' deepest
                    # candidate; the positions past it are no row's
                    cols = int(widths[a:b].max())
                    dists[a:b, :p1 - p0 - cols] = np.inf
                    dists[a:b, p1 - p0 - cols:] = buf.pairwise_block(
                        q, h - p0 - cols, h - p0)
            csum = np.cumsum(counts[act], axis=1, dtype=np.int32)
            # a point is no candidate of its own scan (Def. 5 ranges over
            # D_W - p).  The reach is read once per tile; inserts inside
            # it only lower it, and the entries a stale reach admits sit
            # at layers closed earlier in the tile, which the resolve
            # rejects.
            r_i, s_i, lay = near_entries(
                dists, own - (a_top - p1),
                self._reach[(csum < k_max).sum(axis=1)], plan.grid, widths)
            del dists
            if has_template and not len(r_i):
                charge = widths
            else:
                rank = self._sub_ks - csum[:, self._sub_layers]
                ins, stop, pending = resolve_entries(
                    r_i, s_i, lay, widths, csum, rank, self._limits,
                    self._sub_layers, chunk)
                # each row pays for the logical chunks up to the one it
                # stops in, as the per-point walk does; the resolve
                # consumed the near entries up to its stop
                charge = np.minimum((stop // chunk + 1) * chunk, widths)
                took = s_i <= stop[r_i]
                # one interpreted step per tile, booked to its first
                # segment's detector
                if one:
                    near[0] += int(np.count_nonzero(took))
                    iters[0] += 1
                else:
                    _add(near, _by_segment(np.bincount(
                        r_i[took], minlength=len(act)), cuts))
                    iters[first.searchsorted(act[0], "right") - 1] += 1
                if cadence:
                    hit = np.zeros(len(act), dtype=bool)
                    hit[r_i] = True
                    slow = hit & ((rank > 0).sum(axis=1)
                                  > _Resolution._EXACT_LIMIT)
                    if one:
                        iters[0] += int(np.count_nonzero(slow))
                    else:
                        _add(iters, _by_segment(slow, cuts))
                sel = ins.nonzero()[0]
                r_sel, l_sel = r_i[sel], lay[sel]
                owners.append(act[r_sel])
                lives.append(((a_top if one else a_top[r_sel]) - p0 - 1)
                             - s_i[sel])
                layers.append(l_sel.astype(self.layer_dtype))
                counts[act] += np.bincount(
                    r_sel * n_layers + l_sel,
                    minlength=len(act) * n_layers).reshape(len(act),
                                                           n_layers)
                stopped = stop < widths
                done = (stopped | ~pending.any(axis=1)).nonzero()[0]
                if len(done):
                    # a row exits at its stop -- a terminating candidate
                    # or an inner chunk's bottom -- or, when its last
                    # check in the tile ended it (stop == its width), at
                    # its tile bottom
                    exit_pos[act[done]] = p0 + np.where(
                        stopped[done], stop[done] + 1, widths[done])
                    terminated[act[done]] = True
            # each row charges its own buffer
            if one:
                buffers[0].distance_rows += int(charge.sum())
            else:
                for buf, rows in zip(buffers, _by_segment(charge, cuts)):
                    buf.distance_rows += rows
            p0 = p1
            # a row whose range ended in this tile unresolved keeps its
            # end as exit point
            going = ~terminated[act] & (a_end > p1)
            if not going.all():
                act = act[going]
                q_mats = None

        # everything newer than the exit point was examined, bar the
        # evaluated point itself
        examined = exit_pos - ((top - exit_pos) <= self_idx)
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        live = np.concatenate(lives)[order]
        layer = np.concatenate(layers)[order]
        if one:
            buf = buffers[0]
            return [ScanBatch(owner.astype(np.int32), buf.seq_array()[live],
                              buf.pos_array(self.by_time)[live], layer,
                              examined, terminated, counts, iters=iters[0],
                              inserts=len(live), near=near[0])]
        ends = owner.searchsorted(first)
        out = []
        for s, buf in enumerate(buffers):
            a, b = ends[s], ends[s + 1]
            r0, r1 = first[s], first[s + 1]
            at = live[a:b]
            out.append(ScanBatch(
                (owner[a:b] - r0).astype(np.int32), buf.seq_array()[at],
                buf.pos_array(self.by_time)[at], layer[a:b],
                examined[r0:r1], terminated[r0:r1], counts[r0:r1],
                iters=iters[s], inserts=int(b - a), near=near[s]))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorizedSkybandEngine(chunk_size={self.chunk_size})"


def _by_segment(values: np.ndarray, cuts: np.ndarray) -> List[int]:
    """Sums of ``values`` over the row slices ``cuts`` delimits."""
    total = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=total[1:])
    return np.diff(total[cuts]).tolist()


def _add(into: List[int], values: List[int]) -> None:
    """``into[s] += values[s]`` for every segment."""
    for s, v in enumerate(values):
        into[s] += v
