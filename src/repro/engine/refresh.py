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
(``repro.testing.ReferenceRefresh``).  No decision reads a clock, so the
work counters of a run repeat exactly.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Optional

import numpy as np

from ..core.ksky import _Resolution
from ..core.lsky_soa import insert_limits, near_entries, resolve_entries
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
    """

    owner: np.ndarray
    seq: np.ndarray
    pos: np.ndarray
    layer: np.ndarray
    examined: np.ndarray
    terminated: np.ndarray
    counts: Optional[np.ndarray] = None


class RefreshEngine:
    """Runs the refresh stage of one boundary."""

    def refresh(self, det, window_start: float) -> None:
        """Run K-SKY for every live, non-fully-safe point of ``det``."""
        buf = det.buffer
        table = det.table
        n = len(buf)
        if not n:
            return
        if len(table.seen) != n:
            raise RuntimeError(
                f"evidence table holds {len(table.seen)} rows for {n} "
                "buffered points; load points through warm_start()")
        t0 = time.perf_counter_ns()
        kernels0, cells0 = buf.kernel_calls, buf.kernel_cells
        batched0 = det.stats["batched_scans"]
        eng = det.skyband_engine
        py0, soa0, near0 = eng.py_iters, eng.soa_rows, eng.near
        stats = det.stats
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
                stats["fully_safe_marked"] += pf_pruned
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
        scan = self._scan(det, rows, lo)

        examined, safe, owner, src = self._commit(det, rows, surv, scan,
                                                  window_start)
        stats["ksky_runs"] += len(rows)
        stats["points_examined"] += int(examined.sum())
        stats["early_terminations"] += int(np.count_nonzero(scan.terminated))
        stats["fully_safe_marked"] += int(np.count_nonzero(safe))
        table.safe[rows[safe]] = True
        table.touch(rows, newest_seq)
        table.rebuild(owner, src, scan.seq, scan.pos, scan.layer)

        # ``python_insert_iters`` is the interpreted steps the scan engine
        # actually spent (tiles resolved + cadence-regime rows), not the
        # logical candidate count -- that is ``points_examined``
        det.profile.record(
            time.perf_counter_ns() - t0,
            buf.kernel_calls - kernels0,
            stats["batched_scans"] - batched0,
            eng.py_iters - py0,
            soa_insert_rows=eng.soa_rows - soa0,
            near_candidates=eng.near - near0,
            prefilter_screened=pf_screened,
            prefilter_suspects=pf_screened - pf_pruned,
            prefilter_pruned=pf_pruned,
            kernel_cells=buf.kernel_cells - cells0,
        )

    def _scan(self, det, rows: np.ndarray, lo: np.ndarray) -> ScanBatch:
        """Scan every row (live indexes ``rows``), row ``j`` over live
        indexes ``[lo[j], end)`` -- the hook
        ``repro.testing.ReferenceRefresh`` overrides.  ``lo[j]`` is 0 for
        a from-scratch row and its first unseen arrival for a
        survivor."""
        det.stats["batched_scans"] += len(rows)
        return det.skyband_engine.scan_batched(rows, det.buffer, lo)

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
    the inserted entries flat, as one :class:`ScanBatch` for the
    boundary.

    ``py_iters`` (the profile's ``python_insert_iters``) counts the
    interpreted steps left: one per resolved tile and one per row in the
    ``_CHECK_EVERY`` cadence regime.  ``soa_rows`` counts the skyband
    entries committed, ``near`` the tile cells the resolve consumed up to
    each row's stop.
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
        #: interpreted resolve steps (the profile's
        #: ``python_insert_iters``)
        self.py_iters = 0
        #: skyband entries committed
        self.soa_rows = 0
        #: near tile cells resolved (the profile's ``near_candidates``)
        self.near = 0

    def scan_batched(self, row_indexes, buffer, lo) -> ScanBatch:
        """Chunk-synchronous batched scans, row ``j`` over live indexes
        ``[lo[j], end)`` (``lo`` per row, or one start for every row).

        ``row_indexes`` gives the live-buffer index of each evaluated
        point; the result's ``owner`` indexes it.  Every row walks down
        from the buffer top, so one sweep of tiles serves them all: each
        tile costs one ``pairwise_block`` kernel over the still-active
        rows, one compaction of that tile to its near entries and one
        :func:`~repro.core.lsky_soa.resolve_entries` over them -- rows
        that terminate, and rows whose own range ends inside a tile, drop
        out of subsequent tiles.  A sweep takes at most ``_SWEEP_CELLS //
        chunk_size`` rows; more are swept in blocks of that many, ordered
        by start so the rows with the longest ranges share their later
        tiles.  A tile's columns below a row's start
        are not that row's candidates: the compaction drops them and the
        resolve reads the row's tile bottom at its start (DESIGN.md
        section 12).

        The first tile is one logical chunk (``chunk_size`` candidates,
        anchored at the buffer top); each later one spans twice the last
        tile's chunks, capped so that it never holds more cells than one
        chunk for every row whose range reaches past the first tile -- a
        sweep's transient memory never exceeds its first chunk's.  The
        logical chunk stays the unit of the paper's walk: the resolve
        runs each chunk's boundary check inside a wide tile (DESIGN.md
        section 12), and each row charges ``distance_rows`` for the
        chunks up to and including the one it stops in, the last one cut
        at its start, which keeps it identical to running
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
        plan = self.plan
        n_layers = plan.n_layers
        k_max = plan.k_max
        chunk = self.chunk_size
        hi = len(buffer)
        n = len(row_indexes)
        mat = buffer.matrix()
        self_idx = np.asarray(row_indexes, dtype=np.intp)
        starts = np.minimum(np.broadcast_to(
            np.asarray(lo, dtype=np.intp), (n,)), hi)
        # degenerate empty sub-group template: the reference walk
        # terminates such rows at the first boundary check, which the
        # zero-selection fold would elide
        has_template = bool(self._pending)
        cadence = len(self._pending) > _Resolution._EXACT_LIMIT

        counts = np.zeros((n, n_layers), dtype=np.int32)
        #: live index each scan stopped at: its terminating candidate, the
        #: bottom of the chunk whose boundary check ended it, or its start
        exit_at = starts.copy()
        terminated = np.zeros(n, dtype=bool)
        #: rows with candidates, swept ``per_sweep`` at a time -- by start,
        #: so the rows with the longest ranges share their later tiles
        todo = (starts < hi).nonzero()[0]
        per_sweep = max(1, _SWEEP_CELLS // chunk)
        if len(todo) > per_sweep:
            todo = todo[np.argsort(starts[todo], kind="stable")]
        act = todo[:0]
        #: inserted entries per tile: owning row, live index, layer
        owners = [np.empty(0, dtype=np.intp)]
        lives = [np.empty(0, dtype=np.intp)]
        layers = [np.empty(0, dtype=self.layer_dtype)]
        while len(act) or len(todo):
            if not len(act):
                # a sweep starts at the buffer top with one logical chunk
                act, todo = todo[:per_sweep], todo[per_sweep:]
                q_mat: Optional[np.ndarray] = None
                #: cells of a later tile: at most one chunk per row whose
                #: range reaches past the first tile
                cap = chunk * int(np.count_nonzero(starts[act] < hi - chunk))
                span = 0
                block_hi = hi
            # logical chunks in this tile: one, then twice the last tile's
            span = min(2 * span, cap // (len(act) * chunk)) or 1
            a_lo = starts[act]
            block_lo = max(int(a_lo.min()), block_hi - span * chunk)
            n_cols = block_hi - block_lo
            #: each row's candidates in the tile: down to its own start
            widths = block_hi - np.maximum(a_lo, block_lo)
            own = self_idx[act]
            if q_mat is None:
                q_mat = mat[own]
            dists = buffer.pairwise_block(q_mat, block_lo, block_hi)
            csum = np.cumsum(counts[act], axis=1, dtype=np.int32)
            # a point is no candidate of its own scan (Def. 5 ranges over
            # D_W - p).  The reach is read once per tile; inserts inside
            # it only lower it, and the entries a stale reach admits sit
            # at layers closed earlier in the tile, which the resolve
            # rejects.
            r_i, s_i, lay = near_entries(
                dists, own - block_lo,
                self._reach[(csum < k_max).sum(axis=1)], plan.grid, widths)
            del dists
            if has_template and not len(r_i):
                buffer.distance_rows += int(widths.sum())
            else:
                rank = self._sub_ks - csum[:, self._sub_layers]
                ins, stop, pending = resolve_entries(
                    r_i, s_i, lay, widths, csum, rank, self._limits,
                    self._sub_layers, chunk)
                # each row pays for the logical chunks up to the one it
                # stops in, as the per-point walk does; the resolve
                # consumed the near entries up to its stop
                buffer.distance_rows += int(np.minimum(
                    (stop // chunk + 1) * chunk, widths).sum())
                self.near += int(np.count_nonzero(s_i <= stop[r_i]))
                self.py_iters += 1
                if cadence:
                    hit = np.zeros(len(act), dtype=bool)
                    hit[r_i] = True
                    self.py_iters += int(np.count_nonzero(
                        hit & ((rank > 0).sum(axis=1)
                               > _Resolution._EXACT_LIMIT)))
                sel = ins.nonzero()[0]
                r_sel, l_sel = r_i[sel], lay[sel]
                owners.append(act[r_sel])
                lives.append((block_hi - 1) - s_i[sel])
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
                    exit_at[act[done]] = block_hi - np.where(
                        stopped[done], stop[done] + 1, widths[done])
                    terminated[act[done]] = True
            block_hi = block_lo
            # a row whose range ended in this tile unresolved keeps its
            # start as exit point
            going = ~terminated[act] & (a_lo < block_lo)
            if not going.all():
                act = act[going]
                q_mat = None

        # everything newer than the exit point was examined, bar the
        # evaluated point itself
        examined = (hi - exit_at) - (exit_at <= self_idx)
        owner = np.concatenate(owners)
        order = np.argsort(owner, kind="stable")
        live = np.concatenate(lives)[order]
        self.soa_rows += len(live)
        return ScanBatch(owner[order].astype(np.int32),
                         buffer.seq_array()[live],
                         buffer.pos_array(self.by_time)[live],
                         np.concatenate(layers)[order], examined, terminated,
                         counts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorizedSkybandEngine(chunk_size={self.chunk_size})"
