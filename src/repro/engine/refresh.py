"""The K-SKY refresh stage: one engine, one scan path, one launch shape.

Every swift boundary, each live non-fully-safe point refreshes its skyband
(Alg. 3 loop): new points scan the window from scratch, surviving points
scan only the new arrivals plus their unexpired previous skyband (least
examination, Alg. 1 / Lemma 2).  *What* is scanned is fixed by the paper;
*how* the scans are launched is ours, and there is one way:

    partition -> one ``scan_batched`` tile sweep per row group -> commit
    -> one profile sample

The rows of a group (all from-scratch points; all survivors sharing a
first-unseen arrival) scan the same candidate range, so their evidence is
one ``(rows x candidates)`` matrix computed with a single pairwise kernel
per chunk -- whatever the group's size, a one-row group and an empty
range included.  Scan order, chunk boundaries and termination cadence
replicate the paper's per-point walk exactly; the lockstep suites hold
the engine bit-exact against it (``repro.testing.ReferenceRefresh`` over
:class:`~repro.core.ksky.KSkyRunner`).  No decision here reads a clock,
so the work counters of a run repeat exactly.

The engine owns the partition step (scratch vs. survivors, from
``_PointState.last_seen_seq``) and the per-boundary profile sample; the
detector keeps evidence commitment (:meth:`SOPDetector._commit_scratch` /
``_commit_survivor``) because committing touches safety state and the
mutation generation.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.ksky import KSkyResult, _Resolution
from ..core.lsky_soa import (
    LSkySoA,
    insert_limits,
    tile_insert_mask,
    tile_stops,
)

__all__ = ["RefreshEngine", "VectorizedSkybandEngine"]


class RefreshEngine:
    """Runs the refresh stage of one boundary."""

    def refresh(self, det, window_start: float) -> None:
        """Run K-SKY for every live, non-fully-safe point of ``det``."""
        buf = det.buffer
        pts = buf.points
        if not pts:
            return
        t0 = time.perf_counter_ns()
        kernels0 = buf.kernel_calls
        batched0 = det.stats["batched_scans"]
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

        if scratch:
            self._scan(det, scratch, 0, commit_scratch)
        for new_from, group in survivors.items():
            self._scan(det, group, new_from, commit_survivor)

        # ``python_insert_iters`` is the interpreted steps the scan engine
        # actually spent (tiles resolved + cadence-regime rows), not the
        # logical candidate count -- that is ``points_examined``
        det.profile.record(
            time.perf_counter_ns() - t0,
            buf.kernel_calls - kernels0,
            det.stats["batched_scans"] - batched0,
            eng.py_iters - py0,
            soa_insert_rows=eng.soa_rows - soa0,
            prefilter_screened=pf_screened,
            prefilter_suspects=pf_screened - pf_pruned,
            prefilter_pruned=pf_pruned,
        )

    def _scan(self, det, rows, lo: int, commit) -> None:
        """Scan one row group over live indexes ``[lo, end)`` and commit
        each result (the hook ``repro.testing.ReferenceRefresh``
        overrides).

        ``rows`` is ``[(live index, point, state), ...]``; ``lo`` is 0 for
        from-scratch rows and the group's shared first-unseen index for
        survivors (least examination: only arrivals the group has not
        scanned yet are candidates).
        """
        det.stats["batched_scans"] += len(rows)
        results = det.skyband_engine.scan_batched(
            [idx for idx, _, _ in rows], [p.seq for _, p, _ in rows],
            det.buffer, lo)
        for (_, p, st), result in zip(rows, results):
            commit(p, st, result)


# ------------------------------------------------------------ the scan engine


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
    once at the end.

    ``py_iters`` (the profile's ``python_insert_iters``) counts the
    interpreted steps left: one per resolved tile and one per row in the
    ``_CHECK_EVERY`` cadence regime.  ``soa_rows`` counts the skyband
    entries committed.
    """

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
    ) -> List[KSkyResult]:
        """Chunk-synchronous batched scans over live indexes ``[lo, end)``.

        ``row_indexes``/``p_seqs`` give the live-buffer index and seq of
        each evaluated point.  All rows share the same candidate range, so
        each chunk costs one ``pairwise_block`` kernel over the still-active
        rows, one vectorized ``layers_of`` hash and one
        :meth:`_resolve_tile` -- rows that terminate drop out of
        subsequent chunks, which keeps ``distance_rows`` identical to
        running ``KSkyRunner.scan_new_arrivals`` per row: the per-point
        walk also pays for a whole chunk before consuming it.

        Only rows with a candidate that could change their skyband enter
        the resolve: a candidate at layer ``m`` is inserted only if fewer
        than ``k_max`` stored entries dominate it (Def. 6 condition 2),
        i.e. only if ``m`` is below the row's ``k_max``-th smallest stored
        layer, and a rejected candidate never mutates scan state.  A row
        with none sits the chunk out; without an insert its boundary
        resolution check is a no-op (a check with no intervening insert
        filters ``pending`` against unchanged state and removes nothing
        -- DESIGN.md section 13; the one exception, an empty pending
        template, terminates at the first boundary exactly where the
        reference walk does).  ``examined`` needs no running
        tally: a scan examines everything newer than the live index it
        exits at (its terminating candidate, the bottom of the chunk
        whose boundary check ended it, or ``lo``), bar the point itself.
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
        # zero-selection fold would elide
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
        q_mat: Optional[np.ndarray] = None
        block_hi = hi
        while block_hi > lo and len(act):
            block_lo = max(lo, block_hi - chunk)
            n_cols = block_hi - block_lo
            own = self_idx[act]
            if q_mat is None:
                q_mat = mat[own]
            dists = buffer.pairwise_block(q_mat, block_lo, block_hi)
            lmat = plan.grid.layers_of(dists)
            # a point is no candidate of its own scan (Def. 5 ranges over
            # D_W - p): lift its column out of every layer
            at = ((own >= block_lo) & (own < block_hi)).nonzero()[0]
            if len(at):
                lmat[at, own[at] - block_lo] = n_layers
            csum = np.cumsum(counts[act], axis=1, dtype=np.int32)
            block_hi = block_lo
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
            owners.append(rows[r_nz])
            lives.append(block_lo + (n_cols - 1) - s_nz)
            layers.append(ins_layers)
            counts[rows] += np.bincount(
                r_nz * n_layers + ins_layers,
                minlength=len(rows) * n_layers).reshape(len(rows), n_layers)
            done = (stopped | ~pending.any(axis=1)).nonzero()[0]
            if len(done):
                # a row its terminating candidate stopped exits there; one
                # the boundary check ended (stop == n_cols) at the chunk
                # bottom
                exit_at[rows[done]] = block_lo + np.where(
                    stopped[done], (n_cols - 1) - stop[done], 0)
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"VectorizedSkybandEngine(chunk_size={self.chunk_size})"
