"""The reference refresh: the lockstep suites' anchor.

Detectors run one scan (:class:`~repro.engine.VectorizedSkybandEngine`)
and one group commit per boundary.  What both are held bit-exact against
is the paper's per-point refresh as written: :class:`KSkyRunner` over
``LSky`` (Alg. 1-2), then, one point at a time, the least-examination
merge (:func:`merge_survivor`) and the safe-for-all test by sorted
successor layers (:func:`is_fully_safe`).  :class:`ReferenceRefresh`
overrides the refresh engine's scan and commit steps with those, so the
detector under test and its twin share partition, table and evaluation.
It is reachable by assignment only -- no config field or CLI flag::

    det = use_reference_scans(SOPDetector(group))
"""

from __future__ import annotations

import numpy as np

from ..core.ksky import KSkyRunner
from ..engine.refresh import Commit, RefreshEngine, ScanBatch

__all__ = ["ReferenceRefresh", "is_fully_safe", "merge_survivor",
           "use_reference_scans"]


def merge_survivor(new_layers, old_pos, old_layers, window_start: float,
                   k_max: int):
    """One survivor's old entries: drop the expired ones and those the
    new arrivals alone dominate ``k_max`` times (Def. 6 condition 2).
    Returns the kept mask and the number examined (the unexpired ones)."""
    keep = old_pos >= window_start
    examined = int(keep.sum())
    if len(new_layers):
        new_sorted = np.sort(new_layers)
        keep &= np.searchsorted(new_sorted, old_layers,
                                side="right") < k_max
    return keep, examined


def is_fully_safe(plan, p_seq: int, seqs, layers) -> bool:
    """Safe-for-all (Sec. 4.1/4.2): for every sub-group, the ``k_j``-th
    smallest layer among the *succeeding* entries is at or below its
    smallest member layer.  Entries are seq-descending, so successors
    form the prefix."""
    if not len(seqs) or len(seqs) < plan.k_list[0]:
        return False
    n_succ = int(np.searchsorted(-seqs, -p_seq, side="left"))
    if n_succ < plan.k_list[0]:
        return False
    succ_sorted = np.sort(layers[:n_succ])
    ks = plan.subgroup_ks
    if n_succ < ks[-1]:
        return False
    return bool(np.all(succ_sorted[ks - 1] <= plan.subgroup_min_layers))


class ReferenceRefresh(RefreshEngine):
    """Refresh whose scans are ``KSkyRunner``'s and whose commit is the
    literal per-row merge.  The engine-counted profile fields
    (``batch_rows``, ``python_insert_iters``, ``soa_insert_rows``,
    ``near_candidates``) stay 0; everything else is what the production engine must reproduce."""

    def __init__(self, plan, chunk_size: int = 256):
        self.runner = KSkyRunner(plan, chunk_size)

    def _scan(self, dets, rows, lo):
        """The literal per-row walk, one detector at a time, laid end to
        end as one joint batch."""
        walks = [self._walk(det, r, s) for det, r, s in zip(dets, rows, lo)]
        first = np.cumsum([0] + [len(r) for r in rows])

        def joined(name):
            return np.concatenate([getattr(w, name) for w in walks])

        return ScanBatch(
            np.concatenate([w.owner + f for w, f in zip(walks, first)]
                           ).astype(np.int32),
            joined("seq"), joined("pos"), joined("layer"),
            joined("examined"), joined("terminated"),
            iters=[0] * len(dets), inserts=[0] * len(dets),
            near=[0] * len(dets))

    def _walk(self, det, rows, lo) -> ScanBatch:
        buf = det.buffer
        results = [self.runner.scan_new_arrivals(buf[i].values, buf[i].seq,
                                                 buf, start)
                   for i, start in zip(rows.tolist(), lo.tolist())]
        cols = [r.lsky.as_arrays() for r in results]
        return ScanBatch(
            np.repeat(np.arange(len(rows), dtype=np.int32),
                      [len(s) for s, _, _ in cols]),
            np.concatenate([s for s, _, _ in cols] + [np.zeros(0, np.int64)]),
            np.concatenate([p for _, p, _ in cols] + [np.zeros(0)]),
            np.concatenate([m for _, _, m in cols] + [np.zeros(0, np.int64)]
                           ).astype(det.skyband_engine.layer_dtype),
            np.asarray([r.examined for r in results], dtype=np.int64),
            np.asarray([r.terminated_early for r in results], dtype=bool))

    def _commit(self, prepared, scan, window_start):
        """The literal per-row merge, detector by detector, each over its
        own part of the joint scan; the parts laid end to end."""
        examined, safe, starts, srcs = [], [], [np.zeros(1, np.intp)], []
        r0 = t0 = 0
        for prep in prepared:
            r1 = r0 + len(prep.rows)
            a, b = np.searchsorted(scan.owner, (r0, r1))
            own = ScanBatch(scan.owner[a:b] - r0, scan.seq[a:b],
                            scan.pos[a:b], scan.layer[a:b],
                            scan.examined[r0:r1], scan.terminated[r0:r1])
            part = self._commit_one(prep.det, prep.rows, prep.surv, own,
                                    window_start)
            examined.append(part.examined)
            safe.append(part.safe)
            # each table's run offsets continue where the previous one's
            # end; its sources move to its place in [scan | tables]
            starts.append(part.start[1:] + starts[-1][-1])
            n_new = b - a
            srcs.append(np.where(part.src < n_new, a + part.src,
                                 len(scan.seq) + t0 + part.src - n_new))
            r0 = r1
            t0 += len(prep.det.table)
        return Commit(*(np.concatenate(parts) for parts in (
            examined, safe, starts, srcs)))

    @staticmethod
    def _commit_one(det, rows, surv, scan, window_start) -> Commit:
        """One detector's commit, one row at a time."""
        plan, table = det.plan, det.table
        seq_arr = det.buffer.seq_array()
        ends = np.searchsorted(scan.owner, np.arange(len(rows) + 1))
        examined, safe, kept = [], [], {}
        for j, i in enumerate(rows.tolist()):
            p_seq = int(seq_arr[i])
            new = np.arange(ends[j], ends[j + 1])
            old = np.zeros(0, dtype=np.intp)
            n_examined = int(scan.examined[j])
            if surv[j] and not scan.terminated[j]:
                a, b = int(table.start[i]), int(table.start[i + 1])
                keep, n_old = merge_survivor(
                    scan.layer[new], table.pos[a:b], table.layer[a:b],
                    window_start, plan.k_max)
                old = a + np.flatnonzero(keep)
                n_examined += n_old
            is_safe = det.use_safe_inliers and is_fully_safe(
                plan, p_seq,
                np.concatenate((scan.seq[new], table.seq[old])),
                np.concatenate((scan.layer[new], table.layer[old])))
            examined.append(n_examined)
            safe.append(is_safe)
            if not is_safe:
                kept[i] = np.concatenate((new, len(scan.seq) + old))
        start = np.zeros(len(seq_arr) + 1, dtype=np.intp)
        for i, idx in kept.items():
            start[i + 1] = len(idx)
        np.cumsum(start, out=start)
        return Commit(np.asarray(examined, dtype=np.int64),
                      np.asarray(safe, dtype=bool), start,
                      np.concatenate([kept[i] for i in sorted(kept)]
                                     + [np.zeros(0, dtype=np.intp)]))


def use_reference_scans(det):
    """Swap ``det``'s refresh engine for the reference; returns ``det``."""
    det.refresh_engine = ReferenceRefresh(det.plan, det.config.chunk_size)
    return det
