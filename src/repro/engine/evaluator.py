"""DueQueryEvaluator: vectorized due-query classification.

The evaluation stage of the pipeline (Alg. 3 step 4): for each member
query due at boundary ``t``, classify its window population by counting
skyband entries (inlier rule + Lemma 3).  It reads the detector's
:class:`~repro.core.evidence.EvidenceTable` directly: the population is
the rows not fully safe, and since the entry columns are sorted by owner,
each row's entries are one run whose start is a ``searchsorted`` of the
rows' seqs.  The due queries are then one ``(queries x entries)`` mask
over the entry columns and one ``add.reduceat`` over the runs -- one pass
for all of them, not one per query.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence

import numpy as np

__all__ = ["DueQueryEvaluator"]

#: mask cells of one block of due queries (six bytes each: two masks and
#: the int32 counts ``add.reduceat`` sums in): a larger table takes its
#: due queries one at a time, below the eleven bytes per entry of the
#: per-query mask and int64 running count this pass replaced
_BLOCK_CELLS = 1 << 13


class DueQueryEvaluator:
    """Classifies due queries from one detector's shared evidence."""

    def __init__(self, det):
        self._det = det
        self._plan = None

    def _query_params(self):
        """Every member query's ``(m, win, k)`` as arrays, built once per
        plan."""
        det = self._det
        if self._plan is not det.plan:
            queries = list(det.group)
            self._m = np.asarray(det.plan.query_layers, dtype=np.intp)
            self._win = np.asarray([q.win for q in queries],
                                   dtype=np.float64)
            self._k = np.asarray([q.k for q in queries], dtype=np.intp)
            self._plan = det.plan
        return self._m, self._win, self._k

    def evaluate(self, due: Sequence[int], t: int) -> Dict[int, FrozenSet[int]]:
        """``{query_index: outlier seqs}`` for the queries due at ``t``."""
        det = self._det
        buf = det.buffer
        if not len(buf):
            return {qi: frozenset() for qi in due}
        det.stats["eval_flatten_rebuilds"] += 1
        table = det.table
        # fully safe rows are inliers for every query, forever
        rows = np.flatnonzero(~table.safe)
        seqs = buf.seq_array()[rows]
        ppos = buf.pos_array(det.by_time)[rows]
        # every owner is one of these rows, so row i's entries run from
        # its own start to row i + 1's; a row holding none counts 0
        starts = np.searchsorted(table.owner, seqs)
        held = starts < np.append(starts[1:], len(table))
        at = starts[held]

        m, win, k = self._query_params()
        due = list(due)
        qs = np.asarray(due, dtype=np.intp)
        # ``max(0, t - win)`` as a float, exactly as per query
        ws = np.maximum(t - win[qs], 0.0)[:, None]
        step = max(1, _BLOCK_CELLS // max(len(table), 1))
        out: Dict[int, FrozenSet[int]] = {}
        for a in range(0, len(due), step):
            q, w = qs[a:a + step], ws[a:a + step]
            hit = table.layer <= m[q][:, None]
            hit &= table.pos >= w
            counts = np.zeros((len(q), len(rows)), dtype=np.int32)
            if len(at):
                counts[:, held] = np.add.reduceat(hit, at, axis=1,
                                                  dtype=np.int32)
            sel = (ppos >= w) & (counts < k[q][:, None])
            # the outliers of all block queries as one list, cut per query
            which, idx = sel.nonzero()
            found = seqs[idx].tolist()
            cuts = which.searchsorted(np.arange(len(q) + 1)).tolist()
            for j, qi in enumerate(due[a:a + step]):
                out[qi] = frozenset(found[cuts[j]:cuts[j + 1]])
        return out
