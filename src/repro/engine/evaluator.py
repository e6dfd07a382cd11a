"""DueQueryEvaluator: vectorized due-query classification.

The evaluation stage of the pipeline (Alg. 3 step 4): for each member
query due at boundary ``t``, classify its window population by counting
skyband entries (inlier rule + Lemma 3).  It reads the detector's
:class:`~repro.core.evidence.EvidenceTable` directly: the population is
the rows not fully safe, and since the entry columns are sorted by owner,
each row's entries are one run whose start is a ``searchsorted`` of the
rows' seqs.  The due queries are then one ``(queries x entries)`` mask
over the entry columns and one ``add.reduceat`` over the runs -- one pass
for all of them, not one per query.  The shards of a serial runtime
(one workload, one due set) share that pass too
(:meth:`DueQueryEvaluator.evaluate_all`): their tables laid end to end,
each shard's outputs cut out of the one result.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

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
        return self.evaluate_all([self._det], due, t)[0]

    def evaluate_all(self, dets: Sequence, due: Sequence[int], t: int
                     ) -> List[Dict[int, FrozenSet[int]]]:
        """:meth:`evaluate` for every detector of ``dets`` (the shards of
        one workload) in one pass: their tables laid end to end, one
        mask and one ``add.reduceat`` for all of them.  Returns one
        output dict per detector, each exactly its own evaluation's --
        every count sums its own row's entries only, because each
        table's entries all belong to its own rows."""
        due = list(due)
        outs: List[Dict[int, FrozenSet[int]]] = [{} for _ in dets]
        #: the detectors with buffered points, their rows' seqs,
        #: positions and entry starts, their entry columns; each one's
        #: rows are ``first[d]:first[d + 1]``
        held_outs, seqs, ppos, starts, layers, poss = [], [], [], [], [], []
        first = [0]
        n_entries = 0
        for det, out in zip(dets, outs):
            buf = det.buffer
            if not len(buf):
                out.update((qi, frozenset()) for qi in due)
                continue
            det.stats["eval_flatten_rebuilds"] += 1
            table = det.table
            # fully safe rows are inliers for every query, forever
            rows = np.flatnonzero(~table.safe)
            seqs.append(buf.seq_array()[rows])
            ppos.append(buf.pos_array(det.by_time)[rows])
            at = np.searchsorted(table.owner, seqs[-1])
            if n_entries:
                # this table's entries follow the previous ones'
                at += n_entries
            starts.append(at)
            layers.append(table.layer)
            poss.append(table.pos)
            held_outs.append(out)
            first.append(first[-1] + len(rows))
            n_entries += len(table)
        if not held_outs:
            return outs
        n_rows = first[-1]
        seqs, ppos, starts = _joined(seqs), _joined(ppos), _joined(starts)
        layer, pos = _joined(layers), _joined(poss)
        # every owner is one of these rows, so row i's entries run from
        # its own start to row i + 1's; a row holding none counts 0
        held = starts < np.append(starts[1:], n_entries)
        at = starts[held]

        m, win, k = self._query_params()
        qs = np.asarray(due, dtype=np.intp)
        # ``max(0, t - win)`` as a float, exactly as per query
        ws = np.maximum(t - win[qs], 0.0)[:, None]
        step = max(1, _BLOCK_CELLS // max(n_entries, 1))
        for a in range(0, len(due), step):
            q, w = qs[a:a + step], ws[a:a + step]
            hit = layer <= m[q][:, None]
            hit &= pos >= w
            counts = np.zeros((len(q), n_rows), dtype=np.int32)
            if len(at):
                counts[:, held] = np.add.reduceat(hit, at, axis=1,
                                                  dtype=np.int32)
            sel = (ppos >= w) & (counts < k[q][:, None])
            block = np.arange(len(q) + 1)
            for d, out in enumerate(held_outs):
                # the detector's outliers of all block queries as one
                # list, cut per query
                r0, r1 = first[d], first[d + 1]
                which, idx = sel[:, r0:r1].nonzero()
                found = seqs[r0:r1][idx].tolist()
                cuts = which.searchsorted(block).tolist()
                for j, qi in enumerate(due[a:a + step]):
                    out[qi] = frozenset(found[cuts[j]:cuts[j + 1]])
        return outs


def _joined(columns: List[np.ndarray]) -> np.ndarray:
    """``columns`` end to end (the one column itself, uncopied)."""
    return columns[0] if len(columns) == 1 else np.concatenate(columns)
