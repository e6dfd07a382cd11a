"""DueQueryEvaluator: vectorized due-query classification.

The evaluation stage of the pipeline (Alg. 3 step 4): for each member
query due at boundary ``t``, classify its window population by counting
skyband entries (inlier rule + Lemma 3).  It reads the detector's
:class:`~repro.core.evidence.EvidenceTable` directly: the population is
the rows not fully safe, and since the entry columns are sorted by owner,
each row's entries are one run whose bounds are a ``searchsorted`` of the
rows' seqs.  A due query is then one mask over the entry columns and one
``cumsum`` read at those bounds.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence

import numpy as np

__all__ = ["DueQueryEvaluator"]


class DueQueryEvaluator:
    """Classifies due queries from one detector's shared evidence."""

    def __init__(self, det):
        self._det = det

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
        # its own lower bound to row i + 1's
        bounds = np.append(np.searchsorted(table.owner, seqs), len(table))

        out: Dict[int, FrozenSet[int]] = {}
        for qi in due:
            q = det.group[qi]
            ws = float(max(0, t - q.win))
            m_q = det.plan.query_layers[qi]
            hits = np.zeros(len(table) + 1, dtype=np.int64)
            np.cumsum((table.layer <= m_q) & (table.pos >= ws), out=hits[1:])
            counts = hits[bounds[1:]] - hits[bounds[:-1]]
            sel = (ppos >= ws) & (counts < q.k)
            out[qi] = frozenset(seqs[sel].tolist())
        return out
