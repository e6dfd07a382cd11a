"""EvidenceTable: SOP's per-point skyband evidence as columns.

Per row, aligned with the detector's ``WindowBuffer`` live rows: ``safe``
(fully safe inlier: no evidence, never evaluated again) and ``seen`` (the
newest seq in the window at the row's last refresh; -1 = no state yet).
Per skyband entry: ``owner`` (the seq whose evidence it is), ``seq``,
``pos`` and ``layer``, sorted by owner, each owner's entries
arrival-descending.  Rows enter and leave with the buffer, so expired
owners are a prefix of the entries; the refresh rebuilds the entry
columns whole once per boundary (DESIGN.md section 15).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

__all__ = ["EvidenceTable", "PointState"]


class PointState(NamedTuple):
    """One point's row, read-only (:meth:`SOPDetector.state_of`); the
    arrays are table views, ``None`` once the point is fully safe."""

    fully_safe: bool
    last_seen_seq: int
    seqs: Optional[np.ndarray]
    poss: Optional[np.ndarray]
    layers: Optional[np.ndarray]


class EvidenceTable:
    """Row flags plus owner-sorted skyband entry columns."""

    def __init__(self, layer_dtype):
        self.safe = np.zeros(0, dtype=bool)
        self.seen = np.zeros(0, dtype=np.int64)
        self.owner = np.zeros(0, dtype=np.int64)
        self.seq = np.zeros(0, dtype=np.int64)
        self.pos = np.zeros(0, dtype=np.float64)
        self.layer = np.zeros(0, dtype=layer_dtype)
        #: rows holding state (``seen >= 0``), kept current by every
        #: writer of ``seen``
        self.tracked = 0

    def __len__(self) -> int:
        """Skyband entries held (the paper's MEM metric)."""
        return len(self.owner)

    def append(self, n: int) -> None:
        """``n`` new buffer rows, without state yet."""
        if n:
            self.safe = np.concatenate((self.safe, np.zeros(n, dtype=bool)))
            self.seen = np.concatenate((self.seen,
                                        np.full(n, -1, dtype=np.int64)))

    def drop_rows(self, n: int, first_live_seq: Optional[int]) -> None:
        """Forget the ``n`` oldest rows and every entry they own
        (``first_live_seq`` is None when no row is left)."""
        if not n:
            return
        self.tracked -= int(np.count_nonzero(self.seen[:n] >= 0))
        self.safe, self.seen = self.safe[n:], self.seen[n:]
        cut = (len(self.owner) if first_live_seq is None
               else int(np.searchsorted(self.owner, first_live_seq)))
        if cut:
            self.owner, self.seq = self.owner[cut:], self.seq[cut:]
            self.pos, self.layer = self.pos[cut:], self.layer[cut:]

    def touch(self, rows: np.ndarray, newest_seq: int) -> None:
        """Mark ``rows`` refreshed (or certified) with ``newest_seq`` the
        newest point in the window."""
        self.tracked += int(np.count_nonzero(self.seen[rows] < 0))
        self.seen[rows] = newest_seq

    def rebuild(self, owner: np.ndarray, src: np.ndarray, seq: np.ndarray,
                pos: np.ndarray, layer: np.ndarray) -> None:
        """Replace the entry columns: entry ``i`` becomes entry ``src[i]``
        of the new scan entries ``(seq, pos, layer)`` followed by the
        current table.  Each old column is released as soon as its
        successor is built."""
        self.seq = np.concatenate((seq, self.seq))[src]
        self.pos = np.concatenate((pos, self.pos))[src]
        self.layer = np.concatenate((layer, self.layer))[src]
        self.owner = owner

    def state(self, row: int, seq: int) -> Optional[PointState]:
        """The view of live row ``row``, whose point is ``seq``."""
        last = int(self.seen[row])
        if last < 0:
            return None
        if self.safe[row]:
            return PointState(True, last, None, None, None)
        a, b = np.searchsorted(self.owner, (seq, seq + 1)).tolist()
        return PointState(False, last, self.seq[a:b], self.pos[a:b],
                          self.layer[a:b])
