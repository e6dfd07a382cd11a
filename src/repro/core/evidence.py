"""EvidenceTable: SOP's per-point skyband evidence as columns.

Per row, aligned with the detector's ``WindowBuffer`` live rows: ``safe``
(fully safe inlier: no evidence, never evaluated again) and ``seen`` (the
newest seq in the window at the row's last refresh; -1 = no state yet).
Per skyband entry: ``seq``, ``pos`` and ``layer``, laid out row by row,
each row's entries arrival-descending.  ``start`` holds the run offsets,
one more than there are rows: row ``i`` owns entries
``start[i]:start[i + 1]``, so no entry carries its owner and finding a
row's run is two reads.  Rows enter and leave with the buffer, so expired
rows' entries are a prefix of the columns; the refresh rebuilds the entry
columns and the offsets whole once per boundary (DESIGN.md section 15).
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
    """Row flags plus skyband entry columns in per-row runs."""

    def __init__(self, layer_dtype):
        self.safe = np.zeros(0, dtype=bool)
        self.seen = np.zeros(0, dtype=np.int64)
        #: run offsets: row ``i``'s entries are ``start[i]:start[i + 1]``
        self.start = np.zeros(1, dtype=np.intp)
        self.seq = np.zeros(0, dtype=np.int64)
        self.pos = np.zeros(0, dtype=np.float64)
        self.layer = np.zeros(0, dtype=layer_dtype)
        #: rows holding state (``seen >= 0``), kept current by every
        #: writer of ``seen``
        self.tracked = 0

    def __len__(self) -> int:
        """Skyband entries held (the paper's MEM metric)."""
        return len(self.seq)

    def append(self, n: int) -> None:
        """``n`` new buffer rows, without state yet (nor entries)."""
        if n:
            self.safe = np.concatenate((self.safe, np.zeros(n, dtype=bool)))
            self.seen = np.concatenate((self.seen,
                                        np.full(n, -1, dtype=np.int64)))
            self.start = np.concatenate((self.start,
                                         self.start[-1:].repeat(n)))

    def drop_rows(self, n: int) -> None:
        """Forget the ``n`` oldest rows and every entry they own."""
        if not n:
            return
        self.tracked -= int(np.count_nonzero(self.seen[:n] >= 0))
        self.safe, self.seen = self.safe[n:], self.seen[n:]
        cut = int(self.start[n])
        self.start = self.start[n:] - cut if cut else self.start[n:]
        if cut:
            self.seq, self.pos = self.seq[cut:], self.pos[cut:]
            self.layer = self.layer[cut:]

    def touch(self, rows: np.ndarray, newest_seq: int) -> None:
        """Mark ``rows`` refreshed (or certified) with ``newest_seq`` the
        newest point in the window."""
        self.tracked += int(np.count_nonzero(self.seen[rows] < 0))
        self.seen[rows] = newest_seq

    def state(self, row: int) -> Optional[PointState]:
        """The view of live row ``row``."""
        last = int(self.seen[row])
        if last < 0:
            return None
        if self.safe[row]:
            return PointState(True, last, None, None, None)
        a, b = int(self.start[row]), int(self.start[row + 1])
        return PointState(False, last, self.seq[a:b], self.pos[a:b],
                          self.layer[a:b])
