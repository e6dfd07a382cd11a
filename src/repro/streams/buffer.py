"""Window buffer: the live point population plus a vectorized view.

All detectors keep the active window in a :class:`WindowBuffer`.  It stores
the points in arrival order together with a numpy matrix of their attribute
vectors, so distance scans can be computed blockwise (``metric.to_block``)
or as one batched pairwise matrix (``metric.pairwise``) instead of
point-by-point.  Arrival sequence numbers and timestamps are mirrored into
cached numpy arrays so window expiry and time lookups are ``searchsorted``
calls rather than Python loops.  Eviction from the front (window expiry)
only moves an offset; storage is compacted once the dead prefix outgrows
the live suffix.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..core.point import DistanceMetric, Point

__all__ = ["WindowBuffer"]


class WindowBuffer:
    """Arrival-ordered point store with a numpy coordinate matrix.

    Invariants:

    * points are appended in strictly increasing ``seq`` order;
    * ``times`` are non-decreasing;
    * the live region is ``self._pts[self._start:]``; its coordinates are
      ``self._mat[self._start:self._len]`` and its seqs/times are the same
      slice of ``self._seqs``/``self._times``.
    """

    #: compact when the evicted prefix exceeds this many entries *and* the
    #: live suffix (keeps eviction O(1) amortized without frequent copies).
    _COMPACT_THRESHOLD = 4096

    #: tile cap for batched pairwise kernels: at most this many float64
    #: elements (distances times coordinates) per tile -- bounds transient
    #: memory to ~32 MB of distances plus one same-sized workspace
    _PAIRWISE_TILE_ELEMS = 1 << 22

    def __init__(self, metric: DistanceMetric, dim: Optional[int] = None):
        self.metric = metric
        self.dim = dim
        self._pts: List[Point] = []
        self._mat: Optional[np.ndarray] = None
        self._seqs: Optional[np.ndarray] = None
        self._times: Optional[np.ndarray] = None
        self._len = 0  # rows of _mat in use (== len(_pts) before offsetting)
        self._start = 0
        # cached live-region list; rebuilt lazily after mutations so hot
        # paths avoid re-slicing
        self._view: Optional[List[Point]] = None
        # cached float64 positions of the live region (count-based
        # windows); the vectorized skyband engine gathers from it
        self._pos_seq_arr: Optional[np.ndarray] = None
        #: total point-to-point distance evaluations served by this buffer
        #: (the substrate-independent work metric; see repro.bench)
        self.distance_rows: int = 0
        #: number of numpy distance-kernel launches (one per ``to_block``
        #: call or pairwise tile); the batched refresh engine exists to
        #: shrink this number, see ``repro.metrics.profiling``
        self.kernel_calls: int = 0
        #: distances those launches computed.  ``distance_rows`` is what
        #: the scans charge for -- ``distances_from`` charges its whole
        #: range, ``pairwise_block`` callers charge their own walk -- so
        #: ``distance_rows <= kernel_cells`` and the gap is kernel waste
        self.kernel_cells: int = 0

    # ------------------------------------------------------------------ size

    def __len__(self) -> int:
        return len(self._pts) - self._start

    @property
    def points(self) -> Sequence[Point]:
        """Live points in arrival order (oldest first).

        Returns a cached snapshot list; treat it as read-only.
        """
        if self._view is None:
            self._view = (self._pts[self._start:] if self._start
                          else self._pts)
        return self._view

    def __getitem__(self, i: int) -> Point:
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._pts[self._start + i]

    def seq_array(self) -> np.ndarray:
        """Live-region sequence numbers as an int64 array (a view into the
        backing storage -- read-only, valid until the next mutation)."""
        if self._seqs is None or self._start >= self._len:
            return np.empty(0, dtype=np.int64)
        return self._seqs[self._start: self._len]

    def pos_array(self, by_time: bool) -> np.ndarray:
        """Live-region window positions as a float64 array.

        ``time`` for time-based windows, ``float(seq)`` for count-based
        ones -- the same convention as ``evict_before``; the count-based
        conversion is cached per buffer epoch.  Read-only, valid until
        the next mutation.
        """
        if self._start >= self._len or self._seqs is None:
            return np.empty(0, dtype=np.float64)
        if by_time:
            return self._times[self._start: self._len]
        if self._pos_seq_arr is None:
            self._pos_seq_arr = (
                self._seqs[self._start: self._len].astype(np.float64))
        return self._pos_seq_arr

    # --------------------------------------------------------------- mutation

    def append(self, point: Point) -> None:
        """Append one point (must arrive after every stored point)."""
        self.extend((point,))

    def extend(self, points: Iterable[Point]) -> None:
        """Append a batch of points in arrival order."""
        new = list(points)
        if not new:
            return
        if self._pts and new[0].seq <= self._pts[-1].seq:
            raise ValueError(
                f"points must arrive in increasing seq order: got seq "
                f"{new[0].seq} after {self._pts[-1].seq}"
            )
        if self.dim is None:
            self.dim = new[0].dim
        for p in new:
            if p.dim != self.dim:
                raise ValueError(
                    f"point seq={p.seq} has dim {p.dim}, buffer expects {self.dim}"
                )
        rows = np.asarray([p.values for p in new], dtype=np.float64)
        self._ensure_capacity(self._len + len(new))
        end = self._len + len(new)
        self._mat[self._len : end] = rows
        self._seqs[self._len : end] = [p.seq for p in new]
        self._times[self._len : end] = [p.time for p in new]
        self._len = end
        self._pts.extend(new)
        self._invalidate_views()

    def _ensure_capacity(self, needed: int) -> None:
        if self._mat is None:
            cap = max(1024, needed)
            self._mat = np.empty((cap, self.dim), dtype=np.float64)
            self._seqs = np.empty(cap, dtype=np.int64)
            self._times = np.empty(cap, dtype=np.float64)
            return
        if needed <= self._mat.shape[0]:
            return
        cap = self._mat.shape[0]
        while cap < needed:
            cap *= 2
        grown = np.empty((cap, self.dim), dtype=np.float64)
        grown[: self._len] = self._mat[: self._len]
        self._mat = grown
        grown_seqs = np.empty(cap, dtype=np.int64)
        grown_seqs[: self._len] = self._seqs[: self._len]
        self._seqs = grown_seqs
        grown_times = np.empty(cap, dtype=np.float64)
        grown_times[: self._len] = self._times[: self._len]
        self._times = grown_times

    def evict_before(self, start_pos: float, by_time: bool) -> List[Point]:
        """Evict and return points with position < ``start_pos``.

        ``by_time`` selects whether positions are ``time`` (time-based
        windows) or ``seq`` (count-based windows).  The dead-prefix length
        is found by ``searchsorted`` over the cached position array (both
        are sorted by the buffer invariants), so a boundary costs O(log W)
        instead of one Python iteration per expired point.  Eviction only
        moves the live-region offset; storage is compacted lazily.
        """
        arr = self._times if by_time else self._seqs
        if arr is None or self._start >= self._len:
            return []
        i = self._start + int(
            np.searchsorted(arr[self._start : self._len], start_pos,
                            side="left")
        )
        if i == self._start:
            return []
        evicted = self._pts[self._start : i]
        self._start = i
        self._invalidate_views()
        self._maybe_compact()
        return evicted

    def _maybe_compact(self) -> None:
        if self._start < self._COMPACT_THRESHOLD or self._start < len(self):
            return
        live = len(self._pts) - self._start
        if self._mat is not None:
            self._mat[:live] = self._mat[self._start : self._len]
            self._seqs[:live] = self._seqs[self._start : self._len]
            self._times[:live] = self._times[self._start : self._len]
        self._pts = self._pts[self._start :]
        self._len = live
        self._start = 0
        self._invalidate_views()

    def clear(self) -> None:
        """Drop everything (used when a detector is reset)."""
        self._pts = []
        self._len = 0
        self._start = 0
        self._invalidate_views()

    def _invalidate_views(self) -> None:
        self._view = None
        self._pos_seq_arr = None

    # ---------------------------------------------------------------- lookup

    def position_of_seq(self, seq: int) -> int:
        """Index within the live region of the point with the given ``seq``.

        Unsharded streams have contiguous sequences, making this O(1)
        arithmetic; a shard of a value-partitioned stream holds a
        subsequence with gaps, so on an arithmetic miss the lookup falls
        back to a ``searchsorted`` over the cached seq array.
        """
        if not len(self):
            raise KeyError(seq)
        base = self._pts[self._start].seq
        i = seq - base
        if 0 <= i < len(self) and self._pts[self._start + i].seq == seq:
            return i
        i = self.first_index_at_or_after_seq(seq)
        if i < len(self) and self._pts[self._start + i].seq == seq:
            return i
        raise KeyError(seq)

    def first_index_at_or_after_seq(self, seq: int) -> int:
        """Smallest live index whose point has ``seq >=`` the given value
        (len if none).

        A ``searchsorted`` over the cached seq array -- correct for shard
        streams whose sequence numbers skip, unlike base-offset arithmetic.
        """
        if self._seqs is None or self._start >= self._len:
            return 0
        return int(
            np.searchsorted(self._seqs[self._start : self._len], seq,
                            side="left")
        )

    def first_index_at_or_after_time(self, t: float) -> int:
        """Smallest live index whose point has ``time >= t`` (len if none).

        A ``searchsorted`` over the cached timestamp array -- O(log W), no
        per-call list rebuild.
        """
        if self._times is None or self._start >= self._len:
            return 0
        return int(
            np.searchsorted(self._times[self._start : self._len], t,
                            side="left")
        )

    # ------------------------------------------------------------- vectorized

    def matrix(self) -> np.ndarray:
        """Coordinate matrix of the live region (shared storage; do not write)."""
        if self._mat is None:
            return np.empty((0, self.dim or 0), dtype=np.float64)
        return self._mat[self._start : self._len]

    def distances_from(
        self, values: Sequence[float], lo: int = 0, hi: Optional[int] = None
    ) -> np.ndarray:
        """Distances from ``values`` to live points ``[lo, hi)`` (live indexes)."""
        block = self.matrix()
        if hi is None:
            hi = block.shape[0]
        self.distance_rows += max(hi - lo, 0)
        self.kernel_cells += max(hi - lo, 0)
        self.kernel_calls += 1
        q = np.asarray(values, dtype=np.float64)
        return self.metric.to_block(q, block[lo:hi])

    def pairwise_block(
        self, queries: np.ndarray, lo: int = 0, hi: Optional[int] = None
    ) -> np.ndarray:
        """Distance matrix from ``queries`` rows to live points ``[lo, hi)``.

        This is the batched-refresh kernel: one (or a few tiled) numpy
        calls replace one ``distances_from`` launch per evaluated point.
        It counts what it computes (``kernel_calls``, ``kernel_cells``);
        the caller charges ``distance_rows`` for the part its walk pays
        for -- the scan engine per logical chunk, as the per-point walk
        pays through ``distances_from``.  Row ``i`` is bit-identical to
        ``distances_from(queries[i], lo, hi)`` (see
        :meth:`DistanceMetric.pairwise`).
        """
        block = self.matrix()
        if hi is None:
            hi = block.shape[0]
        n_cols = max(hi - lo, 0)
        queries = np.asarray(queries, dtype=np.float64)
        n_rows = queries.shape[0]
        self.kernel_cells += n_rows * n_cols
        if n_rows == 0 or n_cols == 0:
            return np.empty((n_rows, n_cols), dtype=np.float64)
        # tiled over query rows: bounds transient memory; one
        # ``kernel_calls`` increment per tile
        sub = block[lo:hi]
        per_tile = max(
            1, self._PAIRWISE_TILE_ELEMS // max(n_cols * sub.shape[1], 1)
        )
        if per_tile >= n_rows:
            self.kernel_calls += 1
            return self.metric.pairwise(queries, sub)
        out = np.empty((n_rows, n_cols), dtype=np.float64)
        for r0 in range(0, n_rows, per_tile):
            r1 = min(n_rows, r0 + per_tile)
            out[r0:r1] = self.metric.pairwise(queries[r0:r1], sub)
            self.kernel_calls += 1
        return out

    def neighbor_count(
        self, values: Sequence[float], radius: float, lo: int = 0,
        hi: Optional[int] = None,
    ) -> int:
        """Number of live points in ``[lo, hi)`` within ``radius`` of ``values``.

        Note: if the query vector itself is stored inside the range, it is
        counted too (distance 0); callers subtract the self-match.
        """
        d = self.distances_from(values, lo, hi)
        return int((d <= radius).sum())
