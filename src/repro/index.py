"""Uniform grid indexes for spatial candidate restriction over the window.

The stream kNN/outlier systems the paper builds on ([6], [13], [15]) and
the Flink continuous-outlier system (Toliopoulos et al.) all index the
window with a uniform grid so that a range query touches only the cells
intersecting the query ball.  This module provides that substrate, numpy
first:

* :func:`cells_of_block` -- vectorized cell binning of a whole coordinate
  block (``floor(mat / cell_size)`` in one kernel);
* :class:`GridIndex` -- points hashed to cells of side ``cell_size``;
  ``range_query(values, r)`` visits only the cell neighborhood covering
  radius ``r`` and filters exactly with the metric; ``insert_block`` bins
  a whole batch with one vectorized call;
* :class:`GridCandidateIndex` -- the detector-facing pruning structure: a
  grid over a :class:`~repro.streams.buffer.WindowBuffer`'s live region
  keeping one *contiguous, ascending* numpy index array per cell, built
  incrementally under append/evict, whose ``candidates_within`` call
  returns, per evaluated point, the live-buffer indexes of every point in
  cells intersecting its query ball (a conservative superset of the true
  neighbors -- exactly the candidates K-SKY cannot discard a priori);
* :class:`IndexedWindow` -- a window buffer + grid kept in sync through
  appends and evictions, exposing the same ``neighbor_count`` contract as
  :class:`~repro.streams.buffer.WindowBuffer`.

The detectors default to vectorized linear scans for due-query
evaluation, but the K-SKY refresh stage can route its batched scans
through :class:`GridCandidateIndex` (``refresh_strategy="grid"``, see
``repro.engine.refresh``) so the pairwise kernels only see spatially
plausible candidates.  Benchmarks live in ``benchmarks/bench_index.py``
and ``benchmarks/bench_grid_refresh.py``; exactness is property-tested
against brute force and against the unpruned refresh engines.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core.point import DistanceMetric, Point, get_metric

__all__ = ["GridIndex", "GridCandidateIndex", "IndexedWindow",
           "cells_of_block"]

Cell = Tuple[int, ...]


def cells_of_block(mat: np.ndarray, cell_size: float) -> np.ndarray:
    """Vectorized cell binning: ``floor(mat / cell_size)`` as int64.

    ``mat`` is an ``(n, dim)`` coordinate block; the result is the
    ``(n, dim)`` integer cell-coordinate block.  One numpy kernel replaces
    the per-point, per-axis ``math.floor`` loop.  Computed as
    ``floor(v / cell_size)`` with the same IEEE divide-then-floor sequence
    as the scalar :meth:`GridIndex.cell_of`, so block and scalar binning
    agree bit-for-bit even at cell boundaries.
    """
    return np.floor(
        np.asarray(mat, dtype=np.float64) / cell_size).astype(np.int64)


class GridIndex:
    """Uniform grid over the attribute space.

    ``cell_size`` should match the dominant query radius: a range query
    with ``r <= cell_size`` then touches at most ``3^dim`` cells.  Larger
    radii are still exact -- the visited neighborhood grows as needed.
    """

    def __init__(self, cell_size: float, metric="euclidean"):
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        self.metric: DistanceMetric = get_metric(metric)
        self._cells: Dict[Cell, Dict[int, Point]] = {}
        self._where: Dict[int, Cell] = {}

    # ------------------------------------------------------------- basics

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, seq: int) -> bool:
        return seq in self._where

    def cell_of(self, values: Sequence[float]) -> Cell:
        """Grid cell coordinates of an attribute vector."""
        return tuple(int(math.floor(v / self.cell_size)) for v in values)

    def cell_count(self) -> int:
        """Number of non-empty cells."""
        return len(self._cells)

    # ----------------------------------------------------------- mutation

    def insert(self, point: Point) -> None:
        if point.seq in self._where:
            raise ValueError(f"seq {point.seq} already indexed")
        cell = self.cell_of(point.values)
        self._cells.setdefault(cell, {})[point.seq] = point
        self._where[point.seq] = cell

    def insert_block(self, points: Sequence[Point]) -> None:
        """Bulk insert: one vectorized binning kernel for the whole block.

        Equivalent to ``for p in points: self.insert(p)`` (same cells, same
        duplicate-seq errors) but the cell math runs once over the block's
        coordinate matrix instead of per point per axis.
        """
        if not points:
            return
        seen = set()
        for p in points:
            if p.seq in self._where or p.seq in seen:
                raise ValueError(f"seq {p.seq} already indexed")
            seen.add(p.seq)
        cells = cells_of_block([p.values for p in points], self.cell_size)
        where = self._where
        buckets = self._cells
        for p, row in zip(points, cells.tolist()):
            cell = tuple(row)
            buckets.setdefault(cell, {})[p.seq] = p
            where[p.seq] = cell

    def remove(self, seq: int) -> Point:
        try:
            cell = self._where.pop(seq)
        except KeyError:
            raise KeyError(f"seq {seq} not indexed") from None
        bucket = self._cells[cell]
        point = bucket.pop(seq)
        if not bucket:
            del self._cells[cell]
        return point

    # ------------------------------------------------------------ queries

    def _neighborhood(self, values: Sequence[float], r: float
                      ) -> Iterator[Dict[int, Point]]:
        """Non-empty cells intersecting the ball of radius ``r``."""
        reach = max(1, int(math.ceil(r / self.cell_size)))
        center = self.cell_of(values)
        dim = len(center)
        # iterate the (2*reach+1)^dim neighborhood; sparse dicts make the
        # lookup cheap for empty regions
        def rec(prefix: List[int], axis: int):
            if axis == dim:
                bucket = self._cells.get(tuple(prefix))
                if bucket:
                    yield bucket
                return
            base = center[axis]
            for off in range(-reach, reach + 1):
                prefix.append(base + off)
                yield from rec(prefix, axis + 1)
                prefix.pop()

        yield from rec([], 0)

    def range_query(self, values: Sequence[float], r: float,
                    exclude_seq: Optional[int] = None) -> List[Point]:
        """All indexed points within ``r`` of ``values`` (exact)."""
        out: List[Point] = []
        for bucket in self._neighborhood(values, r):
            for seq, p in bucket.items():
                if seq == exclude_seq:
                    continue
                if self.metric(values, p.values) <= r:
                    out.append(p)
        return out

    def range_count(self, values: Sequence[float], r: float,
                    exclude_seq: Optional[int] = None,
                    stop_at: Optional[int] = None) -> int:
        """Count points within ``r``; optionally stop early at ``stop_at``
        (the minimal-probing idiom: 'are there at least k neighbors?')."""
        count = 0
        for bucket in self._neighborhood(values, r):
            for seq, p in bucket.items():
                if seq == exclude_seq:
                    continue
                if self.metric(values, p.values) <= r:
                    count += 1
                    if stop_at is not None and count >= stop_at:
                        return count
        return count


class GridCandidateIndex:
    """Grid-cell candidate restriction over a ``WindowBuffer`` live region.

    The pruning substrate of the refresh engine's grid mode
    (``repro.engine.refresh.RefreshEngine``).  Points are binned into
    uniform cells of side ``cell_size``; each non-empty cell keeps one
    contiguous, strictly ascending ``int64`` array of *absolute* arrival
    positions (``WindowBuffer.appended_total`` axis), so the structure
    survives front eviction and storage compaction without re-binning:
    eviction is a per-cell sorted-prefix drop, append is one vectorized
    binning kernel plus one concatenation per touched cell.

    ``candidates_within(rows, r)`` returns, per query row, the ascending
    live-buffer index array of every point whose cell intersects the
    row's radius-``r`` ball -- a conservative superset of the true
    neighbors (cells are included whole), and therefore a superset of
    every candidate K-SKY could insert: any point it omits is farther
    than ``r`` on some axis, hence farther than ``r`` in any of the
    built-in metrics, hence hashed past the last layer and discarded by
    Def. 5 condition 3.  Queries falling in the same cell share one
    candidate array object, which the refresh engine uses to batch them
    under a single pairwise kernel.
    """

    def __init__(self, cell_size: float):
        if not cell_size > 0:
            raise ValueError("cell_size must be positive")
        self.cell_size = float(cell_size)
        #: absolute arrival positions per cell, each strictly ascending
        self._cells: Dict[Cell, np.ndarray] = {}
        #: total points ever appended (absolute position high-water mark)
        self._count = 0
        #: absolute positions below this are evicted (dead prefixes are
        #: trimmed lazily on access and swept in bulk past a threshold)
        self._evicted = 0
        self._swept_at = 0
        #: cell probes served by ``candidates_within`` (the
        #: ``kernel_cells_visited`` observability counter)
        self.cells_visited = 0

    #: sweep dead prefixes from every cell once this many evictions have
    #: accumulated since the last sweep (mirrors WindowBuffer compaction)
    _SWEEP_THRESHOLD = 4096

    def __len__(self) -> int:
        return self._count - self._evicted

    def cell_count(self) -> int:
        """Number of cells with at least one (possibly dead) entry."""
        return len(self._cells)

    # ----------------------------------------------------------- mutation

    def append_block(self, mat: np.ndarray) -> None:
        """Bin and index a block of rows arriving at positions
        ``[count, count + len(mat))``."""
        n = len(mat)
        if n == 0:
            return
        cells = cells_of_block(mat, self.cell_size)
        pos = np.arange(self._count, self._count + n, dtype=np.int64)
        self._count += n
        uniq, inverse = np.unique(cells, axis=0, return_inverse=True)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=len(uniq))
        chunks = np.split(pos[order], np.cumsum(counts)[:-1])
        for cell_row, chunk in zip(uniq.tolist(), chunks):
            key = tuple(cell_row)
            old = self._cells.get(key)
            # stable sort keeps per-cell positions ascending; old entries
            # are all older, so concatenation preserves the invariant
            self._cells[key] = (chunk if old is None or not len(old)
                                else np.concatenate((old, chunk)))

    def evict_to(self, evicted: int) -> None:
        """Mark absolute positions below ``evicted`` as dead.

        Dead prefixes are trimmed lazily when a cell is next read; a full
        sweep (dropping empty cells) runs once enough evictions accumulate.
        """
        if evicted <= self._evicted:
            return
        self._evicted = evicted
        if evicted - self._swept_at < self._SWEEP_THRESHOLD:
            return
        self._swept_at = evicted
        for key in list(self._cells):
            arr = self._cells[key]
            i = int(np.searchsorted(arr, evicted, side="left"))
            if i >= len(arr):
                del self._cells[key]
            elif i:
                self._cells[key] = arr[i:]

    def sync(self, buffer) -> None:
        """Bring the index up to date with a ``WindowBuffer``.

        Appends the buffer rows not yet indexed and evicts everything the
        buffer evicted, using the buffer's monotone ``appended_total`` as
        the shared absolute axis.  A freshly built index attached to a
        warm buffer (checkpoint restore, dynamic rebuild) fast-forwards
        past the already-evicted prefix without materializing it.
        """
        total = buffer.appended_total
        evicted = total - len(buffer)
        if self._count < evicted:
            self._count = evicted  # never-seen points, already dead
        self.evict_to(evicted)
        if self._count < total:
            lo_live = len(buffer) - (total - self._count)
            self.append_block(buffer.matrix()[lo_live:])

    # ------------------------------------------------------------ queries

    def _live_cell(self, key: Cell) -> Optional[np.ndarray]:
        """The cell's live positions (dead prefix trimmed, write-back)."""
        arr = self._cells.get(key)
        if arr is None:
            return None
        if len(arr) and int(arr[0]) < self._evicted:
            i = int(np.searchsorted(arr, self._evicted, side="left"))
            if i >= len(arr):
                del self._cells[key]
                return None
            arr = arr[i:]
            self._cells[key] = arr
        return arr if len(arr) else None

    def _reach(self, r: float) -> int:
        """Per-axis cell reach covering radius ``r`` (conservative)."""
        reach = max(1, int(math.ceil(r / self.cell_size)))
        # guard against a downward-rounded fp quotient: the covered span
        # must be at least r on every axis
        while reach * self.cell_size < r:
            reach += 1
        return reach

    def candidates_within(
        self, rows: np.ndarray, r: float
    ) -> Tuple[List[np.ndarray], np.ndarray]:
        """Live-buffer candidate indexes for each query row.

        Returns ``(arrays, assign)``: ``arrays[assign[i]]`` is the
        ascending live-index array of all points in cells intersecting
        row ``i``'s radius-``r`` ball.  Rows binned to the same cell share
        one array object (and one neighborhood walk), so ``arrays`` holds
        one entry per *unique* query cell.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2:
            raise ValueError("rows must be a 2-D coordinate block")
        q_cells = cells_of_block(rows, self.cell_size)
        reach = self._reach(r)
        uniq, assign = np.unique(q_cells, axis=0, return_inverse=True)
        offsets = list(product(range(-reach, reach + 1),
                               repeat=rows.shape[1]))
        evicted = self._evicted
        arrays: List[np.ndarray] = []
        for center in uniq.tolist():
            parts = []
            for off in offsets:
                arr = self._live_cell(
                    tuple(c + o for c, o in zip(center, off)))
                if arr is not None:
                    parts.append(arr)
            self.cells_visited += len(offsets)
            if not parts:
                arrays.append(np.empty(0, dtype=np.intp))
                continue
            merged = (parts[0] if len(parts) == 1
                      else np.sort(np.concatenate(parts)))
            # absolute positions -> live-buffer indexes
            arrays.append((merged - evicted).astype(np.intp, copy=False))
        return arrays, np.asarray(assign, dtype=np.intp).reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GridCandidateIndex(cell_size={self.cell_size:g}, "
                f"live={len(self)}, cells={len(self._cells)})")


class IndexedWindow:
    """A sliding window kept inside a :class:`GridIndex`.

    Mirrors the eviction contract of ``WindowBuffer`` (positions are
    ``seq`` for count-based windows, ``time`` for time-based ones) while
    serving neighbor counts through the grid.
    """

    def __init__(self, cell_size: float, metric="euclidean",
                 by_time: bool = False):
        self.index = GridIndex(cell_size, metric)
        self.by_time = by_time
        self._points: List[Point] = []
        self._start = 0

    def __len__(self) -> int:
        return len(self._points) - self._start

    @property
    def points(self) -> Sequence[Point]:
        return self._points[self._start:]

    def extend(self, points: Iterable[Point]) -> None:
        """Append a batch; cell binning is vectorized over the block."""
        pts = list(points)
        if not pts:
            return
        last = self._points[-1].seq if self._points else None
        for p in pts:
            if last is not None and p.seq <= last:
                raise ValueError("points must arrive in increasing seq order")
            last = p.seq
        self.index.insert_block(pts)
        self._points.extend(pts)

    def evict_before(self, start_pos: float) -> List[Point]:
        evicted: List[Point] = []
        i = self._start
        pts = self._points
        while i < len(pts):
            pos = pts[i].time if self.by_time else float(pts[i].seq)
            if pos >= start_pos:
                break
            evicted.append(pts[i])
            self.index.remove(pts[i].seq)
            i += 1
        self._start = i
        if self._start > 4096 and self._start >= len(self):
            self._points = self._points[self._start:]
            self._start = 0
        return evicted

    def neighbor_count(self, values: Sequence[float], radius: float,
                       exclude_seq: Optional[int] = None,
                       stop_at: Optional[int] = None) -> int:
        """Exact neighbor count within ``radius`` over the live window."""
        return self.index.range_count(values, radius,
                                      exclude_seq=exclude_seq,
                                      stop_at=stop_at)
