"""Value-based stream partitioning with border replication.

The related Flink system (Toliopoulos et al., "Continuous Outlier Mining
of Streaming Data in Flink") makes windowed distance-based outlier
detection data-parallel while staying *exact* with a value-based
partitioning of the attribute space: each shard owns a contiguous range
of one attribute axis, and every point within the maximum query radius
of a shard border is *replicated* into the neighboring shard.  Each
shard then holds every stream point within ``r_max`` of every point it
owns, so local neighbor counts -- and therefore local outlier verdicts
for owned points -- equal the global ones.

:class:`StreamPartitioner` implements that recipe.  Cell hashing is
uniform-grid math, one cell per shard (cell width = range width /
shards): ``shard_of`` is the clamped ``floor((v - lo) / width)`` and the
replica span is the pair of cells covering ``[v - radius, v + radius]``.
:meth:`~StreamPartitioner.split` routes a whole batch at once: one
``floor`` over its axis values (the same IEEE operations as the scalar
``_cell``, so the same cells, ties on cell edges and clamped tails
included) and one ``(shards x records)`` span mask.

Exactness argument (see DESIGN.md §9)
-------------------------------------

Let ``axis`` be the partition axis and ``radius >= r_max``.  For every
built-in metric (euclidean, manhattan, chebyshev) the distance between
two points bounds their per-coordinate difference from above:
``dist(p, q) >= |p[axis] - q[axis]|``.  Hence any ``q`` with
``dist(p, q) <= r_max`` has ``q[axis]`` within ``radius`` of
``p[axis]``; since cell hashing and clamping are monotone in the axis
value, the replica span of ``q`` covers the owner cell of ``p``.  Every
shard therefore sees all window points within ``r_max`` of the points it
owns, which is exactly the locality the detectors' neighbor counts need.
A custom registered metric must satisfy the same per-coordinate bound on
the chosen axis for sharded runs to stay exact (all norm-induced metrics
do).

Bounds only steer load balance, never correctness: points outside
``[lo, hi]`` clamp into the edge shards, and the monotonicity argument
above is clamp-invariant.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.point import Point

__all__ = ["StreamPartitioner"]


class StreamPartitioner:
    """Grid partitioner over one attribute axis with border replication.

    ``bounds`` (the ``[lo, hi]`` value range split into ``n_shards``
    equal cells) may be given up front or learned from the first data the
    partitioner sees (:meth:`ensure_bounds`); a checkpoint manifest
    persists them so a restored runtime keeps the identical partitioning.
    """

    def __init__(self, n_shards: int, replication_radius: float,
                 bounds: Optional[Tuple[float, float]] = None,
                 axis: int = 0):
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if replication_radius < 0:
            raise ValueError("replication_radius must be >= 0")
        if axis < 0:
            raise ValueError("axis must be >= 0")
        self.n_shards = int(n_shards)
        self.radius = float(replication_radius)
        self.axis = int(axis)
        #: what :meth:`split` adds to the axis values for the owner cell
        #: and both replica-span bounds, and the shard ids it tests
        self._offsets = np.array([[0.0], [-self.radius], [self.radius]])
        self._shard_ids = np.arange(self.n_shards)[:, None]
        self._lo: Optional[float] = None
        #: cell (= owned range) width; 0.0 for a degenerate value range
        self._width = 0.0
        if bounds is not None:
            self._set_bounds(*bounds)

    # ------------------------------------------------------------- bounds

    @property
    def initialized(self) -> bool:
        return self._lo is not None

    @property
    def bounds(self) -> Optional[Tuple[float, float]]:
        """The learned/configured value range, or None before first data."""
        if self._lo is None:
            return None
        return (self._lo, self._lo + self._width * self.n_shards)

    def _set_bounds(self, lo: float, hi: float) -> None:
        lo, hi = float(lo), float(hi)
        if hi < lo:
            raise ValueError(f"bounds must satisfy lo <= hi, got ({lo}, {hi})")
        self._lo = lo
        # a degenerate range (all values equal) has width 0: everything
        # owns to shard 0
        self._width = (hi - lo) / self.n_shards

    #: bounds learning clips this tail fraction off each side so a few
    #: extreme values (e.g. the stream's uniform outliers) cannot stretch
    #: the range and starve the interior shards of width.  Clipped values
    #: clamp into the edge shards -- a balance choice only, never a
    #: correctness one (see the module docstring).
    TAIL_CLIP = 0.025

    def ensure_bounds(self, points: Iterable[Point]) -> None:
        """Learn bounds from the first non-empty data seen (idempotent).

        Uses the ``TAIL_CLIP``/``1 - TAIL_CLIP`` quantiles of the axis
        values rather than min/max: equal-width cells over the central
        mass balance clustered data far better, and the tails merely
        clamp into the edge shards.
        """
        if self._lo is not None:
            return
        values = np.fromiter((p.values[self.axis] for p in points),
                             dtype=np.float64)
        n = len(values)
        if not n:
            return
        # the two clip order statistics, selected rather than sorted
        at = (min(int(self.TAIL_CLIP * n), n - 1),
              max(n - 1 - int(self.TAIL_CLIP * n), 0))
        values.partition(at)
        self._set_bounds(values[at[0]], values[at[1]])

    # ---------------------------------------------------------- assignment

    def _cell(self, v: float) -> int:
        """Clamped grid cell of an axis value (== its shard id)."""
        if not self._width > 0:
            return 0
        cell = int(math.floor((v - self._lo) / self._width))
        return min(max(cell, 0), self.n_shards - 1)

    def cells(self, v: np.ndarray) -> np.ndarray:
        """The clamped cell (= owner shard) of every value in ``v``:
        :meth:`_cell`'s subtraction, division, ``floor`` and clamp, as one
        array pass (a quotient past the float range, where ``_cell``
        raises, clamps like any other tail)."""
        if not self._width > 0:
            return np.zeros(v.shape, dtype=np.intp)
        cell = (v - self._lo) / self._width
        np.floor(cell, out=cell)
        return cell.clip(0, self.n_shards - 1, out=cell).astype(np.intp)

    def shard_of(self, values: Sequence[float]) -> int:
        """The shard that *owns* a point with these attribute values."""
        if self._lo is None:
            raise RuntimeError(
                "partitioner has no bounds yet; call ensure_bounds first"
            )
        return self._cell(values[self.axis])

    def replica_span(self, values: Sequence[float]) -> Tuple[int, int]:
        """Inclusive shard range ``[lo, hi]`` this point is delivered to.

        Covers every shard whose owned range intersects
        ``[v - radius, v + radius]`` -- the owner plus its border
        replicas.
        """
        if self._lo is None:
            raise RuntimeError(
                "partitioner has no bounds yet; call ensure_bounds first"
            )
        v = values[self.axis]
        return (self._cell(v - self.radius), self._cell(v + self.radius))

    def split(self, batch: Sequence[Point]
              ) -> Tuple[List[List[Point]], List[List[int]]]:
        """Route one batch: per-shard sub-batches plus each shard's
        replicas.

        Each point lands in every shard of its replica span (arrival
        order is preserved within each shard, so shard buffers keep their
        increasing-seq invariant); ``replicas[s]`` lists, in arrival
        order, the seqs shard ``s`` receives but does not own -- the
        merger drops their verdicts.  An empty batch yields ``n_shards``
        empty sub-batches and replica lists.
        """
        n_shards = self.n_shards
        replicas: List[List[int]] = [[] for _ in range(n_shards)]
        if not batch:
            return [[] for _ in range(n_shards)], replicas
        if self._lo is None:
            raise RuntimeError(
                "partitioner has no bounds yet; call ensure_bounds first"
            )
        if n_shards == 1:
            # one shard owns and receives everything: no cell math.  Axis
            # 0 exists on every point (a point has at least one attribute)
            if self.axis:
                for p in batch:
                    self._check_axis(p)
            return [list(batch)], replicas
        n = len(batch)
        try:
            v = np.fromiter((p.values[self.axis] for p in batch),
                            dtype=np.float64, count=n)
        except IndexError:
            for p in batch:
                self._check_axis(p)
            raise
        # the owner cell and both replica-span bounds (``v + 0.0`` and ``v
        # + (-radius)`` are exactly ``v`` and ``v - radius``)
        own, first, last = self.cells(v + self._offsets)
        # (shard, record) of every delivery, by shard, then arrival
        shard = self._shard_ids
        to, rec = ((first <= shard) & (last >= shard)).nonzero()
        cuts = to.searchsorted(shard.ravel()).tolist() + [len(to)]
        routed = [batch[i] for i in rec.tolist()]
        rep = (own[rec] != to).nonzero()[0]
        for i, s in zip(rep.tolist(), to[rep].tolist()):
            replicas[s].append(routed[i].seq)
        return [routed[a:b] for a, b in zip(cuts, cuts[1:])], replicas

    def _check_axis(self, p: Point) -> None:
        if self.axis >= p.dim:
            raise ValueError(
                f"partition axis {self.axis} out of range for "
                f"{p.dim}-dimensional point seq={p.seq}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StreamPartitioner(n_shards={self.n_shards}, "
            f"radius={self.radius:g}, axis={self.axis}, "
            f"bounds={self.bounds})"
        )
