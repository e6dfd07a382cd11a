"""Stream point model and distance metrics.

A *data point* (Sec. 2 of the paper) is a multi-dimensional tuple drawn from
a data stream.  Every point carries:

* ``seq`` -- its arrival sequence number (0-based).  Count-based windows are
  expressed directly in ``seq`` units.
* ``time`` -- its arrival timestamp.  Time-based windows are expressed in
  ``time`` units.  For count-based streams ``time`` defaults to ``seq``.
* ``values`` -- the numeric attribute vector used by the distance function.

Arrival order is total: ``p_i.seq < p_j.seq`` iff ``p_i`` arrived strictly
before ``p_j``.  The paper's domination relationship (Def. 5) compares
arrival *time*; we compare ``seq`` so that simultaneous timestamps still
yield the strict order the proofs rely on.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Point",
    "DistanceMetric",
    "euclidean",
    "manhattan",
    "chebyshev",
    "get_metric",
    "register_metric",
    "available_metrics",
]


@dataclass(frozen=True)
class Point:
    """A single stream tuple.

    Instances are immutable and hashable so they can be used as members of
    outlier result sets and as keys in per-point evidence maps.
    Identity for result comparison purposes is the arrival ``seq``.
    """

    seq: int
    values: Tuple[float, ...]
    time: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.time is None:
            object.__setattr__(self, "time", float(self.seq))
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        if not self.values:
            raise ValueError("a point needs at least one attribute")
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(
                    f"point seq={self.seq} has non-finite attribute {v!r}; "
                    "distances would be undefined"
                )

    @property
    def dim(self) -> int:
        """Number of attributes of this point."""
        return len(self.values)

    def project(self, attributes: Sequence[int]) -> "Point":
        """Return a copy restricted to the given attribute indexes.

        Used by the multi-attribute divide-and-conquer extension
        (Fig. 10(b)): queries over different attribute sets are answered by
        projecting the stream onto each set.
        """
        return Point(
            seq=self.seq,
            values=tuple(self.values[a] for a in attributes),
            time=self.time,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        vals = ", ".join(f"{v:g}" for v in self.values)
        return f"Point(seq={self.seq}, t={self.time:g}, ({vals}))"


def unchecked_points(seqs: Sequence[int],
                     values: Sequence[Tuple[float, ...]],
                     times: Sequence[float]) -> List[Point]:
    """:class:`Point` objects built without re-running ``__post_init__``.

    For callers that have already validated and normalized the fields
    (:meth:`~repro.streams.IngestGuard.filter`): each ``seq`` an
    ``int``, each ``values`` a non-empty tuple of finite Python floats,
    each ``time`` a float.  Point ``i`` equals
    ``Point(seq=seqs[i], values=values[i], time=times[i])``.
    """
    points = list(map(object.__new__, repeat(Point, len(seqs))))
    # field by field, in ``__init__``'s order, as ``__init__`` does: the
    # instances keep the class's shared-key attribute layout.  A
    # zero-length deque drains each ``map`` at C speed, no list built
    for name, column in (("seq", seqs), ("values", values), ("time", times)):
        deque(map(object.__setattr__, points, repeat(name), column), 0)
    return points


class DistanceMetric:
    """A named distance function with scalar and vectorized forms.

    ``scalar(a, b)`` computes the distance between two value tuples.
    ``to_block(q, block)`` computes distances from ``q`` (1-D array) to every
    row of ``block`` (2-D array) -- the kernel all detectors use so CPU
    comparisons are not skewed by uneven numpy usage.
    ``pairwise(queries, block)`` computes the full (queries x block) distance
    matrix in one call -- the batched-refresh kernel.  Its rows must be
    bit-identical to per-row ``to_block`` results (the batched and per-point
    detector paths are asserted output-equal), so the built-in kernels use
    the same elementwise arithmetic, not the dot-product expansion.  For
    every built-in metric all three forms are one left-to-right fold over
    the coordinates: ``scalar`` = ``to_block`` = ``pairwise`` bit for bit
    at every dimension, and a query/block arity mismatch raises
    ``ValueError``.
    """

    def __init__(
        self,
        name: str,
        scalar: Callable[[Sequence[float], Sequence[float]], float],
        to_block: Callable[[np.ndarray, np.ndarray], np.ndarray],
        pairwise: Callable[[np.ndarray, np.ndarray], np.ndarray] = None,
    ) -> None:
        self.name = name
        self._scalar = scalar
        self._to_block = to_block
        self._pairwise = pairwise

    def __call__(self, a: Sequence[float], b: Sequence[float]) -> float:
        return self._scalar(a, b)

    def between_points(self, a: Point, b: Point) -> float:
        """Distance between two :class:`Point` objects."""
        return self._scalar(a.values, b.values)

    def to_block(self, query: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Vectorized distances from one query vector to a matrix of rows."""
        return self._to_block(query, block)

    def pairwise(self, queries: np.ndarray, block: np.ndarray) -> np.ndarray:
        """Distance matrix from every row of ``queries`` to every row of
        ``block`` -- shape ``(len(queries), len(block))``.

        Metrics registered without a dedicated pairwise kernel fall back to
        one ``to_block`` call per query row, which preserves bit-identical
        results at the cost of per-row kernel launches.
        """
        if self._pairwise is not None:
            return self._pairwise(queries, block)
        out = np.empty((queries.shape[0], block.shape[0]), dtype=np.float64)
        for i in range(queries.shape[0]):
            out[i] = self._to_block(queries[i], block)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceMetric({self.name!r})"


# Every built-in metric folds one per-coordinate term over the
# coordinates left to right, in all three forms: the scalar loop, and the
# array kernels below, which accumulate one coordinate at a time into a
# ``(rows, cols)`` result -- never a ``rows x cols x dim`` difference
# cube, whose reduction (``einsum``, or ``sum`` with its pairwise
# summation) would add the terms in another order.  So ``scalar``,
# ``to_block`` and ``pairwise`` agree bit for bit at every dimension.
# (The scalars loop explicitly: ``sum`` compensates float sums from
# Python 3.12 on.)


def _fold_coordinates(queries: np.ndarray, block: np.ndarray, term,
                      fold) -> np.ndarray:
    """``out[i, j]``: ``term(queries[i, c] - block[j, c])`` folded with
    ``fold`` over ``c`` left to right, through one reused workspace."""
    q = np.asarray(queries, dtype=np.float64)
    b = np.asarray(block, dtype=np.float64)
    if q.ndim != 2 or b.ndim != 2 or q.shape[1] != b.shape[1]:
        raise ValueError(f"query/block arity mismatch: queries of shape "
                         f"{q.shape}, block of shape {b.shape}")
    out = np.zeros((q.shape[0], b.shape[0]))
    work = out
    for c in range(q.shape[1]):
        np.subtract.outer(q[:, c], b[:, c], out=work)
        term(work, out=work)
        if c == 0:
            work = np.empty_like(out)
        else:
            fold(out, work, out=out)
    return out


def _row_of(pairwise):
    """``to_block`` as row 0 of ``pairwise``: one arithmetic for both."""
    def to_block(q: np.ndarray, block: np.ndarray) -> np.ndarray:
        return pairwise(np.asarray(q, dtype=np.float64)[None], block)[0]
    return to_block


def _check_arity(a: Sequence[float], b: Sequence[float]) -> None:
    """A distance over the first few coordinates is never an answer."""
    if len(a) != len(b):
        raise ValueError(
            f"distance between {len(a)}- and {len(b)}-attribute points")


def _euclidean_scalar(a: Sequence[float], b: Sequence[float]) -> float:
    _check_arity(a, b)
    acc = 0.0
    for x, y in zip(a, b):
        d = x - y
        acc += d * d
    return math.sqrt(acc)


def _euclidean_pairwise(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    # elementwise on purpose: the |a|^2 + |b|^2 - 2ab expansion would
    # introduce cancellation and break batched-vs-per-point bit equality
    out = _fold_coordinates(queries, block, np.square, np.add)
    return np.sqrt(out, out=out)


def _manhattan_scalar(a: Sequence[float], b: Sequence[float]) -> float:
    _check_arity(a, b)
    acc = 0.0
    for x, y in zip(a, b):
        acc += abs(x - y)
    return acc


def _manhattan_pairwise(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    return _fold_coordinates(queries, block, np.abs, np.add)


def _chebyshev_scalar(a: Sequence[float], b: Sequence[float]) -> float:
    _check_arity(a, b)
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def _chebyshev_pairwise(queries: np.ndarray, block: np.ndarray) -> np.ndarray:
    return _fold_coordinates(queries, block, np.abs, np.maximum)


euclidean = DistanceMetric("euclidean", _euclidean_scalar,
                           _row_of(_euclidean_pairwise), _euclidean_pairwise)
manhattan = DistanceMetric("manhattan", _manhattan_scalar,
                           _row_of(_manhattan_pairwise), _manhattan_pairwise)
chebyshev = DistanceMetric("chebyshev", _chebyshev_scalar,
                           _row_of(_chebyshev_pairwise), _chebyshev_pairwise)

_METRICS: Dict[str, DistanceMetric] = {
    "euclidean": euclidean,
    "manhattan": manhattan,
    "chebyshev": chebyshev,
}


def register_metric(metric: DistanceMetric) -> None:
    """Register a custom metric so queries can reference it by name."""
    if not isinstance(metric, DistanceMetric):
        raise TypeError("register_metric expects a DistanceMetric")
    _METRICS[metric.name] = metric


def get_metric(name_or_metric) -> DistanceMetric:
    """Resolve a metric by name (or pass a :class:`DistanceMetric` through)."""
    if isinstance(name_or_metric, DistanceMetric):
        return name_or_metric
    try:
        return _METRICS[name_or_metric]
    except KeyError:
        known = ", ".join(sorted(_METRICS))
        raise KeyError(
            f"unknown distance metric {name_or_metric!r}; known metrics: {known}"
        ) from None


def available_metrics() -> Tuple[str, ...]:
    """Names of all registered metrics."""
    return tuple(sorted(_METRICS))


def points_from_array(
    array: Iterable[Sequence[float]],
    times: Iterable[float] = None,
    start_seq: int = 0,
) -> Tuple[Point, ...]:
    """Build a tuple of points from an iterable of value rows.

    ``times`` optionally assigns arrival timestamps; it must be
    non-decreasing.  This is the main adapter for feeding numpy arrays or
    plain lists into the detectors.
    """
    rows = [tuple(float(v) for v in row) for row in array]
    if times is None:
        return tuple(
            Point(seq=start_seq + i, values=row) for i, row in enumerate(rows)
        )
    tlist = [float(t) for t in times]
    if len(tlist) != len(rows):
        raise ValueError(
            f"times has {len(tlist)} entries but array has {len(rows)} rows"
        )
    for earlier, later in zip(tlist, tlist[1:]):
        if later < earlier:
            raise ValueError("times must be non-decreasing")
    return tuple(
        Point(seq=start_seq + i, values=row, time=t)
        for i, (row, t) in enumerate(zip(rows, tlist))
    )
