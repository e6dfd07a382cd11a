"""Stream source abstractions and boundary-aligned batching.

Detectors consume a stream as a sequence of *(boundary, batch)* pairs: all
points whose stream position falls in ``[t - slide, t)`` are delivered
together, then the detector processes boundary ``t``.  This mirrors the
paper's execution model ("the K-SKY algorithm is called after we receive a
batch of new points based on the slide size", Sec. 3.1.2).

:class:`IngestGuard` sits in front of that batching for untrusted
streams: real feeds carry poison records (NaN/inf coordinates, sequence
or timestamp regressions, wrong arity, plain garbage) and a single one
reaching the window buffer corrupts every later verdict -- or, worse,
raises deep inside a worker and takes the shard down.  The guard
validates records *before* they become :class:`~repro.core.point.Point`
instances, quarantines offenders to a counted side channel, and admits
only the clean monotone subsequence, so detector state is exactly what a
clean stream would have produced.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from collections.abc import Mapping
from itertools import chain, islice
from operator import itemgetter
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.point import Point, unchecked_points
from .windows import COUNT, TIME

__all__ = [
    "StreamSource",
    "ListSource",
    "IngestGuard",
    "batches_by_boundary",
    "positions",
    "stream_end_boundary",
]

#: newest quarantined ``(record, reason)`` pairs an :class:`IngestGuard`
#: keeps (a long-lived service session must not grow without bound)
_QUARANTINE_LOG_CAP = 1024

#: records :meth:`IngestGuard.filter` checks per array pass (bounds the
#: transient arrays: a long stream is never converted whole)
_FILTER_CHUNK = 4096

#: record and value containers the array check reads (exact types: a
#: namedtuple, a mapping or a ``Point`` goes through ``admit``)
_PLAIN = frozenset((tuple, list))
#: coordinate and timestamp types whose float conversion numpy and
#: ``float()`` agree on
_NUMBERS = frozenset((float, int))

_seq_of = itemgetter(0)
_values_of = itemgetter(1)
_time_of = itemgetter(2)


def positions(points: Iterable[Point], kind: str) -> List[float]:
    """Stream positions of points for the given window kind."""
    if kind == COUNT:
        return [float(p.seq) for p in points]
    if kind == TIME:
        return [p.time for p in points]
    raise ValueError(f"unknown window kind {kind!r}")


class StreamSource:
    """Base class for finite or infinite point sources.

    Subclasses implement ``__iter__``; the base class provides ``take`` and
    list materialization helpers used by benchmarks and examples.
    """

    def __iter__(self) -> Iterator[Point]:  # pragma: no cover - interface
        raise NotImplementedError

    def take(self, n: int) -> Tuple[Point, ...]:
        """Materialize the first ``n`` points."""
        out: List[Point] = []
        for p in self:
            out.append(p)
            if len(out) >= n:
                break
        return tuple(out)


class ListSource(StreamSource):
    """A source wrapping a pre-materialized point sequence."""

    def __init__(self, points: Sequence[Point]):
        self._points = tuple(points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self._points)

    def __len__(self) -> int:
        return len(self._points)


class IngestGuard:
    """Record validation with a counted quarantine side channel.

    ``admit`` accepts a record in any of the shapes streams arrive in --
    a :class:`~repro.core.point.Point`, a ``(seq, values)`` /
    ``(seq, values, time)`` tuple, or a mapping with ``seq`` / ``values``
    / optional ``time`` keys -- and returns the validated ``Point`` or
    ``None`` after quarantining it.  Rejection reasons:

    * ``non-finite`` -- any NaN/inf coordinate (distances undefined);
    * ``seq-regression`` -- ``seq`` not strictly greater than the last
      admitted record's (count windows index by ``seq``; a regression
      silently corrupts expiry);
    * ``time-regression`` -- ``time`` earlier than the last admitted
      record's (time windows require non-decreasing stamps;
      ``batches_by_boundary`` would refuse the whole stream);
    * ``dim-mismatch`` -- arity differs from the stream's (first admitted
      record, or an explicit ``expect_dim``);
    * ``malformed`` -- missing fields / unconvertible garbage.

    Validation state (last seq/time, learned dimensionality) persists
    across ``filter`` calls, so the guard works record-at-a-time on
    infinite streams.  Quarantined records are *counted*, never silently
    dropped: ``total_quarantined`` and ``counts`` are exact for the life
    of the guard (the runtime surfaces them in its merged work
    counters), and ``quarantined`` keeps the newest
    ``_QUARANTINE_LOG_CAP`` offending records with their reasons.
    """

    def __init__(self, expect_dim: Optional[int] = None):
        if expect_dim is not None and expect_dim < 1:
            raise ValueError("expect_dim must be >= 1")
        self.expect_dim = expect_dim
        #: (original record, reason) of the newest rejected records
        self.quarantined: Deque[Tuple[object, str]] = deque(
            maxlen=_QUARANTINE_LOG_CAP)
        #: every rejected record ever (the log above is capped)
        self.total_quarantined = 0
        #: rejection reason -> count
        self.counts: Dict[str, int] = {}
        self._last_seq: Optional[int] = None
        self._last_time: Optional[float] = None

    # ------------------------------------------------------------ plumbing

    def _reject(self, record, reason: str) -> None:
        self.quarantined.append((record, reason))
        self.total_quarantined += 1
        self.counts[reason] = self.counts.get(reason, 0) + 1
        return None

    @staticmethod
    def _fields_of(record):
        """``(seq, time_or_None, values_tuple)`` or None if unparseable.

        Shapes are tested most common first: wire and benchmark records
        are lists/tuples (a namedtuple is one too, read positionally).
        """
        try:
            if isinstance(record, (tuple, list)):
                if len(record) not in (2, 3):
                    return None
                seq = int(record[0])
                values = tuple(map(float, record[1]))
                time = float(record[2]) if len(record) == 3 else None
                return seq, time, values
            if isinstance(record, Point):
                return int(record.seq), float(record.time), record.values
            if isinstance(record, Mapping):
                seq = int(record["seq"])
                time = (float(record["time"])
                        if record.get("time") is not None else None)
                values = tuple(map(float, record["values"]))
                return seq, time, values
        except (KeyError, TypeError, ValueError):
            return None
        return None

    # ------------------------------------------------------------- guard

    def admit(self, record) -> Optional[Point]:
        """Validate one record; the Point, or None (quarantined)."""
        parsed = self._fields_of(record)
        if parsed is None:
            return self._reject(record, "malformed")
        seq, time, values = parsed
        if not values:
            return self._reject(record, "malformed")
        if not all(map(math.isfinite, values)):
            return self._reject(record, "non-finite")
        if time is not None and not math.isfinite(time):
            return self._reject(record, "non-finite")
        if self.expect_dim is not None and len(values) != self.expect_dim:
            return self._reject(record, "dim-mismatch")
        if self._last_seq is not None and seq <= self._last_seq:
            return self._reject(record, "seq-regression")
        effective_time = time if time is not None else float(seq)
        if self._last_time is not None and effective_time < self._last_time:
            return self._reject(record, "time-regression")
        point = record if isinstance(record, Point) else Point(
            seq=seq, time=time, values=values)
        if self.expect_dim is None:
            self.expect_dim = len(values)
        self._last_seq = seq
        self._last_time = effective_time
        return point

    def filter(self, records: Iterable) -> List[Point]:
        """Admit a record sequence; the clean, in-order Point list.

        Equal to ``[admit(r) for r in records]`` with the ``None``s
        removed, leaving the same quarantine log, counts and validation
        state.  Plain ``(seq, values[, time])`` tuples and lists are
        checked a chunk at a time in array passes and each clean run is
        admitted in one go; every record the check does not clear goes
        through :meth:`admit`, the one definition of the rules, and the
        check resumes after it.
        """
        out: List[Point] = []
        records = iter(records)
        while True:
            chunk = list(islice(records, _FILTER_CHUNK))
            if not chunk:
                return out
            self._filter_chunk(chunk, out)

    def _filter_chunk(self, chunk: list, out: List[Point]) -> None:
        """Admit one chunk of :meth:`filter`'s records into ``out``."""
        admit = self.admit
        i = 0
        # the first admission fixes the dimensionality the check needs
        while self.expect_dim is None and i < len(chunk):
            point = admit(chunk[i])
            i += 1
            if point is not None:
                out.append(point)
        block = chunk[i:] if i else chunk
        if not block:
            return
        checked = self._check_block(block)
        if checked is None:
            out.extend(p for p in map(admit, block) if p is not None)
            return
        clear, seqs, times, values, breaks = checked
        n = len(block)
        j = 0
        while j < n:
            last_seq, last_time = self._last_seq, self._last_time
            if clear[j] and (last_seq is None or seqs[j] > last_seq) and (
                    last_time is None or times[j] >= last_time):
                end = breaks[bisect_right(breaks, j)]
                out.extend(unchecked_points(seqs[j:end], values[j:end],
                                            times[j:end]))
                self._last_seq, self._last_time = seqs[end - 1], times[end - 1]
                j = end
                if j == n:
                    return
            point = admit(block[j])
            if point is not None:
                out.append(point)
            j += 1

    def _check_block(self, block: list):
        """Array-check a chunk: ``(clear, seqs, times, values, breaks)``,
        or None when it defeats the conversion (an int past int64 or
        float range; ``admit`` then decides every record).

        ``clear[j]`` means record ``j`` is a plain tuple/list of the
        chunk's arity with an ``int`` seq, ``expect_dim`` finite
        float/int coordinates and, at arity 3, a finite float/int time:
        ``admit`` would take it if it follows the last admitted record.
        ``seqs``, ``times`` (effective) and ``values`` are the fields
        ``admit`` would build.  ``breaks``, ascending and ending with
        ``len(block)``, holds every ``j`` that cannot extend a clean run
        through ``j - 1``.
        """
        n, dim = len(block), self.expect_dim
        first = block[0]
        arity = (len(first) if type(first) in _PLAIN
                 and len(first) in (2, 3) else 2)
        clear = np.ones(n, dtype=bool)
        blank = (0.0,) * dim
        if not (set(map(type, block)) <= _PLAIN
                and set(map(len, block)) == {arity}):
            block = _sift(block, lambda r: type(r) in _PLAIN
                          and len(r) == arity, (0, blank, 0.0)[:arity], clear)
        seqs = list(map(_seq_of, block))
        if set(map(type, seqs)) != {int}:
            seqs = _sift(seqs, lambda v: type(v) is int, 0, clear)
        values = list(map(_values_of, block))
        boxes = set(map(type, values))
        if not (boxes <= _PLAIN and set(map(len, values)) == {dim}):
            values = _sift(values, lambda v: type(v) in _PLAIN
                           and len(v) == dim, blank, clear)
            boxes = set(map(type, values))
        kinds = set(map(type, chain.from_iterable(values)))
        if not kinds <= _NUMBERS:
            values = _sift(values, lambda v: set(map(type, v)) <= _NUMBERS,
                           blank, clear)
            kinds = set(map(type, chain.from_iterable(values)))
        try:
            seq_arr = np.fromiter(seqs, np.int64, n)
            coords = np.fromiter(chain.from_iterable(values), np.float64,
                                 n * dim).reshape(n, dim)
            if arity == 3:
                stamps = list(map(_time_of, block))
                if not set(map(type, stamps)) <= _NUMBERS:
                    stamps = _sift(stamps, lambda v: type(v) in _NUMBERS,
                                   0.0, clear)
                time_arr = np.fromiter(stamps, np.float64, n)
                clear &= np.isfinite(time_arr)
            else:
                time_arr = seq_arr.astype(np.float64)
        except OverflowError:
            return None
        clear &= np.isfinite(coords).all(axis=1)
        if not (boxes == {tuple} and kinds == {float}):
            # admit() would build a fresh tuple of Python floats
            values = list(map(tuple, coords.tolist()))
        extends = (clear[1:] & (seq_arr[1:] > seq_arr[:-1])
                   & (time_arr[1:] >= time_arr[:-1]))
        breaks = (np.flatnonzero(~extends) + 1).tolist()
        breaks.append(n)
        return clear.tolist(), seqs, time_arr.tolist(), values, breaks

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"IngestGuard(quarantined={self.total_quarantined}, "
                f"counts={self.counts})")


def _sift(items: list, keep, blank, clear: np.ndarray) -> list:
    """``items`` with every item failing ``keep`` replaced by ``blank``
    and its ``clear`` flag dropped (the slow path of a mixed chunk)."""
    kept = list(map(keep, items))
    clear &= np.array(kept, dtype=bool)
    return [item if ok else blank for item, ok in zip(items, kept)]


def stream_end_boundary(points: Sequence[Point], slide: int,
                        kind: str) -> int:
    """Default ``until``: the first boundary strictly past the last point.

    This is the single definition of "the end of a finite stream"; the
    executor and the sharded runtime both use it, so a shard driven with
    an explicit ``until`` stops at exactly the boundary the whole stream
    would have (0 for an empty stream -- no boundaries).
    """
    if slide <= 0:
        raise ValueError("slide must be positive")
    if not points:
        return 0
    last = positions(points, kind)[-1]
    return (int(last) // slide + 1) * slide


def batches_by_boundary(
    points: Sequence[Point], slide: int, kind: str, until: int = None,
    start: int = 0,
) -> Iterator[Tuple[int, List[Point]]]:
    """Group a finite stream into per-boundary batches.

    Yields ``(t, batch)`` for each boundary ``t = start + slide,
    start + 2*slide, ...`` where ``batch`` holds the points with position
    in ``[t - slide, t)``.  The iteration stops at ``until`` if given,
    else at the last boundary that is <= the final point's position +
    slide (so every point is delivered).

    ``start`` (default 0, must be a boundary, i.e. a multiple of
    ``slide``) resumes batching mid-stream: points positioned before
    ``start`` are skipped -- a checkpoint-restored runtime already holds
    them in its window -- and the first batch delivered is
    ``[start, start + slide)``.

    Points must be position-sorted (guaranteed for ``seq``; validated for
    ``time``).
    """
    if slide <= 0:
        raise ValueError("slide must be positive")
    if start < 0 or start % slide != 0:
        raise ValueError(
            f"start must be a non-negative multiple of slide, got "
            f"start={start} slide={slide}")
    pos = np.asarray(positions(points, kind), dtype=np.float64)
    if np.any(pos[1:] < pos[:-1]):
        raise ValueError("stream positions must be non-decreasing")
    if until is None:
        if not points:
            return
        until = stream_end_boundary(points, slide, kind)
    points = points if isinstance(points, list) else list(points)
    # no boundary passes a NaN position: the points from the first one
    # on are never delivered
    stuck = np.flatnonzero(np.isnan(pos))
    if len(stuck):
        pos = pos[:stuck[0]]
    # boundaries past the last position all cut at len(pos): search only
    # up to the first of them, the rest are empty batches
    last = 0
    if len(pos):
        # clamped, so an infinite last position stays arithmetic
        top = min(max(float(pos[-1]), start - slide), until)
        last = int(max(0, min((until - start) // slide,
                              (top - start) // slide + 1)))
    bounds = start + slide * np.arange(1, last + 1, dtype=np.int64)
    i = int(np.searchsorted(pos, start))
    t = start + slide
    for cut in np.searchsorted(pos, bounds).tolist():
        yield t, points[i:cut]
        i = cut
        t += slide
    while t <= until:
        yield t, []
        t += slide
