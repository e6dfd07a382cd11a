"""Dynamic workloads: register and remove outlier queries at runtime.

The paper motivates workloads that *change*: analysts join, tune their
parameters, and withdraw requests while the stream keeps flowing (Sec. 1).
Two pieces implement that:

* :class:`QueryRegistry` -- the thread-safe registration boundary.  It
  owns the handle space (stable integer handles, never renumbered), the
  window-kind compatibility check, and the staleness flag that tells the
  executing layer a rebuild is due.  Both :class:`DynamicSOPDetector`
  (single detector) and the ingestion service (:mod:`repro.serve`, one
  registry shared by every connected tenant over a sharded runtime) are
  built on it.
* :class:`DynamicSOPDetector` -- SOP over a mutable workload:

  - :meth:`add_query` / :meth:`remove_query` may be called between steps
    (from any thread; the registry lock serializes them against
    :meth:`step`); the change takes effect at the next processed boundary;
  - outputs are keyed by the registry's stable handles, not positional
    indexes, so removing one query never renumbers the others;
  - on a workload change the shared plan (layer grid, sub-groups, swift
    schedule) is rebuilt and the live window is carried over; per-point
    evidence is rebuilt lazily by K-SKY at the next boundary (the old
    evidence is unusable anyway -- its normalized-distance layers refer to
    the old grid).

History limits: a newly added query can only see the points the detector
retained, i.e. the previous swift window.  If its window is larger than
any previously registered window, its first windows are evaluated over
the retained suffix (exactly what a real system, unable to resurrect
dropped tuples, would do).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Sequence

from ..core.point import Point
from ..core.queries import OutlierQuery, QueryGroup
from ..core.sop import SOPDetector
from ..engine.config import DetectorConfig
from ..streams.windows import SwiftSchedule

__all__ = ["DynamicSOPDetector", "QueryRegistry"]


class QueryRegistry:
    """Handle-keyed query set with a thread-safe mutation boundary.

    Mutations (:meth:`add`, :meth:`remove`) and reads take an internal
    re-entrant lock, so a registration arriving from another thread (or
    from a server task while a worker thread steps the detector) can
    never interleave with a rebuild.  For compound operations the lock is
    exposed as :attr:`lock`::

        with registry.lock:
            if registry.stale:
                group = registry.group()
                registry.mark_fresh()

    ``stale`` flips on every successful mutation and stays set until the
    consumer acknowledges the new membership with :meth:`mark_fresh` --
    the same "rebuild at the next boundary" contract
    :class:`DynamicSOPDetector` always had, now reusable.
    """

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self._queries: Dict[int, OutlierQuery] = {}
        self._order: List[int] = []
        self._next_handle = 0
        self._stale = False

    # ------------------------------------------------------------ mutation

    def add(self, query: OutlierQuery) -> int:
        """Register a query; returns its stable handle."""
        if not isinstance(query, OutlierQuery):
            raise TypeError("add expects an OutlierQuery")
        with self.lock:
            if self._queries:
                kinds = {q.kind for q in self._queries.values()}
                if query.kind not in kinds:
                    raise ValueError(
                        f"window kind {query.kind!r} does not match the "
                        f"registered workload ({sorted(kinds)})"
                    )
            handle = self._next_handle
            self._next_handle += 1
            self._queries[handle] = query
            self._order.append(handle)
            self._stale = True
            return handle

    def remove(self, handle: int) -> OutlierQuery:
        """Withdraw a query by handle; returns the removed query."""
        with self.lock:
            try:
                query = self._queries.pop(handle)
            except KeyError:
                raise KeyError(
                    f"no registered query with handle {handle}") from None
            self._order.remove(handle)
            self._stale = True
            return query

    def seed(self, queries: Sequence[OutlierQuery]) -> List[int]:
        """Register several queries (restore path); returns their handles."""
        return [self.add(q) for q in queries]

    # -------------------------------------------------------------- reads

    def get(self, handle: int) -> OutlierQuery:
        with self.lock:
            try:
                return self._queries[handle]
            except KeyError:
                raise KeyError(
                    f"no registered query with handle {handle}") from None

    def __contains__(self, handle: int) -> bool:
        with self.lock:
            return handle in self._queries

    def __len__(self) -> int:
        with self.lock:
            return len(self._queries)

    @property
    def stale(self) -> bool:
        return self._stale

    @property
    def total_registered(self) -> int:
        """How many handles were ever issued (monotone; metrics)."""
        with self.lock:
            return self._next_handle

    def mark_fresh(self) -> None:
        """Acknowledge the current membership (consumer rebuilt)."""
        with self.lock:
            self._stale = False

    def handles(self) -> List[int]:
        """Live handles in registration order (the group's query order)."""
        with self.lock:
            return list(self._order)

    def queries(self) -> Dict[int, OutlierQuery]:
        """Handle -> query snapshot of the current workload."""
        with self.lock:
            return dict(self._queries)

    def group(self) -> Optional[QueryGroup]:
        """The current workload as a QueryGroup (None while empty).

        Query order is registration order, so output index ``i`` of a
        detector built from this group maps to ``handles()[i]``.
        """
        with self.lock:
            if not self._queries:
                return None
            return QueryGroup([self._queries[h] for h in self._order])


class DynamicSOPDetector:
    """SOP over a workload that may change between boundaries.

    Configuration is normalized into one
    :class:`~repro.engine.DetectorConfig` at construction (either pass
    ``config=`` directly or the legacy keyword switches) and is carried
    through every workload rebuild, so registering or withdrawing a query
    never resets ablation flags to defaults.
    """

    name = "sop-dynamic"

    def __init__(self, queries: Sequence[OutlierQuery] = (),
                 metric="euclidean", config: Optional[DetectorConfig] = None,
                 **sop_kwargs):
        if config is None:
            config = DetectorConfig(metric=metric, **sop_kwargs)
        elif sop_kwargs:
            raise TypeError(
                "pass either config= or individual switches, not both: "
                f"{sorted(sop_kwargs)}"
            )
        #: the config every rebuilt inner detector inherits
        self.config = config
        #: the thread-safe registration boundary (handles, kind checks)
        self.registry = QueryRegistry()
        self._inner: Optional[SOPDetector] = None
        for q in queries:
            self.add_query(q)

    # ------------------------------------------------------------ workload

    def add_query(self, query: OutlierQuery) -> int:
        """Register a query; returns its stable handle."""
        if not isinstance(query, OutlierQuery):
            raise TypeError("add_query expects an OutlierQuery")
        return self.registry.add(query)

    def remove_query(self, handle: int) -> OutlierQuery:
        """Withdraw a query by handle; returns the removed query."""
        return self.registry.remove(handle)

    @property
    def queries(self) -> Dict[int, OutlierQuery]:
        """Handle -> query view of the current workload."""
        return self.registry.queries()

    def __len__(self) -> int:
        return len(self.registry)

    # ------------------------------------------------------------ schedule

    @property
    def swift(self) -> Optional[SwiftSchedule]:
        """The current swift schedule (None while no queries registered).

        Re-read this after workload mutations: the gcd slide and the
        maximum window both change with the membership.
        """
        with self.registry.lock:
            if not len(self.registry):
                return None
            if self.registry.stale or self._inner is None:
                return SwiftSchedule(
                    [q.window for q in self.registry.group().queries])
            return self._inner.swift

    # ------------------------------------------------------------ execution

    def step(self, t: int, batch: Sequence[Point]) -> Dict[int, FrozenSet[int]]:
        """Process one boundary; returns ``{handle: outlier seqs}``.

        ``t`` must be a multiple of the *current* swift slide (callers
        should re-read :attr:`swift` after mutations).  The registry lock
        is held for the whole boundary, so a concurrent registration
        lands either entirely before or entirely after it.
        """
        with self.registry.lock:
            if self.registry.stale:
                self._rebuild()
            if self._inner is None:
                return {}
            handles = self.registry.handles()
            raw = self._inner.step(t, batch)
            return {handles[qi]: seqs for qi, seqs in raw.items()}

    def _rebuild(self) -> None:
        """Swap in a fresh detector, carrying the retained window over."""
        retained: List[Point] = []
        if self._inner is not None:
            retained = list(self._inner.buffer.points)
        group = self.registry.group()
        if group is None:
            self._inner = None
            self.registry.mark_fresh()
            return
        inner = SOPDetector(group, config=self.config)
        if retained:
            inner.warm_start(retained)
        self._inner = inner
        self.registry.mark_fresh()

    # -------------------------------------------------------------- metrics

    def memory_units(self) -> int:
        return self._inner.memory_units() if self._inner else 0

    def tracked_points(self) -> int:
        return self._inner.tracked_points() if self._inner else 0

    @property
    def plan(self):
        """The current shared skyband plan (None while empty/stale)."""
        if self._inner is None or self.registry.stale:
            return None
        return self._inner.plan
