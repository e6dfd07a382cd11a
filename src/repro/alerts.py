"""Alert routing: turn raw per-boundary outlier sets into actionable alerts.

Detectors report, at every output boundary of every query, the *complete*
outlier set of that window (Def. 3).  Monitoring applications usually want
the derivative of that signal: "transaction X just became abnormal for
analyst Y".  This module provides that layer:

* :class:`Alert` -- one (point, query, boundary) event, flagged
  ``first_seen`` when the point was not an outlier for that query at its
  previous boundary;
* :class:`AlertRouter` -- converts ``detector.step`` outputs into alerts,
  with optional de-duplication (``dedupe="first"`` emits each
  (query, point) pair once) and fan-out to any number of sinks;
* sinks: :class:`CollectingSink`, :class:`CallbackSink`,
  :class:`CountingSink`;
* :func:`run_with_alerts` -- drive a detector over a finite stream and
  route everything, returning both the RunResult and the sinks' contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set

from .baselines.base import Detector
from .core.point import Point
from .engine.executor import ExecutorSubscriber, StreamExecutor
from .metrics.results import RunResult

__all__ = [
    "Alert",
    "AlertRouter",
    "AlertSink",
    "AlertSubscriber",
    "CallbackSink",
    "CollectingSink",
    "CountingSink",
    "run_with_alerts",
]


@dataclass(frozen=True)
class Alert:
    """One outlier report for one query at one boundary."""

    seq: int
    query_index: int
    query_name: str
    boundary: int
    #: True when this point was not reported by this query at its previous
    #: output boundary (i.e. a *new* alert, not a persisting one)
    first_seen: bool


class AlertSink:
    """Interface for alert consumers."""

    def handle(self, alert: Alert) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Called once the stream ends; default is a no-op."""


class CollectingSink(AlertSink):
    """Stores every alert in arrival order."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []

    def handle(self, alert: Alert) -> None:
        self.alerts.append(alert)

    def by_query(self) -> Dict[int, List[Alert]]:
        out: Dict[int, List[Alert]] = {}
        for a in self.alerts:
            out.setdefault(a.query_index, []).append(a)
        return out


class CallbackSink(AlertSink):
    """Invokes a callable per alert (e.g. print, enqueue, page someone)."""

    def __init__(self, fn: Callable[[Alert], None]):
        if not callable(fn):
            raise TypeError("CallbackSink needs a callable")
        self._fn = fn

    def handle(self, alert: Alert) -> None:
        self._fn(alert)


class CountingSink(AlertSink):
    """Counts alerts per query; cheap health metric for dashboards."""

    def __init__(self) -> None:
        self.total = 0
        self.per_query: Dict[int, int] = {}
        self.first_seen = 0

    def handle(self, alert: Alert) -> None:
        self.total += 1
        self.first_seen += alert.first_seen
        self.per_query[alert.query_index] = \
            self.per_query.get(alert.query_index, 0) + 1


class AlertRouter:
    """Fan detector outputs out to sinks, tracking alert novelty.

    ``dedupe`` controls what reaches the sinks:

    * ``"all"`` -- every (query, point) report at every boundary;
    * ``"first"`` -- only the first time a (query, point) pair is reported
      (a point flapping outlier -> inlier -> outlier re-alerts only if
      ``reset_on_recovery`` is True);
    * ``"transitions"`` -- reports whenever a point is an outlier now but
      was not at the query's previous boundary.
    """

    _MODES = ("all", "first", "transitions")

    def __init__(self, group, sinks: Sequence[AlertSink],
                 dedupe: str = "transitions",
                 reset_on_recovery: bool = True):
        if dedupe not in self._MODES:
            raise ValueError(f"dedupe must be one of {self._MODES}")
        self.group = group
        self.sinks = list(sinks)
        self.dedupe = dedupe
        self.reset_on_recovery = reset_on_recovery
        # per query: outliers at the previous boundary / ever alerted
        self._previous: Dict[int, FrozenSet[int]] = {}
        self._ever: Dict[int, Set[int]] = {}

    def dispatch(self, t: int, outputs: Dict[int, FrozenSet[int]]) -> int:
        """Route one boundary's outputs; returns alerts emitted."""
        emitted = 0
        for qi, seqs in outputs.items():
            prev = self._previous.get(qi, frozenset())
            ever = self._ever.setdefault(qi, set())
            if self.reset_on_recovery:
                # a point that recovered (outlier before, inlier now) may
                # alert again on a later relapse
                ever -= prev - seqs
            for seq in sorted(seqs):
                fresh = seq not in prev
                if self.dedupe == "first" and seq in ever:
                    continue
                if self.dedupe == "transitions" and not fresh:
                    continue
                ever.add(seq)
                alert = Alert(
                    seq=seq,
                    query_index=qi,
                    query_name=self.group[qi].name,
                    boundary=t,
                    first_seen=fresh,
                )
                for sink in self.sinks:
                    sink.handle(alert)
                emitted += 1
            self._previous[qi] = frozenset(seqs)
        return emitted

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class AlertSubscriber(ExecutorSubscriber):
    """Subscriber that routes boundary outputs to an AlertRouter.

    Dispatch happens at ``on_boundary_end`` (after the driver metered
    the boundary); the router's sinks are closed when the stream ends.
    Attaches to a :class:`~repro.engine.StreamExecutor` or a
    :class:`~repro.runtime.Runtime` alike -- on a sharded runtime the
    outputs it sees are the merged (exact, ownership-deduped) ones.
    """

    def __init__(self, router: AlertRouter):
        self.router = router

    def on_boundary_end(self, t, outputs) -> None:
        self.router.dispatch(t, outputs)

    def on_stream_end(self, result) -> None:
        self.router.close()


def run_with_alerts(
    detector: Detector,
    points: Sequence[Point],
    sinks: Sequence[AlertSink],
    dedupe: str = "transitions",
    until: Optional[int] = None,
) -> RunResult:
    """Run a detector (or sharded runtime) over a finite stream, routing
    outputs to sinks.

    Facade: the driver -- a :class:`~repro.engine.StreamExecutor`, or the
    :class:`~repro.runtime.Runtime` itself when one is passed -- with an
    :class:`AlertSubscriber` attached.  A process-backend runtime replays
    boundary outputs to the router after the workers return; alert
    content is identical, only the delivery is deferred.
    """
    from .runtime import Runtime

    router = AlertRouter(detector.group, sinks, dedupe=dedupe)
    if isinstance(detector, Runtime):
        detector.subscribe(AlertSubscriber(router))
        return detector.run(points, until=until)
    executor = StreamExecutor(detector, [AlertSubscriber(router)])
    return executor.run(points, until=until)
