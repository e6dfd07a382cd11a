"""StreamSession: one client connection's ingestion state.

Each session owns a bounded queue of admitted *blocks* -- one block per
``points`` op, the guard's clean records in arrival order -- an
:class:`~repro.streams.source.IngestGuard` (poison records are
quarantined per session, so one tenant's garbage never stalls another's
stream), and its slice of the watermark bookkeeping the engine's
determinism rests on.  The block, not the record, is the unit that moves
from the socket to the engine: the guard is the only per-record step.

Backpressure, two ways
----------------------

The bound counts records (``queued``), not blocks.

* ``admission="block"`` (default): :meth:`admit_records` awaits until the
  whole admitted block fits under the bound -- the session's reader
  coroutine suspends, the server stops reading that socket, and the
  producer's TCP window eventually fills.  Classic slow-producer
  pushback; nothing is dropped and no reply is sent until the whole
  batch is queued.
* ``admission="reject"``: a batch that cannot fit entirely gets the typed
  ``queue-full`` rejection (with ``capacity`` and ``pending``) and *none*
  of it is enqueued -- all-or-nothing, so the producer can retry the
  identical batch without tripping the guard's seq-regression check.
  Never a silent drop: rejected batches are counted and reported.

A single ``points`` op larger than the whole queue bound is rejected as
``batch-too-large`` in both modes (it could never fit at once), so a
blocked admit always fits eventually.  The drain loop takes records with
:meth:`pop_upto`, which may split the head block at its quota.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, List, Tuple

from ..core.point import Point
from ..streams.source import IngestGuard
from ..streams.windows import COUNT
from .protocol import WireError

__all__ = ["StreamSession"]

ADMISSION_MODES = ("block", "reject")


class StreamSession:
    """Per-connection ingestion state: queue, guard, watermark, handles."""

    def __init__(self, sid: int, tenant: str, queue_bound: int,
                 kind: str = COUNT, admission: str = "block",
                 producer: bool = True):
        if admission not in ADMISSION_MODES:
            raise WireError("bad-request",
                            f"admission must be one of {ADMISSION_MODES}, "
                            f"got {admission!r}")
        if queue_bound < 1:
            raise ValueError("queue_bound must be >= 1")
        self.sid = sid
        self.tenant = tenant
        self.kind = kind
        self.admission = admission
        #: admitted blocks in arrival order (each one ``points`` op)
        self._blocks: Deque[List[Point]] = deque()
        #: records of ``_blocks[0]`` already returned by :meth:`pop_upto`
        self._head_off = 0
        #: records in ``_blocks`` not yet returned -- what ``queue_bound``
        #: limits
        self.queued = 0
        self.queue_bound = queue_bound
        #: set by :meth:`pop_upto`; a blocked admitter re-checks the room
        self._popped = asyncio.Event()
        self.guard = IngestGuard()
        #: handles this session registered or claimed (push targets)
        self.handles: List[int] = []
        self.subscribed = False
        #: True for watermark participants.  Producers (the default) hold
        #: the watermark from ``hello`` on -- their first record could be
        #: positioned anywhere, so no boundary may be processed before
        #: they deliver or end.  ``producer=false`` sessions
        #: (control-plane/dashboard clients) never hold boundaries back,
        #: but join the watermark anyway if they ever send points.
        self.streaming = bool(producer)
        #: no more points from this client (end op or EOF)
        self.ended = False
        #: position of the last record handed to the engine (drain loop)
        self.fed_watermark = float("-inf")
        self.closed = False
        # monotone per-session counters
        self.records_admitted = 0
        self.records_rejected = 0
        #: serializes reply/push writes on this connection
        self.write_lock = asyncio.Lock()

    # ----------------------------------------------------------- positions

    def _position(self, point: Point) -> float:
        return float(point.seq) if self.kind == COUNT else point.time

    @property
    def effective_watermark(self) -> float:
        """This session's contribution to the global watermark.

        ``+inf`` once the session ended *and* its queue is drained (it
        can never again deliver a record); otherwise the position of the
        last record the engine consumed.  Guard monotonicity makes this
        sound: no future record of this session is positioned below it.
        """
        if self.ended and not self.queued:
            return float("inf")
        return self.fed_watermark

    # ------------------------------------------------------------- ingest

    def validate(self, records) -> Tuple[List[Point], int]:
        """Guard a raw record batch; ``(admitted points, quarantined)``."""
        before = self.guard.total_quarantined
        points = self.guard.filter(records)
        return points, self.guard.total_quarantined - before

    async def admit_records(self, records) -> Tuple[int, int]:
        """Admit one ``points`` op; ``(admitted, quarantined)`` counts.

        Raises :class:`WireError` (typed, never a silent drop) when the
        session already ended, when the batch exceeds the queue bound, or
        -- in reject mode -- when it does not currently fit.
        """
        if self.ended:
            raise WireError("ended", "session already sent end")
        records = list(records)
        if len(records) > self.queue_bound:
            raise WireError(
                "batch-too-large",
                f"batch of {len(records)} exceeds the queue bound",
                capacity=self.queue_bound, batch=len(records))
        if self.admission == "reject":
            free = self.queue_bound - self.queued
            if len(records) > free:
                # before the guard sees the records: the producer can
                # retry the identical batch without seq regressions
                self.records_rejected += len(records)
                raise WireError(
                    "queue-full",
                    f"queue has {free} free slot(s), batch needs "
                    f"{len(records)}; retry after draining",
                    capacity=self.queue_bound,
                    pending=self.queued, batch=len(records))
        self.streaming = True
        points, quarantined = self.validate(records)
        # reject mode checked the room above; block mode waits for it
        # (slow-producer pushback)
        while self.queued + len(points) > self.queue_bound:
            self._popped.clear()
            await self._popped.wait()
        if points:
            self._blocks.append(points)
            self.queued += len(points)
        self.records_admitted += len(points)
        return len(points), quarantined

    def pop_upto(self, n: int) -> List[Point]:
        """Up to ``n`` queued records in arrival order, for the drain loop.

        Splits the head block when it holds more than the rest of the
        quota: an offset marks how much of it was returned, so a drain
        cycle copies only the records it returns, never the block's rest.
        Advances ``fed_watermark`` to the last record returned and wakes
        a blocked admitter.
        """
        out: List[Point] = []
        while n > 0 and self._blocks:
            head, off = self._blocks[0], self._head_off
            take = head[off:off + n]
            out.extend(take)
            n -= len(take)
            if off + len(take) == len(head):
                self._blocks.popleft()
                self._head_off = 0
            else:
                self._head_off = off + len(take)
        if out:
            self.queued -= len(out)
            self.fed_watermark = self._position(out[-1])
            self._popped.set()
        return out

    def end(self) -> None:
        """No more points from this session (op ``end`` or EOF)."""
        self.ended = True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StreamSession(sid={self.sid}, tenant={self.tenant!r}, "
                f"queued={self.queued}/{self.queue_bound}, "
                f"ended={self.ended})")
