"""IngestionServer: asyncio TCP ingest + HTTP control plane + drain loop.

Task layout (single event loop, no threads)::

    one reader task per conn ──► StreamSession (bounded block queue)
                                      │ round-robin pop_upto(quota)
    drain task ◄──────────────────────┘
        │ feed_block / pump (watermark-gated boundaries)
        ▼
    ServiceEngine ──► Runtime (shards) ──► outliers pushed to subscribers

The drain task is the only caller of the engine, so detector state never
sees concurrency; sessions only touch their own queue.  Fairness is
round-robin with a per-cycle quota: a flooding tenant fills its own
bounded queue and blocks (or gets typed rejections), while other
tenants' records keep flowing.

Graceful drain (SIGTERM or :meth:`shutdown`): stop admitting (new
sessions, registrations, and points get the typed ``draining`` error),
drain every session queue, process the boundaries the watermark already
proves complete -- never a partial batch -- write one atomic sharded
checkpoint, notify subscribers (``drained`` push with the checkpoint
boundary), and close.  ``repro serve --resume`` restores from that
checkpoint and clients re-attach with ``claim`` + replay; the combined
outputs are bit-exact versus an uninterrupted run.
"""

from __future__ import annotations

import asyncio
import logging
import signal
from typing import Dict, Optional

from ..metrics.results import merge_work
from .engine import ServiceEngine
from .http import ControlPlane
from .protocol import (PROTOCOL_VERSION, WireError, decode_line, encode,
                       error_message, ok_message, outliers_message,
                       parse_query, query_payload)
from .session import StreamSession

__all__ = ["IngestionServer"]


class IngestionServer:
    """The long-lived multi-tenant ingestion service around one engine."""

    def __init__(self, engine: ServiceEngine, host: str = "127.0.0.1",
                 port: int = 0, http_port: int = 0,
                 queue_bound: int = 1024, drain_quota: int = 64,
                 logger: Optional[logging.Logger] = None):
        self.engine = engine
        self.host = host
        self._want_port = port
        self._want_http_port = http_port
        self.queue_bound = int(queue_bound)
        self.drain_quota = int(drain_quota)
        self.log = logger or logging.getLogger("repro.serve")
        self._sessions: Dict[int, StreamSession] = {}
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._handle_owner: Dict[int, int] = {}
        self._next_sid = 1
        self._sessions_total = 0
        self._retired_counters = {"admitted": 0, "rejected": 0,
                                  "quarantined": 0}
        self._retired_reasons: Dict[str, int] = {}
        self._rr_offset = 0
        self.draining = False
        self._running = False
        self._data_event = asyncio.Event()
        self._drain_gate = asyncio.Event()
        self._drain_gate.set()
        self._drain_task: Optional[asyncio.Task] = None
        self._tcp_server = None
        self._control = ControlPlane(self.metrics_snapshot, self._health)
        self.address = None        # (host, port) once started
        self.http_address = None   # (host, port) once started
        #: set when shutdown completed (CLI awaits it)
        self.stopped = asyncio.Event()

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind both listeners and start the drain task."""
        self._tcp_server = await asyncio.start_server(
            self._handle_conn, self.host, self._want_port)
        self.address = self._tcp_server.sockets[0].getsockname()[:2]
        self.http_address = await self._control.start(
            self.host, self._want_http_port)
        self._running = True
        self._drain_task = asyncio.create_task(self._drain_loop())
        self.log.info(
            "serving: ingest on %s:%d, control plane on %s:%d, "
            "%d shard(s), queue bound %d", *self.address,
            *self.http_address, self.engine.config.shards, self.queue_bound)

    def install_signal_handlers(self,
                                loop: Optional[asyncio.AbstractEventLoop]
                                = None) -> None:
        """SIGTERM/SIGINT trigger one graceful drain (idempotent)."""
        loop = loop if loop is not None else asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda s=sig: asyncio.ensure_future(
                    self.shutdown(reason=signal.Signals(s).name)))

    async def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful drain: stop admitting, flush, checkpoint, close."""
        if self.draining:
            return
        self.draining = True
        self.log.info("drain requested (%s): admission closed", reason)
        if self._tcp_server is not None:
            self._tcp_server.close()
        # stop the background drain task, then flush inline so the final
        # feed/pump/checkpoint sequence is single-owner and complete
        self._running = False
        self._data_event.set()
        self._drain_gate.set()
        if self._drain_task is not None:
            await self._drain_task
        self._drain_all_queues()
        watermark = self._watermark()
        if watermark is not None:
            await self._dispatch(self.engine.pump(watermark))
        boundary = self.engine.checkpoint()
        if boundary is not None:
            self.log.info("drain checkpoint at boundary %d", boundary)
        await self._announce(encode({
            "type": "drained",
            "checkpoint_boundary": boundary,
            "last_boundary": self.engine.last_boundary,
        }))
        for sid, writer in list(self._writers.items()):
            writer.close()
        if self._tcp_server is not None:
            await self._tcp_server.wait_closed()
        await self._control.stop()
        self.log.info("drained: last boundary %d, %d boundar(ies) total",
                      self.engine.last_boundary,
                      self.engine.boundaries_processed)
        self.stopped.set()

    # -------------------------------------------------------- test hooks

    def pause_drain(self) -> None:
        """Suspend the drain loop (deterministic backpressure tests)."""
        self._drain_gate.clear()

    def resume_drain(self) -> None:
        self._drain_gate.set()
        self._data_event.set()

    # ------------------------------------------------------------- serving

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        session: Optional[StreamSession] = None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    msg = decode_line(line)
                    op = msg.get("op")
                    if session is None and op != "hello":
                        raise WireError("no-session",
                                        "the first op must be hello")
                    if op == "hello":
                        session, reply = self._op_hello(msg, writer)
                    elif op == "bye":
                        await self._write(session, ok_message("bye"))
                        break
                    else:
                        reply = await self._op(op, msg, session)
                except WireError as exc:
                    reply = error_message(exc)
                await self._write(session, reply, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if session is not None:
                session.end()
                session.closed = True
                self._data_event.set()
            if session is not None:
                self._writers.pop(session.sid, None)
            writer.close()

    async def _write(self, session: Optional[StreamSession], payload: bytes,
                     writer: Optional[asyncio.StreamWriter] = None) -> None:
        if session is not None:
            writer = self._writers.get(session.sid, writer)
            async with session.write_lock:
                writer.write(payload)
                await writer.drain()
        elif writer is not None:
            writer.write(payload)
            await writer.drain()

    # ----------------------------------------------------------- operations

    def _op_hello(self, msg, writer):
        if self.draining:
            raise WireError("draining", "server is draining; not "
                            "admitting new sessions")
        sid = self._next_sid
        self._next_sid += 1
        tenant = str(msg.get("tenant") or f"tenant-{sid}")
        session = StreamSession(
            sid, tenant, self.queue_bound, kind=self.engine.kind,
            admission=str(msg.get("admission") or "block"),
            producer=bool(msg.get("producer", True)))
        self._sessions[sid] = session
        self._writers[sid] = writer
        self._sessions_total += 1
        self.log.info("session %d opened (tenant %r, admission %s)",
                      sid, tenant, session.admission)
        return session, ok_message(
            "hello", session=sid, tenant=tenant,
            protocol=PROTOCOL_VERSION, queue_bound=self.queue_bound,
            resumed_at=self.engine.last_boundary)

    async def _op(self, op, msg, session: StreamSession) -> bytes:
        if op == "register":
            if self.draining:
                raise WireError("draining", "server is draining; not "
                                "accepting registrations")
            query = parse_query(msg.get("query"))
            handle = self.engine.register(query)
            session.handles.append(handle)
            self._handle_owner[handle] = session.sid
            self.log.info("session %d registered %s as handle %d",
                          session.sid, query.name, handle)
            return ok_message("registered", handle=handle)
        if op == "claim":
            handle = self._handle_of(msg)
            try:
                query = self.engine.query_of(handle)
            except KeyError:
                raise WireError("unknown-handle",
                                f"no registered query with handle {handle}")
            if handle not in session.handles:
                session.handles.append(handle)
            self._handle_owner.setdefault(handle, session.sid)
            return ok_message("claimed", handle=handle,
                              query=query_payload(query))
        if op == "deregister":
            handle = self._handle_of(msg)
            owner = self._handle_owner.get(handle)
            if owner is not None and owner != session.sid:
                raise WireError("not-owner", f"handle {handle} belongs to "
                                "another session")
            try:
                self.engine.deregister(handle)
            except KeyError:
                raise WireError("unknown-handle",
                                f"no registered query with handle {handle}")
            self._handle_owner.pop(handle, None)
            if handle in session.handles:
                session.handles.remove(handle)
            return ok_message("deregistered", handle=handle)
        if op == "points":
            if self.draining:
                raise WireError("draining", "server is draining; not "
                                "admitting points")
            if not len(self.engine.registry):
                raise WireError("no-queries", "no query is registered; "
                                "points would have no window semantics")
            session.kind = self.engine.kind
            admitted, quarantined = await session.admit_records(
                msg.get("records") or [])
            self._data_event.set()
            return ok_message("admitted", admitted=admitted,
                              quarantined=quarantined)
        if op == "subscribe":
            session.subscribed = True
            return ok_message("subscribed")
        if op == "stat":
            return ok_message("stat", engine=self.engine.stats(),
                              draining=self.draining)
        if op == "end":
            session.end()
            self._data_event.set()
            return ok_message("ended")
        raise WireError("unknown-op", f"unknown op {op!r}")

    @staticmethod
    def _handle_of(msg) -> int:
        try:
            return int(msg["handle"])
        except (KeyError, TypeError, ValueError):
            raise WireError("bad-request", "an integer handle is required")

    # ----------------------------------------------------------- drain loop

    async def _drain_loop(self) -> None:
        while self._running:
            await self._drain_gate.wait()
            self._data_event.clear()
            moved = self._drain_cycle()
            watermark = self._watermark()
            emitted = 0
            if watermark is not None:
                outputs = self.engine.pump(watermark)
                emitted = len(outputs)
                await self._dispatch(outputs)
                if watermark == float("inf"):
                    await self._announce_stream_end()
            self._retire_finished_sessions()
            if not moved and not emitted:
                try:
                    await asyncio.wait_for(self._data_event.wait(),
                                           timeout=0.5)
                except asyncio.TimeoutError:
                    pass

    def _drain_cycle(self) -> int:
        """One fair pass: up to ``drain_quota`` records per session, handed
        to the engine as one block per session."""
        sids = sorted(self._sessions)
        if not sids:
            return 0
        self._rr_offset %= len(sids)
        moved = 0
        for i in range(len(sids)):
            session = self._sessions[sids[(self._rr_offset + i) % len(sids)]]
            block = session.pop_upto(self.drain_quota)
            if block:
                self.engine.feed_block(block)
                moved += len(block)
        self._rr_offset += 1
        return moved

    def _drain_all_queues(self) -> None:
        """Shutdown path: hand every queued record to the engine."""
        while self._drain_cycle():
            pass

    def _watermark(self) -> Optional[float]:
        """Min delivered position over streaming sessions (None: idle).

        A streaming session that has not delivered a record yet
        contributes ``-inf`` -- it legitimately pins the watermark, since
        its first record could land anywhere.  Only non-streaming,
        non-ended (control-plane) sessions are excluded.
        """
        marks = [s.effective_watermark for s in self._sessions.values()
                 if s.streaming or s.ended]
        if not marks:
            return None
        return min(marks)

    async def _dispatch(self, outputs) -> None:
        """Push each boundary's outputs to subscribed owning sessions."""
        for t, handle_outputs in outputs:
            for session in list(self._sessions.values()):
                if not session.subscribed or session.closed:
                    continue
                if not any(h in handle_outputs for h in session.handles):
                    continue
                try:
                    await self._write(session, outliers_message(
                        t, handle_outputs, handles=session.handles))
                except (ConnectionError, KeyError):
                    session.closed = True
                    session.end()

    async def _announce_stream_end(self) -> None:
        """Tell ended subscribers the flushed stream is fully answered."""
        payload = encode({"type": "stream-end",
                          "t": self.engine.last_boundary})
        for session in list(self._sessions.values()):
            if (session.subscribed and session.ended and not session.closed
                    and not getattr(session, "_stream_end_sent", False)):
                session._stream_end_sent = True
                try:
                    await self._write(session, payload)
                except (ConnectionError, KeyError):
                    session.closed = True

    async def _announce(self, payload: bytes) -> None:
        for session in list(self._sessions.values()):
            if session.closed or not session.subscribed:
                continue
            try:
                await self._write(session, payload)
            except (ConnectionError, KeyError):
                session.closed = True

    def _retire_finished_sessions(self) -> None:
        """Fold closed, fully-drained sessions into aggregate counters."""
        for sid in [sid for sid, s in self._sessions.items()
                    if s.closed and not s.queued]:
            s = self._sessions.pop(sid)
            self._writers.pop(sid, None)
            self._retired_counters["admitted"] += s.records_admitted
            self._retired_counters["rejected"] += s.records_rejected
            self._retired_counters["quarantined"] += s.guard.total_quarantined
            self._retired_reasons = merge_work(
                [self._retired_reasons, dict(s.guard.counts)])
            self.log.info("session %d retired (%d admitted, %d rejected, "
                          "%d quarantined)", sid, s.records_admitted,
                          s.records_rejected, s.guard.total_quarantined)

    # -------------------------------------------------------------- metrics

    def _health(self):
        body = {
            "status": "draining" if self.draining else "ok",
            "last_boundary": self.engine.last_boundary,
            "sessions": len(self._sessions),
        }
        return (503 if self.draining else 200), body

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` document; every counter monotone, work
        counters additive across shards (they are the merged per-shard
        ``work_stats``)."""
        live = list(self._sessions.values())
        reasons = merge_work([self._retired_reasons]
                             + [dict(s.guard.counts) for s in live])
        return {
            "service": {
                "draining": self.draining,
                "admitting": not self.draining,
                "sessions": {
                    "active": sum(1 for s in live if not s.closed),
                    "total": self._sessions_total,
                },
                "queue": {
                    "bound": self.queue_bound,
                    "depth": sum(s.queued for s in live),
                    # admitted, drained, still waiting for the watermark
                    "pending": self.engine.pending,
                },
                "records": {
                    "admitted": self._retired_counters["admitted"]
                    + sum(s.records_admitted for s in live),
                    "rejected": self._retired_counters["rejected"]
                    + sum(s.records_rejected for s in live),
                    "quarantined": self._retired_counters["quarantined"]
                    + sum(s.guard.total_quarantined for s in live),
                    "replay_skipped": self.engine.records_replay_skipped,
                },
                "quarantined_reasons": reasons,
                "queries": {
                    "active": len(self.engine.registry),
                    "registered_total": self.engine.registry.total_registered,
                },
                "boundaries": {
                    "processed": self.engine.boundaries_processed,
                    "last": self.engine.last_boundary,
                },
                "checkpoints_written": self.engine.checkpoints_written,
            },
            "work": self.engine.work_stats_snapshot(),
            "config": self.engine.config.as_dict(),
            "shards": self.engine.config.shards,
        }
