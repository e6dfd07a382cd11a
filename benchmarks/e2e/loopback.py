"""serve_loopback: server subprocess, closed-loop load generator, replay.

The benchmark process is the load generator; ``python -m repro serve`` is the
system under test, started fresh for every repetition on ports it picks
itself.  Two connections (one per core of the sizing box) each stream their
round-robin half of the record blocks with one ``points`` op outstanding;
connection 0 registers the query and subscribes, connection 1 claims the
handle, so the min-over-sessions watermark gates every boundary exactly as
with two real producers.  Every wait has a deadline: a hung server ends the
repetition with whatever it did not acknowledge or emit counted as failed.

The traced run cannot see inside the server process, so per-layer busy time
comes from :func:`replay`: the exact wire lines are pushed through the same
public functions the server calls (``decode_line`` -> ``StreamSession.validate``
-> ``ServiceEngine.feed`` / ``pump`` -> ``outliers_message``) in this process,
single-threaded and without sockets.  What the end-to-end wall holds beyond
that busy time -- sockets, event loop, queue hops -- is ``loop_residual_s``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Dict, List, Optional, Tuple

from repro.serve import ServiceEngine, StreamSession
from repro.serve.protocol import (decode_line, encode, outliers_message,
                                  query_payload)

from offline import BoundaryStamps, layer_metrics
from tracing import Trace, instrument
from workloads import Record, Workload

CONNECTIONS = 2
BLOCK = 100
#: deadlines, in seconds: server boot, one op's reply, the final flush
BOOT_TIMEOUT = 30.0
OP_TIMEOUT = 30.0
FLUSH_TIMEOUT = 60.0
STOP_TIMEOUT = 10.0
POLL_INTERVAL = 0.05

INF = float("inf")
END_LINE = encode({"op": "end"})


def encode_blocks(records: List[Record]) -> List[Tuple[float, bytes]]:
    """Pre-encoded ``points`` lines, each with its last record's position."""
    return [
        (float(records[min(i + BLOCK, len(records)) - 1][0]),
         encode({"op": "points", "records": records[i:i + BLOCK]}))
        for i in range(0, len(records), BLOCK)
    ]


def process_usage(pid: int) -> Tuple[float, float]:
    """``(user+sys CPU seconds, peak RSS in MB)`` of a live process."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    with open(f"/proc/{pid}/status") as f:
        peak_kb = next(int(line.split()[1]) for line in f
                       if line.startswith("VmHWM:"))
    return cpu, peak_kb / 1024.0


async def http_get(address, path: str):
    reader, writer = await asyncio.open_connection(*address)
    try:
        writer.write(f"GET {path} HTTP/1.1\r\nHost: e2e\r\n\r\n".encode())
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


class Server:
    """One ``python -m repro serve`` subprocess on self-chosen ports."""

    def __init__(self, src: Path, log_path: Path, prefilter: str):
        self.src = src
        self.log_path = log_path
        self.prefilter = prefilter
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.ingest = self.control = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.src)] + [p for p in [env.get("PYTHONPATH")] if p])
        with open(self.log_path, "ab") as log:
            self.proc = await asyncio.create_subprocess_exec(
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--http-port", "0", "--prefilter", self.prefilter,
                stdout=asyncio.subprocess.PIPE, stderr=log, env=env)
        deadline = perf_counter() + BOOT_TIMEOUT
        while self.control is None:
            line = await asyncio.wait_for(self.proc.stdout.readline(),
                                          deadline - perf_counter())
            if not line:
                raise RuntimeError("server exited before announcing its "
                                   f"ports; see {self.log_path}")
            key, _, value = line.decode().strip().partition(":")
            if key == "ingest":
                host, _, port = value.strip().rpartition(":")
                self.ingest = (host, int(port))
            elif key == "control":
                host, _, port = (value.strip().split("//")[1]
                                 .split("/")[0].rpartition(":"))
                self.control = (host, int(port))
        while True:
            try:
                status, _ = await http_get(self.control, "/healthz")
                if status == 200:
                    return
            except (ConnectionError, OSError):
                pass
            if perf_counter() > deadline:
                raise RuntimeError("server never became healthy")
            await asyncio.sleep(0.01)

    async def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it does not exit."""
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()


class Connection:
    """One client session: a reader task stamps every line on receipt."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer
        self.replies: asyncio.Queue = asyncio.Queue()
        #: (receipt stamp, message) of every server push
        self.pushes: List[Tuple[float, dict]] = []
        self.stream_end = asyncio.Event()
        self.task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.reader.readline()
            now = perf_counter()
            if not line:
                return
            msg = json.loads(line)
            if "ok" in msg:
                self.replies.put_nowait((now, msg))
            else:
                self.pushes.append((now, msg))
                if msg.get("type") == "stream-end":
                    self.stream_end.set()

    async def request(self, line: bytes) -> Tuple[float, float, dict]:
        """Send one op, wait for its reply: ``(sent, received, reply)``."""
        sent = perf_counter()
        self.writer.write(line)
        await self.writer.drain()
        received, msg = await asyncio.wait_for(self.replies.get(), OP_TIMEOUT)
        if not msg.get("ok"):
            raise RuntimeError(f"server refused an op: {msg}")
        return sent, received, msg

    async def close(self) -> None:
        self.task.cancel()
        self.writer.close()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError):
            pass


async def _stream(conn: Connection, ops, log: list) -> None:
    """Closed loop: the next op goes out when the previous reply is in."""
    for last_pos, line in ops:
        sent, received, msg = await conn.request(line)
        log.append((last_pos, sent, received, msg["admitted"]))
    sent, received, _ = await conn.request(END_LINE)
    log.append((INF, sent, received, 0))


async def _poll_queue_depth(control, depths: List[int]) -> None:
    while True:
        _, body = await http_get(control, "/metrics")
        depths.append(body["service"]["queue"]["depth"])
        await asyncio.sleep(POLL_INTERVAL)


async def _repetition(workload: Workload, records: List[Record], src: Path,
                      log_path: Path, poll: bool) -> dict:
    setup0 = perf_counter()
    blocks = encode_blocks(records)
    ops = [blocks[c::CONNECTIONS] for c in range(CONNECTIONS)]
    server = Server(src, log_path, workload.config.prefilter)
    conns: List[Connection] = []
    logs: List[list] = [[] for _ in range(CONNECTIONS)]
    depths: List[int] = []
    tasks: List[asyncio.Task] = []
    out = {"offered": len(records), "error": None}
    try:
        await server.start()
        for c in range(CONNECTIONS):
            conn = Connection(*await asyncio.open_connection(
                *server.ingest, limit=1 << 22))
            conns.append(conn)
            await conn.request(encode({"op": "hello", "tenant": f"load-{c}"}))
        handles = []
        for query in workload.group.queries:
            _, _, reply = await conns[0].request(encode(
                {"op": "register", "query": query_payload(query)}))
            handles.append(reply["handle"])
        await conns[0].request(encode({"op": "subscribe"}))
        for conn in conns[1:]:
            for handle in handles:
                await conn.request(encode({"op": "claim", "handle": handle}))
        out["setup_s"] = perf_counter() - setup0

        if poll:
            poller = asyncio.create_task(
                _poll_queue_depth(server.control, depths))
            tasks.append(poller)
        cpu0, _ = process_usage(server.proc.pid)
        own_cpu0, start = process_time(), perf_counter()
        streams = [asyncio.create_task(_stream(conn, ops[c], logs[c]))
                   for c, conn in enumerate(conns)]
        tasks.extend(streams)
        await asyncio.gather(*streams)
        await asyncio.wait_for(conns[0].stream_end.wait(), FLUSH_TIMEOUT)
        end = next(at for at, msg in conns[0].pushes
                   if msg.get("type") == "stream-end")
        own_cpu = process_time() - own_cpu0
        cpu1, out["rss_mb"] = process_usage(server.proc.pid)
        out["cpu_s"] = cpu1 - cpu0
        if poll:
            poller.cancel()
            _, out["server_metrics"] = await http_get(server.control,
                                                      "/metrics")
    except (asyncio.TimeoutError, RuntimeError, OSError) as exc:
        # a hung, dead or refusing server: the caller counts everything
        # this repetition offered as failed
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for conn in conns:
            await conn.close()
        await server.stop()

    out["wall_s"] = end - start
    out["admitted"] = sum(op[3] for log in logs for op in log)
    pushes = [(at, msg) for at, msg in conns[0].pushes
              if msg.get("type") == "outliers"]
    out["outputs"] = {
        (handles.index(int(handle)), msg["t"]): frozenset(seqs)
        for _, msg in pushes for handle, seqs in msg["outputs"].items()}
    # boundary t was released by the later of the two ops that carried each
    # session's watermark to t: event creation -> result emission
    emit, ack = [], []
    for at, msg in pushes:
        released = [next((op for op in log if op[0] >= msg["t"]), None)
                    for log in logs]
        if None in released:
            continue
        trigger = max(released, key=lambda op: op[1])
        emit.append((at - trigger[1]) * 1e3)
        ack.append((at - trigger[2]) * 1e3)
    out["boundary_ms"] = emit
    out["admit_to_emit_ms"] = ack
    out["rtt_ms"] = [(op[2] - op[1]) * 1e3 for log in logs for op in log]
    out["lag_ms"] = [(nxt[1] - op[2]) * 1e3
                     for log in logs for op, nxt in zip(log, log[1:])]
    out["loadgen_cpu_share"] = own_cpu / out["wall_s"]
    out["queue_depth_max"] = max(depths, default=0)
    out["lines"] = [line for _, line in blocks]
    return out


def run(workload: Workload, records: List[Record], src: Path, log_path: Path,
        poll: bool = False) -> dict:
    """One repetition: set-up, stream, tear-down.  Never raises on a slow or
    dead server -- ``error`` says what happened and the caller counts."""
    return asyncio.run(_repetition(workload, records, src, log_path, poll))


def replay(workload: Workload, lines: List[bytes]
           ) -> Tuple[Dict, List[dict], Dict]:
    """Push the wire lines through the serving layers in this process.

    Returns ``(per-layer metrics, spans, outputs)``.  Blocks alternate
    between two sessions as they do on the wire; after each op the engine
    is pumped to the min-over-sessions watermark, as the drain task would.
    """
    trace = Trace()
    engine = ServiceEngine(config=workload.config,
                           queries=list(workload.group.queries))
    engine.pump(-INF)  # builds the runtime without processing anything
    runtime = engine.runtime
    instrument(runtime, trace)
    stamps = runtime.subscribe(BoundaryStamps())
    handles = engine.registry.handles()
    sessions = [StreamSession(c + 1, f"replay-{c}", queue_bound=1024)
                for c in range(CONNECTIONS)]
    watermarks = [-INF] * CONNECTIONS
    outputs: Dict = {}
    pump_span = None
    step = runtime.step

    def timed_step(t, batch):
        start = perf_counter()
        merged = step(t, batch)
        trace.close_step(t, start, perf_counter(), pump_span)
        return merged

    runtime.step = timed_step

    def pump(watermark: float) -> None:
        nonlocal pump_span
        pump_span = trace.open("serve.engine.pump", perf_counter())
        emitted = engine.pump(watermark)
        now = perf_counter()
        trace.close(pump_span, now)
        if not emitted:
            return
        pushes = [outliers_message(t, handle_outputs, handles=handles)
                  for t, handle_outputs in emitted]
        trace.add("serve.protocol.encode", now, perf_counter())
        trace.count("encode_bytes", sum(len(line) for line in pushes))
        for t, handle_outputs in emitted:
            for handle, seqs in handle_outputs.items():
                outputs[(handles.index(handle), t)] = seqs

    pending_max = 0
    origin = perf_counter()
    for i, line in enumerate(lines):
        c = i % CONNECTIONS
        t0 = perf_counter()
        msg = decode_line(line)
        t1 = perf_counter()
        points, _ = sessions[c].validate(msg["records"])
        t2 = perf_counter()
        for point in points:
            engine.feed(point)
        t3 = perf_counter()
        trace.add("serve.protocol.decode", t0, t1)
        trace.add("serve.session.admit", t1, t2)
        trace.add("serve.engine.feed", t2, t3)
        trace.count("decode_bytes", len(line))
        pending_max = max(pending_max, engine.stats()["records_pending"])
        watermarks[c] = engine.position(points[-1])
        pump(min(watermarks))
    pump(INF)
    result = runtime.finish()

    busy = trace.busy()
    pump_s = busy["serve.engine.pump"]
    step_s = busy["runtime.runtime.step"]
    layers = layer_metrics(trace, runtime, result, stamps.merged_seqs,
                           guard_records=0, quarantined=0,
                           boundary_wall=step_s)
    layers.update({
        "serve.protocol.decode_s": busy["serve.protocol.decode"],
        "serve.protocol.decode_bytes": trace.counts["decode_bytes"],
        "serve.protocol.encode_s": busy["serve.protocol.encode"],
        "serve.protocol.encode_bytes": trace.counts.get("encode_bytes", 0),
        "serve.session.admit_s": busy["serve.session.admit"],
        "serve.engine.feed_s": busy["serve.engine.feed"],
        "serve.engine.pump_s": pump_s,
        "serve.engine.pump_self_s": pump_s - step_s,
        "serve.engine.pending_max": pending_max,
    })
    return layers, trace.as_json(origin), outputs
