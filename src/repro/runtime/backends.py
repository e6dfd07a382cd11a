"""Execution backends: where shard pipelines actually run.

The runtime is backend-agnostic: a :class:`Backend` decides whether the
per-shard executors run interleaved in this process
(:class:`SerialBackend`) or as one OS process per shard
(:class:`ProcessPoolBackend` / :class:`SupervisedProcessBackend`).  All
of them produce identical merged answers -- the backend only moves work,
never changes it -- except where a *supervised* backend is explicitly
configured to degrade (``on_shard_failure="drop-and-flag"``), in which
case the partial result is loudly marked (``RunResult.failed_shards``),
never passed off as exact.

* ``SerialBackend`` supports *stepping*: the runtime drives all shards
  boundary-synchronously, which enables live concerns (alert routing,
  periodic sharded checkpoints) and infinite streams via
  ``Runtime.step``.
* ``SupervisedProcessBackend`` runs each shard's finite stream end-to-end
  in a dedicated worker process under per-shard supervision: crash
  detection (worker exitcode *and* in-worker exception capture),
  per-shard deadline timeouts, bounded retry with exponential backoff,
  and a configurable failure policy.  Every shard is driven to the same
  explicit ``until`` boundary, so shard schedules agree even when a
  shard's slice ends early or is empty.  Workers rebuild the detector
  from the picklable ``(factory, group)`` pair; results (outputs +
  meters) come back over a per-worker pipe.
* ``ProcessPoolBackend`` is the supervised runner with the strictest
  policy (no retries, fail fast on the first worker loss) -- the
  historical "process" backend, now with real crash detection instead of
  a wholesale pool failure.  Its former single-task fast path is gone on
  purpose: one shard and N shards go through the identical supervised
  runner, so failure behavior never depends on the shard count.

Supervision state machine (per shard task)::

    PENDING --launch--> RUNNING --result--> OK
       ^                  |  |
       |       deadline / crash / exception
       |                  v
       +--backoff-- RETRYING --attempts exhausted--> FAILED
                                                        |
                              policy "fail"/"retry" -> raise ShardFailure
                              policy "drop-and-flag" -> placeholder result
                                                        (failed_shards)

Even on a single core the sharded run can beat the 1-shard run: the
skyband scans are superlinear in window population, so four half-empty
windows cost less CPU than one full one on outlier-bearing streams
(DESIGN.md section 9).
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.point import Point
from ..core.queries import QueryGroup
from ..engine.executor import StreamExecutor
from ..metrics.results import RunResult
from ..testing.faults import FaultInjector, FaultPlan

__all__ = [
    "Backend",
    "SerialBackend",
    "ProcessPoolBackend",
    "SupervisedProcessBackend",
    "ShardFailure",
    "make_backend",
]

#: payload of one shard task: (detector factory, workload, shard points,
#: final boundary)
ShardTask = Tuple[Callable[[QueryGroup], object], QueryGroup,
                  Sequence[Point], int]

#: failure policies of the supervised runner
FAILURE_POLICIES = ("fail", "retry", "drop-and-flag")


class ShardFailure(RuntimeError):
    """A shard exhausted its attempts; the run cannot produce an exact
    answer and the policy forbids degrading.

    Carries the failed ``shard_id`` so operators (and the chaos suite)
    can see exactly which partition died, plus the last failure cause.
    """

    def __init__(self, shard_id: int, attempts: int, cause: str):
        self.shard_id = shard_id
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"shard {shard_id} failed permanently after {attempts} "
            f"attempt(s): {cause}"
        )


def run_shard_task(task: ShardTask) -> RunResult:
    """Run one shard's finite stream end-to-end (in-process entrypoint).

    Module-level so ``multiprocessing`` can pickle it by reference; also
    the serial path, so every backend executes the same code per shard.
    """
    factory, group, points, until = task
    detector = factory(group)
    return StreamExecutor(detector).run(points, until=until)


def _supervised_shard_main(conn, task: ShardTask, shard_id: int,
                           attempt: int, plan: Optional[FaultPlan]) -> None:
    """Worker entrypoint of the supervised backend.

    Sends ``("ok", result)`` or ``("error", summary, traceback)`` back on
    ``conn``; a hard crash (injected ``os._exit``, OOM kill, signal)
    sends nothing and is detected by the supervisor via the process
    sentinel + exitcode.  ``plan``/``attempt`` wire the deterministic
    chaos harness into the worker: the same fault schedule that a test
    asserts against is what actually fires in the child process.
    """
    try:
        factory, group, points, until = task
        detector = factory(group)
        executor = StreamExecutor(detector)
        if plan is not None and plan.for_shard(shard_id):
            executor.subscribe(FaultInjector(plan, shard_id, attempt=attempt))
        result = executor.run(points, until=until)
        conn.send(("ok", result))
    except BaseException as exc:  # noqa: BLE001 - the whole point is capture
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - already closed
            pass


def failed_shard_result(shard_id: int) -> RunResult:
    """The loud placeholder a dropped shard contributes to the merge.

    Empty outputs, zero meters, and the shard listed in
    ``failed_shards`` -- :meth:`RunResult.partial` is True for it and for
    anything it is merged into, so a degraded answer can never be
    mistaken for an exact one.
    """
    return RunResult(detector="", failed_shards=(shard_id,),
                     work={"shard_failures": 1})


class Backend:
    """Strategy interface: execute a list of shard tasks to completion."""

    #: short name, matching ``DetectorConfig.backend``
    name = "backend"
    #: True if the runtime may drive this backend one boundary at a time
    #: (``Runtime.step``); False restricts it to finite ``Runtime.run``
    supports_stepping = False

    def run_tasks(self, tasks: Sequence[ShardTask]) -> List[RunResult]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SerialBackend(Backend):
    """All shards in this process.

    For ``Runtime.run`` the runtime prefers its boundary-synchronous
    stepping loop (live subscribers, checkpoints); ``run_tasks`` exists
    so the whole-stream path is also available serially (used as the
    process backend's oracle in tests).
    """

    name = "serial"
    supports_stepping = True

    def run_tasks(self, tasks: Sequence[ShardTask]) -> List[RunResult]:
        return [run_shard_task(task) for task in tasks]


class _Attempt:
    """One live worker attempt under supervision."""

    __slots__ = ("index", "attempt", "proc", "conn", "deadline_at",
                 "started")

    def __init__(self, index: int, attempt: int, proc, conn,
                 deadline: Optional[float]):
        self.index = index
        self.attempt = attempt
        self.proc = proc
        self.conn = conn
        self.started = time.monotonic()
        self.deadline_at = (self.started + deadline
                            if deadline is not None else None)


class SupervisedProcessBackend(Backend):
    """Per-shard task supervision over dedicated worker processes.

    Replaces the bare ``pool.map`` (which dies wholesale on a single
    worker failure) with a supervisor that watches every shard attempt
    individually:

    * **crash detection** -- a worker that exits without reporting a
      result (hard crash, signal, ``os._exit``) is detected via its
      process sentinel and exitcode; a worker that raises reports the
      exception and traceback back through its pipe;
    * **deadlines** -- ``deadline`` seconds per attempt; a stuck shard is
      terminated and treated as a failure;
    * **bounded retry** -- up to ``max_retries`` relaunches per shard
      with exponential backoff (``backoff * 2**attempt`` seconds);
    * **failure policy** -- ``on_failure``:

      - ``"fail"``: no retries; the first loss raises
        :class:`ShardFailure` naming the shard;
      - ``"retry"`` (default): retry, then raise :class:`ShardFailure`
        when attempts are exhausted;
      - ``"drop-and-flag"``: retry, then degrade -- the dead shard
        contributes :func:`failed_shard_result` and the merged
        :class:`~repro.metrics.results.RunResult` is loudly partial.

    ``fault_plan`` threads the deterministic chaos harness
    (:mod:`repro.testing.faults`) into the workers; ``report`` records
    every attempt's outcome for the CI chaos artifact.  ``processes``
    caps concurrent workers (default: one per shard, at most the core
    count).
    """

    name = "supervised"
    supports_stepping = False

    def __init__(self, processes: Optional[int] = None, *,
                 on_failure: str = "retry", max_retries: int = 2,
                 deadline: Optional[float] = None, backoff: float = 0.05,
                 fault_plan: Optional[FaultPlan] = None):
        if processes is not None and processes < 1:
            raise ValueError("processes must be >= 1")
        if on_failure not in FAILURE_POLICIES:
            raise ValueError(
                f"on_failure must be one of {FAILURE_POLICIES}, "
                f"got {on_failure!r}")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be positive (None = no deadline)")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.processes = processes
        self.on_failure = on_failure
        self.max_retries = max_retries
        self.deadline = deadline
        self.backoff = backoff
        self.fault_plan = FaultPlan.resolve(fault_plan)
        #: per-attempt outcome log of the last ``run_tasks`` call:
        #: dicts of (shard, attempt, outcome, detail, elapsed)
        self.report: List[Dict[str, object]] = []

    # ----------------------------------------------------------- internals

    def _context(self):
        import multiprocessing as mp

        try:
            return mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            return mp.get_context("spawn")

    def _launch(self, ctx, tasks, index: int, attempt: int) -> _Attempt:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_supervised_shard_main,
            args=(child_conn, tasks[index], index, attempt, self.fault_plan),
        )
        proc.start()
        child_conn.close()
        return _Attempt(index, attempt, proc, parent_conn, self.deadline)

    def _record(self, run: _Attempt, outcome: str, detail: str) -> None:
        self.report.append({
            "shard": run.index,
            "attempt": run.attempt,
            "outcome": outcome,
            "detail": detail,
            "elapsed_s": round(time.monotonic() - run.started, 6),
        })

    def _collect(self, run: _Attempt, expired: bool):
        """Outcome of a finished/expired attempt: ("ok", result) or
        ("crash"|"error"|"timeout", detail)."""
        message = None
        if run.conn.poll():
            try:
                message = run.conn.recv()
            except EOFError:
                message = None
        if message is not None:
            run.proc.join()
            run.conn.close()
            if message[0] == "ok":
                return "ok", message[1]
            return "error", f"{message[1]}\n{message[2]}"
        # no message: a stuck worker past its deadline, or a dead one
        # (a hard crash closes the pipe before the sentinel fires, so
        # "alive but EOF" still means dying -- join, don't kill)
        if expired and run.proc.is_alive():
            run.proc.terminate()
            run.proc.join()
            run.conn.close()
            return "timeout", (
                f"deadline of {self.deadline:g}s exceeded; worker killed")
        run.proc.join(timeout=5.0)
        if run.proc.is_alive():  # pragma: no cover - defensive
            run.proc.terminate()
            run.proc.join()
        run.conn.close()
        return "crash", (
            f"worker exited with code {run.proc.exitcode} without "
            "reporting a result")

    # ------------------------------------------------------------- running

    def run_tasks(self, tasks: Sequence[ShardTask]) -> List[RunResult]:
        from multiprocessing.connection import wait as _wait

        self.report = []
        if not tasks:
            return []
        ctx = self._context()
        n = len(tasks)
        cap = self.processes or min(n, max(1, os.cpu_count() or 1))
        retries_allowed = 0 if self.on_failure == "fail" else self.max_retries
        results: List[Optional[RunResult]] = [None] * n
        #: (index, attempt, earliest launch time)
        queue: List[Tuple[int, int, float]] = [(i, 0, 0.0) for i in range(n)]
        running: List[_Attempt] = []
        try:
            while queue or running:
                now = time.monotonic()
                # launch every due queued attempt while slots are free
                still_queued: List[Tuple[int, int, float]] = []
                for entry in queue:
                    if len(running) < cap and entry[2] <= now:
                        running.append(
                            self._launch(ctx, tasks, entry[0], entry[1]))
                    else:
                        still_queued.append(entry)
                queue = still_queued
                if not running:
                    # everything queued is backing off; sleep to the
                    # earliest launch time
                    time.sleep(max(0.0, min(e[2] for e in queue) -
                                   time.monotonic()) or 0.001)
                    continue
                # wait for a result, a death, or the nearest deadline
                timeout = 0.5
                for run in running:
                    if run.deadline_at is not None:
                        timeout = min(timeout, max(0.0, run.deadline_at - now))
                handles = []
                for run in running:
                    handles.append(run.conn)
                    handles.append(run.proc.sentinel)
                ready = set(_wait(handles, timeout))
                now = time.monotonic()
                finished: List[Tuple[_Attempt, bool]] = []
                for run in running:
                    expired = (run.deadline_at is not None
                               and now >= run.deadline_at)
                    if (run.conn in ready or run.proc.sentinel in ready
                            or expired):
                        finished.append((run, expired))
                for run, expired in finished:
                    running.remove(run)
                    outcome, payload = self._collect(run, expired)
                    if outcome == "ok":
                        self._record(run, "ok", "")
                        results[run.index] = payload
                        continue
                    self._record(run, outcome, str(payload))
                    if run.attempt < retries_allowed:
                        delay = self.backoff * (2 ** run.attempt)
                        queue.append(
                            (run.index, run.attempt + 1, now + delay))
                    elif self.on_failure == "drop-and-flag":
                        results[run.index] = failed_shard_result(run.index)
                    else:
                        raise ShardFailure(run.index, run.attempt + 1,
                                           str(payload))
        finally:
            for run in running:
                if run.proc.is_alive():
                    run.proc.terminate()
                run.proc.join()
                run.conn.close()
        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(on_failure={self.on_failure!r}, "
                f"max_retries={self.max_retries}, "
                f"deadline={self.deadline})")


class ProcessPoolBackend(SupervisedProcessBackend):
    """One worker process per shard, failing fast on the first loss.

    The historical "process" backend, now routed through the supervised
    runner: identical results on the happy path, but a worker crash is
    detected per shard (and named) instead of wedging or killing the
    whole pool, and the 1-shard case runs under the exact same
    supervision as the N-shard case.
    """

    name = "process"

    def __init__(self, processes: Optional[int] = None):
        super().__init__(processes=processes, on_failure="fail",
                         max_retries=0, deadline=None, backoff=0.0)


def make_backend(spec, config=None) -> Backend:
    """Resolve a backend name (or pass an instance through).

    ``config`` (a :class:`~repro.engine.DetectorConfig`) supplies the
    supervised backend's policy knobs -- failure policy, retry budget,
    deadline, backoff, and the fault plan -- so the CLI and tests
    configure chaos scenarios through the one config record.
    """
    if isinstance(spec, Backend):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "process":
        return ProcessPoolBackend()
    if spec == "supervised":
        if config is None:
            return SupervisedProcessBackend()
        return SupervisedProcessBackend(
            on_failure=config.on_shard_failure,
            max_retries=config.max_shard_retries,
            deadline=config.shard_deadline or None,
            backoff=config.retry_backoff,
            fault_plan=FaultPlan.resolve(config.fault_plan),
        )
    raise ValueError(
        f"unknown backend {spec!r} (expected serial|process|supervised)")
