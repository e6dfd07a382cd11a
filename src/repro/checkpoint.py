"""Detector checkpoints: suspend and resume a streaming deployment.

A long-running monitor must survive restarts without losing its window.
Because every detector's answers are a pure function of (workload, live
window, boundary position), a checkpoint needs exactly three things:

* the workload spec (so the restored detector answers the same queries);
* the retained window points;
* the last processed boundary.

Per-point evidence (skybands, neighbor lists) is deliberately *not*
serialized: it is rebuilt by the detector's normal refresh on the first
boundary after restore, which keeps the format tiny, versionable, and
valid across algorithm/implementation upgrades.

The detector's :class:`~repro.engine.DetectorConfig` (ablation switches,
metric, tuning knobs) *is* serialized when the detector carries one: a
checkpoint restored into a differently-configured detector would silently
diverge in CPU/memory accounting, so :func:`load_checkpoint` restores the
saved config by default and fails loudly on a mismatch when a custom
factory builds a detector with a different config.

Format: a JSON header line followed by one JSON line per retained point.
The header carries the point count, and every write is atomic (temp file
in the same directory + fsync + rename): a crash mid-write can neither
replace a good checkpoint with a torn one nor leave a truncated file
that restores short -- :func:`load_checkpoint` fails loudly, naming the
file, when the body disagrees with the promised count.

Periodic checkpointing is an executor concern: :class:`CheckpointSubscriber`
listens to ``on_boundary_end`` and rewrites the file every ``interval``
boundaries; :class:`CheckpointedRun` is the legacy facade over a
:class:`~repro.engine.StreamExecutor` with that subscriber attached.

Sharded runtimes checkpoint as *one manifest* plus one per-shard segment
file (each segment is a classic checkpoint of that shard's detector, so
the format above is reused verbatim).  The manifest pins the shard count
and the partitioner's learned bounds; restoring with a different shard
count fails loudly, because per-shard windows cannot be re-split without
replaying the stream.  :func:`save_sharded_checkpoint` /
:func:`load_sharded_checkpoint` are the one-shot pair and
:class:`ShardedCheckpointSubscriber` is the periodic runtime subscriber.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .core.point import Point
from .core.queries import OutlierQuery, QueryGroup
from .engine.config import DetectorConfig
from .engine.executor import ExecutorSubscriber, StreamExecutor
from .streams.windows import COUNT, TIME, WindowSpec

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_sharded_checkpoint",
    "load_sharded_checkpoint",
    "CheckpointSubscriber",
    "CheckpointedRun",
    "ShardedCheckpointSubscriber",
]

PathLike = Union[str, Path]

_FORMAT_VERSION = 1


def _atomic_write_lines(path: Path, lines: Iterable[str]) -> None:
    """Crash-safe file write: temp file in the same directory + fsync +
    atomic rename.

    A crash at any instant leaves either the previous file intact or the
    complete new one -- never a half-written target.  The fsync before
    the rename matters: without it the rename can land on disk before
    the data, and a power loss yields exactly the torn file the rename
    was supposed to prevent.
    """
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        for line in lines:
            fh.write(line)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def save_checkpoint(detector, last_boundary: int, path: PathLike) -> int:
    """Write a checkpoint for a detector after boundary ``last_boundary``.

    Works for any detector exposing ``group`` and a ``buffer`` of live
    points (all detectors in this package).  Returns the number of points
    saved.

    The write is atomic (temp file + fsync + rename) and the header
    records the point count, so a torn file can neither replace a good
    checkpoint nor be silently restored short: :func:`load_checkpoint`
    fails loudly when the body does not match the promised count.
    """
    group = detector.group
    buffer = getattr(detector, "buffer", None)
    if buffer is None:
        raise TypeError(
            f"{type(detector).__name__} has no window buffer to checkpoint"
        )
    points = list(buffer.points)
    header = {
        "version": _FORMAT_VERSION,
        "detector": detector.name,
        "last_boundary": int(last_boundary),
        "kind": group.kind,
        "queries": [
            {
                "r": q.r, "k": q.k, "win": q.win, "slide": q.slide,
                "name": q.name,
                **({"attributes": list(q.attributes)}
                   if q.attributes is not None else {}),
            }
            for q in group.queries
        ],
    }
    header["points"] = len(points)
    config = getattr(detector, "config", None)
    if isinstance(config, DetectorConfig):
        header["config"] = config.as_dict()
    lines = [json.dumps(header) + "\n"]
    for p in points:
        lines.append(json.dumps(
            {"seq": p.seq, "time": p.time, "values": list(p.values)}
        ) + "\n")
    _atomic_write_lines(Path(path), lines)
    return len(points)


def load_checkpoint(
    path: PathLike,
    factory: Optional[Callable[[QueryGroup], object]] = None,
    allow_config_mismatch: bool = False,
) -> Tuple[object, int]:
    """Restore ``(detector, last_boundary)`` from a checkpoint file.

    ``factory`` builds the detector from the restored workload.  The
    default builds an :class:`~repro.core.sop.SOPDetector` with the
    checkpoint's saved :class:`~repro.engine.DetectorConfig`, so ablation
    switches survive the restart.  Restoring into a different
    implementation (e.g. MCOD) is explicitly supported, since evidence is
    rebuilt -- but if the factory-built detector carries a config that
    differs from the saved one, the restore fails loudly (pass
    ``allow_config_mismatch=True`` for a deliberate reconfiguration).
    """
    with open(path) as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: malformed checkpoint header") from exc
        if header.get("sharded"):
            raise ValueError(
                f"{path} is a sharded checkpoint manifest; restore it "
                "with load_sharded_checkpoint"
            )
        if header.get("version") != _FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported checkpoint version "
                f"{header.get('version')!r}"
            )
        kind = header.get("kind", COUNT)
        if kind not in (COUNT, TIME):
            raise ValueError(f"{path}: bad window kind {kind!r}")
        saved_config: Optional[DetectorConfig] = None
        if "config" in header:
            try:
                saved_config = DetectorConfig.from_dict(header["config"])
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"{path}: malformed detector config"
                ) from exc
        queries = [
            OutlierQuery(
                r=float(e["r"]), k=int(e["k"]),
                window=WindowSpec(win=int(e["win"]), slide=int(e["slide"]),
                                  kind=kind),
                name=str(e.get("name", "")),
                attributes=(tuple(e["attributes"])
                            if "attributes" in e else None),
            )
            for e in header["queries"]
        ]
        points = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                points.append(Point(
                    seq=int(obj["seq"]), time=float(obj["time"]),
                    values=tuple(float(v) for v in obj["values"]),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed point") from exc
        expected = header.get("points")
        if expected is not None and len(points) != int(expected):
            raise ValueError(
                f"{path}: truncated checkpoint: header promises "
                f"{expected} point(s), file holds {len(points)}"
            )
    group = QueryGroup(queries)
    if factory is None:
        from .core.sop import SOPDetector

        detector = (SOPDetector(group, config=saved_config)
                    if saved_config is not None else SOPDetector(group))
    else:
        detector = factory(group)
        restored_config = getattr(detector, "config", None)
        if (saved_config is not None
                and isinstance(restored_config, DetectorConfig)
                and restored_config != saved_config
                and not allow_config_mismatch):
            diff = saved_config.diff(restored_config)
            raise ValueError(
                f"{path}: detector config mismatch at restore "
                f"(checkpoint vs factory): {diff}; pass "
                "allow_config_mismatch=True to reconfigure deliberately"
            )
    if points:
        detector.warm_start(points)
    return detector, int(header["last_boundary"])


class CheckpointSubscriber(ExecutorSubscriber):
    """Executor subscriber that persists the detector periodically.

    ``interval`` counts processed boundaries between checkpoint writes;
    :func:`save_checkpoint` is atomic (temp file + fsync + rename), so a
    crash at any moment leaves the previous complete checkpoint intact.
    """

    def __init__(self, path: PathLike, interval: int = 10):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.path = Path(path)
        self.interval = interval
        self._since = 0
        self.checkpoints_written = 0

    def on_boundary_end(self, t, outputs) -> None:
        self._since += 1
        if self._since >= self.interval:
            save_checkpoint(self.executor.detector, t, self.path)
            self.checkpoints_written += 1
            self._since = 0


class CheckpointedRun:
    """Drive a detector with periodic checkpoints.

    Legacy facade: a :class:`~repro.engine.StreamExecutor` with a
    :class:`CheckpointSubscriber` attached.  ``step`` keeps the historical
    call signature; ``run`` processes a finite stream end-to-end with the
    executor's metering.
    """

    def __init__(self, detector, path: PathLike, interval: int = 10):
        self.detector = detector
        self.subscriber = CheckpointSubscriber(path, interval)
        self.executor = StreamExecutor(detector, [self.subscriber])
        self.path = self.subscriber.path
        self.interval = interval

    @property
    def checkpoints_written(self) -> int:
        return self.subscriber.checkpoints_written

    def step(self, t: int, batch):
        return self.executor.step(t, batch)

    def run(self, points, until: Optional[int] = None):
        """Process a finite stream end-to-end, checkpointing as it goes."""
        return self.executor.run(points, until=until)


# --------------------------------------------------------------------------
# sharded checkpoints: one manifest + one classic segment per shard
# --------------------------------------------------------------------------


def _segment_path(manifest: Path, shard_id: int) -> Path:
    return manifest.with_name(f"{manifest.name}.shard{shard_id}")


def _manifest_dict(runtime, last_boundary: int,
                   segments: List[str]) -> dict:
    part = runtime.partitioner
    return {
        "version": _FORMAT_VERSION,
        "sharded": True,
        "shards": runtime.n_shards,
        "last_boundary": int(last_boundary),
        "partitioner": {
            "axis": part.axis,
            "radius": part.radius,
            "bounds": list(part.bounds) if part.bounds is not None else None,
        },
        "segments": segments,
    }


def save_sharded_checkpoint(runtime, last_boundary: int,
                            path: PathLike) -> int:
    """Checkpoint a sharded runtime: manifest at ``path`` + shard segments.

    Each shard's detector is saved with the classic :func:`save_checkpoint`
    into ``<path>.shard<i>``; the manifest records shard count, the
    partitioner geometry (axis, radius, learned bounds), and the segment
    file names.  Returns the total points saved (border replicas counted
    once per holding shard, as stored).

    Every file write is atomic, and the manifest lands last: a crash at
    any instant leaves the previous manifest pointing at
    previous-or-newer complete segments -- always a restorable state.

    Requires live shard executors, i.e. a serial-backend runtime -- the
    process backend runs shards inside workers and cannot be checkpointed
    mid-stream.
    """
    manifest_path = Path(path)
    shards = runtime.shards  # raises loudly for non-steppable backends
    total = 0
    segments: List[str] = []
    for shard in shards:
        seg = _segment_path(manifest_path, shard.shard_id)
        total += save_checkpoint(shard.detector, last_boundary, seg)
        segments.append(seg.name)
    _atomic_write_lines(manifest_path, [json.dumps(
        _manifest_dict(runtime, last_boundary, segments)) + "\n"])
    return total


def load_sharded_checkpoint(
    path: PathLike,
    factory: Optional[Callable[[QueryGroup], object]] = None,
    shards: Optional[int] = None,
    backend=None,
    allow_config_mismatch: bool = False,
):
    """Restore ``(runtime, last_boundary)`` from a sharded manifest.

    Every segment is restored with :func:`load_checkpoint` (same factory
    and config-mismatch semantics), the partitioner geometry comes back
    from the manifest, and point ownership is recomputed -- the runtime
    resumes exactly where the checkpointed one stopped.

    The shard count is part of the persisted state: per-shard windows
    cannot be re-split without replaying the stream, so passing ``shards``
    different from the manifest's fails loudly rather than resuming with
    silently wrong partitions.
    """
    from .runtime import Runtime, StreamPartitioner

    manifest_path = Path(path)
    with open(manifest_path) as fh:
        try:
            manifest = json.loads(fh.readline())
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: malformed sharded checkpoint manifest"
            ) from exc
    if not manifest.get("sharded"):
        raise ValueError(
            f"{path} is not a sharded checkpoint manifest; restore it "
            "with load_checkpoint"
        )
    if manifest.get("version") != _FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version "
            f"{manifest.get('version')!r}"
        )
    n_shards = int(manifest["shards"])
    segments = manifest["segments"]
    if len(segments) != n_shards:
        raise ValueError(
            f"{path}: manifest lists {len(segments)} segment(s) for "
            f"{n_shards} shard(s)"
        )
    if shards is not None and int(shards) != n_shards:
        raise ValueError(
            f"{path}: checkpoint has {n_shards} shard(s) but the restore "
            f"requested {shards}; shard count cannot change across a "
            "restore (re-split requires replaying the stream)"
        )
    detectors = []
    boundaries = set()
    for name in segments:
        detector, seg_boundary = load_checkpoint(
            manifest_path.with_name(name), factory=factory,
            allow_config_mismatch=allow_config_mismatch,
        )
        detectors.append(detector)
        boundaries.add(seg_boundary)
    last_boundary = int(manifest["last_boundary"])
    if boundaries - {last_boundary}:
        raise ValueError(
            f"{path}: segment boundaries {sorted(boundaries)} disagree "
            f"with manifest boundary {last_boundary}"
        )
    geo = manifest.get("partitioner", {})
    radius = float(geo.get("radius", 0.0))
    partitioner = StreamPartitioner(
        n_shards, radius,
        bounds=tuple(geo["bounds"]) if geo.get("bounds") else None,
        axis=int(geo.get("axis", 0)),
    )
    group = detectors[0].group
    config = getattr(detectors[0], "config", None)
    runtime = Runtime(
        group,
        factory=factory,
        config=config if isinstance(config, DetectorConfig) else None,
        shards=n_shards,
        backend=backend,
        partitioner=partitioner,
    )
    runtime.adopt_shards(detectors)
    runtime.last_boundary = last_boundary
    return runtime, last_boundary


class ShardedCheckpointSubscriber:
    """Runtime subscriber persisting the whole shard set periodically.

    The sharded analogue of :class:`CheckpointSubscriber`: every
    ``interval`` boundaries :func:`save_sharded_checkpoint` rewrites all
    shard segments and then the manifest, each write atomic (temp file +
    fsync + rename, manifest last), so a crash at any moment leaves a
    consistent previous manifest pointing at previous-or-newer complete
    segments.  Attach to a :class:`~repro.runtime.Runtime` with
    ``subscribe``.
    """

    def __init__(self, path: PathLike, interval: int = 10):
        if interval < 1:
            raise ValueError("interval must be >= 1")
        self.path = Path(path)
        self.interval = interval
        self.runtime = None
        self._since = 0
        self.checkpoints_written = 0

    def on_attach(self, runtime) -> None:
        self.runtime = runtime

    def on_boundary_end(self, t, outputs) -> None:
        self._since += 1
        if self._since < self.interval:
            return
        save_sharded_checkpoint(self.runtime, t, self.path)
        self.checkpoints_written += 1
        self._since = 0

    def on_stream_end(self, result) -> None:
        """Stream ended; nothing to flush (checkpoints are periodic)."""
