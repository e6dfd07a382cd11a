"""DetectorConfig: one record for every ablation switch and tuning knob.

Before this existed, the ablation flags (``eager``, ``use_safe_inliers``,
``use_least_examination``) and the metric/chunking knobs were loose
keyword arguments that each layer of the system re-spelled: the API
hard-coded defaults, the CLI exposed none of them, dynamic rebuilds
forwarded an opaque kwargs dict, and checkpoints dropped them entirely --
a restored detector silently ran with default switches.  :class:`DetectorConfig` is the single source of truth
those layers now share; it is JSON-serializable so checkpoints can persist
it and fail loudly on mismatch at restore.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional

from ..core.point import DistanceMetric, available_metrics

__all__ = ["DetectorConfig"]


@dataclass(frozen=True)
class DetectorConfig:
    """Immutable configuration of a (SOP-family) detector.

    ``metric`` accepts a registered metric name or a
    :class:`~repro.core.point.DistanceMetric` instance; instances are
    normalized to their registered name so configs compare and serialize
    by value.
    """

    metric: str = "euclidean"
    chunk_size: int = 256
    #: refresh skybands at every swift boundary (False: only at boundaries
    #: where some member query is due)
    eager: bool = True
    use_safe_inliers: bool = True
    use_least_examination: bool = True
    #: number of value-partitioned shards the runtime drives (1 = the
    #: classic single-executor path, byte-identical to pre-shard runs)
    shards: int = 1
    #: shard execution backend: "serial" steps every shard in-process and
    #: boundary-synchronously; "process" runs one worker process per shard
    #: (fail-fast); "supervised" adds per-shard crash detection, deadlines,
    #: bounded retry, and the configurable degraded mode below
    backend: str = "serial"
    #: border-replication radius of the value partitioner; 0.0 means
    #: "auto": use the workload's r_max, the smallest exact choice
    replication_radius: float = 0.0
    #: supervised backend policy when a shard exhausts its attempts:
    #: "fail" (no retries, first loss raises), "retry" (bounded retries,
    #: then raise), or "drop-and-flag" (degrade: the merged result is
    #: loudly marked partial via ``RunResult.failed_shards``)
    on_shard_failure: str = "retry"
    #: relaunch budget per shard after the initial attempt (supervised)
    max_shard_retries: int = 2
    #: per-attempt wall-clock deadline in seconds; 0.0 = no deadline
    shard_deadline: float = 0.0
    #: base of the exponential retry backoff (seconds): attempt ``a``
    #: waits ``retry_backoff * 2**a`` before relaunching
    retry_backoff: float = 0.05
    #: route ingest through :class:`~repro.streams.source.IngestGuard`:
    #: poison records (NaN/inf coordinates, seq/time regressions, arity
    #: mismatches) are quarantined to a counted side channel instead of
    #: corrupting window state
    validate_ingest: bool = False
    #: the stream's dimensionality, enforced by that guard (``expect_dim``);
    #: None learns it from the first admitted record -- which then also
    #: fixes the seq high-water mark, so a wrong-arity record arriving
    #: first would be admitted and every clean record after it refused
    ingest_dim: Optional[int] = None
    #: deterministic chaos schedule (inline JSON or a path to a JSON
    #: file, resolved by :meth:`repro.testing.faults.FaultPlan.resolve`);
    #: None disables fault injection -- production default
    fault_plan: Optional[str] = None
    #: first-tier inlier screen ahead of the exact K-SKY refresh
    #: (see :mod:`repro.core.prefilter`): "none" disables screening;
    #: "qn" prunes only points *provably* k-satisfied for every
    #: registered query, anchoring on a windowed Qn/MAD robust-scale
    #: estimate -- outputs are byte-identical to "none".  Each shard of a
    #: sharded runtime screens its own window; the ``prefilter_*``
    #: counters merge additively.
    prefilter: str = "none"

    _BACKENDS = ("serial", "process", "supervised")
    _FAILURE_POLICIES = ("fail", "retry", "drop-and-flag")
    _PREFILTERS = ("none", "qn")
    #: metrics the prefilter's ball certification is sound for (the
    #: screen relies on the triangle inequality; a custom registered
    #: distance need not satisfy it)
    _PREFILTER_METRICS = ("euclidean", "manhattan", "chebyshev")

    def __post_init__(self):
        if (isinstance(self.metric, DistanceMetric)
                and self.metric.name in available_metrics()):
            object.__setattr__(self, "metric", self.metric.name)
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.backend not in self._BACKENDS:
            raise ValueError(
                f"backend must be one of {self._BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.replication_radius < 0:
            raise ValueError("replication_radius must be >= 0")
        if self.on_shard_failure not in self._FAILURE_POLICIES:
            raise ValueError(
                f"on_shard_failure must be one of {self._FAILURE_POLICIES}, "
                f"got {self.on_shard_failure!r}"
            )
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries must be >= 0")
        if self.shard_deadline < 0:
            raise ValueError("shard_deadline must be >= 0 (0 = no deadline)")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if self.ingest_dim is not None and self.ingest_dim < 1:
            raise ValueError("ingest_dim must be >= 1 (None = learned)")
        if self.prefilter not in self._PREFILTERS:
            raise ValueError(
                f"prefilter must be one of {self._PREFILTERS}, "
                f"got {self.prefilter!r}"
            )
        if self.prefilter != "none":
            if not self.use_safe_inliers:
                raise ValueError(
                    "prefilter requires use_safe_inliers=True: certified "
                    "prunes commit through the fully-safe machinery"
                )
            if self.metric not in self._PREFILTER_METRICS:
                raise ValueError(
                    f"prefilter requires a triangle-inequality metric "
                    f"{self._PREFILTER_METRICS}, got {self.metric!r}; "
                    f"use prefilter='none' with custom metrics"
                )

    # -------------------------------------------------------- serialization

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (checkpoint headers, reports)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectorConfig":
        """Inverse of :meth:`as_dict`; unknown keys fail loudly.

        Upgrade on read: older headers carry four retired keys
        (``skyband_impl``, ``use_batched_refresh``, ``refresh_strategy``,
        ``batch_min_rows``).  Each only ever chose how the K-SKY scans
        were launched, every value of each was output-identical, and
        there is one launch shape now -- so they are dropped and the
        checkpoint resumes bit-exact.  The retired inexact screen mode
        goes the same way: ``prefilter_mode`` is dropped whatever its
        value (exact outputs are a superset of the old fast mode's, so a
        fast checkpoint resumes reporting the true set), and the retired
        ``prefilter: "sensitivity"`` screen reads as ``"qn"`` (both exact
        screens are output-identical to ``"none"``).
        """
        data = dict(data)
        for retired in ("skyband_impl", "use_batched_refresh",
                        "refresh_strategy", "batch_min_rows",
                        "prefilter_mode"):
            data.pop(retired, None)
        if data.get("prefilter") == "sensitivity":
            data["prefilter"] = "qn"
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown DetectorConfig field(s): {sorted(unknown)}"
            )
        return cls(**data)

    def replace(self, **changes) -> "DetectorConfig":
        """A copy with the given fields changed."""
        return replace(self, **changes)

    def diff(self, other: "DetectorConfig") -> Dict[str, Any]:
        """Field-by-field differences as ``{field: (self, other)}``."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if a != b:
                out[f.name] = (a, b)
        return out
