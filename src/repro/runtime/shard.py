"""ShardExecutor: one detector + one StreamExecutor over one shard.

A shard is a full, independent detection pipeline over its slice of the
stream: its own detector instance (window buffer, evidence, stats) driven
by its own :class:`~repro.engine.StreamExecutor` on the *global* swift
schedule.  The runtime steps every shard at every boundary -- including
boundaries where the shard received no points -- so shard windows stay
aligned and every due query reports from every shard.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Sequence

from ..core.point import Point
from ..engine.executor import StreamExecutor
from ..metrics.results import RunResult

__all__ = ["ShardExecutor"]


class ShardExecutor:
    """One shard's executor: detector, drive loop, and metered result
    (meters and work counters only -- the runtime merges the outputs
    each step returns, so the shard keeps none).

    A thin composition, deliberately: everything below the shard boundary
    is the classic single-executor stack, which is what makes the 1-shard
    runtime byte-identical to the pre-shard runtime.
    """

    def __init__(self, shard_id: int, detector):
        self.shard_id = shard_id
        self.detector = detector
        self.executor = StreamExecutor(detector)

    @property
    def result(self) -> RunResult:
        return self.executor.result

    def step(self, t: int, batch: Sequence[Point]
             ) -> Dict[int, FrozenSet[int]]:
        """Process one boundary on this shard (batch may be empty)."""
        return self.executor.step(t, batch)

    def finish(self) -> RunResult:
        """Finalize this shard's result (work counters)."""
        return self.executor.finish()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ShardExecutor(shard_id={self.shard_id}, "
                f"detector={self.detector.name!r})")
