"""CPU and memory meters matching the paper's evaluation metrics (Sec. 6.1).

The paper reports two metrics per experiment:

* **CPU time per window** -- "the total amount of system time resources
  used to process the queries on the data in one window", averaged over
  all windows.  :class:`CpuMeter` meters the wall-clock time of each
  processed boundary as running totals (pure-Python detectors are
  single-threaded and CPU-bound, so wall time tracks CPU time).
* **Peak memory (MEM)** -- "the memory required to store the information
  for each active object (i.e. the skyband points) and the outliers".
  Measuring Python-object RSS would mostly measure interpreter overhead,
  so detectors report *evidence units*: the number of stored evidence
  entries (skyband entries for SOP, neighbor-list entries for MCOD,
  evidence neighbors for LEAP) plus per-tracked-point overhead.
  :class:`MemoryMeter` keeps the peak and converts units to estimated
  bytes with the cost model below.
"""

from __future__ import annotations

import time
from typing import Sequence

__all__ = ["CpuMeter", "MemoryMeter", "EVIDENCE_ENTRY_BYTES", "POINT_STATE_BYTES"]

#: cost model: one evidence entry ~ (neighbor id + position + layer/distance)
EVIDENCE_ENTRY_BYTES = 24
#: cost model: fixed bookkeeping per tracked point per structure
POINT_STATE_BYTES = 48


class CpuMeter:
    """Per-boundary processing time as running totals: sum, count, max.

    Nothing grows with the stream -- a long-lived service meters every
    boundary for as long as it runs.
    """

    def __init__(self) -> None:
        self.total_ns: int = 0
        #: boundaries metered
        self.count: int = 0
        self.max_ns: int = 0
        #: the most recent boundary's time
        self.last_ns: int = 0
        self._started_at: int = 0

    def start(self) -> None:
        self._started_at = time.perf_counter_ns()

    def stop(self) -> None:
        self.add(time.perf_counter_ns() - self._started_at)

    def add(self, ns: int) -> None:
        """Meter one boundary that took ``ns`` nanoseconds."""
        self.total_ns += ns
        self.count += 1
        self.last_ns = ns
        if ns > self.max_ns:
            self.max_ns = ns

    @property
    def total_seconds(self) -> float:
        return self.total_ns / 1e9

    @property
    def mean_ms_per_window(self) -> float:
        """Average processing time per window in milliseconds (paper's CPU)."""
        if not self.count:
            return 0.0
        return self.total_ns / self.count / 1e6

    @property
    def max_ms(self) -> float:
        return self.max_ns / 1e6

    def __len__(self) -> int:
        return self.count

    @classmethod
    def merge(cls, meters: Sequence["CpuMeter"]) -> "CpuMeter":
        """Combine per-shard meters of one boundary schedule.

        The total is the sum and the count the longest meter's (a shard
        that joined late metered fewer boundaries), so the mean is the
        CPU spent per boundary across shards.  Which boundary each
        shard's maximum fell on is not kept, so the merged maximum is the
        sum of the shards' maxima: an upper bound on the costliest
        boundary (a stepping :class:`~repro.runtime.Runtime` meters its
        own boundary-aligned sums instead).  Merging a single meter
        reproduces it exactly.
        """
        out = cls()
        for m in meters:
            out.total_ns += m.total_ns
            out.count = max(out.count, m.count)
            out.max_ns += m.max_ns
        return out


class MemoryMeter:
    """Tracks peak evidence units and converts them to estimated bytes."""

    def __init__(self) -> None:
        self.peak_units: int = 0
        self.peak_points: int = 0
        self.last_units: int = 0

    def sample(self, units: int, tracked_points: int = 0) -> None:
        self.last_units = units
        if units > self.peak_units:
            self.peak_units = units
        if tracked_points > self.peak_points:
            self.peak_points = tracked_points

    @property
    def peak_bytes(self) -> int:
        return (self.peak_units * EVIDENCE_ENTRY_BYTES
                + self.peak_points * POINT_STATE_BYTES)

    @property
    def peak_kb(self) -> float:
        return self.peak_bytes / 1024.0

    @classmethod
    def merge(cls, meters: Sequence["MemoryMeter"]) -> "MemoryMeter":
        """Combine per-shard meters by summing peaks.

        Per-shard peaks need not coincide in time, so the sum is an upper
        bound on the true simultaneous peak -- the honest number for
        capacity planning (every shard must be provisioned for its own
        peak).  Merging a single meter reproduces it exactly.
        """
        out = cls()
        out.peak_units = sum(m.peak_units for m in meters)
        out.peak_points = sum(m.peak_points for m in meters)
        out.last_units = sum(m.last_units for m in meters)
        return out
