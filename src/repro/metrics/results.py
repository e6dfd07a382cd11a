"""Run results: per-query outputs plus the paper's two metrics.

A detector run yields, for every output boundary of every member query, the
set of outlier point sequence numbers.  :class:`RunResult` bundles those
outputs with CPU and memory measurements; :func:`compare_outputs` is the
equivalence check the test suite applies across detectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .meters import CpuMeter, MemoryMeter

__all__ = ["OutputKey", "RunResult", "compare_outputs", "merge_work"]

#: (query index within the group, output boundary t)
OutputKey = Tuple[int, int]


@dataclass
class RunResult:
    """Everything a detector run produced.

    ``failed_shards`` is the loud partial-result marker: a sharded run
    that lost shards under the supervised backend's ``drop-and-flag``
    policy lists them here (and every merge propagates the union), so a
    degraded answer can never be confused with an exact one --
    :attr:`partial` is True and :meth:`summary` leads with the damage.
    """

    detector: str
    #: (query_idx, boundary) -> outlier seqs reported at that boundary
    outputs: Dict[OutputKey, FrozenSet[int]] = field(default_factory=dict)
    cpu: CpuMeter = field(default_factory=CpuMeter)
    memory: MemoryMeter = field(default_factory=MemoryMeter)
    boundaries: int = 0
    #: substrate-independent work counters (e.g. ``distance_rows``)
    work: Dict[str, int] = field(default_factory=dict)
    #: shards dropped by a degraded run; empty for every exact result
    failed_shards: Tuple[int, ...] = ()
    #: outlier reports tallied by a producer that kept no ``outputs``
    #: (a :class:`~repro.runtime.Runtime` built with
    #: ``keep_outputs=False``); None when ``outputs`` holds every report
    reports: Optional[int] = None

    # ------------------------------------------------------------ summaries

    @property
    def partial(self) -> bool:
        """True iff this result is missing failed shards' contributions."""
        return bool(self.failed_shards)

    @property
    def cpu_ms_per_window(self) -> float:
        return self.cpu.mean_ms_per_window

    @property
    def cpu_total_s(self) -> float:
        return self.cpu.total_seconds

    @property
    def peak_memory_units(self) -> int:
        return self.memory.peak_units

    @property
    def peak_memory_kb(self) -> float:
        return self.memory.peak_kb

    def work_stats_snapshot(self) -> Dict[str, int]:
        """Owned plain-dict copy of the merged work counters.

        The public way to read a finished run's counters (the ``/metrics``
        endpoint, benchmark reports, and the CLI summary all use it)
        instead of scraping the :attr:`work` attribute directly: the copy
        is safe to mutate or serialize, and missing counters read as 0
        via ``dict.get`` without aliasing the result's own state.
        """
        return dict(self.work)

    def total_outliers(self) -> int:
        """Total outlier reports across all queries and boundaries."""
        if self.reports is not None:
            return self.reports
        return sum(len(v) for v in self.outputs.values())

    def outliers_for_query(self, query_idx: int) -> Dict[int, FrozenSet[int]]:
        """boundary -> outliers, for one member query."""
        return {
            t: seqs for (qi, t), seqs in sorted(self.outputs.items())
            if qi == query_idx
        }

    def summary(self) -> str:
        flag = ""
        if self.failed_shards:
            lost = ",".join(str(s) for s in self.failed_shards)
            flag = f"PARTIAL (shard(s) {lost} failed) "
        return (
            f"{self.detector}: {flag}{self.boundaries} boundaries, "
            f"cpu={self.cpu_ms_per_window:.3f} ms/window "
            f"(total {self.cpu_total_s:.3f}s), "
            f"mem peak={self.peak_memory_units} units "
            f"({self.peak_memory_kb:.1f} KB), "
            f"outlier reports={self.total_outliers()}"
        )


def merge_work(dicts: "List[Dict[str, int]]") -> Dict[str, int]:
    """Key-wise sum of per-shard work counters.

    Every counter in ``work_stats()`` is additive (distance rows, kernel
    launches, scan/examination counts, refresh nanoseconds), so the
    workload-level total is the plain sum; merging a single dict
    reproduces it exactly.
    """
    out: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


def compare_outputs(
    a: Mapping[OutputKey, FrozenSet[int]],
    b: Mapping[OutputKey, FrozenSet[int]],
    limit: int = 10,
) -> List[str]:
    """Differences between two detectors' outputs (empty list = identical).

    Reports missing keys and, for shared keys, the symmetric difference of
    the outlier sets -- at most ``limit`` difference lines, so failing tests
    stay readable.
    """
    diffs: List[str] = []
    keys_a, keys_b = set(a), set(b)
    for key in sorted(keys_a - keys_b):
        diffs.append(f"only in first: query={key[0]} t={key[1]}")
        if len(diffs) >= limit:
            return diffs
    for key in sorted(keys_b - keys_a):
        diffs.append(f"only in second: query={key[0]} t={key[1]}")
        if len(diffs) >= limit:
            return diffs
    for key in sorted(keys_a & keys_b):
        if a[key] != b[key]:
            extra = sorted(a[key] - b[key])
            missing = sorted(b[key] - a[key])
            diffs.append(
                f"query={key[0]} t={key[1]}: first-only={extra[:8]} "
                f"second-only={missing[:8]}"
            )
            if len(diffs) >= limit:
                return diffs
    return diffs
