"""Merger: exact cross-shard combination of outputs and meters.

Border replication means a point can be evaluated by several shards, but
only its *owner* shard holds the point's complete neighborhood (see
``repro.runtime.partitioner``); verdicts from replica shards may
over-report outliers and must be discarded.  The merger applies that
ownership filter -- each shard's verdicts minus the replicas it holds, a
set difference -- and unions what remains -- the exact workload answer --
and combines the per-shard meters with the additive merges the metrics
layer provides (:meth:`CpuMeter.merge`, :meth:`MemoryMeter.merge`,
:func:`~repro.metrics.results.merge_work`).

With one shard the ownership filter keeps everything and every merge is
a sum over one element, so the merged result equals the shard's own --
the identity the 1-shard oracle tests pin down.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Dict, FrozenSet, Hashable, List, Mapping, Optional, Sequence

from ..metrics.meters import CpuMeter, MemoryMeter
from ..metrics.results import OutputKey, RunResult, merge_work

__all__ = ["Merger"]

Outputs = Dict[int, FrozenSet[int]]

_EMPTY: FrozenSet[int] = frozenset()


class Merger:
    """Combines per-shard outputs/results under per-shard replica sets.

    ``replicas[s]`` holds the seqs shard ``s`` received as a border
    replica -- routed to it, owned by another shard; the runtime adds
    each batch's replicas as the partitioner routes it (:meth:`add`) and
    drops those a shard has expired (:meth:`forget_before`).  A shard's
    verdicts are its outputs minus its replicas: one set difference per
    shard and query, no per-seq lookup.  Seqs a shard reports outside its
    replica set (its own points, or points preloaded by a legacy restore)
    are kept.
    """

    def __init__(self, n_shards: int = 1):
        self.replicas: List[set] = [set() for _ in range(n_shards)]
        #: each shard's replica seqs in routing (= seq) order, one list
        #: per routed batch: expiry drops a prefix
        self._routed: List[deque] = [deque() for _ in range(n_shards)]

    def add(self, replicas: Sequence[Sequence[int]]) -> None:
        """Record one routed batch's replicas (``replicas[s]``: the seqs
        shard ``s`` received without owning them, ascending)."""
        for held, routed, seqs in zip(self.replicas, self._routed, replicas):
            if seqs:
                held.update(seqs)
                routed.append(seqs)

    def forget_before(self, shard: int, oldest: Optional[int]) -> None:
        """Drop shard ``shard``'s replicas older than ``oldest``, its
        oldest buffered seq (``None``: it buffers nothing).  A shard only
        reports points in its window, so it never reports them again."""
        held, routed = self.replicas[shard], self._routed[shard]
        while routed:
            seqs = routed[0]
            if oldest is not None and seqs[-1] >= oldest:
                cut = bisect_left(seqs, oldest)
                if cut:
                    held.difference_update(seqs[:cut])
                    routed[0] = seqs[cut:]
                return
            held.difference_update(seqs)
            routed.popleft()

    def _union(self, per_shard: Sequence[Mapping[Hashable, FrozenSet[int]]]
               ) -> Dict[Hashable, FrozenSet[int]]:
        """Per key, the union of every shard's seqs minus its replicas:
        one ``frozenset.union`` over the shards' differences."""
        parts: Dict[Hashable, list] = {}
        replicas = self.replicas
        for s, outputs in enumerate(per_shard):
            held = replicas[s] if s < len(replicas) else None
            for key, seqs in outputs.items():
                part = seqs - held if held else seqs
                bucket = parts.get(key)
                if bucket is None:
                    parts[key] = [part]
                else:
                    bucket.append(part)
        return {key: _EMPTY.union(*sets) if len(sets) > 1 else sets[0]
                for key, sets in parts.items()}

    # ------------------------------------------------------------- outputs

    def merge_boundary(self, per_shard: Sequence[Outputs]) -> Outputs:
        """One boundary's merged outputs: each shard's verdicts cut down
        to the seqs it does not hold as replicas, then unioned per query.

        The key set is the union across shards, so a shard that received
        no points still contributes its (empty) due-query verdicts and
        the merged boundary reports every due query exactly once.  One
        shard never holds replicas: its outputs are the merged ones.
        """
        if len(per_shard) == 1 and not self.replicas[0]:
            return per_shard[0]
        return self._union(per_shard)

    # ------------------------------------------------------------- results

    def merge_results(self, results: Sequence[RunResult]) -> RunResult:
        """Combine finished per-shard results into the workload answer.

        Meters and work counters are summed; outputs are ownership-filtered
        and unioned per ``(query, boundary)`` key.  Only whole-stream
        workers (``Backend.run_tasks``) return outputs -- a stepped shard
        keeps none, and the stepping runtime hands its own merged history
        to the result instead.

        Failed-shard flags propagate as a union: if any input is a
        degraded placeholder (``failed_shards`` non-empty, see
        ``repro.runtime.backends.failed_shard_result``), the merged
        result is loudly partial too -- the flag can only spread, never
        silently disappear, across merges.
        """
        if not results:
            raise ValueError("merge_results needs at least one shard result")
        outputs: Dict[OutputKey, FrozenSet[int]] = self._union(
            [r.outputs for r in results])
        failed = sorted({s for r in results for s in r.failed_shards})
        # a failed placeholder has no detector name; take the first real one
        detector = next((r.detector for r in results if r.detector),
                        results[0].detector)
        merged = RunResult(
            detector=detector,
            outputs=outputs,
            cpu=CpuMeter.merge([r.cpu for r in results]),
            memory=MemoryMeter.merge([r.memory for r in results]),
            boundaries=max(r.boundaries for r in results),
            work=merge_work([r.work for r in results]),
            failed_shards=tuple(failed),
        )
        return merged

