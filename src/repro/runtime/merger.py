"""Merger: exact cross-shard combination of outputs and meters.

Border replication means a point can be evaluated by several shards, but
only its *owner* shard holds the point's complete neighborhood (see
``repro.runtime.partitioner``); verdicts from replica shards may
over-report outliers and must be discarded.  The merger applies that
ownership filter and unions what remains -- the exact workload answer --
and combines the per-shard meters with the additive merges the metrics
layer provides (:meth:`CpuMeter.merge`, :meth:`MemoryMeter.merge`,
:func:`~repro.metrics.results.merge_work`).

With one shard the ownership filter keeps everything and every merge is
a sum over one element, so the merged result equals the shard's own --
the identity the 1-shard oracle tests pin down.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Sequence

from ..metrics.meters import CpuMeter, MemoryMeter
from ..metrics.results import OutputKey, RunResult, merge_work

__all__ = ["Merger", "union_outputs"]

Outputs = Dict[int, FrozenSet[int]]


class Merger:
    """Combines per-shard outputs/results under an ownership map.

    ``owners`` maps point ``seq`` to its owner shard; the runtime keeps
    it current as the partitioner routes batches.  Seqs without an entry
    (never routed by this runtime, e.g. points preloaded by a legacy
    restore, or expired from every shard once a stepped runtime has
    filtered their outputs) are kept by whichever shard reports them.
    """

    def __init__(self, owners: Mapping[int, int]):
        self.owners = owners

    # ------------------------------------------------------------- outputs

    def merge_boundary(self, per_shard: Sequence[Outputs]) -> Outputs:
        """One boundary's merged outputs: each shard's verdicts cut down
        to the seqs it owns, then unioned per query.

        The key set is the union across shards, so a shard that received
        no points still contributes its (empty) due-query verdicts and
        the merged boundary reports every due query exactly once.
        """
        owners = self.owners
        merged: Dict[int, set] = {}
        for shard_id, outputs in enumerate(per_shard):
            for qi, seqs in outputs.items():
                bucket = merged.setdefault(qi, set())
                for seq in seqs:
                    if owners.get(seq, shard_id) == shard_id:
                        bucket.add(seq)
        return {qi: frozenset(seqs) for qi, seqs in merged.items()}

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
        owners = self.owners
        outputs: Dict[OutputKey, FrozenSet[int]] = {}
        acc: Dict[OutputKey, set] = {}
        for shard_id, result in enumerate(results):
            for key, seqs in result.outputs.items():
                bucket = acc.setdefault(key, set())
                for seq in seqs:
                    if owners.get(seq, shard_id) == shard_id:
                        bucket.add(seq)
        for key, seqs in acc.items():
            outputs[key] = frozenset(seqs)
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


def union_outputs(per_shard: Sequence[Outputs]) -> Outputs:
    """Per-query union of already ownership-filtered shard outputs."""
    merged: Dict[int, set] = {}
    for outputs in per_shard:
        for qi, seqs in outputs.items():
            merged.setdefault(qi, set()).update(seqs)
    return {qi: frozenset(seqs) for qi, seqs in merged.items()}
