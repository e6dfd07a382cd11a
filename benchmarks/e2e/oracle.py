"""The correctness gate: brute force on sampled windows, full-output diffs.

Two independent references.  ``repro.baselines.naive`` re-answers a seeded
sample of (query, boundary) outputs from first principles on the window
slice -- it shares no state or code path with SOP.  Workloads that add a
layer on top of the single-shard offline path (shards, the service) are also
diffed key by key against a 1-shard ``Runtime.run`` of the same stream.
"""

from __future__ import annotations

import random
from time import perf_counter
from typing import Dict, List, Tuple

from repro.baselines import brute_force_outliers
from repro.core.point import Point, get_metric
from repro.runtime import Runtime

from workloads import Workload

SAMPLES = 10


def sample_check(workload: Workload, points: List[Point], outputs: Dict,
                 seed: int) -> Tuple[int, List[str]]:
    """Re-answer ``SAMPLES`` seeded output keys; ``(checked, mismatches)``.

    Count windows over a 0-based gap-free stream: query ``q`` at boundary
    ``t`` covers exactly ``points[t - win : t]``.
    """
    keys = sorted(outputs)
    picks = random.Random(seed).sample(keys, min(SAMPLES, len(keys)))
    metric = get_metric(workload.config.metric)
    mismatches = []
    for qi, t in picks:
        query = workload.group[qi]
        population = points[max(0, t - query.win):t]
        expect = brute_force_outliers(population, query.r, query.k, metric)
        if outputs[(qi, t)] != expect:
            mismatches.append(
                f"query {qi} at boundary {t}: naive disagrees on "
                f"{sorted(outputs[(qi, t)] ^ expect)[:8]}")
    return len(picks), mismatches


def single_shard_reference(workload: Workload, points: List[Point]
                           ) -> Tuple[Dict, float]:
    """Outputs and wall time of a 1-shard offline run of the same stream."""
    config = workload.config.replace(shards=1, validate_ingest=False)
    start = perf_counter()
    result = Runtime(workload.group, config=config).run(points)
    return result.outputs, perf_counter() - start


def differing_keys(expected: Dict, got: Dict) -> int:
    """Output keys missing from, extra in, or different in ``got``."""
    return sum(1 for key in expected.keys() | got.keys()
               if expected.get(key) != got.get(key))
