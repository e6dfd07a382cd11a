"""The four workloads: what each offers the system, and why it exists.

A workload fixes its query set, its detector configuration and the
*geometry* of its stream (cluster centres, spread, outlier rate); ``--seed``
draws the sample.  Keeping the geometry out of the seed is deliberate: with
``make_synthetic_points`` the seed also places the four cluster centres, and
whether two of them land within ``r`` of each other moved ``records_per_s`` by
up to 30 % between seeds on the same query set (1855-2762 rec/s over six
seeds of ``refresh_large``), which is wider than any bound this benchmark
could then enforce.  With fixed centres the same six seeds spread 3 %.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Tuple

import numpy as np

from repro.bench import ScaledRanges, build_workload, default_ranges
from repro.core.point import Point
from repro.core.queries import OutlierQuery, QueryGroup
from repro.engine import DetectorConfig
from repro.streams import WindowSpec

#: one raw stream record, as a feed delivers it: ``(seq, values)``
Record = Tuple[int, Tuple[float, ...]]

#: cluster centres of every stream: the first pair sits 1.4k apart (inside
#: the larger query radii, so neighbourhoods overlap), the rest are isolated
CENTERS = np.array([(3000.0, 3000.0), (4300.0, 3500.0),
                    (7000.0, 4000.0), (5500.0, 7200.0)])
VALUE_RANGE = (0.0, 10_000.0)

#: the query sets are part of each workload's identity, not of the seed
QUERY_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: records offered per repetition at full size
    records: int
    cluster_spread: float
    outlier_rate: float
    group: QueryGroup
    config: DetectorConfig
    #: offer raw ``(seq, values)`` records instead of ``Point`` objects
    raw: bool = False
    #: drive ``python -m repro serve`` over TCP instead of ``Runtime.run``
    serve: bool = False


def make_records(n: int, seed: int, cluster_spread: float,
                 outlier_rate: float) -> List[Record]:
    """Gaussian inliers around :data:`CENTERS`, uniform outliers (the
    Sec. 6.1 recipe of ``repro.streams.synthetic`` on a fixed geometry)."""
    rng = np.random.default_rng(seed)
    values = (CENTERS[rng.integers(0, len(CENTERS), n)]
              + rng.normal(0.0, cluster_spread, (n, 2)))
    outliers = rng.random(n) < outlier_rate
    values[outliers] = rng.uniform(*VALUE_RANGE, (int(outliers.sum()), 2))
    return [(seq, (x, y)) for seq, (x, y) in enumerate(values.tolist())]


def to_points(records: List[Record]) -> List[Point]:
    return [Point(seq=seq, values=values) for seq, values in records]


def _workloads() -> List[Workload]:
    wide = replace(ScaledRanges(), win=(2000, 8000), slide=(200, 2000),
                   slide_quantum=200)
    tight = replace(default_ranges(fixed_r=200.0), fixed_slide=50)
    light = QueryGroup([OutlierQuery(
        r=700.0, k=6, window=WindowSpec(win=2000, slide=100))])
    return [
        Workload(
            "refresh_large",
            "8 class-G queries over windows up to 7.7k: K-SKY refresh is "
            "96% of wall and AutoRefresh is in its batched-vs-grid regime",
            records=12_000, cluster_spread=120.0, outlier_rate=0.02,
            group=build_workload("G", 8, seed=QUERY_SEED, ranges=wide),
            config=DetectorConfig()),
        Workload(
            "ingest_heavy",
            "one light class-D query, raw records through the ingest guard "
            "and the Qn screen: guard, partition and ingest are a third of "
            "wall",
            records=100_000, cluster_spread=80.0, outlier_rate=0.002,
            group=build_workload("D", 1, seed=QUERY_SEED),
            config=DetectorConfig(validate_ingest=True, prefilter="qn"),
            raw=True),
        Workload(
            "sharded_small_slide",
            "4 serial shards stepped every 50 records: per-boundary fixed "
            "costs (partition, evaluate, meter, merge) count four times",
            records=16_000, cluster_spread=120.0, outlier_rate=0.02,
            group=build_workload("D", 8, seed=QUERY_SEED, ranges=tight),
            config=DetectorConfig(shards=4, backend="serial")),
        Workload(
            "serve_loopback",
            "repro serve over TCP, closed loop on 2 connections: the only "
            "path through wire, session, watermark and event loop, and the "
            "only event-to-emission latency",
            records=80_000, cluster_spread=80.0, outlier_rate=0.002,
            group=light,
            config=DetectorConfig(prefilter="qn"),
            raw=True, serve=True),
    ]


WORKLOADS = {w.name: w for w in _workloads()}
