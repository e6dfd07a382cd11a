"""Correctness tooling: fault injection and the reference K-SKY strategy.

``repro.testing`` is shipped with the package (not hidden in the test
tree) so the exact same chaos scenarios run in unit tests, benchmarks,
and CI: a :class:`~repro.testing.faults.FaultPlan` is a seeded, JSON-
serializable schedule of worker crashes, shard delays, and torn
checkpoint files that the supervised backend and the test harness both
consume.  :class:`~repro.testing.reference.ReferenceRefresh` drives a
detector's scans with the paper-literal per-point ``KSkyRunner`` -- the
anchor every production refresh strategy is compared against.
"""

from .faults import (
    Fault,
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    tear_file,
)
from .reference import ReferenceRefresh, use_reference_scans

__all__ = [
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InjectedCrash",
    "ReferenceRefresh",
    "tear_file",
    "use_reference_scans",
]
