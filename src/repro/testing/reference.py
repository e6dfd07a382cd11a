"""The reference K-SKY as a refresh engine: the lockstep suites' anchor.

Detectors run one scan implementation
(:class:`~repro.engine.VectorizedSkybandEngine`).  What it is held
bit-exact against is the paper's per-point search exactly as written --
:class:`~repro.core.ksky.KSkyRunner` over :class:`~repro.core.lsky.LSky`,
Alg. 1-2 with no batching and no array resolve.
:class:`ReferenceRefresh` overrides the refresh engine's scan step with
that runner, one ``scan_new_arrivals`` per row, so a detector driven by
it shares everything else (partition, least-examination merge, safety,
evaluation) with the detector under test and differs only in who
performs the scans.

It is reachable by assignment only -- no config field or CLI flag
selects it::

    det = use_reference_scans(SOPDetector(group))
"""

from __future__ import annotations

from ..core.ksky import KSkyRunner
from ..engine.refresh import RefreshEngine

__all__ = ["ReferenceRefresh", "use_reference_scans"]


class ReferenceRefresh(RefreshEngine):
    """Refresh whose scans are ``KSkyRunner``'s, one per row.

    The engine-counted profile fields (``batch_rows``,
    ``python_insert_iters``, ``soa_insert_rows``) stay 0 here; outputs,
    evidence arrays, ``memory_units()``, ``det.stats`` and
    ``distance_rows`` are the ones the production engine must reproduce.
    """

    def __init__(self, plan, chunk_size: int = 256):
        self.runner = KSkyRunner(plan, chunk_size)

    def _scan(self, det, rows, lo: int, commit) -> None:
        for _, p, st in rows:
            commit(p, st, self.runner.scan_new_arrivals(
                p.values, p.seq, det.buffer, lo))


def use_reference_scans(det):
    """Swap ``det``'s refresh engine for the reference; returns ``det``."""
    det.refresh_engine = ReferenceRefresh(det.plan, det.config.chunk_size)
    return det
