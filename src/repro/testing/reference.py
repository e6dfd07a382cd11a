"""The reference K-SKY as a refresh strategy: the lockstep suites' anchor.

Detectors run one scan implementation
(:class:`~repro.engine.VectorizedSkybandEngine`).  What it is held
bit-exact against is the paper's per-point search exactly as written --
:class:`~repro.core.ksky.KSkyRunner` over :class:`~repro.core.lsky.LSky`,
Alg. 1-2 with no batching, no candidate pruning and no array resolve.
:class:`ReferenceRefresh` puts that runner behind the refresh engine's
per-point mode, so a detector driven by it shares everything else
(partition, least-examination merge, safety, evaluation) with the
detectors under test and differs only in who performs the scans.

It is reachable by assignment only -- no config field or CLI flag
selects it::

    det = use_reference_scans(SOPDetector(group))
"""

from __future__ import annotations

from ..core.ksky import KSkyRunner
from ..engine.refresh import RefreshEngine

__all__ = ["ReferenceRefresh", "use_reference_scans"]


class ReferenceRefresh(RefreshEngine):
    """Per-point refresh whose scans are ``KSkyRunner``'s.

    The engine-counted profile fields (``python_insert_iters``,
    ``soa_insert_rows``) stay 0 here; outputs, evidence arrays,
    ``memory_units()``, ``det.stats`` and ``distance_rows`` are the ones
    every production strategy must reproduce.
    """

    def __init__(self, plan, chunk_size: int = 256):
        super().__init__("per-point")
        self.runner = KSkyRunner(plan, chunk_size)

    def _point_scanner(self, det):
        return self.runner


def use_reference_scans(det):
    """Swap ``det``'s refresh engine for the reference; returns ``det``."""
    det.refresh_engine = ReferenceRefresh(det.plan, det.config.chunk_size)
    return det
