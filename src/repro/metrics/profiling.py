"""Refresh-engine observability: per-boundary timing and work counters.

The refresh stage (see ``repro.engine.refresh``) runs every K-SKY scan
as a ``scan_batched`` tile sweep, turning O(live points) numpy kernel
launches per boundary into O(tiles) -- fewer than the logical chunks a
scan walks, because a sweep's tiles after its first double in width.  To *prove* that -- and to keep it provable as the code evolves
-- :class:`RefreshProfile` totals, over every processed boundary:

* ``refresh_ns`` -- wall time spent inside ``SOPDetector._refresh``;
* ``kernel_launches`` -- numpy distance-kernel launches during the refresh
  (``WindowBuffer.kernel_calls`` delta: one per pairwise tile, not one
  per logical chunk -- a tile spans one chunk, then twice the last
  tile's chunks -- plus the prefilter's anchor kernels);
* ``kernel_cells`` -- the distances those launches computed
  (``WindowBuffer.kernel_cells`` delta).  ``distance_rows`` charges only
  what each scan's walk pays for (up to the logical chunk it stops in),
  so ``distance_rows <= kernel_cells`` and the gap is the cells a wide
  tile computed past its rows' stops;
* ``batch_rows`` -- evaluated points whose scan went through the batched
  pairwise kernel: every scan, so it equals ``batched_scans`` and
  ``ksky_runs`` (0 only under ``repro.testing.ReferenceRefresh``);
* ``python_insert_iters`` -- interpreted steps the scan engine
  *actually* spent (one per resolved tile, one per row in the
  ``_CHECK_EVERY`` cadence regime), counted by the engine itself.
  Candidates are resolved in array passes, so this is far below the
  logical candidate count (the paper's ``L``), which is
  ``points_examined``;
* ``soa_insert_rows`` -- skyband entries the scan engine committed;
* ``near_candidates`` -- distance-tile cells the scan engine resolved:
  the ones within their row's reach (at most ``r_max``, and below the
  row's ``k_max``-th stored layer), its own column excluded, at or
  before the row's stop.  Every other cell is dropped before it is
  hashed to a layer, so ``near_candidates / kernel_cells`` is the share
  of computed cells the resolve pays for, and ``soa_insert_rows <=
  near_candidates <= distance_rows <= kernel_cells``;
* ``prefilter_screened`` / ``prefilter_suspects`` / ``prefilter_pruned``
  -- the tiered pre-filter's per-boundary tallies (see
  ``repro.core.prefilter``): candidate points the first-tier screen
  examined, the suspects it passed to the exact refresh, and the
  certified inliers it pruned scan-free (all 0 with ``prefilter="none"``
  or when the screen sits a boundary out).  The screen's anchor kernels
  are *not* netted out of ``kernel_launches``/``refresh_ns`` -- the
  tier's own cost stays visible in the same totals.

Only the running totals are kept -- nothing grows per boundary -- and
they are surfaced through ``SOPDetector.work_stats()`` into
``RunResult.work``.  No decision in the refresh stage reads a clock, so
every key but ``refresh_ns`` repeats exactly across runs.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["RefreshProfile"]


class RefreshProfile:
    """Running totals of the refresh stage's per-boundary samples."""

    __slots__ = ("boundaries", "refresh_ns", "kernel_launches", "batch_rows",
                 "python_insert_iters", "soa_insert_rows",
                 "near_candidates", "prefilter_screened", "prefilter_suspects",
                 "prefilter_pruned", "kernel_cells")

    def __init__(self):
        self.boundaries: int = 0
        self.refresh_ns: int = 0
        self.kernel_launches: int = 0
        self.batch_rows: int = 0
        self.python_insert_iters: int = 0
        self.soa_insert_rows: int = 0
        self.near_candidates: int = 0
        self.prefilter_screened: int = 0
        self.prefilter_suspects: int = 0
        self.prefilter_pruned: int = 0
        self.kernel_cells: int = 0

    def record(self, refresh_ns: int, kernel_launches: int, batch_rows: int,
               python_insert_iters: int, soa_insert_rows: int = 0,
               near_candidates: int = 0,
               prefilter_screened: int = 0,
               prefilter_suspects: int = 0,
               prefilter_pruned: int = 0,
               kernel_cells: int = 0) -> None:
        """Record one refreshed boundary."""
        self.boundaries += 1
        self.refresh_ns += refresh_ns
        self.kernel_launches += kernel_launches
        self.batch_rows += batch_rows
        self.python_insert_iters += python_insert_iters
        self.soa_insert_rows += soa_insert_rows
        self.near_candidates += near_candidates
        self.prefilter_screened += prefilter_screened
        self.prefilter_suspects += prefilter_suspects
        self.prefilter_pruned += prefilter_pruned
        self.kernel_cells += kernel_cells

    # ------------------------------------------------------------ summaries

    @property
    def mean_refresh_ms(self) -> float:
        """Average refresh wall time per boundary in milliseconds."""
        if not self.boundaries:
            return 0.0
        return self.refresh_ns / self.boundaries / 1e6

    @property
    def mean_kernel_launches(self) -> float:
        """Average distance-kernel launches per boundary."""
        if not self.boundaries:
            return 0.0
        return self.kernel_launches / self.boundaries

    def as_dict(self) -> Dict[str, int]:
        """Aggregate counters, ready to merge into ``work_stats()``."""
        return {
            "refresh_boundaries": self.boundaries,
            "refresh_ns": self.refresh_ns,
            "kernel_launches": self.kernel_launches,
            "batch_rows": self.batch_rows,
            "python_insert_iters": self.python_insert_iters,
            "soa_insert_rows": self.soa_insert_rows,
            "near_candidates": self.near_candidates,
            "prefilter_screened": self.prefilter_screened,
            "prefilter_suspects": self.prefilter_suspects,
            "prefilter_pruned": self.prefilter_pruned,
            "kernel_cells": self.kernel_cells,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RefreshProfile({self.boundaries} boundaries, "
            f"{self.mean_refresh_ms:.3f} ms/boundary, "
            f"{self.mean_kernel_launches:.1f} kernels/boundary)"
        )
