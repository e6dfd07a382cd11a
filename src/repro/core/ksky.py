"""K-SKY: the customized skyband search algorithm (Alg. 1 + Alg. 2).

K-SKY discovers the (k-1)-skyband points of one evaluated point ``p`` in
the current swift window.  It embodies the paper's two optimization
principles:

* **Time-aware prioritization** -- candidates are examined newest-first, so
  an inserted skyband point can never be dominated by a later-examined one
  (later examined = older = dominated-by, never dominating).  One pass
  suffices, and the scan may stop before seeing all points.
* **Least examination** -- for a point that survived a window slide, only
  the new arrivals and its unexpired previous skyband points are examined
  (Lemma 2's proof shows nothing else can re-enter the skyband).

Termination generalizes Alg. 1 line 12 to multiple sub-groups exactly as
Example 3 does: sub-group ``Q_j`` is *resolved* once ``k_j`` points have
been recorded at layers at or below the sub-group's smallest-``r`` layer
(then every member query classifies ``p`` as inlier in the swift window,
and -- by domination -- no unexamined point can be a skyband point that
sub-group still needs).  When every sub-group is resolved the scan stops.
For a single sub-group this reduces to the paper's ``d <= r_min`` rule.

The per-candidate test (Alg. 2 ``skyEvaluate``) is Def. 6: hash the
candidate to its layer, count dominators via the layer prefix, check the
dominator-dependent reach table ``allowed_layer``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..streams.buffer import WindowBuffer
from .lsky import LSky, SkybandEntry
from .lsky_soa import CHECK_EVERY, EXACT_LIMIT
from .parser import SkybandPlan

__all__ = ["KSkyResult", "KSkyRunner", "sky_evaluate"]


def sky_evaluate(plan: SkybandPlan, lsky: LSky, layer: int) -> bool:
    """Alg. 2: is a candidate at ``layer`` a skyband point right now?

    Implements Def. 6: (1) the candidate hashes into a real bucket,
    (2) fewer than ``k_max`` points dominate it, and (3) some sub-group
    with ``k_j`` above the dominator count can still use a point this far
    out.  Does not mutate ``lsky``.
    """
    if layer >= plan.n_layers:
        return False
    c = lsky.dominator_count(layer)
    if c >= plan.k_max:
        return False
    return layer <= plan.allowed_layer[c]


@dataclass
class KSkyResult:
    """Outcome of one K-SKY run for one evaluated point."""

    lsky: LSky
    #: number of candidate points examined (the ``L`` of the paper's
    #: complexity analysis; Lemma 2 says it is minimal)
    examined: int
    #: True iff the scan stopped before exhausting its input because every
    #: sub-group was resolved (p is a swift-window inlier for all queries)
    terminated_early: bool
    #: True iff every sub-group was resolved (same as inlier-for-all in the
    #: swift window); termination implies this but not vice versa (the
    #: input may be exhausted on the same candidate that resolves the last
    #: sub-group)
    resolved_all: bool


class _Resolution:
    """Tracks which sub-groups are still unresolved during a scan.

    Checking every sub-group after every insert is exact but costs
    O(#sub-groups) per insert, which dominates runtime for workloads with
    many distinct ``k`` values.  The check cadence is therefore hybrid:

    * exact (per insert) while few sub-groups are pending -- this keeps the
      paper's termination points literal (Example 3 stops before ``p1``);
    * batched (every ``_CHECK_EVERY`` inserts, plus at chunk boundaries and
      at scan end) for large workloads.  Late termination only *adds*
      genuine skyband entries, which never changes any query verdict.
    """

    __slots__ = ("pending", "_since_check")

    _EXACT_LIMIT = EXACT_LIMIT
    _CHECK_EVERY = CHECK_EVERY

    def __init__(self, plan: SkybandPlan,
                 pending: List[Tuple[int, int]] = None):
        # (min_layer, k) per sub-group; callers running many scans per
        # boundary pass a precomputed template to skip rebuilding it
        self.pending: List[Tuple[int, int]] = (
            list(pending) if pending is not None
            else [(sg.min_layer, sg.k) for sg in plan.subgroups]
        )
        self._since_check = 0

    def check(self, lsky: LSky) -> bool:
        """Exact prune of resolved sub-groups; True when all resolved."""
        self._since_check = 0
        if not self.pending:
            return True
        self.pending = [
            (min_layer, k) for min_layer, k in self.pending
            if lsky.dominator_count(min_layer) < k
        ]
        return not self.pending

    def on_insert(self, lsky: LSky, layer: int) -> bool:
        """Update after an insert at ``layer``; True when all resolved."""
        pending = self.pending
        if not pending:
            return True
        if len(pending) <= self._EXACT_LIMIT:
            # Hot path: called once per skyband insert.  The dominator
            # count is reused across adjacent entries sharing a
            # ``min_layer`` (fixed-r workloads put every sub-group on one
            # layer, so the whole list costs one bisect), and ``pending``
            # is only rebuilt when something actually resolved, which is
            # the rare case.
            sl = lsky._sorted_layers
            last_ml = -1
            c = 0
            for min_layer, k in pending:
                if layer <= min_layer:
                    if min_layer != last_ml:
                        last_ml = min_layer
                        c = bisect_right(sl, min_layer)
                    if c >= k:
                        break  # something resolved: rebuild below
            else:
                return False
            still = []
            last_ml = -1
            for min_layer, k in pending:
                if layer <= min_layer:
                    if min_layer != last_ml:
                        last_ml = min_layer
                        c = bisect_right(sl, min_layer)
                    if c >= k:
                        continue  # resolved now
                still.append((min_layer, k))
            self.pending = still
            return not still
        self._since_check += 1
        if self._since_check >= self._CHECK_EVERY:
            return self.check(lsky)
        return False

    @property
    def done(self) -> bool:
        return not self.pending


class KSkyRunner:
    """Executes K-SKY scans against a shared :class:`WindowBuffer`.

    This is Alg. 1-2 as written, one evaluated point at a time over
    :class:`LSky`: the reference the production scan path
    (:class:`~repro.engine.VectorizedSkybandEngine`) is held bit-exact
    against.  Detectors never run it; the lockstep suites reach it through
    :class:`repro.testing.ReferenceRefresh`.

    ``chunk_size`` controls the blockwise distance computation: candidate
    distances are computed ``chunk_size`` points at a time with the
    workload's vectorized metric, then the skyband logic consumes the chunk
    newest-first so early termination still skips most of the window.
    """

    def __init__(self, plan: SkybandPlan, chunk_size: int = 256):
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.plan = plan
        self.chunk_size = chunk_size
        self.by_time = plan.kind == "time"
        # resolution template, copied per scan (see _Resolution)
        self._pending = [(sg.min_layer, sg.k) for sg in plan.subgroups]

    # ----------------------------------------------------------------- runs

    def run_new_point(self, p_values: Sequence[float], p_seq: int,
                      buffer: WindowBuffer) -> KSkyResult:
        """Alg. 1, lines 1-2: a new point searches the window from scratch."""
        lsky = LSky(self.plan.n_layers)
        resolution = _Resolution(self.plan, self._pending)
        examined, terminated = self._scan_buffer(
            p_values, p_seq, buffer, lsky, resolution,
            lo=0, hi=len(buffer),
        )
        return KSkyResult(
            lsky=lsky,
            examined=examined,
            terminated_early=terminated,
            resolved_all=resolution.done or resolution.check(lsky),
        )

    def scan_new_arrivals(
        self,
        p_values: Sequence[float],
        p_seq: int,
        buffer: WindowBuffer,
        new_from_index: int,
    ) -> KSkyResult:
        """Scan only the live indexes ``[new_from_index, end)``.

        The detector's survivor path wants exactly this -- the new-arrival
        skyband entries -- and merges them with the cached previous
        evidence itself (see ``repro.core.sop``).
        """
        lsky = LSky(self.plan.n_layers)
        resolution = _Resolution(self.plan, self._pending)
        examined, terminated = self._scan_buffer(
            p_values, p_seq, buffer, lsky, resolution,
            lo=new_from_index, hi=len(buffer),
        )
        return KSkyResult(
            lsky=lsky,
            examined=examined,
            terminated_early=terminated,
            resolved_all=resolution.done,
        )

    def run_existing_point(
        self,
        p_values: Sequence[float],
        p_seq: int,
        buffer: WindowBuffer,
        old_entries: Sequence[SkybandEntry],
        new_from_index: int,
    ) -> KSkyResult:
        """Alg. 1, lines 3-5: search new arrivals + unexpired skyband points.

        ``old_entries`` must already be expiry-filtered
        (:meth:`LSky.unexpired_entries`) and descending by arrival;
        ``new_from_index`` is the live-buffer index of the first point the
        previous run did not see.
        """
        lsky = LSky(self.plan.n_layers)
        resolution = _Resolution(self.plan, self._pending)
        examined, terminated = self._scan_buffer(
            p_values, p_seq, buffer, lsky, resolution,
            lo=new_from_index, hi=len(buffer),
        )
        if not terminated and old_entries:
            # Bulk re-admit the previous skyband.  Old entries cannot
            # dominate anything stored (they are older); only entries the
            # *new* arrivals alone over-dominate are trimmed, which keeps
            # the structure within a constant of minimal without a
            # per-entry rescan.
            k_max = self.plan.k_max
            keep = [
                e for e in old_entries
                if lsky.dominator_count(e[2]) < k_max
            ]
            examined += len(old_entries)
            lsky.extend_older(keep)
        return KSkyResult(
            lsky=lsky,
            examined=examined,
            terminated_early=terminated,
            resolved_all=resolution.check(lsky),
        )

    # ------------------------------------------------------------ internals

    def _scan_buffer(
        self,
        p_values: Sequence[float],
        p_seq: int,
        buffer: WindowBuffer,
        lsky: LSky,
        resolution: _Resolution,
        lo: int,
        hi: int,
    ) -> Tuple[int, bool]:
        """Scan live-buffer indexes ``[lo, hi)`` newest-first.

        Returns (examined, terminated_early).  The evaluated point itself
        (matched by ``seq``) is skipped: Def. 5 ranges over ``D_W - p``.
        """
        plan = self.plan
        n_layers = plan.n_layers
        by_time = self.by_time
        pts = buffer.points
        examined = 0
        chunk = self.chunk_size
        block_hi = hi
        while block_hi > lo:
            block_lo = max(lo, block_hi - chunk)
            dists = buffer.distances_from(p_values, block_lo, block_hi)
            layers = plan.grid.layers_of(dists)
            for j in range(block_hi - block_lo - 1, -1, -1):
                idx = block_lo + j
                pt = pts[idx]
                if pt.seq == p_seq:
                    continue
                examined += 1
                layer = int(layers[j])
                if layer >= n_layers:
                    # Def. 5 condition 3: never a neighbor of any query
                    continue
                pos = pt.time if by_time else float(pt.seq)
                if self._sky_insert(lsky, pt.seq, pos, layer, resolution):
                    return examined, True
            # chunk boundary: settle any batched resolution checks
            if resolution.check(lsky):
                return examined, True
            block_hi = block_lo
        return examined, False

    def _sky_insert(
        self,
        lsky: LSky,
        seq: int,
        pos: float,
        layer: int,
        resolution: _Resolution,
    ) -> bool:
        """skyEvaluate + insert; True when the scan may terminate."""
        plan = self.plan
        c = lsky.dominator_count(layer)
        if c < plan.k_max and layer <= plan.allowed_layer[c]:
            lsky.insert(seq, pos, layer)
            return resolution.on_insert(lsky, layer)
        # Not a skyband point.  Alg. 1 line 12's break (d <= r_min and
        # dominated) is subsumed: a rejected layer-0 candidate implies
        # k_max dominators at layer 0, which resolves every sub-group --
        # resolution.done is already True in that case.
        return resolution.done
