"""Tiered pre-filter: vectorized inlier screening ahead of the exact refresh.

Every PR so far made the *exact* K-SKY path faster; on high-inlier-rate
streams the remaining cost is that nearly every point still enters that
path only to be proven boring.  This module adds the cheap first tier the
paper's framing composes with: per boundary, a vectorized
O(anchors x suffix) screen classifies each recent candidate point
*certainly-inlier* or *suspect*, and only suspects enter the exact
SOP/K-SKY refresh
(:class:`~repro.engine.RefreshEngine` short-circuits on the suspect
mask).

**The certification primitive.**  Pick an anchor point ``a`` and compute
one ``distances_from`` kernel over the live window.  For thresholds
``t + reach = r_min`` the triangle inequality gives: every point ``p``
with ``d(p, a) <= reach`` has *all* points ``q`` with ``d(q, a) <= t``
within ``r_min`` -- i.e. at skyband layer 0, at or below every query's
radius.  Counting only the members that *succeed* ``p`` in arrival order
(a reversed cumulative sum) yields a provable lower bound on ``p``'s
succeeding layer-0 neighbor count.  If that bound reaches the workload's
``k_max``, ``p`` satisfies the safe-for-all test
(:class:`~repro.engine.SafetyTracker`) for every registered query, for
the rest of its lifetime -- the same argument family as the safe-inlier
machinery in :mod:`repro.core.evaluator` and DESIGN.md section 13/14.
Pruning such a point is *exact*: the refresh it skips would have marked
it fully safe at this very boundary (DESIGN.md section 14 proves this),
so outputs, surviving evidence, and per-point states are bit-identical
to an unscreened run.  The screen prunes nothing else.

A ladder of ``(t, reach)`` rungs per anchor trades a few extra
cumulative sums for per-point ball sizes: points near the anchor get
certified against nearly the whole ``r_min`` ball instead of the fixed
``r_min / 2`` bisection.

**The screen is suffix-restricted.**  A point's successors all sit at
higher live indexes, so restricting membership and suffix counts to a
buffer *suffix* keeps the succeeding-count bound exact for every row in
that suffix.  Certifiable candidates are always recent: a point still
uncertified after two boundaries is one the baseline safety machinery
would also have retired by then, or a genuine suspect (outliers stay
suspects forever -- they are the interesting points).  Each screen call
therefore only pays anchor kernels over the rows that arrived within
the last two screened boundaries, a small fraction of the window.

When the suffix is small enough (``pairwise_budget``), the screen skips
anchors entirely and computes the *exact* within-suffix succeeding
neighbor count with one vectorized pairwise tile -- the saturated limit
of the anchor scheme (every suffix point an anchor, ball radius zero),
and the information-theoretic best a suffix screen can certify.  The
tile's rows are only the suffix rows not yet fully safe (the refresh
never reads the mask of the others) and its columns the whole suffix.
For non-euclidean metrics the tile reuses the batched refresh kernel
(:meth:`~repro.streams.WindowBuffer.pairwise_block`), so its distances
are bit-identical to the scans it replaces and its volume is charged
to ``distance_rows`` (and counted in ``kernel_cells``) like any other
kernel.

**Anchors.**  :class:`QnScreen` computes a windowed Qn/MAD-style robust
scale per coordinate over the buffer's SoA matrix view (the FQN
estimator family, Cafaro et al.), quantizes the screened suffix into
cells whose width is the robust scale clamped to the certification
radius, and anchors on the newest member of each of the most-populated
cells -- deterministic density-seeking without sampling, robust to
multimodal streams where a global robust z would collapse every anchor
onto the clusters nearest the grand median.

The screen is stateful but deterministic (counters only, no wall
clock): when several consecutive screened boundaries certify almost
nothing, it backs off for a stretch of boundaries and re-probes, so
streams in the no-pay regime stop paying the anchor kernels.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

__all__ = [
    "QnScreen",
    "build_prefilter",
    "windowed_qn_scale",
]

#: relative safety shave on the ladder's ``reach`` thresholds so the
#: float rounding of ``r_min - t`` can never push ``t + reach`` past
#: ``r_min`` (the certified pair distance must stay at layer 0)
_REACH_SHAVE = 1e-9

#: newest entries :attr:`QnScreen.decisions` keeps; the trace is
#: observability only (the backoff runs on its own counters), and a
#: long-lived ``repro serve`` screens a boundary per slide forever
_DECISION_LOG_CAP = 1024

#: lag-quartile -> sigma consistency constant for :func:`windowed_qn_scale`
#: (median sorted-sample gap at lag n/4 of a normal sample is
#: ~0.637 sigma; dividing normalizes like Qn's 2.2219 factor does)
_QN_CONSISTENCY = 0.6373

#: anchor budget per boundary (each anchor is one distance kernel)
_MAX_ANCHORS = 48
#: ~one anchor per this many suffix rows, up to ``_MAX_ANCHORS``
_ANCHOR_STRIDE = 32
#: ``(t, reach)`` rungs per anchor; more rungs certify points farther
#: from the anchor at the cost of one cumsum pass each
_LADDER_RUNGS = 8
#: never screen windows smaller than this (cannot pay)
_MIN_CANDIDATES = 64
#: adaptive backoff: after ``_PATIENCE`` consecutive screened boundaries
#: pruning less than ``_MIN_PRUNE_RATE`` of their candidates, sit out
#: ``_BACKOFF`` boundaries, then re-probe.  The threshold is the measured
#: pay floor, not a formality: below roughly a fifth certified, the
#: screen's anchor kernels cost more than the scans they retire
_MIN_PRUNE_RATE = 0.2
_PATIENCE = 8
_BACKOFF = 32
#: largest suffix^2 (pairwise elements) the exact tile may spend; larger
#: suffixes fall back to the anchor-ladder bounds
_PAIRWISE_BUDGET = 1_048_576


def windowed_qn_scale(mat: np.ndarray) -> np.ndarray:
    """Per-column windowed Qn/MAD-style robust scale estimate.

    The FQN family estimates Qn -- the first-quartile pairwise gap -- over
    a sliding window.  The O(n log n) windowed form used here sorts each
    coordinate column and takes the median gap at lag ``n // 4``: the
    sorted-sample twin of the pairwise first quartile, normalized by
    ``_QN_CONSISTENCY`` for the normal distribution.  Zero-spread columns
    return 0.0; callers must floor before dividing.
    """
    n = mat.shape[0]
    if n < 8:
        return np.zeros(mat.shape[1], dtype=np.float64)
    xs = np.sort(mat, axis=0)
    h = max(1, n // 4)
    gaps = xs[h:] - xs[:-h]
    return np.median(gaps, axis=0) / _QN_CONSISTENCY


class QnScreen:
    """Exact inlier screen with density-hash anchors scaled by a windowed
    Qn/MAD estimate.

    Per boundary the screen computes a per-coordinate robust scale
    (:func:`windowed_qn_scale`) over the buffer's SoA coordinate matrix,
    quantizes the screened suffix into grid cells of width
    ``min(scale, r_min / 2)`` per dimension, and anchors on the *newest*
    member of each of the ``m`` most-populated cells.  Dense cells are
    cluster cores -- exactly where certification balls pay -- and the
    scale clamp keeps cells finer than the robust spread on multimodal
    streams (where the global scale reflects inter-cluster gaps, not
    core width) while never exceeding the certification radius.  Wholly
    deterministic: occupancy counts with stable tie-breaks, no sampling.

    The tuning knobs are plain attributes initialized from the module
    constants; tests assign them to exercise small windows.
    """

    def __init__(self, plan):
        self.plan = plan
        self.max_anchors = _MAX_ANCHORS
        self.anchor_stride = _ANCHOR_STRIDE
        self.ladder_rungs = _LADDER_RUNGS
        self.min_candidates = _MIN_CANDIDATES
        self.min_prune_rate = _MIN_PRUNE_RATE
        self.patience = _PATIENCE
        self.backoff = _BACKOFF
        self.pairwise_budget = _PAIRWISE_BUDGET
        self._r_min = float(plan.grid.values[0])
        self._k_max = int(plan.k_max)
        self._boundary = 0
        self._low_streak = 0
        self._disabled_until = 0
        #: newest live seq at each of the last two non-tiny calls --
        #: defines the screened suffix (arrivals since two calls ago)
        self._seq_horizon: List[int] = []
        #: (boundary, "screened"|"backoff", prune_rate) trace, newest
        #: ``_DECISION_LOG_CAP`` entries
        self.decisions: Deque[Tuple[int, str, float]] = deque(
            maxlen=_DECISION_LOG_CAP)

    # ------------------------------------------------------------- interface

    def prune_mask(self, det) -> Optional[np.ndarray]:
        """Certainly-inlier mask over live buffer rows for this boundary.

        Returns ``None`` when the screen sits this boundary out (window
        too small, or adaptive backoff); otherwise a bool array aligned
        with ``det.buffer`` live indexes.  The mask of rows already fully
        safe is never read (the refresh partition skips them first): the
        exact tile leaves them False, the anchor ladder may flag them.
        """
        boundary = self._boundary
        self._boundary = boundary + 1
        buf = det.buffer
        n = len(buf)
        if n < self.min_candidates:
            return None
        # arrivals since two calls ago; older rows are either already
        # fully safe (the partition skips them before consulting the
        # mask) or persistent suspects certification cannot retire
        horizon = self._seq_horizon
        lo = 0
        if len(horizon) == 2:
            lo = buf.first_index_at_or_after_seq(horizon[0] + 1)
        horizon.append(int(buf.seq_array()[-1]))
        del horizon[:-2]
        if boundary < self._disabled_until:
            return None
        if lo >= n:
            return None
        mat = buf.matrix()
        tail_n = n - lo
        mask = np.zeros(n, dtype=bool)
        if tail_n * tail_n <= self.pairwise_budget:
            # the refresh reads the mask only at rows not yet fully safe
            rows = lo + np.flatnonzero(~det.table.safe[lo:])
            mask[rows] = self._certify_exact(buf, mat, lo, rows) >= self._k_max
        else:
            bound = self._certify(buf, mat, lo, self._anchor_rows(mat, lo))
            mask[lo:] = bound >= self._k_max
        return mask

    def observe(self, screened: int, pruned: int) -> None:
        """Feed back one boundary's actual yield (drives the backoff)."""
        if screened <= 0:
            return
        rate = pruned / screened
        self.decisions.append((self._boundary - 1, "screened", rate))
        if rate < self.min_prune_rate:
            self._low_streak += 1
            if self._low_streak >= self.patience:
                self._low_streak = 0
                self._disabled_until = self._boundary + self.backoff
                self.decisions.append(
                    (self._boundary - 1, "backoff", rate))
        else:
            self._low_streak = 0

    # --------------------------------------------------------- certification

    def _anchor_rows(self, mat: np.ndarray, lo: int) -> np.ndarray:
        """Live row indexes (``>= lo``): the newest member of each of the
        most-populated Qn-scaled cells of the suffix."""
        tail = mat[lo:]
        m = min(self.max_anchors,
                max(1, tail.shape[0] // self.anchor_stride), tail.shape[0])
        half_r = self._r_min / 2.0
        scale = windowed_qn_scale(mat)
        cell_w = np.where(scale > 0.0, np.minimum(scale, half_r), half_r)
        cells = np.floor(tail / cell_w).astype(np.int64)
        _, inverse, counts = np.unique(
            cells, axis=0, return_inverse=True, return_counts=True)
        newest = np.zeros(counts.shape[0], dtype=np.int64)
        np.maximum.at(newest, inverse, np.arange(tail.shape[0]))
        top = np.argsort(-counts, kind="stable")[:m]
        return lo + newest[top]

    def _certify(self, buf, mat: np.ndarray, lo: int,
                 anchors: np.ndarray) -> np.ndarray:
        """Anchor-ball neighbor-count lower bounds over rows ``[lo, n)``.

        ``bound[i]`` lower-bounds row ``lo + i``'s *succeeding*
        within-``r_min`` neighbor count -- exact despite the suffix
        restriction, because successors of a suffix row are all suffix
        rows themselves.  Anchor kernels go through
        ``buf.distances_from`` so ``distance_rows``/``kernel_calls``
        account the screen's own work honestly.
        """
        n = mat.shape[0] - lo
        r_min = self._r_min
        k_max = self._k_max
        rungs = self.ladder_rungs
        bound = np.zeros(n, dtype=np.int64)
        for a in anchors:
            d = buf.distances_from(mat[int(a)], lo, lo + n)
            for j in range(1, rungs):
                t = r_min * j / rungs
                reach = (r_min - t) * (1.0 - _REACH_SHAVE)
                member = d <= t
                if int(np.count_nonzero(member)) + 1 <= k_max:
                    # even a full suffix cannot certify anyone; the
                    # wider rungs above can only grow membership
                    continue
                eligible = d <= reach
                if not eligible.any():
                    break
                # members at live index >= i, then strictly after i
                at_or_after = np.cumsum(member[::-1])[::-1]
                succ = at_or_after - member
                np.maximum(bound, np.where(eligible, succ, 0), out=bound)
        return bound

    def _certify_exact(self, buf, mat: np.ndarray, lo: int,
                       rows: np.ndarray) -> np.ndarray:
        """Exact within-suffix succeeding neighbor counts of live rows
        ``rows`` (ascending, all ``>= lo``) via one ``rows x suffix``
        pairwise tile.

        A row's count reads only its own tile row, so restricting the
        tile to the rows the caller will act on changes no count.

        For the euclidean metric the tile uses the BLAS squared-distance
        expansion ``|a|^2 + |b|^2 - 2ab``, whose dominant term is one
        ``dgemm`` instead of ``dim`` elementwise passes over the tile.
        The expansion's
        cancellation error is bounded by a few ulps of the largest
        centered squared norm, so comparing against a threshold shaved
        by ``1e-12`` of that norm keeps the test *conservative*: it can
        only fail to certify a point the metric kernel would have (never
        the reverse), which preserves exactness.  Other metrics go
        through :meth:`~repro.streams.WindowBuffer.pairwise_block`,
        whose rows are bit-identical to the scans' ``distances_from``.
        """
        tail = mat[lo:]
        n = tail.shape[0]
        r = rows - lo
        cells = len(r) * n
        if buf.metric.name == "euclidean":
            c = tail - tail.mean(axis=0)
            sq = np.einsum("ij,ij->i", c, c)
            # (sq_i + sq_j) - 2 G_ij, composed in place
            d2 = np.add.outer(sq[r], sq)
            g = c[r] @ c.T
            g *= 2.0
            d2 -= g
            max_sq = float(sq.max()) if sq.size else 0.0
            thresh = (self._r_min * self._r_min * (1.0 - _REACH_SHAVE)
                      - 1e-12 * max_sq)
            close = np.less_equal(d2, thresh)
            buf.kernel_cells += cells
            buf.kernel_calls += 1
        else:
            close = buf.pairwise_block(mat[rows], lo, mat.shape[0]) \
                <= self._r_min
        buf.distance_rows += cells
        # successors only: columns strictly after the row's own
        close &= np.arange(n) > r[:, None]
        return np.count_nonzero(close, axis=1)


def build_prefilter(config, plan) -> Optional[QnScreen]:
    """The screen a :class:`~repro.engine.DetectorConfig` asks for:
    ``None`` for ``prefilter="none"``.  Config validation already
    guarantees a triangle-inequality metric and ``use_safe_inliers=True``
    (certified prunes commit through the fully-safe machinery)."""
    return QnScreen(plan) if config.prefilter == "qn" else None
