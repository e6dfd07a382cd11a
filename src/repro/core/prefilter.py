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

**The certification primitive (both screens share it).**  Pick an anchor
point ``a`` and compute one ``distances_from`` kernel over the live
window.  For thresholds ``t + reach = r_min`` the triangle inequality
gives: every point ``p`` with ``d(p, a) <= reach`` has *all* points ``q``
with ``d(q, a) <= t`` within ``r_min`` -- i.e. at skyband layer 0, at or
below every query's radius.  Counting only the members that *succeed*
``p`` in arrival order (a reversed cumulative sum) yields a provable
lower bound on ``p``'s succeeding layer-0 neighbor count.  If that bound
reaches the workload's ``k_max``, ``p`` satisfies the safe-for-all test
(:class:`~repro.engine.SafetyTracker`) for every registered query, for
the rest of its lifetime -- the same argument family as the safe-inlier
machinery in :mod:`repro.core.evaluator` and DESIGN.md section 13/14.
Pruning such a point is *exact*: the refresh it skips would have marked
it fully safe at this very boundary (DESIGN.md section 14 proves this),
so outputs, surviving evidence, and per-point states are bit-identical
to an unscreened run.

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

When the suffix is small enough (``pairwise_budget``), the screens skip
anchors entirely and compute the *exact* within-suffix succeeding
neighbor count with one vectorized pairwise tile -- the saturated limit
of both anchor schemes (every suffix point an anchor, ball radius
zero), and the information-theoretic best a suffix screen can certify.
The tile reuses the batched refresh kernel
(:meth:`~repro.streams.WindowBuffer.pairwise_block`), so its distances
are bit-identical to the scans it replaces and its volume shows up in
``distance_rows`` like any other kernel.

**The screens** differ only in anchor selection:

* :class:`SensitivityScreen` (``prefilter="sensitivity"``) samples
  anchors uniformly from the screened suffix with a boundary-seeded
  deterministic RNG -- the sensitivity-sampling rationale (Lucic &
  Bachem): a uniform sample lands anchors in dense regions proportional
  to their mass, and dense regions are exactly where certification pays.
* :class:`QnScreen` (``prefilter="qn"``) computes a windowed Qn/MAD-style
  robust location/scale per coordinate over the buffer's SoA matrix view
  (the FQN estimator family, Cafaro et al.), quantizes the screened
  suffix into cells whose width is the robust scale clamped to the
  certification radius, and anchors on the newest member of each of the
  most-populated cells -- deterministic density-seeking without
  sampling, robust to multimodal streams where a global robust z would
  collapse every anchor onto the clusters nearest the grand median.

**Modes.**  ``prefilter_mode="exact"`` prunes *only* certified points
(byte-identical outputs, asserted by tests and benchmarks).
``prefilter_mode="fast"`` additionally prunes on the screen's statistical
evidence -- a certified ``k_max``-neighbor count *now* (succession not
required; neighbors may expire first) for the sensitivity screen, a low
robust z for the qn screen.  Fast mode is approximate by design;
``benchmarks/bench_prefilter.py`` measures its recall against the exact
oracle.

Screens are stateful but deterministic (counters only, no wall clock):
when several consecutive screened boundaries certify almost nothing, the
screen backs off for a stretch of boundaries and re-probes, so streams
in the no-pay regime stop paying the anchor kernels.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

__all__ = [
    "InlierScreen",
    "QnScreen",
    "SensitivityScreen",
    "build_prefilter",
    "windowed_qn_scale",
]

#: metrics the certification argument is valid for: the screens rely on
#: the triangle inequality, which every *metric* satisfies but a custom
#: registered distance need not
TRIANGLE_METRICS = ("euclidean", "manhattan", "chebyshev")

#: relative safety shave on the ladder's ``reach`` thresholds so the
#: float rounding of ``r_min - t`` can never push ``t + reach`` past
#: ``r_min`` (the certified pair distance must stay at layer 0)
_REACH_SHAVE = 1e-9

#: newest entries :attr:`InlierScreen.decisions` keeps; the trace is
#: observability only (the backoff runs on its own counters), and a
#: long-lived ``repro serve`` screens a boundary per slide forever
_DECISION_LOG_CAP = 1024

#: lag-quartile -> sigma consistency constant for :func:`windowed_qn_scale`
#: (median sorted-sample gap at lag n/4 of a normal sample is
#: ~0.637 sigma; dividing normalizes like Qn's 2.2219 factor does)
_QN_CONSISTENCY = 0.6373


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


class InlierScreen:
    """Shared certification + adaptivity machinery of both screens.

    Subclasses supply :meth:`_anchor_rows` (and optionally a statistical
    fast-mode mask).  All knobs are constructor parameters with
    production defaults; tests construct screens directly to exercise
    small windows.
    """

    name = "screen"

    def __init__(
        self,
        plan,
        mode: str = "exact",
        max_anchors: int = 48,
        anchor_stride: int = 32,
        ladder_rungs: int = 8,
        min_candidates: int = 64,
        min_prune_rate: float = 0.2,
        patience: int = 8,
        backoff: int = 32,
        pairwise_budget: int = 1_048_576,
    ):
        if mode not in ("exact", "fast"):
            raise ValueError(f"mode must be 'exact' or 'fast', got {mode!r}")
        self.plan = plan
        self.mode = mode
        #: anchor budget per boundary (each anchor is one distance kernel)
        self.max_anchors = max(1, max_anchors)
        #: ~one anchor per this many live rows, up to ``max_anchors``
        self.anchor_stride = max(1, anchor_stride)
        #: ``(t, reach)`` rungs per anchor; more rungs certify points
        #: farther from the anchor at the cost of one cumsum pass each
        self.ladder_rungs = max(2, ladder_rungs)
        #: never screen windows smaller than this (cannot pay)
        self.min_candidates = max(1, min_candidates)
        #: adaptive backoff: after ``patience`` consecutive screened
        #: boundaries pruning less than ``min_prune_rate`` of their
        #: candidates, sit out ``backoff`` boundaries, then re-probe.
        #: The threshold is the measured pay floor, not a formality:
        #: below roughly a fifth certified, the screen's anchor kernels
        #: cost more than the scans they retire
        self.min_prune_rate = float(min_prune_rate)
        self.patience = max(1, patience)
        self.backoff = max(1, backoff)
        #: largest suffix^2 (pairwise elements) the exact tile may spend;
        #: larger suffixes fall back to the anchor-ladder bounds
        self.pairwise_budget = max(0, pairwise_budget)
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
        with ``det.buffer`` live indexes.  Rows already fully safe may be
        flagged too -- the refresh partition skips them first, so the
        flag is never acted on.
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
        if tail_n * tail_n <= self.pairwise_budget:
            bound, now = self._certify_exact(buf, mat, lo,
                                             self.mode == "fast")
        else:
            anchors = self._anchor_rows(det, mat, lo, boundary)
            bound, now = self._certify(buf, mat, lo, anchors,
                                       self.mode == "fast")
        mask = np.zeros(n, dtype=bool)
        sub = bound >= self._k_max
        if self.mode == "fast":
            sub |= now >= self._k_max
        mask[lo:] = sub
        if self.mode == "fast":
            fast = self._fast_mask(det, mat)
            if fast is not None:
                mask |= fast
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

    def _certify(self, buf, mat: np.ndarray, lo: int, anchors: np.ndarray,
                 want_now: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Anchor-ball neighbor-count lower bounds over rows ``[lo, n)``.

        Returns ``(bound, now)`` aligned with the suffix: ``bound[i]``
        lower-bounds row ``lo + i``'s *succeeding* within-``r_min``
        neighbor count (the exact-mode criterion) -- exact despite the
        suffix restriction, because successors of a suffix row are all
        suffix rows themselves; ``now[i]`` its total within-``r_min``
        neighbor count over the suffix (fast mode only; zeros otherwise
        -- a lower bound on the true window-wide count).  Anchor kernels
        go through ``buf.distances_from`` so
        ``distance_rows``/``kernel_calls`` account the screen's own work
        honestly.
        """
        n = mat.shape[0] - lo
        r_min = self._r_min
        k_max = self._k_max
        rungs = self.ladder_rungs
        bound = np.zeros(n, dtype=np.int64)
        now = np.zeros(n, dtype=np.int64)
        for a in anchors:
            d = buf.distances_from(mat[int(a)], lo, lo + n)
            for j in range(1, rungs):
                t = r_min * j / rungs
                reach = (r_min - t) * (1.0 - _REACH_SHAVE)
                member = d <= t
                total = int(np.count_nonzero(member))
                if total + 1 <= k_max:
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
                if want_now:
                    np.maximum(now, np.where(eligible, total - member, 0),
                               out=now)
        return bound, now

    def _certify_exact(self, buf, mat: np.ndarray, lo: int,
                       want_now: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Exact within-suffix neighbor counts via one pairwise tile.

        For the euclidean metric the tile uses the BLAS squared-distance
        expansion ``|a|^2 + |b|^2 - 2ab`` -- several times faster than
        the broadcast kernel because the dominant term is one ``dgemm``
        instead of an ``n x n x dim`` temporary.  The expansion's
        cancellation error is bounded by a few ulps of the largest
        centered squared norm, so comparing against a threshold shaved
        by ``1e-12`` of that norm keeps the test *conservative*: it can
        only fail to certify a point the metric kernel would have (never
        the reverse), which preserves exactness.  Other metrics go
        through :meth:`~repro.streams.WindowBuffer.pairwise_block`,
        whose rows are bit-identical to the scans' ``distances_from``.
        """
        tail = mat[lo:]
        if buf.metric.name == "euclidean":
            c = tail - tail.mean(axis=0)
            sq = np.einsum("ij,ij->i", c, c)
            d2 = sq[:, None] + sq[None, :] - 2.0 * (c @ c.T)
            max_sq = float(sq.max()) if sq.size else 0.0
            thresh = (self._r_min * self._r_min * (1.0 - _REACH_SHAVE)
                      - 1e-12 * max_sq)
            close = d2 <= thresh
            buf.distance_rows += tail.shape[0] * tail.shape[0]
            buf.kernel_calls += 1
        else:
            d = buf.pairwise_block(tail, lo, mat.shape[0])
            close = d <= self._r_min
        np.fill_diagonal(close, False)
        bound = np.triu(close, k=1).sum(axis=1, dtype=np.int64)
        if want_now:
            now = close.sum(axis=1, dtype=np.int64)
        else:
            now = np.zeros(tail.shape[0], dtype=np.int64)
        return bound, now

    # ------------------------------------------------------------- subclass

    def _anchor_rows(self, det, mat: np.ndarray, lo: int, boundary: int
                     ) -> np.ndarray:
        """Live row indexes (``>= lo``) to anchor certification balls on."""
        raise NotImplementedError

    def _fast_mask(self, det, mat: np.ndarray) -> Optional[np.ndarray]:
        """Extra statistical certainly-inlier mask (fast mode only)."""
        return None

    def _n_anchors(self, n: int) -> int:
        return min(self.max_anchors, max(1, n // self.anchor_stride))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(mode={self.mode!r}, "
                f"max_anchors={self.max_anchors})")


class SensitivityScreen(InlierScreen):
    """Uniformly sampled anchors (deterministic, boundary-seeded).

    Sampling anchors uniformly from the screened suffix is the
    sensitivity-sampling shortcut: regions holding a ``1/m`` fraction of
    the suffix's mass receive an anchor with high probability, so the
    certified balls cover the dense cores where inliers concentrate.
    Determinism: the RNG is seeded from the screen's own boundary
    counter, never from wall clock, so reruns (and checkpoint restores
    at the same boundary) screen identically.
    """

    name = "sensitivity"

    _SEED = 0x5EED

    def _anchor_rows(self, det, mat: np.ndarray, lo: int, boundary: int
                     ) -> np.ndarray:
        n = mat.shape[0] - lo
        m = min(self._n_anchors(n), n)
        rng = np.random.default_rng((self._SEED, boundary))
        return lo + rng.choice(n, size=m, replace=False)


class QnScreen(InlierScreen):
    """Density-hash anchors scaled by a windowed Qn/MAD estimate.

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

    Fast mode additionally prunes points whose max per-dimension robust
    z (median-centered, Qn-scaled: the FQN screening rule) is at most
    ``fast_z``.  On multimodal streams the global median/scale blur
    cluster structure, so the default ``fast_z`` is conservative; recall
    is measured, not assumed (``benchmarks/bench_prefilter.py``).
    """

    name = "qn"

    def __init__(self, plan, mode: str = "exact", fast_z: float = 1.0,
                 **kwargs):
        super().__init__(plan, mode, **kwargs)
        #: fast-mode robust-z prune threshold
        self.fast_z = float(fast_z)

    def _robust_z(self, mat: np.ndarray) -> np.ndarray:
        med = np.median(mat, axis=0)
        scale = windowed_qn_scale(mat)
        scale = np.where(scale > 0.0, scale, np.inf)
        return np.max(np.abs(mat - med) / scale, axis=1)

    def _anchor_rows(self, det, mat: np.ndarray, lo: int, boundary: int
                     ) -> np.ndarray:
        tail = mat[lo:]
        m = min(self._n_anchors(tail.shape[0]), tail.shape[0])
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

    def _fast_mask(self, det, mat: np.ndarray) -> Optional[np.ndarray]:
        return self._robust_z(mat) <= self.fast_z


def build_prefilter(config, plan) -> Optional[InlierScreen]:
    """The screen a :class:`~repro.engine.DetectorConfig` asks for.

    Returns ``None`` for ``prefilter="none"``.  Config validation already
    guarantees a known screen name, a triangle-inequality metric, and
    ``use_safe_inliers=True`` (certified prunes commit through the
    fully-safe machinery).
    """
    if config.prefilter == "none":
        return None
    if config.prefilter == "qn":
        return QnScreen(plan, mode=config.prefilter_mode)
    if config.prefilter == "sensitivity":
        return SensitivityScreen(plan, mode=config.prefilter_mode)
    raise ValueError(f"unknown prefilter {config.prefilter!r}")
