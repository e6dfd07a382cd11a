"""LSkySoA: the layered skyband as a flat structure-of-arrays tier.

The detector's committed per-point evidence is three parallel numpy
arrays ``(seqs, poss, layers)`` in arrival-descending order.  This module
holds what the scan engine (``repro.engine.refresh``) needs to produce
them without a per-entry interpreted loop:

* :class:`LSkySoA` -- the array carrier a scan result hands to the
  evidence commit (the reference :class:`~repro.core.lsky.LSky` keeps the
  paper's mutation/query API; this one only adopts and exposes arrays);
* :func:`insert_limits` + :func:`resolve_chunk_inserts` -- the vectorized
  form of the Alg. 2 ``skyEvaluate`` insert loop over a whole candidate
  chunk (see the exactness argument below);
* an optional numba kernel behind the ``REPRO_NUMBA=1`` environment flag
  (:func:`numba_active`), which compiles the *literal* sequential decision
  loop; when numba is absent or the flag is off, the pure-numpy path runs.

Exactness of the vectorized insert resolve (DESIGN.md section 12 carries the
full argument).  The sequential loop inserts a candidate at layer ``m``
iff ``c < k_max and m <= allowed_layer[c]`` where ``c`` is the dominator
count at evaluation time.  Two structural facts make the loop computable
with array passes:

1. ``allowed_layer`` is *nonincreasing* in ``c`` (it is a suffix maximum
   over sub-groups with ``k_j > c``; see ``SkybandPlan``).  Hence the
   insert predicate collapses to ``c < limit(m)`` with
   ``limit(m) = min{c : c >= k_max or allowed_layer[c] < m}``
   (:func:`insert_limits`).
2. For a *fixed* layer ``m``, the dominator count seen by successive
   layer-``m`` candidates is nondecreasing along the scan (inserts only
   ever add dominators).  Therefore the inserted layer-``m`` candidates
   form a *prefix* of the layer-``m`` candidates in scan order, and the
   prefix length is one ``searchsorted`` against ``limit(m)`` once the
   dominator base of each candidate is known.  Processing layers in
   ascending order makes that base available: a layer-``m`` candidate's
   dominators are the stored entries at layers ``<= m`` plus the
   already-resolved chunk inserts at layers ``<= m`` that precede it in
   scan order -- and inserts at layers ``< m`` never depend on decisions
   at layers ``>= m``.

The resolve ignores early termination; the caller replays the (small)
insert sequence through the real ``_Resolution`` tracker to find the exact
cut point, so regime transitions and check cadence stay literal.
"""

from __future__ import annotations

import os
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .lsky import SkybandEntry

__all__ = ["LSkySoA", "insert_limits", "resolve_chunk_inserts",
           "numba_active"]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


class LSkySoA:
    """One scan's skyband as ``int64``/``float64``/``int64`` arrays.

    Entries are in scan (arrival-descending) order with layers within
    ``[0, n_layers)``; the scan order guarantees both, nothing is
    re-validated here.  Inputs may be arrays or plain lists.  Every result
    is consumed exactly once -- frozen into the point's canonical arrays
    by the evidence commit (:meth:`as_arrays`) -- so construction is one
    ``asarray`` per column and nothing else.
    """

    __slots__ = ("n_layers", "seqs", "poss", "layers")

    def __init__(self, n_layers: int, seqs=_EMPTY_I, poss=_EMPTY_F,
                 layers=_EMPTY_I):
        self.n_layers = n_layers
        self.seqs = np.asarray(seqs, dtype=np.int64)
        self.poss = np.asarray(poss, dtype=np.float64)
        self.layers = np.asarray(layers, dtype=np.int64)

    @classmethod
    def from_segments(cls, n_layers: int, segs_s: List, segs_p: List,
                      segs_l: List) -> "LSkySoA":
        """Adopt per-chunk scan-order segments (arrays or plain lists)."""
        if len(segs_s) == 1:
            return cls(n_layers, segs_s[0], segs_p[0], segs_l[0])
        return cls(
            n_layers,
            np.concatenate([np.asarray(s, dtype=np.int64) for s in segs_s]),
            np.concatenate([np.asarray(p, dtype=np.float64) for p in segs_p]),
            np.concatenate([np.asarray(l, dtype=np.int64) for l in segs_l]),
        )

    def __len__(self) -> int:
        return len(self.seqs)

    def entries(self) -> Iterator[SkybandEntry]:
        """All entries in processing (arrival-descending) order."""
        return iter(zip(self.seqs.tolist(), self.poss.tolist(),
                        self.layers.tolist()))

    def as_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical ``(seqs, poss, layers)`` arrays -- the representation
        contract shared with :meth:`LSky.as_arrays`; treat as read-only."""
        return self.seqs, self.poss, self.layers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LSkySoA({len(self)} entries over {self.n_layers} layers)"


# --------------------------------------------------------- vectorized resolve


def insert_limits(allowed_layer: Sequence[int], k_max: int,
                  n_layers: int) -> np.ndarray:
    """``limit[m]``: smallest dominator count that rejects a layer-``m``
    candidate.

    Because ``allowed_layer`` is nonincreasing, the Def. 6 predicate
    ``c < k_max and m <= allowed_layer[c]`` is exactly ``c < limit[m]``.
    Built once per plan; O(n_layers * k_max).
    """
    limits = np.empty(n_layers, dtype=np.int64)
    for m in range(n_layers):
        lim = k_max
        for c in range(k_max):
            if allowed_layer[c] < m:
                lim = c
                break
        limits[m] = lim
    return limits


def resolve_chunk_inserts(
    m_scan: np.ndarray, layer_counts: np.ndarray, limits: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions (in scan order) the sequential insert loop would insert.

    ``m_scan`` holds candidate layers in scan (newest-first) order, all
    ``< n_layers``; ``layer_counts`` the stored per-layer entry counts
    (not mutated); ``limits`` comes from :func:`insert_limits`.  Early
    termination is ignored -- the caller replays the returned sequence
    through ``_Resolution`` and truncates at the exact stop point.

    Returns ``(positions, layers)`` with positions strictly ascending.
    """
    n = m_scan.shape[0]
    if not n:
        return _EMPTY_I, _EMPTY_I
    order = np.argsort(m_scan, kind="stable")
    m_sorted = m_scan[order]
    csum = np.cumsum(layer_counts)
    uniq, starts = np.unique(m_sorted, return_index=True)
    bounds = np.append(starts, n)
    ins_pos: Optional[np.ndarray] = None
    out_pos: List[np.ndarray] = []
    out_m: List[np.ndarray] = []
    for ui in range(uniq.shape[0]):
        m = int(uniq[ui])
        # scan positions of the layer-m candidates, ascending (stable sort)
        pos_m = order[starts[ui]: bounds[ui + 1]]
        base = int(csum[m])
        if ins_pos is not None:
            # + already-resolved lower-layer inserts preceding each one
            vals = (base + np.searchsorted(ins_pos, pos_m)
                    + np.arange(pos_m.shape[0]))
        else:
            vals = base + np.arange(pos_m.shape[0])
        # dominator counts along the would-be insert prefix are strictly
        # increasing, so the prefix ends at one searchsorted
        t = int(np.searchsorted(vals, int(limits[m]), side="left"))
        if t:
            take = pos_m[:t]
            out_pos.append(take)
            out_m.append(np.full(t, m, dtype=np.int64))
            ins_pos = (take if ins_pos is None
                       else np.sort(np.concatenate((ins_pos, take))))
    if not out_pos:
        return _EMPTY_I, _EMPTY_I
    pos_all = np.concatenate(out_pos)
    m_all = np.concatenate(out_m)
    o = np.argsort(pos_all)
    return pos_all[o], m_all[o]


# ------------------------------------------------------------- numba (gated)

#: feature flag: compile the sequential resolve with numba when available
_NUMBA_FLAG = os.environ.get("REPRO_NUMBA", "") == "1"
_NUMBA_KERNEL = None
_NUMBA_TRIED = False


def _load_numba_kernel():
    """Compile the literal sequential insert loop; None when unavailable."""
    global _NUMBA_KERNEL, _NUMBA_TRIED
    if _NUMBA_TRIED:
        return _NUMBA_KERNEL
    _NUMBA_TRIED = True
    try:  # pragma: no cover - exercised only on numba-equipped CI
        import numba

        @numba.njit(cache=False)
        def _resolve(m_scan, layer_counts, allowed, k_max):
            counts = layer_counts.copy()
            n = m_scan.shape[0]
            out = np.empty(n, np.int64)
            w = 0
            for s in range(n):
                m = m_scan[s]
                dc = 0
                for layer in range(m + 1):
                    dc += counts[layer]
                if dc < k_max and m <= allowed[dc]:
                    counts[m] += 1
                    out[w] = s
                    w += 1
            return out[:w]

        # warm the compile outside the hot path
        _resolve(np.zeros(1, np.int64), np.zeros(1, np.int64),
                 np.zeros(1, np.int64), 1)
        _NUMBA_KERNEL = _resolve
    except Exception:
        _NUMBA_KERNEL = None
    return _NUMBA_KERNEL


def numba_active() -> bool:
    """True iff ``REPRO_NUMBA=1`` and numba imported and compiled."""
    return _NUMBA_FLAG and _load_numba_kernel() is not None


def resolve_chunk_inserts_numba(
    m_scan: np.ndarray, layer_counts: np.ndarray, allowed: np.ndarray,
    k_max: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Numba-compiled sequential resolve; same contract as
    :func:`resolve_chunk_inserts` (positions ascending, layers aligned)."""
    kernel = _load_numba_kernel()
    pos = kernel(m_scan, layer_counts, allowed, k_max)
    return pos, m_scan[pos]
