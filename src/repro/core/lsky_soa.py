"""The tile-level K-SKY resolve: Alg. 2 over a whole kernel tile.

The scan engine (``repro.engine.refresh``) computes one ``rows x
candidates`` distance tile per chunk; this module decides what the
sequential per-candidate loop would have done with it, without a
per-entry interpreted loop:

* :func:`insert_limits` + :func:`tile_insert_mask` -- the Alg. 2
  ``skyEvaluate`` insert loop of a whole tile as one array pass per
  layer;
* :func:`tile_stops` -- where each row's scan stops inside that tile, in
  closed form, so the K-SKY termination rule costs no per-insert work.

Exactness of the tile insert mask (DESIGN.md section 12 carries the full
argument).  The sequential loop inserts a candidate at layer ``m`` iff
``c < k_max and m <= allowed_layer[c]`` where ``c`` is the dominator
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
   prefix is one comparison against ``limit(m)`` once the dominator base
   of each candidate is known.  Processing layers in ascending order
   makes that base available: a layer-``m`` candidate's dominators are
   the stored entries at layers ``<= m`` plus the already-resolved tile
   inserts at layers ``<= m`` that precede it in scan order -- and
   inserts at layers ``< m`` never depend on decisions at layers
   ``>= m``.  The argument is row-wise, so every row of a tile takes the
   same pass at once.

Exactness of the stops (DESIGN.md section 12, closed-form stops).  The mask ignores early
termination; what it fixes is the insert sequence the scan *would* make.
Sub-group ``(min_layer d, k)`` resolves at the insert that brings the
count of entries at layers ``<= d`` to ``k`` -- a position read off one
``cumsum`` -- and ``_Resolution``'s hybrid check cadence is a function of
those positions alone, so the stop point needs no replay.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .ksky import _Resolution

__all__ = ["insert_limits", "tile_insert_mask", "tile_stops"]


# ------------------------------------------------------------- tile resolve


def insert_limits(allowed_layer: Sequence[int], k_max: int,
                  n_layers: int) -> np.ndarray:
    """``limit[m]``: smallest dominator count that rejects a layer-``m``
    candidate.

    Because ``allowed_layer`` is nonincreasing, the Def. 6 predicate
    ``c < k_max and m <= allowed_layer[c]`` is exactly ``c < limit[m]``.
    Built once per plan; O(n_layers * k_max).
    """
    limits = np.empty(n_layers, dtype=np.int32)
    for m in range(n_layers):
        lim = k_max
        for c in range(k_max):
            if allowed_layer[c] < m:
                lim = c
                break
        limits[m] = lim
    return limits


def tile_insert_mask(L: np.ndarray, csum: np.ndarray,
                     limits: np.ndarray) -> np.ndarray:
    """Which candidates of a ``rows x candidates`` tile the sequential
    insert loop would insert, early termination ignored.

    ``L[R, W]`` holds candidate layers in scan (newest-first) order, with
    ``n_layers`` (or anything above) in every column a row must not
    consider -- beyond-``r_max`` candidates and the row's own point;
    ``csum[R, n_layers]`` is each row's cumulative stored layer count
    (``csum[:, m]`` = entries at layers ``<= m``); ``limits`` comes from
    :func:`insert_limits`.  One pass per layer some row still has room
    in, ascending: a layer-``m`` candidate is inserted iff its rank among
    the row's layer-``m`` candidates plus the lower-layer inserts scanned
    before it fits in ``limits[m] - csum[:, m]`` (the prefix argument of
    the module docstring, all rows at once).  Returns the boolean mask.
    """
    room = limits - csum
    passes = (room > 0).any(axis=0).nonzero()[0].tolist()
    ins = None
    #: lower-layer inserts scanned up to each position
    prior = None
    for m in passes:
        is_m = L == m
        rank = np.cumsum(is_m, axis=1, dtype=np.int32)
        take = is_m & ((rank if prior is None else rank + prior)
                       <= room[:, m, None])
        ins = take if ins is None else ins | take
        if m != passes[-1]:
            # the taken ones are a prefix of the layer's candidates, so
            # their running count is the rank capped at the prefix length
            np.minimum(rank, take.sum(axis=1, dtype=np.int32)[:, None],
                       out=rank)
            prior = rank if prior is None else prior + rank
    return np.zeros(L.shape, dtype=bool) if ins is None else ins


def tile_stops(L: np.ndarray, ins: np.ndarray, csum: np.ndarray,
               alive: np.ndarray, sub_layers: np.ndarray, sub_ks: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Where each row's scan terminates inside the tile, and what stays
    pending where it does not -- ``_Resolution`` in closed form.

    ``L``/``ins``/``csum`` as in :func:`tile_insert_mask`; ``alive[R, G]``
    marks each row's pending sub-groups of the template
    ``(sub_layers[g], sub_ks[g])``, all unresolved under ``csum`` (every
    chunk that inserts ends in ``check()``, so that -- and a zero
    ``_since_check`` -- is what a scan holds at chunk start).

    ``tau[r, g]`` is the scan position of the insert that resolves
    sub-group ``g`` (``W`` = not in this tile): the ``k - csum[d]``-th
    insert at layers ``<= d``.  A row with at most ``_EXACT_LIMIT``
    pending sub-groups is checked after every insert and stops at its
    largest pending ``tau``; a row with none stops at its first insert;
    a row with more replays the ``_CHECK_EVERY`` cadence over ``tau``
    converted to insert counts (the one per-row loop, for that regime
    only).  Returns ``(stop[R], pending[R, G])``: the terminating scan
    position (``W`` = the row runs the tile out; truncate ``ins`` after
    it) and the sub-groups still pending after the chunk-end ``check()``
    (none for a row that stopped).
    """
    width = L.shape[1]
    tau = np.full(alive.shape, width, dtype=np.int32)
    layers = sub_layers.tolist()
    cum_layer = -1
    for g in sorted(alive.any(axis=0).nonzero()[0].tolist(),
                    key=layers.__getitem__):
        d = layers[g]
        if d != cum_layer:
            cum_layer = d
            cum = np.cumsum(ins & (L <= d), axis=1, dtype=np.int32)
        tau[:, g] = (cum < (sub_ks[g] - csum[:, d])[:, None]).sum(axis=1)
    n_pending = alive.sum(axis=1)
    stop = np.max(tau, axis=1, initial=-1, where=alive)
    if not n_pending.all():
        idle = n_pending == 0
        stop[idle] = np.where(ins[idle].any(axis=1),
                              ins[idle].argmax(axis=1), width)
    if alive.shape[1] > _Resolution._EXACT_LIMIT:
        every = _Resolution._CHECK_EVERY
        for r in (n_pending > _Resolution._EXACT_LIMIT).nonzero()[0].tolist():
            at = ins[r].nonzero()[0]
            n_ins = len(at)
            # insert count at which each pending sub-group resolves
            t = tau[r, alive[r]]
            t = np.where(t < width, np.searchsorted(at, t, side="right"),
                         n_ins + 1)
            stop[r] = width
            for check in range(every, n_ins + 1, every):
                t = t[t > check]
                if len(t) <= _Resolution._EXACT_LIMIT:
                    # all resolved at this check, or the exact rule from
                    # here on
                    last = int(t.max()) if len(t) else check
                    if last <= n_ins:
                        stop[r] = at[last - 1]
                    break
    pending = alive & (tau == width) & (stop == width)[:, None]
    return stop, pending
