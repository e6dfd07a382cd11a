"""The tile-level K-SKY resolve: Alg. 2 over a whole kernel tile.

The scan engine (``repro.engine.refresh``) computes one ``rows x
candidates`` distance tile per chunk; this module decides what the
sequential per-candidate loop would have done with it, without a
per-entry interpreted loop and without touching the cells no query can
use:

* :func:`near_entries` -- compact the tile into its *near entries*: the
  cells within their row's reach (never beyond ``r_max``, Def. 5
  condition 3), bar the row's own column, hashed to layers in row, then
  scan order;
* :func:`resolve_entries` -- which of them the Alg. 2 ``skyEvaluate``
  loop inserts, where each row's scan stops, and what stays pending, as
  order statistics of one running count per needed layer.

Exactness (DESIGN.md section 12 carries the full argument).  The
sequential loop inserts a candidate at layer ``m`` iff ``c < k_max and
m <= allowed_layer[c]`` where ``c`` is the dominator count at evaluation
time.  ``allowed_layer`` is nonincreasing in ``c`` (a suffix maximum
over sub-groups with ``k_j > c``; see ``SkybandPlan``), so the predicate
is ``c < limit(m)`` with ``limit`` nonincreasing in ``m``
(:func:`insert_limits`).  Call layer ``m`` *closed* once ``count(<= m)
>= limit(m)``; then every higher layer is closed too, because
``count(<= m') >= count(<= m) >= limit(m) >= limit(m')``.  Layers close
top-down, and before layer ``j`` closes every candidate at a layer
``<= j`` is inserted -- so the ``t``-th candidate at a layer ``<= j`` *is*
the ``t``-th insert there, and the insert set is one position per
``(row, layer)``: the candidate that closes the layer.  Every plan
sub-group ``(min_layer d, k)`` has ``limit(d) >= k`` (``allowed_layer[c]
>= max_layer >= d`` for ``c < k``), so the insert that resolves it is a
candidate rank as well, and ``_Resolution``'s hybrid check cadence is a
function of those positions alone: the stop point needs no replay.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["CHECK_EVERY", "EXACT_LIMIT", "insert_limits", "near_entries",
           "resolve_entries"]

#: the check cadence of a K-SKY scan (``repro.core.ksky._Resolution``
#: reads both): a row with at most ``EXACT_LIMIT`` pending sub-groups
#: checks them after every insert, one with more every ``CHECK_EVERY``
#: inserts (and at chunk boundaries and the scan's end)
EXACT_LIMIT = 8
CHECK_EVERY = 32


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


def near_entries(dists: np.ndarray, own: np.ndarray, radius: np.ndarray,
                 grid, widths: Optional[np.ndarray] = None
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compact one distance tile into the cells its rows can use.

    ``dists[R, W]`` holds the tile in buffer (arrival-ascending) order,
    so scan position ``s`` is column ``W - 1 - s``; ``own[R]`` is the
    column of each row's own point (outside ``[0, W)``: not in this tile
    -- Def. 5 ranges over ``D_W - p``); ``radius[R]`` is each row's
    reach, at most the grid's largest ``r``; ``widths[R]`` (default: all
    ``W``) is how many scan positions are each row's candidates -- a row
    whose range ends inside the tile has none below it.  ``dists <=
    radius`` is the grid's own classification
    (:meth:`~repro.core.parser.RGrid.layers_of` hashes with
    ``side="left"``: a distance exactly at ``r`` sits in ``r``'s layer).
    Returns ``(r_i, s_i, lay)``: row, scan position and layer of every
    near cell, by row, then scan order.
    """
    width = dists.shape[1]
    near = dists <= radius[:, None]
    if widths is not None and widths.min(initial=width) < width:
        # scan position s is column width - 1 - s: a row's candidates are
        # its last widths[r] columns
        near &= np.arange(width) >= (width - widths)[:, None]
    at = ((own >= 0) & (own < width)).nonzero()[0]
    near[at, own[at]] = False
    # (a flat index split by hand: 2-D ``nonzero`` costs twice as much)
    flat = np.flatnonzero(near[:, ::-1])
    r_i = flat // width
    s_i = flat - r_i * width
    return r_i, s_i, grid.layers_of(dists[r_i, (width - 1) - s_i])


def resolve_entries(r_i: np.ndarray, s_i: np.ndarray, lay: np.ndarray,
                    width: Union[int, np.ndarray], csum: np.ndarray,
                    rank: np.ndarray, limits: np.ndarray,
                    sub_layers: np.ndarray,
                    chunk: Optional[int] = None
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alg. 2 over a tile's near entries: what the sequential loop
    inserts, where each row's scan stops, and what stays pending --
    ``skyEvaluate`` and ``_Resolution`` in closed form.

    ``r_i``/``s_i``/``lay`` come from :func:`near_entries` over a tile
    ``width`` candidates wide -- one width for every row, or one per row
    (``width[r]``: a row whose candidate range ends inside the tile, which
    is that row's tile bottom); ``csum[R, n_layers]`` is each row's
    cumulative stored layer count (``csum[:, m]`` = entries at layers
    ``<= m``); ``rank[R, G]`` is how many more entries at layers ``<=
    sub_layers[g]`` each row needs to resolve sub-group ``g`` of the
    template (``k_g - csum[r, d_g]``).  A row's pending sub-groups are
    exactly its unresolved ones, ``rank > 0`` (every chunk that inserts
    ends in ``check()``, so that -- and a zero ``_since_check`` -- is what
    a scan holds at chunk start); ``limits`` comes from
    :func:`insert_limits`.

    One running count of the entries at layers ``<= j`` per needed layer
    ``j`` -- one some row still has room in, or some pending sub-group's
    ``min_layer`` -- and two order statistics read off it (the module
    docstring's top-down closing argument makes candidate ranks insert
    ranks):

    * layer ``j`` closes at the ``(limits[j] - csum[r, j])``-th entry at
      layers ``<= j``; an entry is inserted iff it comes no later than
      the one closing its layer;
    * ``tau[r, g]``, the insert that resolves sub-group ``g``, is the
      ``rank[r, g]``-th such entry at ``d_g``.

    A row with at most ``EXACT_LIMIT`` pending sub-groups is checked
    after every insert and stops at its largest pending ``tau``; a row
    with none (the degenerate empty template) stops at its first insert;
    a row with more replays the ``CHECK_EVERY`` cadence over ``tau``
    converted to insert counts (the one per-row loop, for that regime
    only).

    A tile may span several logical chunks of ``chunk`` candidates each
    (default: one chunk, the whole tile), counted from scan position 0;
    each ends in a ``check()`` -- the last one at the row's own tile
    bottom.  That check is a no-op in the exact regime (every insert was
    checked); in the cadence regime it restarts the ``CHECK_EVERY``
    count and, when it resolves everything, ends the scan at that chunk's
    bottom.  The empty template's first check ends it at the first
    chunk's bottom.
    Returns ``(ins, stop, pending)``: the inserted entries up to and
    including each row's stop, its scan position -- the terminating
    candidate, or the last position of the inner chunk whose check ended
    the scan; the row's width = it runs the tile out -- and the
    sub-groups still pending after the tile's last ``check()`` (none for
    a row that stopped).
    """
    n_rows, n_layers = csum.shape
    widths = np.broadcast_to(np.asarray(width, dtype=np.intp), (n_rows,))
    chunk = int(widths.max(initial=0)) if chunk is None else chunk
    n_ent = len(r_i)
    entry = np.arange(n_ent)
    bases = r_i.searchsorted(np.arange(n_rows + 1))
    starts, ends = bases[:-1], bases[1:]
    room = limits - csum
    alive = rank > 0
    live = alive.any(axis=0).nonzero()[0]
    d_live = sub_layers[live]
    needed = (room > 0).any(axis=0)
    needed[d_live] = True
    layers = needed.nonzero()[0]
    # the needed layers' running counts laid end to end, the i-th offset
    # by i * (n_ent + 1): one nondecreasing array, so one searchsorted
    # reads an order statistic for every (layer, row) at once.  The
    # rank-th entry of row r at layers <= j is the first whose count
    # reaches the row's base plus rank; a rank <= 0 lands before the row,
    # a rank past its entries after them -- in a neighbouring layer's
    # block if need be, still outside the row's entry range.  Counts are
    # int32 whenever every query (a base plus a rank of at most k_max)
    # fits: that halves the largest array of the pass.
    offset = np.arange(len(layers)) * (n_ent + 1)
    top = len(layers) * (n_ent + 1) + int(limits.max())
    cum = np.empty((len(layers), n_ent + 1),
                   dtype=np.int32 if top < 2 ** 31 else np.intp)
    cum[:, 0] = offset
    np.less_equal(lay, layers[:, None], out=cum[:, 1:])
    cum.cumsum(axis=1, out=cum)
    base = cum[:, starts]
    cum = cum.ravel()
    #: entry index of the insert closing each (layer, row); -1 = closed
    close = np.full((n_layers, n_rows), -1, dtype=np.intp)
    close[layers] = (cum.searchsorted(base + room.T[layers]) - 1
                     - offset[:, None])
    #: entry index of the insert resolving each (row, sub-group):
    #: ``n_ent`` = not in this tile, below the row's entries = before it
    #: (not pending), so a row's largest is its largest pending one
    tau = np.full(rank.shape, -1, dtype=np.intp)
    at_d = layers.searchsorted(d_live)
    t = (cum.searchsorted(base[at_d].T + rank[:, live]) - 1
         - offset[at_d])
    tau[:, live] = np.where(t < ends[:, None], t, n_ent)
    ins = entry <= close[lay, r_i]

    n_pending = alive.sum(axis=1)
    #: each row's terminating entry (``n_ent``: none)
    stop = tau.max(axis=1, initial=-1)
    #: ... or the scan position of the inner logical chunk bottom whose
    #: boundary check ended the row (its width: none)
    bottom = widths.copy()
    idle = (n_pending == 0).nonzero()[0]
    if len(idle):
        first = np.append(ins.nonzero()[0], n_ent)
        first = first[np.searchsorted(first, starts[idle])]
        stop[idle] = np.where(first < ends[idle], first, n_ent)
        # the empty template's first check -- at the first chunk's end,
        # if the row's range reaches past it -- ends the scan
        bottom[idle] = np.where(chunk < widths[idle], chunk - 1,
                                widths[idle])
    if alive.shape[1] > EXACT_LIMIT:
        for r in (n_pending > EXACT_LIMIT).nonzero()[0].tolist():
            a = starts[r]
            stop[r], bottom[r] = _cadence_stop(
                tau[r, alive[r]], a + ins[a:ends[r]].nonzero()[0], s_i,
                n_ent, chunk, int(widths[r]))
    stop_at = bottom
    hit = stop < n_ent
    stop_at[hit] = np.minimum(s_i[stop[hit]], bottom[hit])
    stopped = stop_at < widths
    pending = alive & (tau == n_ent) & ~stopped[:, None]
    if stopped.any():
        ins &= s_i <= stop_at[r_i]
    return ins, stop_at, pending


def _cadence_stop(tau: np.ndarray, at: np.ndarray, s_i: np.ndarray,
                  n_ent: int, chunk: int, width: int) -> Tuple[int, int]:
    """One cadence-regime row: replay ``_Resolution``'s checks over its
    inserts.  ``tau`` holds the resolving entry of each pending
    sub-group (``n_ent``: not in the tile), ``at`` the row's inserted
    entries in scan order.  Within each logical chunk the
    ``CHECK_EVERY`` count restarts, and the chunk ends in a ``check()``;
    a chunk without an insert holds no check that could change anything.
    Returns ``(stop, bottom)`` as :func:`resolve_entries` keeps them."""
    every = CHECK_EVERY
    n_ins = len(at)
    # the insert count at which each pending sub-group resolves
    t = np.where(tau < n_ent, np.searchsorted(at, tau, side="right"),
                 n_ins + 1)
    chunks, begin = np.unique(s_i[at] // chunk, return_index=True)
    for j, a, b in zip(chunks.tolist(), begin.tolist(),
                       begin[1:].tolist() + [n_ins]):
        # checks at every ``every``-th insert of the chunk, then its end
        for check in [*range(a + every, b + 1, every), None]:
            t = t[t > (b if check is None else check)]
            if len(t) > EXACT_LIMIT:
                continue
            if len(t):
                # the exact rule from here on: stop at the last resolve
                last = int(t.max())
                return (int(at[last - 1]) if last <= n_ins else n_ent), width
            if check is not None:
                return int(at[check - 1]), width
            # all resolved at the chunk end: exit at its bottom (the
            # tile's own bottom is ``pending`` running empty)
            end = (j + 1) * chunk
            return n_ent, (end - 1 if end < width else width)
    return n_ent, width
