"""LSky: the layered skyband structure (Sec. 3.1.2, Fig. 2).

LSky stores the skyband points discovered for one evaluated point ``p``.
Entries carry the *normalized distance* layer (Def. 4) instead of the raw
distance, and are appended in K-SKY's processing order -- strictly
descending arrival order ("last come, first served").  That single ordering
gives every operation the paper needs:

* **dominator count** (Def. 5): every stored entry arrived later than the
  entry being evaluated, so the number of points dominating a candidate at
  layer ``m`` is simply the number of stored entries with layer ``<= m``;
* **windowed neighbor counting** (k-distance observation + Lemma 3): the
  entries within a window form a prefix of the list, so counting neighbors
  of a query ``(k, r -> layer m, win)`` walks the prefix and stops at ``k``;
* **safe-inlier detection** (Sec. 3.2.2/4.1): the entries that *succeed*
  ``p`` are likewise a prefix.

The per-layer buckets of the paper's Fig. 2 are recoverable via
:meth:`layer_buckets` (tests assert the paper's examples against them);
the flat representation is what the detector uses.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LSky", "SkybandEntry"]

#: one skyband point: (seq, pos, layer); ``pos`` is the stream position used
#: by windows (``seq`` for count-based, ``time`` for time-based windows).
SkybandEntry = Tuple[int, float, int]


class LSky:
    """Layered skyband evidence for a single evaluated point."""

    __slots__ = ("n_layers", "seqs", "poss", "layers", "_sorted_layers",
                 "_buckets_cache", "_cards_cache")

    def __init__(self, n_layers: int):
        if n_layers < 1:
            raise ValueError("LSky needs at least one layer")
        self.n_layers = n_layers
        self.seqs: List[int] = []
        self.poss: List[float] = []
        self.layers: List[int] = []
        # multiset of layers, kept sorted for O(log n) dominator counting
        self._sorted_layers: List[int] = []
        # memoized layer_buckets()/layer_cardinalities(), keyed on the
        # entry count: LSky is append-only, so a count match proves the
        # cache is current under *every* mutation path -- insert(),
        # extend_older(), and the batched scan's direct list appends alike
        # (an invalidate-on-insert scheme would go stale on the latter two)
        self._buckets_cache: Optional[Tuple[int, Dict[int, List[int]]]] = None
        self._cards_cache: Optional[Tuple[int, Dict[int, int]]] = None

    # ------------------------------------------------------------- mutation

    def insert(self, seq: int, pos: float, layer: int) -> None:
        """Append a skyband point (must be older than all stored entries)."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range [0, {self.n_layers})")
        if self.seqs and seq >= self.seqs[-1]:
            raise ValueError(
                f"entries must be inserted in descending seq order: "
                f"{seq} after {self.seqs[-1]}"
            )
        self.seqs.append(seq)
        self.poss.append(pos)
        self.layers.append(layer)
        insort(self._sorted_layers, layer)

    def extend_older(self, entries: Sequence[SkybandEntry]) -> None:
        """Bulk-append entries that are all older than the stored ones.

        Used by the least-examination path: a surviving point's previous
        skyband entries are appended verbatim after the new arrivals have
        been processed.  No per-entry domination test is needed -- older
        points can never dominate the stored (younger) entries, and every
        appended entry is a genuine neighbor, so windowed counts remain
        exact (capped at ``k_max``; see DESIGN.md).
        """
        if not entries:
            return
        if self.seqs and entries[0][0] >= self.seqs[-1]:
            raise ValueError(
                f"extend_older requires strictly older entries: "
                f"{entries[0][0]} after {self.seqs[-1]}"
            )
        prev = entries[0][0] + 1
        for seq, pos, layer in entries:
            if seq >= prev:
                raise ValueError("extend_older entries must be seq-descending")
            if not 0 <= layer < self.n_layers:
                raise ValueError(f"layer {layer} out of range")
            prev = seq
        self.seqs.extend(e[0] for e in entries)
        self.poss.extend(e[1] for e in entries)
        self.layers.extend(e[2] for e in entries)
        self._sorted_layers.extend(e[2] for e in entries)
        self._sorted_layers.sort()

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self.seqs)

    def dominator_count(self, layer: int) -> int:
        """Number of stored entries that dominate a candidate at ``layer``.

        All stored entries are younger than any candidate K-SKY is currently
        evaluating, so domination (Def. 5) reduces to ``entry.layer <= layer``.
        """
        return bisect_right(self._sorted_layers, layer)

    def count_within(self, max_layer: int, min_pos: float, cap: int) -> int:
        """Neighbors with ``layer <= max_layer`` and ``pos >= min_pos``.

        Counting stops at ``cap`` (the query's ``k``): by the k-distance
        observation only "are there at least k?" matters.  Entries are
        position-descending, so the scan ends at the first expired entry.
        """
        count = 0
        for pos, layer in zip(self.poss, self.layers):
            if pos < min_pos:
                break
            if layer <= max_layer:
                count += 1
                if count >= cap:
                    break
        return count

    def succ_layers(self, p_seq: int) -> List[int]:
        """Layers of entries that arrived after point ``p_seq`` (its
        *succeeding* neighbors), in arrival-descending order.

        These entries form a prefix of the list; they never expire before
        ``p`` does, which is what makes safe-inlier claims permanent.
        """
        out: List[int] = []
        for seq, layer in zip(self.seqs, self.layers):
            if seq <= p_seq:
                break
            out.append(layer)
        return out

    def k_distance_layer(self, k: int) -> Optional[int]:
        """Layer of the k-th nearest neighbor by normalized distance.

        This is the *k-distance observation* of Sec. 3.1.1: if the value is
        ``m`` then ``p`` is an outlier for every query with layer < ``m``
        and an inlier for every query with layer >= ``m`` (in the swift
        window).  Returns ``None`` when fewer than ``k`` entries exist.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        if len(self._sorted_layers) < k:
            return None
        return self._sorted_layers[k - 1]

    def unexpired_entries(self, min_pos: float) -> List[SkybandEntry]:
        """Entries with ``pos >= min_pos``, preserving descending order.

        This is the ``expireSkyband`` step of Alg. 1 (line 4): the input of
        the next K-SKY run for an existing point is these entries plus the
        new arrivals.
        """
        keep = 0
        for pos in self.poss:
            if pos < min_pos:
                break
            keep += 1
        return [
            (self.seqs[i], self.poss[i], self.layers[i]) for i in range(keep)
        ]

    def entries(self) -> Iterator[SkybandEntry]:
        """All entries in processing (arrival-descending) order."""
        return iter(zip(self.seqs, self.poss, self.layers))

    def layer_buckets(self) -> Dict[int, List[int]]:
        """Buckets ``B_m -> [seqs...]`` as drawn in the paper's Fig. 2.

        Within each bucket, seqs are listed in arrival order (earliest at
        the head) so that "skyband points can be quickly expired when the
        window slides" -- matching the figure's head-to-tail layout.
        Memoized per entry count (the structure is append-only); callers
        must treat the returned lists as read-only between mutations.
        """
        n = len(self.seqs)
        if self._buckets_cache is None or self._buckets_cache[0] != n:
            buckets: Dict[int, List[int]] = {}
            for seq, layer in zip(self.seqs, self.layers):
                buckets.setdefault(layer, []).append(seq)
            self._buckets_cache = (
                n, {m: list(reversed(s)) for m, s in sorted(buckets.items())})
        return {m: list(s) for m, s in self._buckets_cache[1].items()}

    def layer_cardinalities(self) -> Dict[int, int]:
        """Per-layer entry counts (the explicit cardinalities of Alg. 2);
        memoized per entry count, like :meth:`layer_buckets`."""
        n = len(self.layers)
        if self._cards_cache is None or self._cards_cache[0] != n:
            counts: Dict[int, int] = {}
            for layer in self.layers:
                counts[layer] = counts.get(layer, 0) + 1
            self._cards_cache = (n, dict(sorted(counts.items())))
        return dict(self._cards_cache[1])

    def as_arrays(self) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
        """Canonical ``(seqs, poss, layers)`` int64/f64/int64 arrays.

        The columns the detector's evidence table stores every committed
        skyband entry in, so an ``LSky`` built by the reference runner
        converts here at the commit boundary.  Treat the result as
        read-only.
        """
        n = len(self.seqs)
        if not n:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64),
                    np.empty(0, dtype=np.int64))
        return (np.asarray(self.seqs, dtype=np.int64),
                np.asarray(self.poss, dtype=np.float64),
                np.asarray(self.layers, dtype=np.int64))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LSky({len(self)} entries over {self.n_layers} layers)"
