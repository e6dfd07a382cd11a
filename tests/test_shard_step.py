"""One shard-step as a fixed number of array passes, against the per-item
code it replaced.

Each property drives the array form and a verbatim copy of the loop it
replaced over the same hypothesis-drawn input and asserts equal results:

* the refresh's one K-SKY tile sweep with per-row starts against one
  sweep per start group (mixed starts, ranges crossing chunk edges, the
  ``_CHECK_EVERY`` cadence regime, the empty template, time windows);
* ``StreamPartitioner.split`` against the per-record ``_cell`` loop
  (values and ``v +- radius`` on cell edges, clamped tails, width 0,
  ``axis > 0``) and ``ensure_bounds`` against the sorting version;
* the replica-set merge against the owner-dict merge;
* the evaluator's one pass over all due queries against the per-query
  ``cumsum`` loop (ties at ``ws`` and at ``m``, ``k`` past a row's
  entries, blocks of every size).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, List, Optional

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Merger,
    Point,
    SOPDetector,
    StreamPartitioner,
    VectorizedSkybandEngine,
    make_synthetic_points,
    parse_workload,
)
from repro.bench import ScaledRanges, build_workload, default_ranges
from repro.core.ksky import _Resolution
from repro.core.lsky_soa import near_entries, resolve_entries
from repro.engine import evaluator as evaluator_mod
from repro.engine.evaluator import DueQueryEvaluator
from repro.engine import refresh as refresh_mod
from repro.engine.refresh import ScanBatch
from repro.streams.windows import COUNT, TIME

from conftest import scan_rows

# ------------------------------------------------ one sweep, per-row starts


def _group_scan(self, row_indexes, buffer, lo: int) -> ScanBatch:
    """``VectorizedSkybandEngine.scan_batched`` before per-row starts:
    one sweep for a group of rows sharing ``lo`` (verbatim)."""
    plan = self.plan
    n_layers = plan.n_layers
    k_max = plan.k_max
    chunk = self.chunk_size
    hi = len(buffer)
    n = len(row_indexes)
    mat = buffer.matrix()
    self_idx = np.asarray(row_indexes, dtype=np.intp)
    # degenerate empty sub-group template: the reference walk
    # terminates such rows at the first boundary check, which the
    # zero-selection fold would elide
    has_template = bool(self._pending)
    cadence = len(self._pending) > _Resolution._EXACT_LIMIT

    counts = np.zeros((n, n_layers), dtype=np.int32)
    #: live index each scan stopped at: its terminating candidate, the
    #: bottom of the chunk whose boundary check ended it, or ``lo``
    exit_at = np.full(n, min(lo, hi), dtype=np.intp)
    terminated = np.zeros(n, dtype=bool)
    act = np.arange(n)
    #: inserted entries per tile: owning row, live index, layer
    owners = [np.empty(0, dtype=np.intp)]
    lives = [np.empty(0, dtype=np.intp)]
    layers = [np.empty(0, dtype=self.layer_dtype)]
    q_mat: Optional[np.ndarray] = None
    #: the group's first tile (one logical chunk): no later tile
    #: holds more cells
    first_cells = n * chunk
    span = 0
    block_hi = hi
    while block_hi > lo and len(act):
        # logical chunks in this tile: one, then twice the last tile's
        span = min(2 * span, first_cells // (len(act) * chunk)) or 1
        block_lo = max(lo, block_hi - span * chunk)
        n_cols = block_hi - block_lo
        own = self_idx[act]
        if q_mat is None:
            q_mat = mat[own]
        dists = buffer.pairwise_block(q_mat, block_lo, block_hi)
        csum = np.cumsum(counts[act], axis=1, dtype=np.int32)
        # a point is no candidate of its own scan (Def. 5 ranges over
        # D_W - p).  The reach is read once per tile; inserts inside
        # it only lower it, and the entries a stale reach admits sit
        # at layers closed earlier in the tile, which the resolve
        # rejects.
        r_i, s_i, lay = near_entries(
            dists, own - block_lo,
            self._reach[(csum < k_max).sum(axis=1)], plan.grid)
        block_hi = block_lo
        if has_template and not len(r_i):
            buffer.distance_rows += len(act) * n_cols
            continue
        rank = self._sub_ks - csum[:, self._sub_layers]
        ins, stop, pending = resolve_entries(
            r_i, s_i, lay, n_cols, csum, rank, self._limits,
            self._sub_layers, chunk)
        # each row pays for the logical chunks up to the one it stops
        # in, as the per-point walk does; the resolve consumed the
        # near entries up to its stop
        buffer.distance_rows += int(np.minimum(
            (stop // chunk + 1) * chunk, n_cols).sum())
        self.near += int(np.count_nonzero(s_i <= stop[r_i]))
        self.py_iters += 1
        if cadence:
            hit = np.zeros(len(act), dtype=bool)
            hit[r_i] = True
            self.py_iters += int(np.count_nonzero(
                hit & ((rank > 0).sum(axis=1) > _Resolution._EXACT_LIMIT)))
        sel = ins.nonzero()[0]
        r_sel, l_sel = r_i[sel], lay[sel]
        owners.append(act[r_sel])
        lives.append(block_lo + (n_cols - 1) - s_i[sel])
        layers.append(l_sel.astype(self.layer_dtype))
        counts[act] += np.bincount(
            r_sel * n_layers + l_sel,
            minlength=len(act) * n_layers).reshape(len(act), n_layers)
        stopped = stop < n_cols
        done = (stopped | ~pending.any(axis=1)).nonzero()[0]
        if len(done):
            # a row exits at its stop -- a terminating candidate or an
            # inner chunk's bottom -- or, when the tile's last check
            # ended it (stop == n_cols), at the tile bottom
            exit_at[act[done]] = block_lo + np.where(
                stopped[done], (n_cols - 1) - stop[done], 0)
            terminated[act[done]] = True
            act = act[~terminated[act]]
            q_mat = None

    # everything newer than the exit point was examined, bar the
    # evaluated point itself
    examined = (hi - exit_at) - (exit_at <= self_idx)
    owner = np.concatenate(owners)
    order = np.argsort(owner, kind="stable")
    live = np.concatenate(lives)[order]
    self.soa_rows += len(live)
    return ScanBatch(owner[order].astype(np.int32),
                     buffer.seq_array()[live],
                     buffer.pos_array(self.by_time)[live],
                     np.concatenate(layers)[order], examined, terminated)


def _per_group_scans(engine, rows, buf, lo):
    """The refresh's old partition: a stable sort by start, one sweep per
    run of equal starts; the facts of each row, in ``rows`` order."""
    order = np.argsort(lo, kind="stable")
    rows, lo = rows[order], lo[order]
    edges = [0] + (np.flatnonzero(np.diff(lo)) + 1).tolist() + [len(rows)]
    facts: List = [None] * len(rows)
    for a, b in zip(edges, edges[1:]):
        got = scan_rows(_group_scan(engine, rows[a:b], buf, int(lo[a])))
        for j, row in zip(order[a:b].tolist(), got):
            facts[j] = row
    return facts


def _sweep_group(regime: str, kind: str, seed: int):
    if regime == "cadence":
        # 20 class-G queries, k up to 60: more than _EXACT_LIMIT
        # sub-groups
        return build_workload("G", n_queries=20, seed=seed, ranges=(
            ScaledRanges(r=(150, 1800), k=(2, 60), win=(200, 800),
                         slide=(50, 200), slide_quantum=50)))
    return build_workload("ABC"[seed % 3], n_queries=2 + seed % 4,
                          seed=seed, ranges=default_ranges(kind=kind))


@st.composite
def _sweep_case(draw):
    regime = draw(st.sampled_from(["plain", "cadence", "empty"]))
    kind = draw(st.sampled_from([COUNT, TIME])) if regime == "plain" \
        else COUNT
    n_points = draw(st.integers(2, 120))
    rows = draw(st.lists(st.integers(0, n_points - 1), min_size=1,
                         max_size=16, unique=True))
    # a few distinct starts, anywhere in [0, len]: ranges end mid-chunk,
    # on chunk edges and past the first tile; the empty range included
    choices = [0] + draw(st.lists(st.integers(0, n_points), min_size=1,
                                  max_size=3))
    starts = draw(st.lists(st.sampled_from(choices), min_size=len(rows),
                           max_size=len(rows)))
    return (regime, kind, draw(st.integers(0, 40)),
            draw(st.sampled_from([3, 7, 16, 64])), n_points,
            draw(st.integers(0, 50)), rows, starts,
            draw(st.sampled_from([None, 1, 2, 5])))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sweep_case())
def test_one_sweep_matches_per_group_sweeps(case):
    """One tile sweep over rows with their own starts equals one sweep
    per start group: same entries, examined counts and terminations per
    row, the same ``distance_rows`` and committed entries -- also when
    the rows outnumber one sweep's and go in blocks of ``per_sweep``."""
    (regime, kind, seed, chunk, n_points, stream_seed, rows, starts,
     per_sweep) = case
    group = _sweep_group(regime, kind, seed)
    plan = parse_workload(group)
    if regime == "cadence":
        assert len(plan.subgroups) > _Resolution._EXACT_LIMIT
    buf = SOPDetector(group).buffer
    buf.extend(make_synthetic_points(n_points, dim=2, outlier_rate=0.1,
                                     seed=stream_seed))
    engines = []
    for _ in range(2):
        eng = VectorizedSkybandEngine(plan, chunk_size=chunk)
        if regime == "empty":
            eng._pending = []
            eng._sub_layers = eng._sub_ks = np.empty(0, dtype=np.int64)
        engines.append(eng)
    rows, starts = np.asarray(rows), np.asarray(starts)

    before = buf.distance_rows
    want = _per_group_scans(engines[0], rows, buf, starts)
    want_rows = buf.distance_rows - before
    before = buf.distance_rows
    with pytest.MonkeyPatch.context() as mp:
        if per_sweep is not None:
            mp.setattr(refresh_mod, "_SWEEP_CELLS", per_sweep * chunk)
        batch = engines[1].scan_batched(rows, buf, starts)
    assert scan_rows(batch) == want
    assert buf.distance_rows - before == want_rows
    assert engines[1].soa_rows == engines[0].soa_rows
    # the commit reuses the sweep's per-row layer counts
    assert batch.counts.tolist() == np.bincount(
        batch.owner.astype(np.intp) * plan.n_layers + batch.layer,
        minlength=len(rows) * plan.n_layers).reshape(
            len(rows), plan.n_layers).tolist()


# ------------------------------------------------------------- routing


def _old_split(part, batch):
    """``StreamPartitioner.split`` before array routing (verbatim, one
    ``_cell`` call per record and per replica bound)."""
    shard_batches: List[List[Point]] = [[] for _ in range(part.n_shards)]
    owners: Dict[int, int] = {}
    if not batch:
        return shard_batches, owners
    for p in batch:
        part._check_axis(p)
        v = p.values[part.axis]
        owners[p.seq] = part._cell(v)
        lo = part._cell(v - part.radius)
        hi = part._cell(v + part.radius)
        for s in range(lo, hi + 1):
            shard_batches[s].append(p)
    return shard_batches, owners


@st.composite
def _route_case(draw):
    n_shards = draw(st.integers(2, 5))
    axis = draw(st.integers(0, 2))
    lo = float(draw(st.integers(-50, 50)))
    # exact cell widths (so edges are representable) and inexact ones;
    # width 0 is the degenerate range
    width = draw(st.sampled_from([0.0, 0.25, 1.0, 2.5, 0.1, 1 / 3]))
    radius = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 0.3, 7.0]))
    hi = lo + width * n_shards
    edges = [lo + i * width for i in range(n_shards + 1)]
    near_edge = st.builds(lambda e, d: e + d, st.sampled_from(edges),
                          st.sampled_from([0.0, radius, -radius,
                                           2 * radius, 1e-12, -1e-12]))
    anywhere = st.floats(lo - 100, hi + 100, allow_nan=False)
    values = draw(st.lists(st.one_of(near_edge, anywhere), min_size=1,
                           max_size=40))
    dim = axis + 1 + draw(st.integers(0, 1))
    points = [Point(seq=i, values=tuple(v if d == axis else float(d)
                                        for d in range(dim)))
              for i, v in enumerate(values)]
    return StreamPartitioner(n_shards, radius, bounds=(lo, hi),
                             axis=axis), points


@settings(max_examples=300, deadline=None)
@given(_route_case())
def test_array_routing_matches_per_record_loop(case):
    """One ``floor`` over the block and one span mask per shard route
    every record as the per-record loop does: same sub-batches, and a
    replica list per shard that is exactly the routed seqs it does not
    own."""
    part, points = case
    want, owners = _old_split(part, points)
    got, replicas = part.split(points)
    assert got == want
    assert replicas == [[p.seq for p in want[s] if owners[p.seq] != s]
                        for s in range(part.n_shards)]
    assert [part.cells(np.asarray([p.values[part.axis]]))[0]
            for p in points] == [owners[p.seq] for p in points]


def test_routing_axis_errors_and_overflow():
    part = StreamPartitioner(3, 1.0, bounds=(0.0, 3.0), axis=1)
    with pytest.raises(ValueError, match="axis 1 out of range"):
        part.split([Point(seq=0, values=(1.0, 2.0)),
                    Point(seq=1, values=(1.0,))])
    # a quotient past the float range: the scalar path raises, the array
    # path clamps it into the edge shard like any other tail
    tiny = StreamPartitioner(2, 0.0, bounds=(0.0, 2e-300))
    with pytest.raises(OverflowError):
        tiny._cell(1e10)
    with np.errstate(over="ignore"):
        cells = tiny.cells(np.asarray([-1e10, 1e-301, 1e10]))
    assert cells.tolist() == [0, 0, 1]


def _old_ensure_bounds(part, points):
    """``StreamPartitioner.ensure_bounds`` before selection (verbatim)."""
    if part._lo is not None:
        return
    values = sorted(p.values[part.axis] for p in points)
    if not values:
        return
    n = len(values)
    lo = values[min(int(part.TAIL_CLIP * n), n - 1)]
    hi = values[max(n - 1 - int(part.TAIL_CLIP * n), 0)]
    part._set_bounds(lo, hi)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.integers(-5, 5).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(-10, 10)), min_size=0, max_size=120))
def test_bounds_selection_matches_sorting(values):
    """The two clip order statistics selected with ``np.partition`` are
    the sorted list's: short streams (n < 40 clips nothing), duplicates,
    a single value, integer values."""
    points = [Point(seq=i, values=(v,)) for i, v in enumerate(values)]
    old, new = StreamPartitioner(3, 1.0), StreamPartitioner(3, 1.0)
    _old_ensure_bounds(old, points)
    new.ensure_bounds(points)
    assert new.bounds == old.bounds
    if values:
        assert new.cells(np.asarray(values, dtype=float)).tolist() == [
            old._cell(v) for v in values]


# ------------------------------------------------------------- merging


def _old_merge_boundary(owners, per_shard):
    """``Merger.merge_boundary`` over an owner dict (verbatim)."""
    merged: Dict[int, set] = {}
    for shard_id, outputs in enumerate(per_shard):
        for qi, seqs in outputs.items():
            bucket = merged.setdefault(qi, set())
            for seq in seqs:
                if owners.get(seq, shard_id) == shard_id:
                    bucket.add(seq)
    return {qi: frozenset(seqs) for qi, seqs in merged.items()}


@settings(max_examples=200, deadline=None)
@given(_route_case(), st.data())
def test_set_merge_matches_owner_dict_merge(case, data):
    """Each shard's verdicts minus its replica set, unioned per key, is
    the owner-dict filter: every seq a shard reports is one it was
    routed (or, like a legacy preload, one no owner entry names)."""
    part, points = case
    batches, owners = _old_split(part, points)
    _, replicas = part.split(points)
    merger = Merger(part.n_shards)
    merger.add(replicas)
    unrouted = [1000 + i for i in range(3)]
    per_shard = []
    for s in range(part.n_shards):
        held = [p.seq for p in batches[s]] + unrouted
        per_shard.append({
            qi: frozenset(data.draw(st.lists(st.sampled_from(held),
                                             max_size=len(held))))
            for qi in range(data.draw(st.integers(0, 3)))})
    assert merger.merge_boundary(per_shard) == _old_merge_boundary(
        owners, per_shard)


def test_replica_expiry_drops_a_prefix():
    merger = Merger(2)
    merger.add([[1, 4], [2]])
    merger.add([[7, 9], []])
    merger.forget_before(0, 5)
    assert merger.replicas == [{7, 9}, {2}]
    merger.forget_before(0, 9)
    merger.forget_before(1, None)
    assert merger.replicas == [{9}, set()]


# ----------------------------------------------------------- evaluation


def _old_evaluate(det, due, t):
    """``DueQueryEvaluator.evaluate`` before the batched pass (verbatim,
    one ``cumsum`` over the entry columns per due query)."""
    buf = det.buffer
    if not len(buf):
        return {qi: frozenset() for qi in due}
    det.stats["eval_flatten_rebuilds"] += 1
    table = det.table
    # fully safe rows are inliers for every query, forever
    rows = np.flatnonzero(~table.safe)
    seqs = buf.seq_array()[rows]
    ppos = buf.pos_array(det.by_time)[rows]
    # every owner is one of these rows, so row i's entries run from
    # its own lower bound to row i + 1's
    bounds = np.append(np.searchsorted(table.owner, seqs), len(table))

    out = {}
    for qi in due:
        q = det.group[qi]
        ws = float(max(0, t - q.win))
        m_q = det.plan.query_layers[qi]
        hits = np.zeros(len(table) + 1, dtype=np.int64)
        np.cumsum((table.layer <= m_q) & (table.pos >= ws), out=hits[1:])
        counts = hits[bounds[1:]] - hits[bounds[:-1]]
        sel = (ppos >= ws) & (counts < q.k)
        out[qi] = frozenset(seqs[sel].tolist())
    return out


class _Buffer:
    def __init__(self, seqs, pos):
        self._seqs, self._pos = seqs, pos

    def __len__(self):
        return len(self._seqs)

    def seq_array(self):
        return self._seqs

    def pos_array(self, by_time):
        return self._pos


class _Table:
    def __init__(self, safe, owner, layer, pos):
        self.safe, self.owner, self.layer, self.pos = safe, owner, layer, pos

    def __len__(self):
        return len(self.owner)


@st.composite
def _eval_case(draw):
    """A detector's evaluation inputs: rows (some fully safe, some owning
    no entries), owner-sorted entries whose positions and layers tie
    with the queries' window starts and layers, and due queries whose
    ``k`` reaches past the rows' entry counts."""
    by_time = draw(st.booleans())
    n_layers = draw(st.integers(1, 4))
    t = draw(st.integers(0, 30))
    grid = [float(v) for v in range(0, 31, 2)]
    if by_time:
        grid += [0.5, 7.25, 12.75]
    n_rows = draw(st.integers(0, 12))
    seqs = np.asarray(sorted(draw(st.sets(st.integers(0, 200),
                                          min_size=n_rows,
                                          max_size=n_rows))), dtype=np.int64)
    ppos = np.asarray(draw(st.lists(st.sampled_from(grid), min_size=n_rows,
                                    max_size=n_rows)), dtype=np.float64)
    safe = np.asarray(draw(st.lists(st.booleans(), min_size=n_rows,
                                    max_size=n_rows)), dtype=bool)
    owner, layer, pos = [], [], []
    for seq, is_safe in zip(seqs.tolist(), safe.tolist()):
        if is_safe:
            continue
        for _ in range(draw(st.integers(0, 7))):
            owner.append(seq)
            layer.append(draw(st.integers(0, n_layers - 1)))
            pos.append(draw(st.sampled_from(grid)))
    n_queries = draw(st.integers(1, 6))
    queries = [SimpleNamespace(win=draw(st.integers(0, 40)),
                               k=draw(st.integers(1, 9)))
               for _ in range(n_queries)]
    layers = tuple(draw(st.integers(0, n_layers - 1))
                   for _ in range(n_queries))
    det = SimpleNamespace(
        buffer=_Buffer(seqs, ppos),
        table=_Table(safe, np.asarray(owner, dtype=np.int64),
                     np.asarray(layer, dtype=np.uint8),
                     np.asarray(pos, dtype=np.float64)),
        stats={"eval_flatten_rebuilds": 0}, group=queries,
        plan=SimpleNamespace(query_layers=layers), by_time=by_time)
    due = draw(st.lists(st.integers(0, n_queries - 1), max_size=n_queries,
                        unique=True))
    return det, due, t


@settings(max_examples=300, deadline=None)
@given(_eval_case(), st.sampled_from([1, 3, 8, 1 << 16]))
def test_batched_evaluation_matches_per_query_loop(case, block):
    det, due, t = case
    want = _old_evaluate(det, due, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator_mod, "_BLOCK_CELLS", block)
        got = DueQueryEvaluator(det).evaluate(due, t)
    assert got == want
    assert list(got) == list(want)
    assert det.stats["eval_flatten_rebuilds"] == (2 if len(det.buffer)
                                                  else 0)
