"""The columnar evidence table: the group commit and row alignment.

* the vectorized group commit (``RefreshEngine._commit``) against the
  literal per-row least-examination merge + safe-for-all test of
  ``repro.testing.reference`` on hypothesis-drawn groups;
* one joint commit over 1-5 tables laid end to end against each table's
  own commit through a verbatim copy of the owner-column commit it
  replaced, and one commit per refresh in a sharded runtime;
* the run offsets (``start``) under ``append``, ``drop_rows`` and
  ``state`` on empty and all-expired tables;
* the table's per-row arrays stay aligned with the ``WindowBuffer`` rows
  across buffer compaction, time windows and checkpoint resume.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    NaiveDetector,
    OutlierQuery,
    QueryGroup,
    Runtime,
    SOPDetector,
    WindowSpec,
    make_synthetic_points,
    parse_workload,
)
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core.evidence import EvidenceTable
from repro.engine import RefreshEngine, SafetyTracker, StreamExecutor
from repro.engine.refresh import Commit, ScanBatch
from repro.engine.safety import layer_counts
from repro.streams.buffer import WindowBuffer
from repro.streams.source import batches_by_boundary
from repro.streams.windows import COUNT, TIME
from repro.testing import ReferenceRefresh

# ------------------------------------------------------------ group commit


def _position(seq, kind):
    # time positions repeat (two points per timestamp): ties at the
    # window start must expire both or neither
    return float(seq) if kind == COUNT else float(seq // 2)


def _entries(draw, pool, n_layers, kind):
    """Distinct seqs from ``pool``, arrival-descending, random layers."""
    seqs = sorted(draw(st.sets(st.sampled_from(pool), max_size=6))
                  if pool else [], reverse=True)
    layers = [draw(st.integers(0, n_layers - 1)) for _ in seqs]
    return [(s, _position(s, kind), m) for s, m in zip(seqs, layers)]


def _draw_plan(draw):
    """A small plan over count or time windows."""
    kind = draw(st.sampled_from([COUNT, TIME]))
    r_values = [10.0, 20.0, 30.0, 40.0][:draw(st.integers(1, 4))]
    queries = [OutlierQuery(r=draw(st.sampled_from(r_values)),
                            k=draw(st.integers(1, 4)),
                            window=WindowSpec(win=100, slide=10, kind=kind))
               for _ in range(draw(st.integers(1, 4)))]
    return kind, parse_workload(QueryGroup(queries))


def _draw_rows(draw, plan, kind, mode="mixed"):
    """One detector's commit input: live rows (seqs with gaps, as shard
    streams have), the table before the commit, the scanned rows in group
    order with their flat scan results.  ``mode`` "idle" scans no row
    (every row fully safe or certified by the screen); "saturated" gives
    every scanned row at least ``k_max`` successors at layer 0, so with
    safe inliers every one of them goes fully safe."""
    n_layers = plan.n_layers
    n = draw(st.integers(1, 20))
    seqs = np.cumsum([draw(st.integers(1, 3)) for _ in range(n)]) + 10
    newest = int(seqs[-1])
    # every row: no state yet / fully safe / certified by the screen this
    # boundary (its old entries must go) / scratch / survivor
    roles = [draw(st.sampled_from(
        {"mixed": ["new", "safe", "certified", "scratch", "survivor"],
         "idle": ["safe", "certified"],
         "saturated": ["new", "scratch"]}[mode])) for _ in range(n)]
    if mode == "saturated":
        # rows with too few successors to go safe are safe already
        roles[max(0, n - plan.k_max):] = ["safe"] * min(n, plan.k_max)
    safe = np.array([r == "safe" for r in roles])
    seen = np.full(n, -1, dtype=np.int64)
    table_rows = []
    for i, (seq, role) in enumerate(zip(seqs.tolist(), roles)):
        if role == "new":
            continue
        seen[i] = draw(st.integers(seq, newest))
        if role != "safe":
            # old evidence: anything up to what the row had seen, expired
            # seqs below the live rows included; never the row itself
            pool = [s for s in range(0, int(seen[i]) + 1) if s != seq]
            table_rows.append((seq, _entries(draw, pool, n_layers, kind)))
    scanned = [i for i, r in enumerate(roles)
               if r in ("new", "scratch", "survivor")]
    order = sorted(scanned) if mode == "saturated" else draw(
        st.permutations(scanned))
    surv = [roles[i] == "survivor" for i in order]
    new = []
    for i in order:
        seq = int(seqs[i])
        if mode == "saturated":
            later = sorted((int(s) for s in seqs if s > seq), reverse=True)
            new.append([(s, _position(s, kind), 0) for s in later[:6]])
            continue
        lo = int(seen[i]) + 1 if roles[i] == "survivor" else 0
        pool = [int(s) for s in seqs if lo <= s and s != seq]
        new.append(_entries(draw, pool, n_layers, kind))
    examined = [draw(st.integers(0, 40)) for _ in order]
    terminated = [draw(st.booleans()) for _ in order]
    return (seqs, safe, seen, table_rows, order, surv, new, examined,
            terminated)


def _draw_window_start(draw, kind, newest):
    positions = [_position(s, kind) for s in range(0, newest + 2)]
    return draw(st.sampled_from(positions))


@st.composite
def _commit_case(draw):
    """One boundary's commit input for one detector, the window start
    and the safe-inlier switch."""
    kind, plan = _draw_plan(draw)
    rows = _draw_rows(draw, plan, kind)
    window_start = _draw_window_start(draw, kind, int(rows[0][-1]))
    return (plan,) + rows + (window_start, draw(st.booleans()))


def _table(plan, seqs, safe, seen, table_rows):
    """The evidence table holding ``table_rows`` (``(row seq, entries)``
    in row order)."""
    layer_dtype = np.min_scalar_type(plan.n_layers)
    table = EvidenceTable(layer_dtype)
    table.safe, table.seen = safe, seen
    table.tracked = int(np.count_nonzero(seen >= 0))
    runs = dict(table_rows)
    table.start = np.cumsum([0] + [len(runs.get(s, ())) for s in
                                   seqs.tolist()]).astype(np.intp)
    flat = [e for _, entries in table_rows for e in entries]
    table.seq = np.array([e[0] for e in flat], dtype=np.int64)
    table.pos = np.array([e[1] for e in flat], dtype=np.float64)
    table.layer = np.array([e[2] for e in flat], dtype=layer_dtype)
    return table


def _scan(plan, new, examined, terminated, counts=False):
    """A hand-built scan batch of ``new`` (one entry list per row), with
    the scan engine's per-row layer counts if ``counts``."""
    layer_dtype = np.min_scalar_type(plan.n_layers)
    entries = [(j, e) for j, es in enumerate(new) for e in es]
    owner = np.array([j for j, _ in entries], dtype=np.int32)
    layer = np.array([e[2] for _, e in entries], dtype=layer_dtype)
    return ScanBatch(
        owner,
        np.array([e[0] for _, e in entries], dtype=np.int64),
        np.array([e[1] for _, e in entries], dtype=np.float64),
        layer,
        np.array(examined, dtype=np.int64),
        np.array(terminated, dtype=bool),
        np.bincount(owner * plan.n_layers + layer,
                    minlength=len(new) * plan.n_layers).reshape(
                        len(new), plan.n_layers).astype(np.int32)
        if counts else None)


def _commit_input(case):
    (plan, seqs, safe, seen, table_rows, order, surv, new, examined,
     terminated, window_start, use_safe_inliers) = case
    det = SimpleNamespace(
        plan=plan, table=_table(plan, seqs, safe, seen, table_rows),
        use_safe_inliers=use_safe_inliers, safety=SafetyTracker(plan),
        buffer=SimpleNamespace(seq_array=lambda: seqs))
    prep = SimpleNamespace(det=det, rows=np.array(order, dtype=np.intp),
                           surv=np.array(surv, dtype=bool))
    return prep, _scan(plan, new, examined, terminated), window_start


def _assert_runs(table, rows_safe):
    """Run offsets span the columns, only rows not fully safe own entries
    and each run is arrival-descending."""
    start = table.start
    assert start[0] == 0 and start[-1] == len(table)
    lens = np.diff(start)
    assert (lens >= 0).all()
    assert not (lens[rows_safe] > 0).any()
    # entries i and i + 1 share a run unless a run starts at i + 1
    cut = np.zeros(len(table) + 1, dtype=bool)
    cut[start] = True
    assert (np.diff(table.seq)[~cut[1:-1]] < 0).all()


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_commit_case())
def test_group_commit_matches_literal_merge(case):
    """One boundary's vectorized commit equals the literal per-row merge
    and safe-for-all test: same examined counts, same fully-safe rows,
    same rebuilt table -- over scratch/survivor mixes, terminated scans,
    expired old entries, new entries dominating old ones (ties at
    ``k_max`` included), certified rows, count and time positions."""
    prep, scan, window_start = _commit_input(case)
    plan = prep.det.plan
    got = RefreshEngine()._commit([prep], scan, window_start)
    want = ReferenceRefresh(plan)._commit([prep], scan, window_start)
    for name, a, b in zip(Commit._fields, got, want):
        assert a.tolist() == b.tolist(), name
    # the rebuilt table: a row's run is its kept entries, seqs descending
    table = prep.det.table
    RefreshEngine._rebuild([table], scan, got)
    is_safe = table.safe.copy()
    is_safe[prep.rows[got.safe]] = True
    _assert_runs(table, is_safe)


# ------------------------------------------- joint commit vs per-detector


class _OwnerTable:
    """``EvidenceTable``'s entry columns before run offsets (verbatim):
    an owner seq per entry, sorted by owner."""

    def __init__(self, table, seqs):
        self.safe, self.seen = table.safe.copy(), table.seen.copy()
        self.owner = np.repeat(seqs, np.diff(table.start)).astype(np.int64)
        self.seq, self.pos = table.seq.copy(), table.pos.copy()
        self.layer = table.layer.copy()
        self.tracked = table.tracked

    def __len__(self) -> int:
        return len(self.owner)

    def touch(self, rows: np.ndarray, newest_seq: int) -> None:
        self.tracked += int(np.count_nonzero(self.seen[rows] < 0))
        self.seen[rows] = newest_seq

    def rebuild(self, owner: np.ndarray, src: np.ndarray, seq: np.ndarray,
                pos: np.ndarray, layer: np.ndarray) -> None:
        self.seq = np.concatenate((seq, self.seq))[src]
        self.pos = np.concatenate((pos, self.pos))[src]
        self.layer = np.concatenate((layer, self.layer))[src]
        self.owner = owner


def _old_commit(det, rows, surv, scan, window_start):
    """``RefreshEngine._commit`` over an owner column (verbatim), one
    detector at a time."""
    plan = det.plan
    table = det.table
    seq_arr = det.buffer.seq_array()
    n_rows = len(rows)
    n_new = len(scan.owner)
    # the old entries a row re-admits: a survivor's unexpired ones,
    # unless its scan terminated (Alg. 1 lines 3-5)
    merge = surv & ~scan.terminated
    slot = np.full(len(seq_arr), -1, dtype=np.int32)
    slot[rows[merge]] = np.flatnonzero(merge)
    o_row = slot[np.searchsorted(seq_arr, table.owner)]
    o_idx = np.flatnonzero((o_row >= 0) & (table.pos >= window_start))
    o_row = o_row[o_idx]
    examined = scan.examined + np.bincount(o_row, minlength=n_rows)
    # Def. 6 condition 2 against the new arrivals alone: an old entry
    # is dominated once k_max new entries sit at or below its layer
    # (the scan engine's own per-row layer counts, when it kept them)
    new_at = (layer_counts(scan.owner, scan.layer, n_rows, plan.n_layers)
              if scan.counts is None
              else np.cumsum(scan.counts, axis=1, dtype=np.int32))
    kept = new_at[o_row, table.layer[o_idx]] < plan.k_max
    o_idx, o_row = o_idx[kept], o_row[kept]

    if det.use_safe_inliers:
        own = seq_arr[rows]
        s_new = scan.seq > own[scan.owner]
        s_old = table.seq[o_idx] > own[o_row]
        safe = det.safety.safe_rows(
            np.concatenate((scan.owner[s_new], o_row[s_old])),
            np.concatenate((scan.layer[s_new],
                            table.layer[o_idx[s_old]])),
            n_rows)
    else:
        safe = np.zeros(n_rows, dtype=bool)

    # fully safe rows drop their evidence; the rest keep their new
    # entries ahead of their kept old ones -- the stable sort by row
    # preserves that and each part's arrival-descending order
    n_idx = np.flatnonzero(~safe[scan.owner])
    o_live = ~safe[o_row]
    o_idx, o_row = o_idx[o_live], o_row[o_live]
    key = rows.astype(np.int32)[np.concatenate((scan.owner[n_idx],
                                                o_row))]
    order = np.argsort(key, kind="stable")
    src = np.concatenate((n_idx, n_new + o_idx))[order]
    return examined, safe, seq_arr[key[order]], src


def _old_finish(det, rows, surv, newest_seq, scan, window_start):
    """``RefreshEngine._finish`` before the joint commit (verbatim)."""
    table = det.table
    stats = det.stats
    examined, safe, owner, src = _old_commit(det, rows, surv, scan,
                                             window_start)
    stats["ksky_runs"] += len(rows)
    stats["points_examined"] += int(examined.sum())
    stats["early_terminations"] += int(np.count_nonzero(scan.terminated))
    stats["fully_safe_marked"] += int(np.count_nonzero(safe))
    table.safe[rows[safe]] = True
    table.touch(rows, newest_seq)
    table.rebuild(owner, src, scan.seq, scan.pos, scan.layer)
    return examined, safe


def _stats():
    return {"ksky_runs": 0, "points_examined": 0, "early_terminations": 0,
            "fully_safe_marked": 0}


@st.composite
def _joint_case(draw):
    """1-5 detectors over one plan and one window start, each in its own
    mode and with its own safe-inlier switch."""
    kind, plan = _draw_plan(draw)
    dets = [_draw_rows(draw, plan, kind, draw(st.sampled_from(
        ["mixed", "mixed", "idle", "saturated"])))
        for _ in range(draw(st.integers(1, 5)))]
    newest = max(int(rows[0][-1]) for rows in dets)
    window_start = _draw_window_start(draw, kind, newest)
    flags = [draw(st.booleans()) for _ in dets]
    return plan, dets, flags, window_start, draw(st.booleans())


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(_joint_case())
def test_joint_commit_equals_per_detector_commits(case):
    """One commit over 1-5 detectors' tables laid end to end gives each
    detector exactly what its own commit over an owner column gave it:
    examined counts, fully-safe rows, rebuilt entry columns and runs,
    row flags, stats and ``memory_units()`` -- over detectors that scan
    nothing, every row going fully safe, terminated survivors, expired
    old entries, screen-certified rows, hand-built batches with and
    without the engine's layer counts, count and time positions."""
    plan, dets, flags, window_start, counts = case
    engine = RefreshEngine()
    safety = SafetyTracker(plan)
    prepared, scans, old = [], [], []
    for (seqs, safe, seen, table_rows, order, surv, new, examined,
         terminated), flag in zip(dets, flags):
        buffer = SimpleNamespace(seq_array=lambda seqs=seqs: seqs)
        table = _table(plan, seqs, safe, seen, table_rows)
        det = SimpleNamespace(plan=plan, table=table, use_safe_inliers=flag,
                              safety=safety, buffer=buffer, stats=_stats())
        twin = SimpleNamespace(plan=plan, table=_OwnerTable(table, seqs),
                               use_safe_inliers=flag, safety=safety,
                               buffer=buffer, stats=_stats())
        rows = np.array(order, dtype=np.intp)
        prepared.append(SimpleNamespace(
            det=det, rows=rows, surv=np.array(surv, dtype=bool),
            newest_seq=int(seqs[-1])))
        scans.append(_scan(plan, new, examined, terminated, counts))
        old.append(_old_finish(twin, rows, prepared[-1].surv,
                               int(seqs[-1]), scans[-1], window_start))
        old[-1] += (twin,)
    first = np.cumsum([0] + [len(p.rows) for p in prepared])
    joint = ScanBatch(
        np.concatenate([s.owner + f for s, f in zip(scans, first)]
                       ).astype(np.int32),
        *(np.concatenate([getattr(s, name) for s in scans])
          for name in ("seq", "pos", "layer", "examined", "terminated")),
        np.concatenate([s.counts for s in scans]) if counts else None)
    commit = engine._commit(prepared, joint, window_start)
    engine._rebuild([prep.det.table for prep in prepared], joint, commit)
    r0 = 0
    for prep in prepared:
        engine._finish(prep, joint, commit, r0)
        r0 += len(prep.rows)
    assert len(commit.start) == 1 + sum(len(p.det.table.seen)
                                        for p in prepared)
    for d, (prep, (examined, safe, twin)) in enumerate(zip(prepared, old)):
        det, table = prep.det, prep.det.table
        assert commit.examined[first[d]:first[d + 1]].tolist() == \
            examined.tolist()
        assert commit.safe[first[d]:first[d + 1]].tolist() == safe.tolist()
        for name in ("safe", "seen", "seq", "pos", "layer"):
            assert getattr(table, name).tolist() == \
                getattr(twin.table, name).tolist(), (d, name)
        seqs = det.buffer.seq_array()
        assert np.repeat(seqs, np.diff(table.start)).tolist() == \
            twin.table.owner.tolist()
        assert table.tracked == twin.table.tracked
        assert det.stats == twin.stats
        assert len(table) == len(twin.table)
        _assert_runs(table, table.safe)


@pytest.mark.parametrize("shards", [1, 4])
def test_one_commit_per_refresh(monkeypatch, shards):
    """A serial runtime commits once per refresh, whatever its shard
    count, and its outputs stay the unsharded detector's."""
    calls = {"refresh": 0, "commit": 0}
    refresh_all, commit = RefreshEngine.refresh_all, RefreshEngine._commit

    def counted(name, method):
        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return method(self, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(RefreshEngine, "refresh_all",
                        counted("refresh", refresh_all))
    monkeypatch.setattr(RefreshEngine, "_commit", counted("commit", commit))
    points = make_synthetic_points(600, dim=2, outlier_rate=0.05, seed=4)
    group = QueryGroup([
        OutlierQuery(r=300, k=3, window=WindowSpec(win=120, slide=40)),
        OutlierQuery(r=700, k=5, window=WindowSpec(win=200, slide=40)),
    ])
    got = Runtime(group, shards=shards).run(points).outputs
    assert calls["commit"] == calls["refresh"] > 0
    assert got == StreamExecutor(SOPDetector(group)).run(points).outputs


def test_commit_of_no_scanned_rows_drops_certified_entries():
    """A boundary whose every row the screen certified scans nothing; the
    one commit still rebuilds every table -- the certified rows' runs go
    and the other tables' runs follow."""
    kind, plan = COUNT, parse_workload(QueryGroup([OutlierQuery(
        r=10.0, k=2, window=WindowSpec(win=100, slide=10))]))
    seqs = np.array([11, 12, 14])
    engine = RefreshEngine()
    prepared = []
    for _ in range(2):
        table = _table(plan, seqs, np.zeros(3, dtype=bool),
                       np.full(3, 14, dtype=np.int64),
                       [(11, [(12, 12.0, 0)]), (14, [(12, 12.0, 0),
                                                     (11, 11.0, 0)])])
        det = SimpleNamespace(plan=plan, table=table, use_safe_inliers=True,
                              safety=SafetyTracker(plan), stats=_stats(),
                              buffer=SimpleNamespace(seq_array=lambda: seqs))
        prepared.append(SimpleNamespace(
            det=det, rows=np.zeros(0, dtype=np.intp),
            surv=np.zeros(0, dtype=bool), newest_seq=14))
    scan = _scan(plan, [], [], [])
    commit = engine._commit(prepared, scan, 0.0)
    assert commit.start.tolist() == [0] * 7
    engine._rebuild([prep.det.table for prep in prepared], scan, commit)
    for prep in prepared:
        engine._finish(prep, scan, commit, 0)
        assert len(prep.det.table) == 0
        assert prep.det.table.start.tolist() == [0, 0, 0, 0]
        assert prep.det.stats == _stats()


# ---------------------------------------------------------- row alignment


def _assert_aligned(det, refreshed=True):
    """The table describes exactly the buffer's live rows."""
    table, buf = det.table, det.buffer
    live = buf.seq_array()
    assert len(table.safe) == len(table.seen) == len(buf)
    assert det.tracked_points() == int(np.count_nonzero(table.seen >= 0))
    assert det.memory_units() == len(table.seq) == len(table.pos) == len(
        table.layer)
    # one run per live row, spanning the columns; only rows not fully
    # safe (and holding state) own entries; each run descending
    assert len(table.start) == len(buf) + 1
    _assert_runs(table, table.safe | (table.seen < 0))
    if refreshed and len(live):
        # an eager refresh gave every live row state, and left every row
        # not fully safe seen up to the newest point
        assert (table.seen >= 0).all()
        assert (table.seen[~table.safe] == live[-1]).all()


def _run_aligned(group, points):
    det, naive = SOPDetector(group), NaiveDetector(group)
    for t, batch in batches_by_boundary(points, group.swift.slide,
                                        group.kind):
        assert det.step(t, batch) == naive.step(t, batch), f"t={t}"
        _assert_aligned(det)
    return det


@pytest.mark.parametrize("kind", [COUNT, TIME])
def test_table_follows_buffer_compaction(monkeypatch, kind):
    """The per-row arrays track live rows through every buffer
    compaction (threshold lowered so a short stream crosses it often)."""
    monkeypatch.setattr(WindowBuffer, "_COMPACT_THRESHOLD", 64)
    compactions = []
    original = WindowBuffer._maybe_compact

    def counting(buf):
        start = buf._start
        original(buf)
        compactions.append(start != buf._start)

    monkeypatch.setattr(WindowBuffer, "_maybe_compact", counting)
    points = make_synthetic_points(1500, dim=2, outlier_rate=0.05, seed=5)
    group = QueryGroup([
        OutlierQuery(r=300, k=3, window=WindowSpec(win=60, slide=20,
                                                   kind=kind)),
        OutlierQuery(r=800, k=5, window=WindowSpec(win=100, slide=20,
                                                   kind=kind)),
    ])
    _run_aligned(group, points)
    assert sum(compactions) >= 5


def test_table_alignment_time_windows_with_ties_and_gaps():
    """Time windows whose timestamps repeat and skip: expiry drops whole
    timestamp groups of rows and their entries together."""
    base = make_synthetic_points(600, dim=2, outlier_rate=0.05, seed=8)
    times = np.cumsum(np.random.default_rng(8).choice(
        [0, 0, 1, 5], size=len(base)))
    points = [p.__class__(seq=p.seq, values=p.values, time=float(t))
              for p, t in zip(base, times)]
    group = QueryGroup([
        OutlierQuery(r=400, k=4, window=WindowSpec(win=40, slide=10,
                                                   kind=TIME)),
        OutlierQuery(r=900, k=2, window=WindowSpec(win=80, slide=20,
                                                   kind=TIME)),
    ])
    _run_aligned(group, points)


def test_table_alignment_across_checkpoint_resume(tmp_path):
    """A restored detector's table is rebuilt from the restored window:
    aligned but stateless before its first boundary, then identical to the
    uninterrupted run's at every boundary after."""
    points = make_synthetic_points(900, dim=2, outlier_rate=0.05, seed=12)
    group = QueryGroup([
        OutlierQuery(r=400, k=4, window=WindowSpec(win=200, slide=50)),
        OutlierQuery(r=900, k=6, window=WindowSpec(win=150, slide=50)),
    ])
    batches = list(batches_by_boundary(points, 50, COUNT))
    straight, det = SOPDetector(group), SOPDetector(group)
    half = len(batches) // 2
    for t, batch in batches[:half]:
        straight.step(t, batch)
        det.step(t, batch)
    path = tmp_path / "table.ckpt"
    save_checkpoint(det, batches[half - 1][0], path)
    restored, _ = load_checkpoint(path)
    _assert_aligned(restored, refreshed=False)
    assert restored.tracked_points() == restored.memory_units() == 0
    for t, batch in batches[half:]:
        assert restored.step(t, batch) == straight.step(t, batch), f"t={t}"
        _assert_aligned(restored)
    assert len(restored.table) == len(straight.table)


def test_state_of_views():
    """``state_of``: None off the window and before the first refresh,
    then a read-only row view."""
    group = QueryGroup([OutlierQuery(r=1.0, k=2,
                                     window=WindowSpec(win=40, slide=20))])
    det = SOPDetector(group)
    points = make_synthetic_points(60, dim=1, seed=2)
    det.warm_start(points[:20])
    assert det.state_of(5) is None  # in the window, no state yet
    det.step(40, points[20:40])
    assert det.state_of(10_000) is None  # never arrived
    st_ = det.state_of(39)
    assert st_.last_seen_seq == 39
    if not st_.fully_safe:
        assert (np.diff(st_.seqs) < 0).all()
        assert len(st_.seqs) == len(st_.poss) == len(st_.layers)
    with pytest.raises(AttributeError):
        st_.fully_safe = True


def _set_entries(table, start, seq, pos, layer):
    """Give ``table`` these run offsets and entry columns, as a commit
    does."""
    table.start = np.array(start, dtype=np.intp)
    table.seq = np.array(seq, dtype=np.int64)
    table.pos = np.array(pos, dtype=np.float64)
    table.layer = np.array(layer, dtype=table.layer.dtype)


def test_table_rows_on_an_empty_and_an_all_expired_table():
    """``append``, ``drop_rows`` and ``state`` on a table without entries
    and on one whose every row (and so every entry) expires."""
    table = EvidenceTable(np.uint8)
    table.drop_rows(0)
    assert len(table) == 0 and table.start.tolist() == [0]
    table.append(3)
    assert table.start.tolist() == [0, 0, 0, 0] and len(table.seen) == 3
    assert table.state(1) is None
    table.touch(np.array([0, 1, 2]), 7)
    empty = table.state(2)
    assert not empty.fully_safe and empty.last_seen_seq == 7
    assert len(empty.seqs) == len(empty.poss) == len(empty.layers) == 0
    table.drop_rows(1)
    assert table.start.tolist() == [0, 0, 0] and table.tracked == 2
    # rows 0 and 1 own two entries and one; then every row expires
    _set_entries(table, [0, 2, 3], [9, 8, 9], [9.0, 8.0, 9.0], [1, 0, 2])
    assert table.state(1).seqs.tolist() == [9]
    table.append(2)
    assert table.start.tolist() == [0, 2, 3, 3, 3]
    assert table.state(3) is None
    table.drop_rows(4)
    assert len(table) == 0 and table.start.tolist() == [0]
    assert len(table.safe) == len(table.seen) == 0 and table.tracked == 0
    table.append(1)
    assert table.start.tolist() == [0, 0]


def test_drop_rows_cuts_at_the_first_live_run():
    """Dropping rows drops exactly their runs and rebases the rest."""
    table = EvidenceTable(np.uint8)
    table.append(4)
    table.touch(np.arange(4), 20)
    _set_entries(table, [0, 1, 1, 3, 4], [5, 7, 6, 9], [5.0, 7.0, 6.0, 9.0],
                 [0, 1, 2, 3])
    table.drop_rows(2)
    assert table.start.tolist() == [0, 2, 3]
    assert table.seq.tolist() == [7, 6, 9]
    assert table.state(0).seqs.tolist() == [7, 6]
    assert table.state(1).layers.tolist() == [3]
