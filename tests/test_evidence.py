"""The columnar evidence table: the group commit and row alignment.

* the vectorized group commit (``RefreshEngine._commit``) against the
  literal per-row least-examination merge + safe-for-all test of
  ``repro.testing.reference`` on hypothesis-drawn groups;
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
    SOPDetector,
    WindowSpec,
    make_synthetic_points,
    parse_workload,
)
from repro.checkpoint import load_checkpoint, save_checkpoint
from repro.core.evidence import EvidenceTable
from repro.engine import RefreshEngine, SafetyTracker
from repro.engine.refresh import ScanBatch
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


@st.composite
def _commit_case(draw):
    """One boundary's commit input: live rows (seqs with gaps, as shard
    streams have), the table before the commit, the scanned rows in group
    order with their flat scan results, and the window start."""
    kind = draw(st.sampled_from([COUNT, TIME]))
    r_values = [10.0, 20.0, 30.0, 40.0][:draw(st.integers(1, 4))]
    queries = [OutlierQuery(r=draw(st.sampled_from(r_values)),
                            k=draw(st.integers(1, 4)),
                            window=WindowSpec(win=100, slide=10, kind=kind))
               for _ in range(draw(st.integers(1, 4)))]
    plan = parse_workload(QueryGroup(queries))
    n_layers = plan.n_layers
    n = draw(st.integers(1, 20))
    seqs = np.cumsum([draw(st.integers(1, 3)) for _ in range(n)]) + 10
    newest = int(seqs[-1])
    # every row: no state yet / fully safe / certified by the screen this
    # boundary (its old entries must go) / scratch / survivor
    roles = [draw(st.sampled_from(
        ["new", "safe", "certified", "scratch", "survivor"]))
        for _ in range(n)]
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
    order = draw(st.permutations(scanned))
    surv = [roles[i] == "survivor" for i in order]
    new = []
    for i in order:
        seq = int(seqs[i])
        lo = int(seen[i]) + 1 if roles[i] == "survivor" else 0
        pool = [int(s) for s in seqs if lo <= s and s != seq]
        new.append(_entries(draw, pool, n_layers, kind))
    examined = [draw(st.integers(0, 40)) for _ in order]
    terminated = [draw(st.booleans()) for _ in order]
    positions = [_position(s, kind) for s in range(0, newest + 2)]
    window_start = draw(st.sampled_from(positions))
    use_safe_inliers = draw(st.booleans())
    return (plan, seqs, safe, seen, table_rows, order, surv, new, examined,
            terminated, window_start, use_safe_inliers)


def _commit_input(case):
    (plan, seqs, safe, seen, table_rows, order, surv, new, examined,
     terminated, window_start, use_safe_inliers) = case
    layer_dtype = np.min_scalar_type(plan.n_layers)
    table = EvidenceTable(layer_dtype)
    table.safe, table.seen = safe, seen
    flat = [(owner, e) for owner, entries in table_rows for e in entries]
    table.owner = np.array([o for o, _ in flat], dtype=np.int64)
    table.seq = np.array([e[0] for _, e in flat], dtype=np.int64)
    table.pos = np.array([e[1] for _, e in flat], dtype=np.float64)
    table.layer = np.array([e[2] for _, e in flat], dtype=layer_dtype)
    det = SimpleNamespace(
        plan=plan, table=table, use_safe_inliers=use_safe_inliers,
        safety=SafetyTracker(plan),
        buffer=SimpleNamespace(seq_array=lambda: seqs))
    entries = [(j, e) for j, es in enumerate(new) for e in es]
    scan = ScanBatch(
        np.array([j for j, _ in entries], dtype=np.int32),
        np.array([e[0] for _, e in entries], dtype=np.int64),
        np.array([e[1] for _, e in entries], dtype=np.float64),
        np.array([e[2] for _, e in entries], dtype=layer_dtype),
        np.array(examined, dtype=np.int64),
        np.array(terminated, dtype=bool))
    return (det, np.array(order, dtype=np.intp), np.array(surv, dtype=bool),
            scan, window_start)


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
    det, rows, surv, scan, window_start = _commit_input(case)
    plan = det.plan
    got = RefreshEngine()._commit(det, rows, surv, scan, window_start)
    want = ReferenceRefresh(plan)._commit(det, rows, surv, scan,
                                          window_start)
    for name, a, b in zip(("examined", "safe", "owner", "src"), got, want):
        assert a.tolist() == b.tolist(), name
    # the rebuilt columns: owner-sorted, each owner's seqs descending
    owner, src = got[2], got[3]
    seq = np.concatenate((scan.seq, det.table.seq))[src]
    assert (np.diff(owner) >= 0).all()
    for o in np.unique(owner):
        assert (np.diff(seq[owner == o]) < 0).all()


# ---------------------------------------------------------- row alignment


def _assert_aligned(det, refreshed=True):
    """The table describes exactly the buffer's live rows."""
    table, buf = det.table, det.buffer
    live = buf.seq_array()
    assert len(table.safe) == len(table.seen) == len(buf)
    assert det.tracked_points() == int(np.count_nonzero(table.seen >= 0))
    assert det.memory_units() == len(table.owner)
    # owners: sorted, live, not fully safe; each owner's run descending
    assert (np.diff(table.owner) >= 0).all()
    at = np.searchsorted(live, table.owner)
    assert (at < len(live)).all() and (live[at] == table.owner).all()
    assert not table.safe[at].any()
    runs = np.flatnonzero(np.diff(table.owner) == 0)
    assert (table.seq[runs] > table.seq[runs + 1]).all()
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
